"""Acceptance suite: the numbered end-to-end guarantees this package makes,
each with its stated time budget. Every test prints one PASS line; a failure
anywhere here means an advertised behavior broke, not a unit regression.

Reference vertex lists are embedded literally so these tests do not depend
on the packaged golden files.
"""

import random
import time
from itertools import product

from phylotope.cyclotomic import CycRational, CyclotomicInt
from phylotope.fourier import (_fixed_space_dimension, appendix_demo,
                               monomial_socket_vector, params_to_matrices,
                               raw_leaf_tensor, socket_coordinates,
                               what_dimension)
from phylotope.groups import abelian_model, preset_model
from phylotope.lattice import (decompose, facet_description, fiber_product,
                               glued_polytope, idp_check,
                               lattice_points_in_dilate, spanned_lattice)
from phylotope.polytope import (build_polytope, enumerate_sockets,
                                project_orbits)
from phylotope.trees import parse_newick

CLAW = parse_newick("(A,B,C);")
QUARTET = parse_newick("((a,b),(c,d));")
CATERPILLAR5 = parse_newick("((a,b),c,(d,e));")

# 16 vertices of the three-parameter claw polytope, blocks of 4 per edge,
# characters of Z2xZ2 ordered (0,0),(1,0),(0,1),(1,1)
THREE_PARAM_CLAW_VERTICES = {
    (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0),
    (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    (0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0),
}

# the 10 distinct images after summing coordinates over dual orbits
TWO_PARAM_CLAW_VERTICES = {
    (1, 0, 0, 1, 0, 0, 1, 0, 0),
    (1, 0, 0, 0, 1, 0, 0, 1, 0),
    (0, 1, 0, 1, 0, 0, 0, 1, 0),
    (0, 1, 0, 0, 1, 0, 1, 0, 0),
    (1, 0, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 1, 1, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 1, 1, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 1, 0, 1, 0, 0, 1, 0),
}


def _report(num, text, elapsed, bound=None):
    budget = f" < {bound:g}s" if bound is not None else ""
    print(f"PASS {num:02d} {text} ({elapsed:.2f}s{budget})")


def test_01_three_parameter_claw_vertex_list():
    t0 = time.monotonic()
    poly = build_polytope(CLAW, abelian_model([2, 2]))
    assert set(poly.vertices) == THREE_PARAM_CLAW_VERTICES
    assert poly.dim_ambient == 12
    # the DNA-state preset carries the same abelian skeleton
    assert set(build_polytope(CLAW, preset_model("K3P")).vertices) \
        == THREE_PARAM_CLAW_VERTICES
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "three-parameter claw vertex list", elapsed, 1)


def test_02_orbit_projection_vertex_list():
    t0 = time.monotonic()
    k2p = preset_model("K2P")
    poly = build_polytope(CLAW, k2p)
    proj = project_orbits(poly, k2p)
    assert set(proj.vertices) == TWO_PARAM_CLAW_VERTICES
    assert proj.flavor == "projected"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, "orbit projection vertex list", elapsed, 1)


def test_03_claw_normality():
    t0 = time.monotonic()
    for orders in ([2], [2, 2], [3], [4]):
        poly = build_polytope(CLAW, abelian_model(orders))
        rank = spanned_lattice(poly.vertices).rank
        report = idp_check(poly)
        assert report.normal, orders
        assert report.degrees_checked == tuple(range(2, max(3, rank)))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, "claw polytopes are normal", elapsed, 60)


def test_04_projected_claw_witness():
    t0 = time.monotonic()
    k2p = preset_model("K2P")
    poly = project_orbits(build_polytope(CLAW, k2p), k2p)
    report = idp_check(poly)
    assert not report.normal
    assert report.witness_degree == 2
    lat = spanned_lattice(poly.vertices)
    hrep = facet_description(poly.vertices)
    known = (1, 0, 1, 1, 0, 1, 1, 0, 1)
    for point in (report.witness, known):
        assert lat.contains(point, scale=2)
        assert hrep.contains(point, scale=2)
        assert point in lattice_points_in_dilate(poly.vertices, 2)
        assert decompose(point, 2, poly.vertices).found is None
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(4, "projected claw witness certified", elapsed, 10)


def test_05_invariant_space_dimensions():
    t0 = time.monotonic()
    want = {"CFN": 2, "JC": 2, "K2P": 3, "K3P": 4}
    for name, d in want.items():
        model = preset_model(name)
        assert what_dimension(model) == d, name
        assert _fixed_space_dimension(model) == d, name
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(5, "invariant space dimensions", elapsed, 1)


def test_06_tensor_oracle_matches_monomials():
    t0 = time.monotonic()
    draws = 20
    for orders, tree in product(([2], [3]), (CLAW, QUARTET)):
        model = abelian_model(orders)
        group = model.group
        rng = random.Random(draws)
        scalar = None
        for _ in range(draws):
            params = [[rng.randint(-3, 3) for _ in range(group.size)]
                      for _ in tree.edges]
            mats = params_to_matrices(model, params)
            coords = socket_coordinates(
                model, raw_leaf_tensor(model, tree, mats))
            mono = monomial_socket_vector(model, tree, params)
            assert set(coords) == set(mono)
            for socket in sorted(mono):
                if scalar is None and mono[socket] != 0:
                    scalar = coords[socket] / mono[socket]
                if scalar is not None:
                    assert coords[socket] == scalar * mono[socket]
        assert scalar == CycRational.from_int(
            group.exponent, group.size ** len(tree.inner))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(6, "tensor oracle matches monomial map", elapsed, 30)


def test_07_gluing_consistency():
    t0 = time.monotonic()
    for orders, count in (([2], 8), ([2, 2], 64)):
        model = abelian_model(orders)
        res, poly = glued_polytope(model, CLAW, "C", CLAW, "A")
        direct = build_polytope(res.tree, model)
        assert poly.vertices == direct.vertices
        assert len(poly.vertices) == count
        # exponent-two groups need no orientation fix, so the raw fiber
        # product must agree as well
        p = build_polytope(CLAW, model)
        raw = fiber_product(p, res.glued1, p, res.glued2)
        assert raw.vertices == direct.vertices
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(7, "gluing consistency", elapsed, 5)


def test_08_fiber_products_of_normal_factors_are_normal():
    t0 = time.monotonic()
    checked = []
    for orders in ([2], [3]):
        model = abelian_model(orders)
        factor = build_polytope(CLAW, model)
        assert idp_check(factor).normal
        prod = fiber_product(factor, 2, factor, 0)
        report = idp_check(prod)
        assert report.normal, orders
        rank = spanned_lattice(prod.vertices).rank
        assert report.degrees_checked == tuple(range(2, max(3, rank)))
        checked.append((orders, len(prod.vertices)))
    assert checked == [([2], 8), ([3], 27)]
    elapsed = time.monotonic() - t0
    _report(8, "fiber products of normal factors are normal", elapsed)


def test_09_circulant_demo_reproduction():
    t0 = time.monotonic()
    i = CyclotomicInt.zeta(4)
    one = CyclotomicInt.one(4)
    two = CyclotomicInt.from_int(4, 2)
    # rows are (a, b, d) coefficients of a + 2b + d, a + (i-1)b - id,
    # a - d, a - (i+1)b + id
    want = (
        (one, two, one),
        (one, i - one, -i),
        (one, CyclotomicInt.zero(4), -one),
        (one, -(one + i), i),
    )
    rep = appendix_demo()
    assert rep.matrix == want
    assert rep.relation_ok
    assert rep.image_rank == 3
    assert rep.all_pairs_separated
    assert sorted(jk for jk, _ in rep.separators) \
        == [(j, k) for j in range(4) for k in range(j + 1, 4)]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(9, "circulant demo reproduction", elapsed, 1)


def test_10_counting_laws():
    t0 = time.monotonic()
    trees = (CLAW, QUARTET, CATERPILLAR5)
    for orders, tree in product(([2], [3], [4], [2, 2]), trees):
        model = abelian_model(orders)
        size = model.group.size
        poly = build_polytope(tree, model)
        n_edges = len(tree.edges)
        n_inner = len(tree.inner)
        n_leaves = len(tree.leaves)
        assert len(poly.vertices) == size ** (n_edges - n_inner)
        sockets = enumerate_sockets(tree, model.group)
        assert len(sockets) == size ** (n_leaves - 1)
    elapsed = time.monotonic() - t0
    _report(10, "vertex and socket counting laws", elapsed)
