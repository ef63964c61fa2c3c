import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coordinates_reference, decompose_reference, scan_case
from phylotope import lattice
from phylotope.errors import (BlockWidthMismatchError,
                              ProjectionNotInSimplexError,
                              ScaleExceededError)
from phylotope.groups import abelian_model, preset_model
from phylotope.lattice import (AffineLattice, LatticePolytope, _dilate_array,
                               _key_weights, _star, decompose,
                               facet_description,
                               fiber_product, glued_polytope,
                               hermite_normal_form, idp_check,
                               lattice_points_in_dilate, spanned_lattice)
from phylotope.polytope import (ModelPolytope, build_polytope,
                                project_orbits)
from phylotope.trees import glue, parse_newick

CLAW = parse_newick("(a,b,c);")
QUARTET = parse_newick("((a,b),(c,d));")


def test_hermite_normal_form_examples():
    assert hermite_normal_form([(2, 4), (6, 8)]) == [(2, 0), (0, 4)]
    assert hermite_normal_form([(0, 0), (0, 0)]) == []
    assert hermite_normal_form([(-3,)]) == [(3,)]
    # pivots positive, entries above reduced
    h = hermite_normal_form([(1, 7), (0, 3)])
    assert h == [(1, 1), (0, 3)]


def test_lattice_membership_and_coordinates():
    lat = AffineLattice(anchor=(1, 0), basis=((2, 0), (0, 3)))
    assert lat.rank == 2
    assert lat.contains((3, 3))
    assert not lat.contains((2, 3))
    assert lat.coordinates((5, 6)) == (2, 2)
    assert lat.coordinates((5, 5)) is None
    # dilate membership: point of 2P relative to doubled anchor
    assert lat.contains((4, 3), scale=2)
    assert not lat.contains((3, 3), scale=2)


def test_spanned_lattice_anchor_is_min_point():
    pts = [(0, 2), (2, 0), (4, 4)]
    lat = spanned_lattice(pts)
    assert lat.anchor == (0, 2)
    for p in pts:
        assert lat.contains(p)
        assert lat.coordinates(p) is not None


def test_facets_of_a_square():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    hrep = facet_description(pts)
    assert hrep.equalities == ()
    assert len(hrep.inequalities) == 4
    assert all(hrep.contains(p) for p in pts)
    assert not hrep.contains((2, 0))
    assert hrep.contains((2, 0), scale=2)
    assert not hrep.contains((3, 0), scale=2)


def test_facets_of_an_embedded_segment():
    pts = [(0, 0, 1), (2, 2, 1)]
    hrep = facet_description(pts)
    assert len(hrep.equalities) == 2
    assert len(hrep.inequalities) == 2
    assert hrep.contains((1, 1, 1))
    assert not hrep.contains((1, 0, 1))
    assert not hrep.contains((3, 3, 1))


def test_facet_description_takes_points_and_polytopes():
    poly = project_orbits(build_polytope(CLAW, preset_model("K2P")),
                          preset_model("K2P"))
    lat_poly = LatticePolytope(poly.vertices)
    hrep = facet_description(list(reversed(poly.vertices)))
    assert facet_description(poly) == hrep
    assert facet_description(lat_poly) == hrep
    assert lat_poly.hrep == hrep
    # the hull of a segment whose lattice has index 2 in its line
    seg = facet_description(LatticePolytope([(2, 2, 1), (0, 0, 1)]))
    assert seg.equalities == (((-1, 1, 0), 0), ((0, 0, 1), 1))
    assert seg.inequalities == (((1, 0, 0), 2), ((-1, 0, 0), 0))


def test_point_cap_is_checked_before_the_lattice(monkeypatch):
    def no_lattice(points):
        raise AssertionError("lattice computed before the point cap")

    monkeypatch.setattr(lattice, "spanned_lattice", no_lattice)
    monkeypatch.setattr(lattice, "_POINT_CAP", 3)
    with pytest.raises(ScaleExceededError, match="4 points exceed cap 3"):
        facet_description([(0, 0), (0, 1), (1, 0), (1, 1)])


def test_row_cap_raises(monkeypatch):
    z3 = abelian_model([3])
    poly = build_polytope(CLAW, z3)
    monkeypatch.setattr(lattice, "_ROW_CAP", 10)
    with pytest.raises(ScaleExceededError):
        lattice_points_in_dilate(poly.vertices, 3)


def test_claw_tally_codes_at_the_int64_edge():
    # The K3P 3-claw keyed by all three blocks: 9 digits of radix n + 1.
    # The bound on y @ g first passes 2**63 at degree 127, so degree 126
    # still codes, exactly, and 127 raises.
    poly = LatticePolytope(build_polytope(_star(3),
                                          preset_model("K3P")).vertices)
    n = 126
    rows = n * poly.lattice_points   # the points n*v, v a vertex
    g, offset = _key_weights(poly, 3, 4, n)
    keys, counts = np.unique(rows @ g + offset, return_counts=True)
    want = sorted(sum(n * v[4 * i + t] * (n + 1) ** (3 * (2 - i) + 2 - t)
                      for i in range(3) for t in range(3))
                  for v in poly.points)
    assert keys.tolist() == want
    assert counts.tolist() == [1] * 16
    with pytest.raises(ScaleExceededError, match="degree 127"):
        _key_weights(poly, 3, 4, 127)


# Point sets in dimension 1 to 4, each with some points to solve: sums
# and differences of the generators, which lie in their lattice, and
# arbitrary points, most of which do not. Every entry is scaled by one
# factor, some past 2**62.
@st.composite
def lattice_queries(draw):
    d = draw(st.integers(1, 4))
    entries = st.integers(-5, 5)
    gens = draw(st.lists(st.tuples(*[entries] * d), min_size=1, max_size=5))
    pick = st.sampled_from(gens)
    queries = draw(st.lists(st.one_of(
        st.builds(lambda a, b, c: tuple(x + y - z for x, y, z in zip(a, b, c)),
                  pick, pick, pick),
        st.tuples(*[entries] * d)), max_size=8))
    scale = draw(st.sampled_from([1, 3, 2 ** 61 + 1, 2 ** 62, 2 ** 70]))
    return ([tuple(scale * x for x in p) for p in gens],
            [tuple(scale * x for x in p) for p in gens + queries])


@settings(max_examples=150, deadline=None)
@given(lattice_queries())
def test_coordinate_rows_match_coordinates(case):
    gens, points = case
    lat = spanned_lattice(gens)
    ys, inside = lat.coordinate_rows(points)
    assert ys.shape == (len(points), lat.rank)
    for p, y, hit in zip(points, ys.tolist(), inside.tolist()):
        want = coordinates_reference(lat, p)
        assert hit == (want is not None)
        if hit:
            assert tuple(y) == want
        assert lat.coordinates(p) == want
        shifted = tuple(x + 2 * a for x, a in zip(p, lat.anchor))
        assert lat.coordinates(shifted, scale=3) == want


def test_coordinate_rows_reject_points_of_the_wrong_length():
    lat = spanned_lattice([(0, 0), (1, 2)])
    with pytest.raises(ValueError, match="point of length 3"):
        lat.coordinate_rows([(0, 0), (1, 2, 3)])


def test_small_points_solve_against_a_pivot_past_int64():
    # an int64 column divided by a pivot past int64 raised OverflowError,
    # and so did a basis row past int64 when every quotient was 0
    lat = spanned_lattice([(0, 0), (1, 0), (0, 2 ** 70)])
    ys, inside = lat.coordinate_rows([(3, 0), (0, 5)])
    assert ys[0].tolist() == [3, 0] and inside.tolist() == [True, False]
    assert spanned_lattice([(0,), (2 ** 70,)]).coordinates((0,)) == (0,)


def test_ambient_rows_beyond_int64_are_exact():
    # 2 * 2**62 does not fit in int64, where it would wrap to -2**63
    assert lattice_points_in_dilate([(2 ** 62, 0), (2 ** 62, 1)], 2) \
        == [(2 ** 63, 0), (2 ** 63, 1), (2 ** 63, 2)]


def test_scan_bound_guard_raises():
    # conv{(0,0), (0,1), (1,a)} has magnitude 2a, so its scan at degree 2
    # needs n*magnitude = 4a below 2**62
    a = 2 ** 60
    verts = [(0, 0), (0, 1), (1, a)]
    with pytest.raises(ScaleExceededError, match="int64 scan bound"):
        lattice_points_in_dilate(verts, 2)
    assert len(lattice_points_in_dilate(verts, 1)) == 3
    below = [(0, 0), (0, 1), (1, a - 1)]
    assert lattice_points_in_dilate(below, 2)[-1] == (2, 2 * a - 2)
    assert idp_check(below).points_per_degree == ((1, 3), (2, 6))


def test_negative_dilate_raises():
    triangle = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError, match="nonnegative"):
        lattice_points_in_dilate(triangle, -1)
    assert lattice_points_in_dilate(triangle, 0) == [(0, 0)]
    assert lattice_points_in_dilate([(2, 3), (3, 5)], 0) == [(0, 0)]
    # the scan type must hold the coefficients, which n = 0 does not scale:
    # this triangle's facet 40000*y0 - y1 <= 0 needs more than int16
    assert lattice_points_in_dilate([(0, 0), (0, 1), (1, 40000)], 0) == [
        (0, 0)]
    # one that needs int64, and one past the int64 scan bound, which
    # degree 1 refuses too
    assert lattice_points_in_dilate([(0, 0), (0, 1), (1, 2 ** 40)], 0) == [
        (0, 0)]
    with pytest.raises(ScaleExceededError, match="degree 0 .*int64 scan"):
        lattice_points_in_dilate([(0, 0), (0, 1), (1, 2 ** 61)], 0)


def test_code_width_guard_raises():
    # a unimodular simplex, long in three lattice coordinates: few lattice
    # points, but the degree-2 codes need prod(2*span_j + 1) >= 2**63 values
    a, blocks = 2 ** 20, 3
    verts = [(0,) * (2 * blocks)]
    for i in range(blocks):
        for v in ((0, 1), (1, a)):
            row = [0] * (2 * blocks)
            row[2 * i:2 * i + 2] = v
            verts.append(tuple(row))
    assert ((2 * a + 1) * 3) ** blocks >= 2 ** 63
    assert len(lattice_points_in_dilate(verts, 2)) == 28
    with pytest.raises(ScaleExceededError, match=r"degree 2 .*2\*\*63"):
        idp_check(verts)


def _times_thin_simplex(points, a=4096):
    """points x the unimodular simplex of test_code_width_guard_raises:
    conv of the origin and (0, 1), (1, a) in each of three coordinate
    pairs. Its spans a in three lattice coordinates widen the codes."""
    simplex = [(0,) * 6]
    for i in range(3):
        for v in ((0, 1), (1, a)):
            row = [0] * 6
            row[2 * i:2 * i + 2] = v
            simplex.append(tuple(row))
    return [tuple(p) + q for p in points for q in simplex]


def test_codes_of_the_highest_fitting_degree_serve_lower_ones():
    # rank 12: the codes fit in int64 through degree 4, not at 5; the
    # default ceiling is 11, and the witness appears at degree 2
    k2p = preset_model("K2P")
    claw = project_orbits(build_polytope(CLAW, k2p), k2p)
    report = idp_check(_times_thin_simplex(claw.vertices))
    assert report.verdict == "NotNormal"
    assert report.points_per_degree == ((1, 70), (2, 1568))
    assert (report.witness_degree, report.witness) == (
        2, (1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0))


def _cfn_claw_times_thin_simplex():
    """Rank 9: the codes fit in int64 through degree 7, not at 8, the
    default ceiling."""
    return _times_thin_simplex(build_polytope(CLAW,
                                              abelian_model([2])).vertices)


def test_code_width_guard_raises_at_the_first_degree_past_it():
    with pytest.raises(ScaleExceededError, match=r"degree 8 .*2\*\*63"):
        idp_check(_cfn_claw_times_thin_simplex())


def test_degrees_below_the_code_width_guard_are_checked():
    report = idp_check(_cfn_claw_times_thin_simplex(), max_degree=7)
    assert report.normal
    assert report.points_per_degree == (
        (1, 28), (2, 280), (3, 1680), (4, 7350), (5, 25872), (6, 77616),
        (7, 205920))


def test_idp_check_holds_codes_not_rows():
    # The Z3 claw fiber product through degree 6 (295,426 points there).
    # Holding the row arrays of two whole degrees took about 95 MiB of
    # traced allocations; small blocks and one code per point take under 8.
    factor = build_polytope(CLAW, abelian_model([3]))
    prod = fiber_product(factor, 2, factor, 0)
    tracemalloc.start()
    try:
        report = idp_check(prod, max_degree=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.normal
    assert report.points_per_degree[-1] == (6, 295426)
    assert peak < 16 * 2 ** 20


def test_claw_polytopes_are_normal():
    for orders in ([2], [3], [2, 2]):
        poly = build_polytope(CLAW, abelian_model(orders))
        report = idp_check(poly)
        assert report.normal
        assert report.witness is None
        rank = spanned_lattice(poly.vertices).rank
        assert report.degrees_checked == tuple(range(2, max(3, rank)))


def test_projected_claw_is_not_normal_with_certificate():
    k2p = preset_model("K2P")
    poly = project_orbits(build_polytope(CLAW, k2p), k2p)
    report = idp_check(poly)
    assert not report.normal
    assert report.verdict == "NotNormal"
    assert report.witness_degree == 2
    w = report.witness
    lat = spanned_lattice(poly.vertices)
    hrep = facet_description(poly.vertices)
    assert lat.contains(w, scale=2)
    assert hrep.contains(w, scale=2)
    assert decompose(w, 2, poly.vertices).found is None
    text = report.to_text()
    assert "verdict: NotNormal" in text
    assert "witness degree: 2" in text


def test_decompose_rejects_a_negative_degree():
    triangle = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError, match="nonnegative"):
        decompose((0, 0), -1, triangle)
    assert decompose((0, 0), 0, triangle).found == ()
    assert decompose((1, 0), 0, triangle).found is None


def test_decompose_finds_a_certificate():
    z2 = abelian_model([2])
    poly = build_polytope(CLAW, z2)
    target = tuple(a + b for a, b in zip(poly.vertices[0],
                                         poly.vertices[2]))
    res = decompose(target, 2, poly.vertices)
    assert res.found is not None
    assert len(res.found) == 2
    assert tuple(sum(c) for c in zip(*res.found)) == target


def test_decompose_solves_the_lattice_once(monkeypatch):
    # every remainder of q stays in the lattice of its dilate, so only the
    # root is solved; a solve at every node took 3 here
    poly = LatticePolytope(build_polytope(CLAW, abelian_model([3])).vertices)
    pts = poly.points
    q = tuple(map(sum, zip(pts[8], pts[4], pts[6])))
    solves = []
    solve = AffineLattice.coordinates

    def spy(lat, point, scale=1):
        solves.append(scale)
        return solve(lat, point, scale)

    monkeypatch.setattr(AffineLattice, "coordinates", spy)
    found = decompose(q, 3, poly).found
    assert solves == [3]
    assert found == (pts[4], pts[6], pts[8])
    assert tuple(map(sum, zip(*found))) == q


@st.composite
def decompositions(draw):
    """(points, n, q): up to 8 points in dimension 1 to 3, and q a sum of
    n <= 4 of them moved by a step in -1..1 per coordinate, so that q lies
    in nP, or in its lattice, or in neither. From n = 4 on, two multisets
    of three points with the same sum and the same last point reach one
    remainder, which the search's memo of dead nodes then skips."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * d), min_size=1,
                        max_size=8, unique=True))
    n = draw(st.integers(0, 4))
    picks = draw(st.lists(st.sampled_from(pts), min_size=n, max_size=n))
    step = draw(st.tuples(*[st.integers(-1, 1)] * d))
    return pts, n, tuple(sum(p[i] for p in picks) + step[i]
                         for i in range(d))


@settings(max_examples=150, deadline=None)
@given(decompositions())
def test_decompose_matches_the_node_by_node_search(case):
    """The slack-table search finds what the search that tests each node
    against the halfspaces finds, and examines as many nodes."""
    pts, n, q = case
    res = decompose(q, n, pts)
    assert (res.found, res.examined) == decompose_reference(q, n, pts)


def test_decompose_examines_the_k2p_witness_as_before():
    poly = scan_case("k2p-5leaf-projected")
    witness = idp_check(poly).witness
    res = decompose(witness, 2, poly)
    assert res.found is None
    assert res.examined == decompose_reference(witness, 2, poly)[1] == 117


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=12,
    unique=True)), st.booleans())
def test_lattice_points_of_a_zero_one_polytope_are_its_points(pts, stretch):
    """The lattice points of a 0/1 point set are its points, with no scan
    levels built; with one coordinate doubled, as the degree-1 scan finds
    them, which may hold more."""
    if stretch:
        pts = [p[:-1] + (2 * p[-1],) for p in pts]
    poly = LatticePolytope(pts)
    got = poly.lattice_points
    assert got.dtype == np.int64
    assert np.array_equal(got, _dilate_array(LatticePolytope(pts), 1))
    assert ("levels" in vars(poly)) == (stretch and any(p[-1] for p in pts))


@pytest.mark.parametrize("max_degree", [1, 0, -5])
def test_idp_check_rejects_degree_ceiling_below_two(max_degree):
    k2p = preset_model("K2P")
    poly = project_orbits(build_polytope(CLAW, k2p), k2p)
    with pytest.raises(ValueError, match="at least 2"):
        idp_check(poly, max_degree=max_degree)


def test_idp_report_text_normal():
    z2 = abelian_model([2])
    poly = build_polytope(CLAW, z2)
    text = idp_check(poly).to_text()
    assert "verdict: Normal" in text
    assert "witness" not in text


def test_fiber_product_width_mismatch():
    z2 = abelian_model([2])
    z3 = abelian_model([3])
    p2 = build_polytope(CLAW, z2)
    p3 = build_polytope(CLAW, z3)
    with pytest.raises(BlockWidthMismatchError):
        fiber_product(p2, 0, p3, 0)


def test_fiber_product_needs_simplex_projection():
    bad = ModelPolytope(vertices=((2, 0, 1, 0),), n_blocks=2,
                        block_width=2, flavor="abelian")
    with pytest.raises(ProjectionNotInSimplexError):
        fiber_product(bad, 0, bad, 0)
    # mixing flavors is a block mismatch even at equal width
    k2p = preset_model("K2P")
    proj = project_orbits(build_polytope(CLAW, k2p), k2p)
    z3 = abelian_model([3])
    cube = build_polytope(CLAW, z3)
    with pytest.raises(BlockWidthMismatchError):
        fiber_product(proj, 0, cube, 0)


# Gluing centre-rooted claws redirects only the merged edge. The other
# cases redirect more: (a,(b,c)); glued at its degree-1 root a is re-rooted
# at a's neighbour, and ((x,y),(z,w)); glued at w is re-rooted at w, which
# reverses the edges on w's path to the old root.
@pytest.mark.parametrize("orders, t1, leaf1, t2, leaf2", [
    pytest.param([2], "(a,b,c);", "c", "(a,b,c);", "a", id="orders0"),
    pytest.param([3], "(a,b,c);", "c", "(a,b,c);", "a", id="orders1"),
    pytest.param([2, 2], "(a,b,c);", "c", "(a,b,c);", "a", id="orders2"),
    pytest.param([3], "(a,(b,c));", "a", "((x,y),(z,w));", "w",
                 id="Z3-root-leaf-to-w"),
    pytest.param([4], "(a,(b,c));", "a", "((x,y),(z,w));", "w",
                 id="Z4-root-leaf-to-w"),
    pytest.param([3], "((x,y),(z,w));", "w", "(a,(b,c));", "a",
                 id="Z3-w-to-root-leaf"),
    pytest.param([4], "((x,y),(z,w));", "w", "(a,(b,c));", "a",
                 id="Z4-w-to-root-leaf"),
])
def test_glued_polytope_matches_direct_build(orders, t1, leaf1, t2, leaf2):
    model = abelian_model(orders)
    t1, t2 = parse_newick(t1), parse_newick(t2)
    res, poly = glued_polytope(model, t1, leaf1, t2, leaf2)
    glued = glue(t1, leaf1, t2, leaf2).tree
    direct = build_polytope(glued, model)
    assert poly.vertices == direct.vertices
    assert poly.n_blocks == direct.n_blocks
    assert poly.n_blocks == len(res.tree.edges)


def test_fiber_product_of_quartet_factors():
    z2 = abelian_model([2])
    p = build_polytope(CLAW, z2)
    q = fiber_product(p, 2, p, 0)
    assert q.n_blocks == 5
    assert len(q.vertices) == 8
    assert idp_check(q).normal


def test_points_of_different_lengths_raise():
    # zip would cut the longer points to the shorter ones: q = (1, 1, 9)
    # was found as (0, 1) + (1, 0), and q = (1,) raised IndexError
    triangle = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError, match=r"length 3 against points of "
                                         r"length 2"):
        decompose((1, 1, 9), 2, triangle)
    with pytest.raises(ValueError, match=r"length 1 against points of "
                                         r"length 2"):
        decompose((1,), 1, triangle)
    with pytest.raises(ValueError, match=r"different lengths \[2, 3\]"):
        LatticePolytope(triangle + [(1, 1, 0)])
    with pytest.raises(ValueError, match="different lengths"):
        facet_description([(0,), (1, 0)])
    assert decompose((1, 1), 2, triangle).found == ((0, 1), (1, 0))


def test_membership_rejects_points_of_the_wrong_length():
    # zip cut a longer point to the anchor's length: (1, 0, 5) had the
    # coordinates (1, 0), (0, 0, 99) passed the halfspaces, and (1,) raised
    # IndexError
    triangle = [(0, 0), (1, 0), (0, 1)]
    lat, hrep = spanned_lattice(triangle), facet_description(triangle)
    for point in (1, 0, 5), (1,), ():
        with pytest.raises(ValueError, match=rf"point of length {len(point)}"):
            lat.coordinates(point)
        with pytest.raises(ValueError, match=rf"point of length {len(point)}"):
            lat.contains(point, scale=2)
    for point in (0, 0, 99), (0,):
        with pytest.raises(ValueError, match=rf"point of length {len(point)}"):
            hrep.contains(point)
    # a point hull has only equalities, and they check the length too
    with pytest.raises(ValueError, match=r"point of length 1"):
        facet_description([(2, 3)]).contains((2,))
    assert lat.coordinates((1, 0)) == (1, 0) and hrep.contains((0, 0))


def test_a_description_with_no_rows_checks_the_length_too():
    # the hull of the one point of R^0 has no equality and no facet; a
    # point of any other length used to pass it
    hrep = facet_description([()])
    assert hrep == lattice.HRep(equalities=(), inequalities=())
    assert hrep.contains(())
    for point in (1, 2), (0,):
        with pytest.raises(ValueError, match=rf"point of length {len(point)}"):
            hrep.contains(point)
