import tracemalloc

import pytest

from phylotope import lattice
from phylotope.errors import (BlockWidthMismatchError,
                              ProjectionNotInSimplexError,
                              ScaleExceededError)
from phylotope.groups import abelian_model, preset_model
from phylotope.lattice import (AffineLattice, LatticePolytope, _ClawTally,
                               _star, decompose, facet_description,
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
    tally = _ClawTally(poly, 3, 4)
    tally(n, rows)
    keys, counts = tally.result()
    want = sorted(sum(n * v[4 * i + t] * (n + 1) ** (3 * (2 - i) + 2 - t)
                      for i in range(3) for t in range(3))
                  for v in poly.points)
    assert keys.tolist() == want
    assert counts.tolist() == [1] * 16
    with pytest.raises(ScaleExceededError, match="degree 127"):
        _ClawTally(poly, 3, 4)(127, rows[:0])


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


@pytest.mark.parametrize("orders", [[2], [3], [2, 2]])
def test_glued_polytope_matches_direct_build(orders):
    model = abelian_model(orders)
    res, poly = glued_polytope(model, CLAW, "c", CLAW, "a")
    glued = glue(CLAW, "c", CLAW, "a").tree
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
