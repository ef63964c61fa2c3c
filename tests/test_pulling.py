"""The pulling triangulation and its half-open decomposition, checked
against the dilate scan on polytopes that are not claws and on claws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylotope import lattice
from phylotope.cli import main
from phylotope.errors import ScaleExceededError
from phylotope.groups import parse_group_spec, preset_model
from helpers import model_of, scan_tally
from phylotope.lattice import (LatticePolytope, _class_tallies, _half_open,
                               _pulling, _star, ehrhart_counts, idp_check,
                               lattice_points_in_dilate, pulling_idp_check,
                               tree_idp_check)
from phylotope.polytope import _projected, build_polytope, project_orbits
from phylotope.trees import parse_newick

CLAW = parse_newick("(a,b,c);")


@pytest.fixture
def triangulate(monkeypatch):
    """pulling_idp_check streams the whole triangulation, whatever the
    ceiling, unless it meets an irreducible point."""
    monkeypatch.setattr(lattice, "_SCAN_POINTS_PER_VOLUME", 0)


@pytest.fixture
def scans(monkeypatch):
    """The degree ceilings idp_check is called with, as it runs."""
    calls, scan = [], lattice.idp_check

    def spy(poly, max_degree=None):
        calls.append(max_degree)
        return scan(poly, max_degree)

    monkeypatch.setattr(lattice, "idp_check", spy)
    return calls


def _decomposition(poly, top):
    """(volume histogram, h*, least irreducible degree up to top or None)
    over every simplex of the pulling triangulation."""
    volumes, h_star, least = {}, [0] * (poly.lattice.rank + 2), None
    for volume, degrees, bad, _ in _half_open(poly, top):
        volumes[volume] = volumes.get(volume, 0) + 1
        for t in degrees:
            h_star[t] += 1
        if bad is not None and (least is None or bad < least):
            least = bad
    return volumes, h_star, least


def _projected_k2p_claw():
    k2p = preset_model("K2P")
    return LatticePolytope(
        project_orbits(build_polytope(CLAW, k2p), k2p).vertices)


def test_projected_k2p_claw_fails_at_degree_two(triangulate):
    poly = _projected_k2p_claw()
    flags = list(poly.pulling_triangulation())
    assert len(flags) == 11
    assert all(len(vs) == len(gs) + 1 == poly.lattice.rank + 1
               for vs, gs in flags)
    volumes, h_star, least = _decomposition(poly, poly.lattice.rank + 1)
    assert volumes == {1: 10, 2: 1}
    assert sum(h_star) == 12
    assert least == 2
    report = pulling_idp_check(poly)
    assert report == idp_check(poly)
    assert report.witness == (1, 0, 1, 1, 0, 1, 1, 0, 1)


@pytest.mark.parametrize("r", [2, 3])
def test_reeve_tetrahedra_are_one_unimodular_simplex(r, triangulate):
    # unimodular in the lattice their vertices span, of index r in Z^3
    poly = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)])
    assert [vs for vs, _ in poly.pulling_triangulation()] == [(0, 1, 2, 3)]
    assert _decomposition(poly, 4) == ({1: 1}, [1, 0, 0, 0, 0], None)
    assert pulling_idp_check(poly) == idp_check(poly)


def test_a_triangle_with_an_interior_point_is_one_simplex_of_volume_3():
    # (1, 1) makes the lattice {x = y mod 3}, of index 3 in Z^2
    poly = LatticePolytope([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert poly.vertex_bits == 0b1011   # points sorted: (1, 1) is third
    volumes, h_star, least = _decomposition(poly, 3)
    assert volumes == {3: 1}
    assert h_star == [1, 1, 1, 0]
    assert least is None
    assert ehrhart_counts(h_star, 2, 3) == (4, 10, 19) == tuple(
        len(lattice_points_in_dilate(poly, n)) for n in (1, 2, 3))


zero_one_sets = st.integers(1, 5).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=10,
    unique=True))
# About a third of these sets in dimension 3 and 4 are not IDP.
small_sets = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=7,
    unique=True))


@settings(max_examples=100, deadline=None)
@given(st.one_of(zero_one_sets, small_sets))
def test_half_open_decomposition_matches_the_scan(pts):
    poly = LatticePolytope(pts)
    r = poly.lattice.rank
    top = max(2, r + 1)
    volumes, h_star, least = _decomposition(poly, top)
    assert sum(h_star) == sum(v * c for v, c in volumes.items())
    assert ehrhart_counts(h_star, r, 3) == tuple(
        len(lattice_points_in_dilate(poly, n)) for n in (1, 2, 3))
    report = idp_check(poly, max_degree=top)
    assert least == (None if report.normal else report.witness_degree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_SCAN_POINTS_PER_VOLUME", 0)
        assert pulling_idp_check(poly, top) == report


CLAWS = [("Z2", 3), ("Z2", 4), ("Z2", 5), ("Z2", 6), ("Z3", 3), ("Z3", 4),
         ("Z4", 3), ("Z2xZ2", 3), ("K3P", 3)]


@pytest.mark.parametrize("spec,leaves", CLAWS)
def test_claws_decided_on_the_triangulation_match_the_scan(spec, leaves,
                                                          triangulate):
    tree = parse_newick("(" + ",".join("abcdef"[:leaves]) + ");")
    model = parse_group_spec(spec)
    assert tree_idp_check(tree, model) == \
        idp_check(build_polytope(tree, model))


def _claw_classes(spec, leaves, top, flavor="abelian"):
    """(the claw polytope, its block width, its pulling report through top,
    its classes by the first block)."""
    group = model_of(spec)
    claw = _projected(build_polytope(_star(leaves), group), group, flavor)
    w = claw.block_width
    claw = LatticePolytope(claw.vertices)
    return (claw, w, *_pulling(claw, top, w)[:2])


def _decoded(tallies, w):
    """Key-coded tallies, one per degree from 1, as {block: count}."""
    out = []
    for n, (codes, counts) in enumerate(tallies, 1):
        tally = {}
        for code, count in zip(codes.tolist(), counts.tolist()):
            block = []
            for _ in range(w - 1):
                code, digit = divmod(code, n + 1)
                block.insert(0, digit)
            tally[(*block, n - sum(block))] = count
        out.append(tally)
    return out


@pytest.mark.parametrize("spec,leaves,top", [
    ("Z2", 3, 5), ("Z3", 3, 5), ("Z4", 3, 5), ("Z2xZ2", 3, 5), ("K3P", 3, 5),
    ("Z2", 4, 4), ("Z3", 4, 4)])
def test_class_tallies_match_the_scan(spec, leaves, top, triangulate):
    claw, w, report, classes = _claw_classes(spec, leaves, top)
    assert report.normal and classes
    totals = [count for _, count in report.points_per_degree]
    assert _decoded(_class_tallies(classes, w, totals), w) == [
        scan_tally(claw, w, n) for n in range(1, top + 1)]


# A projected claw is 0/1 too, with a unit vector of orbits as each block,
# so its classes group by first block as the abelian claw's do.
@pytest.mark.parametrize("spec,leaves,top", [
    ("JC", 3, 5), ("JC", 4, 4), ("Z7-2x", 3, 4)])
def test_projected_class_tallies_match_the_scan(spec, leaves, top,
                                                triangulate):
    claw, w, report, classes = _claw_classes(spec, leaves, top, "projected")
    assert report.normal and classes
    totals = [count for _, count in report.points_per_degree]
    assert _decoded(_class_tallies(classes, w, totals), w) == [
        scan_tally(claw, w, n) for n in range(1, top + 1)]


def test_class_tallies_are_checked_against_h_star(monkeypatch, triangulate):
    _, w, report, classes = _claw_classes("Z3", 3, 3)
    totals = [count for _, count in report.points_per_degree]
    with pytest.raises(AssertionError, match="degree 2 sum to"):
        list(_class_tallies(classes, w, [totals[0], totals[1] + 1]))
    stream = lattice._half_open

    def one_block_too_many(*args):
        # the first simplex's first point is counted twice
        for k, (volume, degrees, bad, (c, blocks)) in enumerate(
                stream(*args)):
            yield volume, degrees, bad, (c, blocks[:1] * (k == 0) + blocks)

    monkeypatch.setattr(lattice, "_half_open", one_block_too_many)
    with pytest.raises(AssertionError, match="h\\* is"):
        _claw_classes("Z3", 3, 3)


def test_class_tallies_past_int64_run_on_python_ints(monkeypatch,
                                                    triangulate):
    _, w, report, classes = _claw_classes("Z3", 3, 4)
    totals = [count for _, count in report.points_per_degree]
    want = _decoded(_class_tallies(classes, w, totals), w)
    monkeypatch.setattr(lattice, "_INT64_SAFE", 2)
    tallies = list(_class_tallies(classes, w, totals))
    assert all(counts.dtype == object for _, counts in tallies)
    assert _decoded(tallies, w) == want


def test_a_lone_claw_groups_no_classes(monkeypatch):
    stream = lattice._half_open

    def no_width(poly, top, width=0):
        assert width == 0
        return stream(poly, top, width)

    monkeypatch.setattr(lattice, "_half_open", no_width)
    report = tree_idp_check(CLAW, parse_group_spec("Z4"))
    assert report.normal and report.points_per_degree[-1] == (8, 307395)


def test_z5_claw_matches_the_scan_through_degree_five(triangulate):
    model = parse_group_spec("Z5")
    report = tree_idp_check(CLAW, model, max_degree=5)
    assert report == idp_check(build_polytope(CLAW, model), max_degree=5)
    assert report.points_per_degree == ((1, 25), (2, 325), (3, 2875),
                                        (4, 19175), (5, 102251))


def test_a_zero_one_claw_is_decided_without_scan_levels():
    # its lattice points are its points, so neither its levels nor the
    # scan's magnitude are built
    poly = LatticePolytope(build_polytope(CLAW,
                                          parse_group_spec("Z4")).vertices)
    report = pulling_idp_check(poly)
    assert report.normal and report.degrees_checked == tuple(range(2, 9))
    assert not {"levels", "magnitude"} & set(vars(poly))


def test_claw_route_does_not_scan_a_normal_claw(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(lattice, "idp_check", scan)
    report = tree_idp_check(CLAW, parse_group_spec("Z4"))
    assert report.normal and report.degrees_checked == tuple(range(2, 9))
    assert report.points_per_degree[-1] == (8, 307395)


def test_a_low_ceiling_goes_to_the_scan(scans):
    tree = parse_newick("(a,b,c,d,e,f);")
    model = parse_group_spec("Z2")
    poly = build_polytope(tree, model)
    assert tree_idp_check(tree, model) == idp_check(poly)
    assert scans == []
    report = tree_idp_check(tree, model, max_degree=3)
    assert scans == [3]
    assert report == idp_check(poly, max_degree=3)


def test_pull_cap_hands_the_claw_to_the_scan(monkeypatch, scans,
                                             triangulate):
    monkeypatch.setattr(lattice, "_PULL_CAP", 10)
    model = parse_group_spec("Z4")
    report = tree_idp_check(CLAW, model)
    assert scans == [8]
    assert report == idp_check(build_polytope(CLAW, model))


def test_the_reducibility_test_runs_past_int64():
    # one unimodular triangle whose facet rows and points reach 2**60, so
    # (r + 2)*magnitude reaches 2**63: a private int64 guard there handed
    # it to a scan that raised at degree 2
    report = pulling_idp_check(LatticePolytope([(0, 0), (0, 1),
                                                (1, 2 ** 60)]))
    assert report.normal and report.points_per_degree == ((1, 3), (2, 6))


@pytest.mark.parametrize("spec", ["Z4", "K2P-projected"])
def test_the_reducibility_test_on_python_ints_matches_int64(spec,
                                                            monkeypatch):
    # past int64 the test runs on Python ints, on the same code path
    poly = _projected_k2p_claw() if spec == "K2P-projected" else \
        LatticePolytope(build_polytope(CLAW, parse_group_spec(spec)).vertices)
    top = poly.lattice.rank + 1
    want = list(_half_open(poly, top))
    assert any(bad for _, _, bad, _ in want) == (spec == "K2P-projected")
    assert any(max(degrees) >= 2 for _, degrees, _, _ in want)
    monkeypatch.setattr(lattice, "_INT64_SAFE", 2)
    assert list(_half_open(poly, top)) == want


@pytest.mark.parametrize("newick", ["((a,b),(c,d));", "(a,b,c);"])
def test_tree_ceiling_is_checked_before_any_polytope(newick):
    # cap=1 admits no polytope, so building one first raised
    # CapExceededError
    with pytest.raises(ValueError, match="max_degree must be at least 2, "
                                         "got 1"):
        tree_idp_check(parse_newick(newick), parse_group_spec("Z3"),
                       max_degree=1, cap=1)


def test_pull_cap_on_simplices_raises(monkeypatch):
    # the Z2 claw is one simplex of rank 3 and no memoized face
    monkeypatch.setattr(lattice, "_PULL_CAP", 0)
    poly = LatticePolytope(build_polytope(CLAW, parse_group_spec("Z2"))
                           .vertices)
    with pytest.raises(ScaleExceededError, match="simplices"):
        list(poly.pulling_triangulation())


def test_pull_cap_then_row_cap_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(lattice, "_PULL_CAP", 10)
    monkeypatch.setattr(lattice, "_ROW_CAP", 1000)
    code = main(["normality", "--group", "Z4", "--tree", "(a,b,c);"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: dilate of degree 4")


@pytest.mark.parametrize("newick", ["(a,b,c);", "((a,b),(c,d));"])
def test_an_irreducible_point_that_decomposes_raises(monkeypatch, newick):
    # A stream that reports an irreducible point of degree 2 on the Normal
    # Z3 claw: the claw's scan through degree 2 finds no undecomposable
    # point, for a lone claw and for the claw of a tree alike.
    stream = lattice._half_open

    def false_alarm(poly, top, width=0):
        for volume, degrees, _, key in stream(poly, top, width):
            yield volume, degrees, 2, key

    monkeypatch.setattr(lattice, "_half_open", false_alarm)
    with pytest.raises(AssertionError, match="an irreducible point of "
                                             "degree 2 decomposed in the "
                                             "scan"):
        tree_idp_check(parse_newick(newick), parse_group_spec("Z3"))
