"""Differential tests of the dilate scan, the facet description and the
IDP check against independent oracles, on random small point sets."""

from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phylotope.lattice
from phylotope.groups import abelian_model, parse_group_spec, preset_model
from phylotope.lattice import (LatticePolytope, _code_weights, _codes,
                               _dilate_array, _dilate_blocks,
                               _undecomposable, decompose,
                               facet_description, idp_check,
                               lattice_points_in_dilate, spanned_lattice,
                               tree_idp_check)
from phylotope.polytope import build_polytope, project_orbits
from phylotope.trees import parse_newick

# About a third of these sets in dimension 3 and 4 are not IDP.
point_sets = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=7,
    unique=True))


def _dilate_setup(points, lat, hrep, n):
    """Constraints W.y <= n*offs and the box [lo, hi] of nP in lattice
    coordinates y, where a point is x = n*anchor + y.B."""
    W = [tuple(sum(bi * ci for bi, ci in zip(row, c)) for row in lat.basis)
         for c, _ in hrep.inequalities]
    offs = [b - sum(ci * ai for ci, ai in zip(c, lat.anchor))
            for c, b in hrep.inequalities]
    ys = [lat.coordinates(p) for p in points]
    lo = [n * min(y[j] for y in ys) for j in range(lat.rank)]
    hi = [n * max(y[j] for y in ys) for j in range(lat.rank)]
    return W, offs, lo, hi


def _dilate_points_py(W, offs, n, lo, hi):
    """Reference enumeration: depth-first with per-level bound propagation,
    Python integers throughout."""
    r = len(lo)
    F = len(W)
    minrest = [[0] * (r + 1) for _ in range(F)]
    for f in range(F):
        for j in range(r - 1, -1, -1):
            w = W[f][j]
            minrest[f][j] = minrest[f][j + 1] + min(w * lo[j], w * hi[j])
    out = []
    y = [0] * r

    def rec(j, dots):
        if j == r:
            out.append(tuple(y))
            return
        lo_j, hi_j = lo[j], hi[j]
        for f in range(F):
            w = W[f][j]
            if w == 0:
                continue
            slack = n * offs[f] - dots[f] - minrest[f][j + 1]
            if w > 0:
                hi_j = min(hi_j, slack // w)
            else:
                lo_j = max(lo_j, -((-slack) // w))
        for v in range(lo_j, hi_j + 1):
            y[j] = v
            rec(j + 1, [dots[f] + W[f][j] * v for f in range(F)])

    rec(0, [0] * F)
    return out


def _ambient(y, n, lat):
    return tuple(n * a + sum(c * row[i] for c, row in zip(y, lat.basis))
                 for i, a in enumerate(lat.anchor))


def _box_points(pts, n, lat, hrep):
    """Lattice points of nP, sorted, by testing every point of the ambient
    bounding box of nP."""
    ranges = [range(n * min(col), n * max(col) + 1) for col in zip(*pts)]
    return [x for x in product(*ranges)
            if hrep.contains(x, n) and lat.contains(x, n)]


def _brute_idp(pts, max_degree):
    """(first failing degree, lex-least point of nP that decompose cannot
    split into n lattice points of P), or None when every degree up to
    max_degree passes."""
    poly = LatticePolytope(pts)
    for n in range(2, max_degree + 1):
        for q in _box_points(pts, n, poly.lattice, poly.hrep):
            if decompose(q, n, poly).found is None:
                return n, q
    return None


def _rank(rows):
    """Rank over the rationals, by plain Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _det(m):
    if not m:
        return 1
    return sum((-1) ** i * m[0][i] * _det([row[:i] + row[i + 1:]
                                           for row in m[1:]])
               for i in range(len(m)) if m[0][i])


def _brute_facets(pts):
    """Facet inequalities of conv(pts), restricted to the greedy
    full-rank coordinate subset and written back in ambient coordinates:
    every primitive hyperplane through d affinely independent restricted
    points that has all of them on one side."""
    diffs = [[x - b for x, b in zip(p, pts[0])] for p in pts[1:]]
    cols = []
    for c in range(len(pts[0])):
        if _rank([[row[k] for k in cols + [c]] for row in diffs]) > len(cols):
            cols.append(c)
    d = len(cols)
    zs = sorted({tuple(p[c] for c in cols) for p in pts})
    facets = set()
    for sub in combinations(zs, d) if d else ():
        m = [[a - b for a, b in zip(z, sub[0])] for z in sub[1:]]
        normal = [(-1) ** i * _det([row[:i] + row[i + 1:] for row in m])
                  for i in range(d)]
        g = 0
        for x in normal:
            g = gcd(g, x)
        if not g:
            continue
        normal = [x // g for x in normal]
        vals = [sum(a * x for a, x in zip(normal, z)) for z in zs]
        rhs = sum(a * x for a, x in zip(normal, sub[0]))
        for sign in (1, -1):
            if all(sign * v <= sign * rhs for v in vals):
                full = [0] * len(pts[0])
                for a, c in zip(normal, cols):
                    full[c] = sign * a
                facets.add((tuple(full), sign * rhs))
    return d, facets


def test_dilate_enumeration_matches_reference():
    z3 = abelian_model([3])
    poly = build_polytope(parse_newick("(a,b,c);"), z3)
    lat = spanned_lattice(poly.vertices)
    hrep = facet_description(poly.vertices)
    for n in (1, 2, 3):
        fast = lattice_points_in_dilate(poly.vertices, n)
        W, offs, lo, hi = _dilate_setup(sorted(poly.vertices), lat, hrep, n)
        slow = _dilate_points_py(W, offs, n, lo, hi)
        anchor = np.asarray(lat.anchor, dtype=np.int64)
        basis = np.asarray(lat.basis, dtype=np.int64)
        xs = {tuple(int(v) for v in n * anchor + np.asarray(y) @ basis)
              for y in slow}
        assert set(fast) == xs
    assert set(lattice_points_in_dilate(poly.vertices, 1)) \
        == set(poly.vertices)


# Up to dimension 5, where the double description's adjacency test matters.
facet_sets = st.integers(1, 5).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=10,
    unique=True))


@settings(max_examples=80, deadline=None)
@given(facet_sets)
def test_facets_match_brute_force(pts):
    hrep = facet_description(pts)
    d, facets = _brute_facets(sorted(pts))
    assert set(hrep.inequalities) == facets
    assert len(hrep.inequalities) == len(facets)
    # the equalities: primitive, tight on every point, independent, and
    # one per dimension the points do not span
    normals = [c for c, _ in hrep.equalities]
    assert all(gcd(*c) == 1 for c in normals)
    assert all(sum(a * x for a, x in zip(c, p)) == b
               for c, b in hrep.equalities for p in pts)
    assert len(normals) == len(pts[0]) - d
    assert _rank(normals) == len(normals)


@settings(max_examples=60, deadline=None)
@given(point_sets, st.integers(1, 4))
def test_dilate_scan_matches_reference(pts, n):
    poly = LatticePolytope(pts)
    lat = poly.lattice
    W, offs, lo, hi = _dilate_setup(sorted(pts), lat, poly.hrep, n)
    ref = _dilate_points_py(W, offs, n, lo, hi)
    rows = _dilate_array(poly, n)
    # same points, in the lexicographic order the code kernel relies on
    assert rows.tolist() == [list(y) for y in ref]
    assert lattice_points_in_dilate(poly, n) == \
        sorted(_ambient(y, n, lat) for y in ref)


def _brute_counts(pts, max_degree):
    """((degree, number of lattice points of the dilate), ...) from 1 to
    max_degree, by the box scan."""
    poly = LatticePolytope(pts)
    return tuple((n, len(_box_points(pts, n, poly.lattice, poly.hrep)))
                 for n in range(1, max_degree + 1))


@settings(max_examples=40, deadline=None)
@given(point_sets, st.integers(2, 4))
def test_idp_check_matches_brute_force(pts, max_degree):
    report = idp_check(pts, max_degree=max_degree)
    failure = _brute_idp(pts, max_degree)
    if failure is None:
        assert report.verdict == "Normal"
        assert report.witness is None
        assert report.degrees_checked == tuple(range(2, max_degree + 1))
    else:
        n, witness = failure
        assert report.verdict == "NotNormal"
        assert (report.witness_degree, report.witness) == (n, witness)
        assert report.degrees_checked == tuple(range(2, n + 1))


@contextmanager
def _smallest_blocks():
    """Shrink the scan's blocks to one row: every level then splits its
    frontier into single-parent slices, and every block is one point."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phylotope.lattice, "_CHUNK_CELLS", 1)
        yield


@settings(max_examples=60, deadline=None)
@given(point_sets, st.integers(1, 4))
def test_single_point_blocks_match_reference(pts, n):
    poly = LatticePolytope(pts)
    W, offs, lo, hi = _dilate_setup(sorted(pts), poly.lattice, poly.hrep, n)
    ref = [list(y) for y in _dilate_points_py(W, offs, n, lo, hi)]
    with _smallest_blocks():
        blocks = list(_dilate_blocks(poly, n))
        rows = _dilate_array(poly, n)
    assert [len(b) for b in blocks] == [1] * len(ref)
    assert [b[0].tolist() for b in blocks] == ref
    assert all(b.dtype == np.int64 for b in blocks)
    assert rows.tolist() == ref


@settings(max_examples=40, deadline=None)
@given(point_sets, st.integers(2, 4))
def test_idp_check_on_single_point_blocks(pts, max_degree):
    with _smallest_blocks():
        small = idp_check(pts, max_degree=max_degree)
    report = idp_check(pts, max_degree=max_degree)
    assert small == report
    failure = _brute_idp(pts, max_degree)
    last = max_degree if failure is None else failure[0]
    assert small.degrees_checked == tuple(range(2, last + 1))
    assert small.points_per_degree == _brute_counts(pts, last)
    assert (small.witness_degree, small.witness) == \
        ((None, None) if failure is None else failure)


def test_witness_is_least_over_every_block():
    # The projected K2P 4-leaf claw has 8 undecomposable points of degree
    # 2. With one point per block they land in 8 blocks, none of them the
    # first, and the witness must be the least of all 8.
    k2p = preset_model("K2P")
    poly = LatticePolytope(project_orbits(
        build_polytope(parse_newick("(a,b,c,d);"), k2p), k2p).vertices)
    s1 = lattice_points_in_dilate(poly, 1)
    s1_set = set(s1)
    bad = [q for q in lattice_points_in_dilate(poly, 2)
           if not any(tuple(a - b for a, b in zip(q, v)) in s1_set
                      for v in s1)]
    assert len(bad) == 8
    with _smallest_blocks():
        blocks = list(_dilate_blocks(poly, 2))
        small = idp_check(poly)
    assert len(blocks) == 448
    holding = [i for i, b in enumerate(blocks)
               if _ambient(b[0].tolist(), 2, poly.lattice) in bad]
    assert len(holding) == 8 and holding[0] > 0
    assert small == idp_check(poly)
    assert (small.witness_degree, small.witness) == (2, min(bad))
    assert small.points_per_degree == ((1, 33), (2, 448))


def _kernel_rows(sn, s1, prev, n, low, span):
    """Rows of sn that the code kernel finds undecomposable, with every
    point encoded in the weights of degree n."""
    weights = _code_weights(span, n)
    return sn[_undecomposable(_codes(sn, n, low, weights),
                              _codes(s1, 1, low, weights),
                              _codes(prev, n - 1, low, weights))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_code_kernel_matches_set_lookup(data):
    # rows anywhere in the coordinate boxes of P, (n-1)P and nP, so every
    # digit value, the largest included, is exercised
    r = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 4))
    low = data.draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    span = data.draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))

    def rows(k, min_size=0):
        coords = [st.integers(k * lo, k * (lo + s))
                  for lo, s in zip(low, span)]
        return sorted(data.draw(st.lists(st.tuples(*coords), unique=True,
                                         min_size=min_size, max_size=12)))

    s1, prev, sn = rows(1, min_size=1), rows(n - 1), rows(n)
    got = _kernel_rows(*(np.array(a, dtype=np.int64).reshape(-1, r)
                         for a in (sn, s1, prev)), n, low, span)
    prev_set = set(prev)
    want = [q for q in sn
            if not any(tuple(a - b for a, b in zip(q, v)) in prev_set
                       for v in s1)]
    assert got.tolist() == [list(q) for q in want]


def test_code_kernel_top_digit_does_not_carry():
    # q = (0, 2) has the top digit n*span = 2. With a radix of 2 instead of
    # 3, code(q) - code(0) would equal code((1, 0)), a point of (n-1)P, and
    # q would wrongly count as decomposed.
    sn, s1, prev = (np.array([p], dtype=np.int64)
                    for p in ((0, 2), (0, 0), (1, 0)))
    assert _kernel_rows(sn, s1, prev, 2, (0, 0), (1, 1)).tolist() \
        == [[0, 2]]


@pytest.mark.parametrize("r", [2, 3])
def test_reeve_tetrahedra_are_normal_in_their_own_lattice(r):
    # conv{0, e1, e2, e1+e2+r*e3} is not IDP in Z^3 for r >= 2, but it is
    # a unimodular simplex in the lattice its vertices span (index r).
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)]
    assert spanned_lattice(pts).basis == ((1, 0, 0), (0, 1, 0), (0, 0, r))
    report = idp_check(pts)
    assert report.normal
    assert report.degrees_checked == (2,)
    assert _brute_idp(pts, 3) is None


def _thin_triangle(n, edge, below):
    """conv{(0,0), (0,1), (1,a)}, a unimodular triangle long in y[1], with a
    chosen so that 2*n*magnitude falls just below or just above edge."""
    # magnitude is 2a: the facets a*y0 - y1 <= 0 and y1 - (a-1)*y0 <= 1
    # each reach 2a on the box [0, 1] x [0, a]
    a = (edge - 1) // (4 * n) + (0 if below else 1)
    poly = LatticePolytope([(0, 0), (0, 1), (1, a)])
    assert (2 * n * poly.magnitude < edge) == below
    return poly


# 2**15 and 2**31 are the edges of the int16 and the int32 scan: just below
# one, the scan runs in the narrower type at its bound, just above it in the
# wider one.
@pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
@pytest.mark.parametrize("edge", [2 ** 15, 2 ** 31], ids=["2^15", "2^31"])
@pytest.mark.parametrize("n", [2, 3])
def test_thin_triangles_at_the_scan_type_edges(n, edge, below):
    poly = _thin_triangle(n, edge, below)
    W, offs, lo, hi = _dilate_setup(poly.points, poly.lattice, poly.hrep, n)
    ref = [list(y) for y in _dilate_points_py(W, offs, n, lo, hi)]
    assert _dilate_array(poly, n).tolist() == ref
    report = idp_check(poly, max_degree=n)
    assert report.normal
    assert report.points_per_degree == tuple(
        (k, (k + 1) * (k + 2) // 2) for k in range(1, n + 1))


# The polytopes of the idp-scan benchmark cases, and the K3P 4-leaf claw:
# (group, tree, projected flavor).
SCAN_CASES = {
    "z4-claw": ("Z4", "(a,b,c);", False),
    "z3-quartet": ("Z3", "((a,b),(c,d));", False),
    "k2p-5leaf-projected": ("K2P", "((a,b),c,(d,e));", True),
    "k3p-quartet": ("K3P", "((a,b),(c,d));", False),
    "z2-caterpillar6": ("Z2", "((a,b),(c,(d,(e,f))));", False),
    "k3p-4claw": ("K3P", "(a,b,c,d);", False),
}


@cache
def _scan_case(name) -> LatticePolytope:
    spec, tree, projected = SCAN_CASES[name]
    model = parse_group_spec(spec)
    poly = build_polytope(parse_newick(tree), model)
    if projected:
        poly = project_orbits(poly, model)
    return LatticePolytope(poly.vertices)


def _assert_levels_match_projections(poly):
    """Each level of the scan, found by Fourier-Motzkin elimination from
    P's facets, must hold exactly the facets c.y <= b with c[j] != 0 that
    the double description finds for the projection onto y[:j+1], and
    count the upper bounds c[j] > 0."""
    ys = [poly.lattice.coordinates(p) for p in poly.points]
    assert len(poly.levels) == poly.lattice.rank
    for j, (coef, rhs, upper) in enumerate(poly.levels):
        want = [(c, b) for c, b in
                facet_description([y[:j + 1] for y in ys]).inequalities
                if c[j] != 0]
        assert len(coef) == len(rhs) == len(want)
        assert set(zip(coef, rhs)) == set(want)
        assert upper == sum(c[j] > 0 for c, _ in want)
        assert all(c[j] > 0 for c in coef[:upper])
        assert all(c[j] < 0 for c in coef[upper:])


@pytest.mark.parametrize("name", SCAN_CASES)
def test_levels_match_projection_facets(name):
    _assert_levels_match_projections(_scan_case(name))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=12,
    unique=True)))
def test_levels_match_projection_facets_on_random_sets(pts):
    _assert_levels_match_projections(LatticePolytope(pts))


@cache
def _reference_scan(name, n):
    poly = _scan_case(name)
    W, offs, lo, hi = _dilate_setup(poly.points, poly.lattice, poly.hrep, n)
    return [list(y) for y in _dilate_points_py(W, offs, n, lo, hi)]


# The projected K2P 5-leaf claw at degree 3 (128,036 points) is left out:
# the reference and the single-point scan take about 27 s there.
@pytest.mark.parametrize("single", [False, True],
                         ids=["default-blocks", "single-point-blocks"])
@pytest.mark.parametrize("name,n", [
    (name, n) for name in SCAN_CASES for n in (1, 2, 3)
    if (name, n) != ("k2p-5leaf-projected", 3)])
def test_scan_blocks_match_reference(name, n, single):
    poly = _scan_case(name)
    ref = _reference_scan(name, n)
    if single:
        with _smallest_blocks():
            blocks = list(_dilate_blocks(poly, n))
        assert [len(b) for b in blocks] == [1] * len(ref)
    else:
        blocks = list(_dilate_blocks(poly, n))
    assert all(b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == ref


# Per group, the most leaves, the highest degree, and whether the first
# edge blocks may be leaf edges, where the scan of the whole tree stays
# cheap. Z3 on six leaves takes about 2 s at degree 2. The scan levels of a
# Z4 quartet whose inner edge comes last, as in (a,(b,(c,d))); or
# (b,d,(a,c));, take about 4 s, so a Z4 tree is rooted at an inner vertex
# with its clades first.
TREE_LIMITS = {"Z2": (6, 4, True), "Z3": (5, 3, True), "Z4": (4, 3, False),
               "Z2xZ2": (4, 3, True)}


@st.composite
def abelian_trees(draw):
    """(group spec, Newick string, degree ceiling): a random tree whose
    clades have two or three members."""
    spec = draw(st.sampled_from(sorted(TREE_LIMITS)))
    most, top, leaves_first = TREE_LIMITS[spec]
    items = list(draw(st.permutations("abcdef"[:draw(st.integers(4, most))])))
    leaf_root = items.pop() if leaves_first and draw(st.booleans()) else None
    while len(items) > (1 if leaf_root else 3):
        size = draw(st.integers(2, min(3, len(items))))
        i = draw(st.integers(0, len(items) - size))
        items[i:i + size] = ["(" + ",".join(items[i:i + size]) + ")"]
    if not leaves_first:
        items.sort(key=lambda item: not item.startswith("("))
    newick = (f"({leaf_root},{items[0]});" if leaf_root
              else "(" + ",".join(items) + ");")
    return spec, newick, draw(st.integers(2, top))


@settings(max_examples=15, deadline=None)
@given(abelian_trees())
def test_claw_route_matches_the_tree_scan(case):
    spec, newick, degree = case
    model, tree = parse_group_spec(spec), parse_newick(newick)
    assume(len(tree.inner) >= 2)
    assert tree_idp_check(tree, model, max_degree=degree) == \
        idp_check(build_polytope(tree, model), max_degree=degree)


# Counts of idp_check on the whole tree polytope, all Normal.
@pytest.mark.parametrize("spec,newick,counts", [
    ("Z4", "((a,b),(c,d));", (64, 1936, 35200, 429706)),
    ("Z2xZ2", "(a,(b,(c,d)));", (64, 1936, 35200)),
    ("Z3", "((a,b),c,(d,e));", (81, 2754, 50908)),
    ("Z3", "(a,(b,(c,(d,e))));", (81, 2754, 50908)),
    ("Z2", "((a,b),(c,(d,(e,f))));",
     (32, 396, 2848, 14411, 57024, 188200, 540352, 1389421)),
    # the root claw keys all three of its blocks
    ("Z2", "((a,b),(c,d),(e,f));", (32, 396, 2848, 14411, 57024)),
])
def test_claw_route_matches_pinned_scan_counts(spec, newick, counts):
    report = tree_idp_check(parse_newick(newick), parse_group_spec(spec),
                            max_degree=len(counts))
    assert report.verdict == "Normal" and report.witness is None
    assert report.degrees_checked == tuple(range(2, len(counts) + 1))
    assert report.points_per_degree == tuple(enumerate(counts, 1))


# By Buczynska-Wisniewski (JEMS 2007), the binary model's Hilbert function
# on a trivalent tree depends only on the number of leaves.
Z2_TRIVALENT_COUNTS = {
    5: (16, 116, 544, 1931, 5648, 14328),
    6: (32, 396, 2848, 14411, 57024, 188200),
    7: (64, 1352, 14912, 107563, 575808, 2472352),
    8: (128, 4616, 78080, 802859, 5814400, 32479392),
}


# Every unrooted shape of 5 to 8 leaves, some rooted at a leaf; the root
# claws of ((a,b),(c,d),(e,f)) and ((a,b),(c,d),((e,f),(g,h))) key all
# three of their blocks.
@pytest.mark.parametrize("newick", [
    "((a,b),c,(d,e));", "(a,(b,(c,(d,e))));",
    "((a,b),(c,d),(e,f));", "((a,b),(c,(d,(e,f))));",
    "(a,((b,c),(d,(e,f))));",
    "((a,b),(c,d),(e,(f,g)));", "((a,b),c,(d,(e,(f,g))));",
    "(a,((b,c),(d,e)),(f,g));",
    "((a,b),(c,d),((e,f),(g,h)));", "((a,b),(c,(d,(e,(f,(g,h))))));",
    "(((a,b),c),(d,e),(f,(g,h)));", "((a,b),(c,d),(e,(f,(g,h))));",
])
def test_claw_route_counts_depend_only_on_leaf_count(newick):
    tree = parse_newick(newick)
    report = tree_idp_check(tree, parse_group_spec("Z2"), max_degree=6)
    counts = Z2_TRIVALENT_COUNTS[len(tree.leaves)]
    assert report.verdict == "Normal"
    assert report.points_per_degree == tuple(enumerate(counts, 1))
