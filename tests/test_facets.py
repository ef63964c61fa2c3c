"""The facet layer on integer arrays against its pure-Python oracles: the
fraction-free elimination, the double description and the scan levels;
the facets of a tree polytope pulled back from its stars, against the
double description of the whole tree; and the checks that guard it: the
batched facet certificate, the fiber-product certificate and the star
tree it counts over, the int64 and object number types, and the memory of
one call."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (SCAN_CASES, dual_dd_reference, kernel_reference,
                     levels_reference, model_of, primitive, reorient,
                     row_reduce_pivots, scan_case)
from phylotope import lattice
from phylotope.groups import abelian_model, parse_group_spec
from phylotope.lattice import (LatticePolytope, _check_fiber_product,
                               _claw_columns, _dual_dd, _eliminate,
                               _int_array, _kernel, _star, _star_tree,
                               _sum_product, _tight_ranks, facet_description,
                               idp_check, star_columns)
from phylotope.polytope import _projected, build_polytope, project_orbits
from phylotope.trees import Tree, parse_newick


def _restricted(points):
    """(z, d): the points of conv(points) on the pivot coordinates of their
    lattice, d of them, as facet_description hands them to _dual_dd."""
    poly = LatticePolytope(points)
    lat = poly.lattice
    pivots, _ = _kernel(lat.basis, len(lat.anchor))
    return [tuple(p[c] for c in pivots) for p in poly.points], len(pivots)


def _assert_matches_reference(points):
    """_dual_dd returns the oracle's facets, order included, and the batched
    certificate's ranks are row_reduce_pivots' on each facet's tight
    points."""
    z, d = _restricted(points)
    if d == 0:
        return
    zh = _int_array([q + (1,) for q in z], d + 1)
    rays = _dual_dd(zh, d)
    assert [(tuple(r[:-1]), -r[-1]) for r in rays.tolist()] == \
        dual_dd_reference(z, d)
    rows = zh.tolist()
    slack = [[-sum(a * b for a, b in zip(r, row)) for row in rows]
             for r in rays.tolist()]
    tight = np.array(slack) == 0
    want = [len(row_reduce_pivots([row for row, t in zip(rows, mask)
                                   if t])[0]) for mask in tight]
    assert _tight_ranks(zh, tight).tolist() == want
    assert want == [d] * len(want)


def _spy(monkeypatch, name, dtype_of):
    """Patch lattice.name to record dtype_of(its arguments, its result) in
    the list returned."""
    seen = []
    fn = getattr(lattice, name)

    def spy(*args):
        out = fn(*args)
        seen.extend(dtype_of(args, out))
        return out

    monkeypatch.setattr(lattice, name, spy)
    return seen


def _certificate_dtypes(monkeypatch):
    """The list of the dtypes of the stacks that the facet certificate
    eliminates: those _eliminate receives while _tight_ranks runs."""
    running = []
    tight_ranks = lattice._tight_ranks

    def spy(*args):
        running.append(True)
        try:
            return tight_ranks(*args)
        finally:
            running.pop()

    monkeypatch.setattr(lattice, "_tight_ranks", spy)
    return _spy(monkeypatch, "_eliminate",
                lambda args, out: [args[0].dtype] if running else [])


@pytest.mark.parametrize("name", SCAN_CASES)
def test_dual_dd_matches_reference_on_scan_cases(name):
    _assert_matches_reference(scan_case(name).points)


def test_dual_dd_matches_reference_on_the_z6_claw():
    poly = build_polytope(parse_newick("(a,b,c);"), abelian_model([6]))
    _assert_matches_reference(poly.vertices)
    assert len(facet_description(poly).inequalities) == 400


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-2, 3)] * d), min_size=1, max_size=14,
    unique=True)))
def test_dual_dd_matches_reference_on_random_sets(pts):
    _assert_matches_reference(pts)


@pytest.mark.parametrize("points, big", [
    # thin triangles at the int16 and int32 edges of the dilate scan
    ([(0, 0), (0, 1), (1, 4096)], False),
    ([(0, 0), (0, 1), (1, 178956971)], False),
    # the values of a double-description step pass 2**62
    ([(0, 0), (0, 1), (1, 2 ** 60), (1, 2 ** 60 + 1)], True),
    ([(0, 0), (0, 1), (1, 2 ** 61), (2, 3), (1, 5)], True),
    ([(0, 0, 7), (1, 2 ** 60, 7), (0, 1, 7), (2, 1, 7), (1, 1, 7)], True),
], ids=["thin-2^15", "thin-2^31", "2^60", "2^61", "2^60-embedded"])
def test_dual_dd_matches_reference_past_int64(points, big, monkeypatch):
    z, d = _restricted(points)
    zh = _int_array([q + (1,) for q in z], d + 1)
    seen = _spy(monkeypatch, "_exact",
                lambda args, out: [a.dtype for a in out])
    _dual_dd(zh, d)
    assert (object in seen) == big
    _assert_matches_reference(points)


# Restricted coordinates of 2**62 and more: the certificate's stack holds
# Python ints from the start.
@pytest.mark.parametrize("points", [
    [(0,), (2 ** 62,)],
    [(0, 0), (0, 1), (2 ** 62, 0)],
    [(0, 0, 3), (0, 1, 3), (2 ** 63, 5, 3), (1, 1, 3)],
], ids=["2^62-segment", "2^62-triangle", "2^63-embedded"])
def test_facet_certificate_runs_on_python_ints(points, monkeypatch):
    seen = _certificate_dtypes(monkeypatch)
    _assert_matches_reference(points)
    facet_description(points)
    assert seen and set(seen) == {np.dtype(object)}


@pytest.mark.parametrize("name", ["z4-claw", "k3p-4claw"])
def test_object_arrays_give_the_same_facets(name, monkeypatch):
    # with no int64 bound every array holds Python ints from the start
    want = facet_description(scan_case(name).points)
    seen = _spy(monkeypatch, "_exact",
                lambda args, out: [a.dtype for a in out])
    monkeypatch.setattr(lattice, "_INT64_SAFE", 0)
    assert facet_description(scan_case(name).points) == want
    _assert_matches_reference(scan_case(name).points)
    assert set(seen) == {np.dtype(object)}


def _with_extra_ray(monkeypatch, pick):
    """Let _dual_dd append pick(rays), one more row, to its own rays."""
    dual_dd = lattice._dual_dd

    def patched(zh, d):
        rays = dual_dd(zh, d)
        return np.concatenate([rays, pick(rays)[None].astype(rays.dtype)])

    monkeypatch.setattr(lattice, "_dual_dd", patched)


# The square's facets, in _dual_dd's order, begin with y >= 0 and x >= 0.
# Their sum is valid and tight at the origin alone, a ridge. At s = 2**62
# the certificate runs on Python ints.
@pytest.mark.parametrize("s", [1, 2 ** 62], ids=["int64", "object"])
def test_certificate_rejects_an_inequality_tight_on_a_ridge(s, monkeypatch):
    square = [(0, 0), (s, 0), (0, s), (s, s)]
    hrep = facet_description(square)
    assert hrep.inequalities[:2] == (((0, -1), 0), ((-1, 0), 0))
    seen = _certificate_dtypes(monkeypatch)
    _with_extra_ray(monkeypatch, lambda rays: rays[0] + rays[1])
    with pytest.raises(AssertionError, match=re.escape(
            "inequality (-1, -1) <= 0 is not tight on a facet")):
        facet_description(square)
    assert seen == [np.dtype(object) if s > 1 else np.dtype(np.int64)]


def test_certificate_rejects_an_inequality_that_cuts_a_point(monkeypatch):
    _with_extra_ray(monkeypatch, lambda rays: -rays[0])
    with pytest.raises(AssertionError,
                       match="facet description rejects an input point"):
        facet_description([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_facet_description_memory_is_bounded():
    # The adjacency test and the certificate hold at most _FACET_CELLS
    # cells per chunk. At 2**15 cells the peak is about 0.75 MiB here; at
    # 2**16 it was 1.8 MiB.
    poly = LatticePolytope(scan_case("k2p-5leaf-projected").points)
    tracemalloc.start()
    try:
        hrep = facet_description(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hrep.inequalities) == 38
    assert peak <= 2 ** 20


@st.composite
def stacks(draw):
    """(matrices, scale): one to four integer matrices of one shape, each
    of a rank drawn up to full, as products of random factors; the stack
    is the matrices times scale, past int64 at the larger scales."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    matrices = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, min(rows, cols)))
        b = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                          min_size=rows, max_size=rows))
        c = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=k, max_size=k))
        matrices.append([[sum(b[i][t] * c[t][f] for t in range(k))
                          for f in range(cols)] for i in range(rows)])
    return matrices, draw(st.sampled_from([1, 2 ** 31 + 1, 2 ** 62 + 1]))


def _stack(matrices, scale=1):
    rows, cols = len(matrices[0]), len(matrices[0][0])
    return _int_array([[x * scale for row in a for x in row]
                       for a in matrices], rows * cols).reshape(-1, rows, cols)


@settings(max_examples=100, deadline=None)
@given(stacks())
def test_eliminate_matches_reference(case):
    """One batched _eliminate of a stack of mixed rank against
    row_reduce_pivots on each matrix: the same pivot columns, hence rank;
    every pivot equal to one D, the rows of no pivot zero, and each pivot
    row sign(D) times the oracle's reduced row up to a positive factor.
    Read as columns, the pivots are the oracle's greedy independent rows,
    and _kernel is the oracle's."""
    matrices, scale = case
    m, pivots = _eliminate(_stack(matrices, scale))
    if scale > 2 ** 31 and any(x for a in matrices for row in a for x in row):
        assert m.dtype == object
    for a, red, piv in zip(matrices, m.tolist(), pivots.tolist()):
        want, want_cols, want_kept = row_reduce_pivots(a)
        cols = [c for c, r in enumerate(piv) if r >= 0]
        assert cols == want_cols
        d = red[piv[cols[-1]]][cols[-1]] if cols else 1
        assert all(red[piv[c]][c] == d for c in cols)
        assert not any(x for i, row in enumerate(red)
                       if i not in piv for x in row)
        assert [primitive([x * (1 if d > 0 else -1) for x in red[piv[c]]])
                for c in cols] == list(map(primitive, want))
        kept = _eliminate(_stack([list(map(list, zip(*a)))]))[1][0]
        assert np.flatnonzero(kept >= 0).tolist() == want_kept
        assert _kernel(a, len(a[0])) == kernel_reference(a, len(a[0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.sampled_from([1, 2 ** 62 + 1]))
def test_eliminate_inverts_a_square_matrix(a, scale):
    """[A | I] reduces to [D*I | D*A^-1] for an invertible A, rows in
    pivot order, as the double description's start rays read it."""
    n = len(a)
    assume(len(row_reduce_pivots(a)[1]) == n)
    (m,), (piv,) = _eliminate(_stack(
        [[[x * scale for x in row] + [int(i == j) for j in range(n)]
          for i, row in enumerate(a)]]))
    assert piv[:n].tolist() != [-1] * n and (piv[n:] == -1).all()
    red = m[piv[:n]].tolist()
    d = red[0][0]
    inverse = [row[n:] for row in red]
    assert [row[:n] for row in red] == \
        [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(inverse[i][t] * a[t][j] * scale for t in range(n))
             for j in range(n)] for i in range(n)] == \
        [[d * int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", SCAN_CASES)
def test_levels_match_reference_on_scan_cases(name):
    assert scan_case(name).levels == levels_reference(scan_case(name))


# The Z6 3-claw has the largest levels of the three (1,507 facets). The two
# Z4 quartets eliminate their inner edge's coordinates last, so their levels
# grow to 1,054 facets, against 64 for ((a,b),(c,d));.
@pytest.mark.parametrize("spec, newick", [
    ("Z6", "(a,b,c);"), ("Z4", "(a,(b,(c,d)));"), ("Z4", "(b,d,(a,c));")])
def test_levels_match_reference_on_slow_orders(spec, newick):
    poly = LatticePolytope(build_polytope(parse_newick(newick),
                                          parse_group_spec(spec)).vertices)
    assert poly.levels == levels_reference(poly)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-1, 2)] * d), min_size=1, max_size=14,
    unique=True)))
def test_levels_match_reference_on_random_sets(pts):
    poly = LatticePolytope(pts)
    assert poly.levels == levels_reference(poly)


# (group, projected flavor, trees) whose whole-tree double description
# takes under about 0.4 s: trees of 4 to 6 leaves with two or more inner
# vertices, some of degree 4.
STAR_CASES = (
    ("Z2", False, ("((a,b),(c,d));", "((a,b),c,(d,e));", "((a,b),(c,d,e));",
                   "((a,b,c),(d,e,f));", "((a,b),(c,d),(e,f));",
                   "((a,b),(c,(d,(e,f))));")),
    ("Z3", False, ("((a,b),(c,d));", "((a,b),c,(d,e));", "((a,b),(c,d,e));",
                   "((a,b,c),(d,e,f));")),
    ("Z4", False, ("((a,b),(c,d));",)),
    ("Z2xZ2", False, ("((a,b),(c,d));", "(a,b,(c,d));")),
    ("K3P", False, ("((a,b),(c,d));",)),
    ("K2P", True, ("((a,b),(c,d));", "((a,b),c,(d,e));", "((a,b),(c,d,e));",
                   "(a,b,(c,d,e));", "((a,b,c),(d,e,f));")),
    ("JC", True, ("((a,b),c,(d,e));", "((a,b),(c,d,e));",
                  "((a,b,c),(d,e,f));", "((a,b),(c,d),(e,f));",
                  "((a,b),c,(d,(e,f)));")),
)


def _tree_polytope(spec, projected, newick, root=None):
    """(the polytope's points, its stars) for spec on newick, rooted at
    vertex root % (vertex count) when root is given."""
    model, tree = parse_group_spec(spec), parse_newick(newick)
    if root is not None:
        tree = reorient(tree, root % tree.n_vertices)
    poly = build_polytope(tree, model)
    if projected:
        poly = project_orbits(poly, model)
    return poly.vertices, star_columns(tree, poly.block_width)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STAR_CASES).flatmap(lambda case: st.tuples(
    st.just(case[0]), st.just(case[1]), st.sampled_from(case[2]),
    st.integers(0, 20))), st.integers(1, 3), st.integers(-2, 2))
def test_star_route_matches_the_double_description(case, stretch, shift):
    """The facets pulled back from the stars, as a set, and the equalities
    are the double description's on the same points with no stars, at a
    leaf root or an inner one. The columns of one star only are mapped by
    x -> stretch*x + shift, which keeps the fiber product and gives the
    lattice pivots past 1 and an anchor off 0/1."""
    points, stars = _tree_polytope(*case)
    own = {c for c in range(len(points[0]))
           if sum(c in cols for cols in stars) == 1}
    points = [tuple(stretch * x + shift if c in own else x
                    for c, x in enumerate(p)) for p in points]
    want = facet_description(LatticePolytope(points))
    got = facet_description(LatticePolytope(points, stars=stars))
    assert got.equalities == want.equalities
    assert len(got.inequalities) == len(set(got.inequalities))
    assert set(got.inequalities) == set(want.inequalities)


def test_the_double_description_runs_on_the_stars_alone(monkeypatch):
    # the three stars of the K2P 5-leaf tree project to one point set, of
    # 10 points
    points, stars = _tree_polytope("K2P", True, "((a,b),c,(d,e));")
    sizes, dual_dd = [], lattice._dual_dd

    def spy(zh, d):
        sizes.append(len(zh))
        return dual_dd(zh, d)

    monkeypatch.setattr(lattice, "_dual_dd", spy)
    hrep = facet_description(LatticePolytope(points, stars=stars))
    assert len(hrep.inequalities) == 38
    assert len(stars) == 3 and sizes == [10]


def test_the_star_route_drops_a_lower_face(monkeypatch):
    # At the degree-4 vertex one pulled-back star facet of the K2P tree is
    # tight on a face of P of lower dimension, not on a facet.
    points, stars = _tree_polytope("K2P", True, "((a,b),(c,d,e));")
    kept, star_rays = [], lattice._star_rays

    def spy(*args):
        rays = star_rays(*args)
        kept.append(len(rays))
        return rays

    monkeypatch.setattr(lattice, "_star_rays", spy)
    hrep = facet_description(LatticePolytope(points, stars=stars))
    assert kept == [40] and len(hrep.inequalities) == 39
    assert set(hrep.inequalities) == \
        set(facet_description(points).inequalities)


def test_both_routes_give_the_same_idp_report():
    spec, tree, _ = SCAN_CASES["k2p-5leaf-projected"]
    points, stars = _tree_polytope(spec, True, tree)
    assert points == scan_case("k2p-5leaf-projected").points
    report = idp_check(LatticePolytope(points, stars=stars))
    assert report == idp_check(LatticePolytope(points))
    assert report.witness_degree == 2


@st.composite
def star_trees(draw):
    """(group spec, tree): a tree with 2 to 5 inner vertices, each of
    degree 3 or more, rooted at any vertex. The inner vertices come first,
    each but the first below an earlier one, and take leaves up to a drawn
    degree, at most 3 for Z3."""
    spec = draw(st.sampled_from(["Z2", "Z3"]))
    k = draw(st.integers(2, 5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    for v in range(k):
        degree = sum(v in edge for edge in edges)
        want = draw(st.integers(3, 4 if spec == "Z2" else 3))
        edges += [(v, len(edges) + 1 + i)
                  for i in range(max(0, want - degree))]
    n = len(edges) + 1
    tree = Tree(root=0, edges=tuple(edges),
                labels=(None,) * k + tuple(f"x{i}" for i in range(k, n)))
    return spec, reorient(tree, draw(st.integers(0, n - 1)))


@settings(max_examples=30, deadline=None)
@given(star_trees())
def test_the_star_tree_of_a_tree(case):
    spec, tree = case
    model = parse_group_spec(spec)
    w = model.group.size
    points = build_polytope(tree, model).vertices
    stars = star_columns(tree, w)
    plan = _star_tree(stars)
    place = {s: i for i, (s, _, _) in enumerate(plan)}
    assert sorted(place) == list(range(len(tree.inner)))
    assert all(place[t] < place[s] for s, _, kids in plan for t, _ in kids)
    assert plan[-1][1] == ()
    inner = set(tree.inner)
    edges = sorted(tuple(range(e * w, (e + 1) * w))
                   for e, (u, v) in enumerate(tree.edges)
                   if u in inner and v in inner)
    ups = sorted((s, up) for s, up, _ in plan[:-1])
    assert sorted(up for _, up in ups) == edges
    assert sorted((t, cols) for _, _, kids in plan for t, cols in kids) == ups
    tables = {}
    for s, up, kids in plan:
        links = ([up] if up else []) + [cols for _, cols in kids]
        rows = {tuple(p[c] for c in stars[s]) for p in points}
        at = {c: i for i, c in enumerate(stars[s])}
        tables[s] = [(tuple(tuple(row[at[c]] for c in cols)
                            for cols in links), 1) for row in rows]
    assert _sum_product(plan, tables) == len(points)


def test_a_point_set_short_of_the_fiber_product_raises():
    # every star projection keeps all its points, so the stars' fiber
    # product still counts all 116
    points, stars = _tree_polytope("K2P", True, "((a,b),c,(d,e));")
    with pytest.raises(AssertionError, match=re.escape(
            "the stars' fiber product has 116 points, the polytope 115")):
        facet_description(LatticePolytope(points[1:], stars=stars))


def test_a_shared_block_that_is_no_unit_vector_raises():
    # The Z2 quartet's inner edge is its third block, columns 4 and 5.
    points, stars = _tree_polytope("Z2", False, "((a,b),(c,d));")
    assert stars == ((0, 1, 2, 3, 4, 5), (4, 5, 6, 7, 8, 9))
    bent = points[:-1] + (points[-1][:4] + (1, 1) + points[-1][6:],)
    with pytest.raises(AssertionError, match=re.escape(
            "the block of columns [4, 5] shared by two stars is [1, 1] at "
            "a point, no unit vector")):
        facet_description(LatticePolytope(bent, stars=stars))


def test_stars_must_cover_the_columns_and_form_a_tree():
    points, stars = _tree_polytope("Z2", False, "((a,b),(c,d));")
    with pytest.raises(AssertionError, match="miss a column"):
        facet_description(LatticePolytope(points, stars=stars[:1] * 2))
    # disconnected, and a cycle through blocks that are all unit vectors
    for bad in ((stars[0], (6, 7, 8, 9)), stars + ((0, 1, 8, 9),)):
        with pytest.raises(AssertionError, match="form no tree"):
            facet_description(LatticePolytope(points, stars=bad))


# Rooted at an inner vertex, with a root of degree 2 suppressed or not, and
# at a leaf. chi -> -chi moves four characters of Z6 and two of Z4, fixes
# the dual orbits of K2P and JC, and swaps two of Z7-2x's.
@pytest.mark.parametrize("spec, flavor", [
    ("Z3", "abelian"), ("Z4", "abelian"), ("Z6", "abelian"),
    ("Z2xZ2", "abelian"), ("K2P", "projected"), ("JC", "projected"),
    ("Z7-2x", "projected")])
@pytest.mark.parametrize("newick", [
    "((a,b),(c,d));", "((a,b),c,(d,e));", "(a,((b,c),(d,e)));",
    "(a,(b,(c,d)));"])
def test_each_star_is_its_claw_under_the_column_map(spec, flavor, newick):
    # Every star projection of P is its claw read through the tree route's
    # column map, and those maps' images glue to P (_check_fiber_product,
    # on P's stars).
    group, tree = model_of(spec), parse_newick(newick)
    whole = _projected(build_polytope(tree, group), group, flavor)
    w = whole.block_width
    stars = star_columns(tree, w)
    poly = LatticePolytope(whole.vertices, stars=stars)
    images = []
    for cols, columns in zip(stars, _claw_columns(tree, group, flavor)):
        claw = _projected(build_polytope(_star(len(cols) // w), group),
                          group, flavor)
        images.append(tuple(sorted({tuple(v[c] for c in columns)
                                    for v in claw.vertices})))
    assert tuple(images) == poly.star_projections
    _check_fiber_product(images, stars, len(whole.vertices[0]),
                         len(whole.vertices))
