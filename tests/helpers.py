"""Test-only helpers and oracles that the package itself does not need."""

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from phylotope.cyclotomic import (CycRational, CyclotomicInt,
                                  cyclotomic_polynomial)
from phylotope.errors import UnknownVertexError
from phylotope.groups import parse_group_file, parse_group_spec
from phylotope.lattice import LatticePolytope, lattice_points_in_dilate
from phylotope.polytope import build_polytope, project_orbits
from phylotope.trees import Tree, _orient_from, parse_newick

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


# Z7 with the automorphism x -> 2x as its extra symmetry: its dual orbits
# {1, 2, 4} and {3, 5, 6} are swapped by chi -> -chi, which fixes the dual
# orbits of every preset model.
Z7_TWICE = """states: 0 1 2 3 4 5 6
orders: 7
h: (1,2,3,4,5,6,7)
g: (2,3,5)(4,7,6)
name: Z7-2x
"""


def model_of(spec):
    """The model of a group spec, or of Z7_TWICE for "Z7-2x"."""
    return parse_group_file(Z7_TWICE) if spec == "Z7-2x" \
        else parse_group_spec(spec)


@cache
def scan_case(name) -> LatticePolytope:
    """The lattice polytope of SCAN_CASES[name], built once."""
    spec, tree, projected = SCAN_CASES[name]
    model = parse_group_spec(spec)
    poly = build_polytope(parse_newick(tree), model)
    if projected:
        poly = project_orbits(poly, model)
    return LatticePolytope(poly.vertices)


def scan_tally(points, width, n) -> dict:
    """The lattice points of the dilate nP by their first block of width
    coordinates, from a plain scan of nP in ambient coordinates: {block:
    count}. The oracle for the tally of a claw's dilate that the tree route
    reads off the claw's triangulation (lattice._class_tallies)."""
    tally = {}
    for x in lattice_points_in_dilate(points, n):
        tally[x[:width]] = tally.get(x[:width], 0) + 1
    return tally


def coordinates_reference(lat, point, scale=1):
    """Integer coordinates of point - scale*anchor in the echelon basis of
    the AffineLattice lat, or None, by back-substitution one basis row at
    a time in Python integers: the oracle for AffineLattice.coordinate_rows
    and coordinates."""
    v = [p - scale * a for p, a in zip(point, lat.anchor)]
    coords = []
    for row in lat.basis:
        c = next(i for i, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return None
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    return None if any(v) else tuple(coords)


def leaf_labels(tree: Tree) -> tuple:
    return tuple(tree.labels[v] for v in tree.leaves)


def reorient(tree: Tree, new_root: int) -> Tree:
    """Same undirected tree with edges redirected away from new_root."""
    if not 0 <= new_root < tree.n_vertices:
        raise UnknownVertexError(f"no vertex {new_root}")
    if new_root == tree.root:
        return tree
    return _orient_from(tree, new_root)


def decode_vertex(poly, model, vertex) -> tuple:
    """Abelian vertex back to its character assignment."""
    if poly.flavor != "abelian":
        raise ValueError("only abelian vertices decode to networks")
    group = model.group
    out = []
    for b in range(poly.n_blocks):
        block = poly.block(vertex, b)
        if sum(block) != 1 or set(block) - {0, 1}:
            raise ValueError("not a unit indicator block")
        out.append(group.element(block.index(1)))
    return tuple(out)


def field_rank_by_elimination(rows) -> int:
    """Rank over Q(zeta_m) of a matrix of CyclotomicInt or CycRational
    entries, by Gaussian elimination in the field: the oracle for the
    realified rank of fourier._field_rank."""
    work = [[e if isinstance(e, CycRational) else CycRational(e) for e in row]
            for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work))
                    if not work[r][col].is_zero()), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, len(work)):
            if not work[r][col].is_zero():
                f = work[r][col] / pivot
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def field_inverse_by_euclid(c: CyclotomicInt) -> CycRational:
    """1/c in Q(zeta_m) by extended Euclid over Q[x] against Phi_m, which is
    irreducible, so the gcd of any nonzero residue with it is a nonzero
    constant: the oracle for cyclotomic._field_inverse."""
    if c.is_zero():
        raise ZeroDivisionError("inverse of zero")

    def trim(p):
        p = list(p)
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p

    r0 = trim(Fraction(x) for x in cyclotomic_polynomial(c.m))
    r1 = trim(Fraction(x) for x in c.coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    # invariant: s_i * c == r_i (mod Phi_m); deg r0 > deg r1 throughout
    while len(r1) > 1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        r = list(r0)
        for k in range(len(r) - 1, len(r1) - 2, -1):
            if r[k] != 0:
                f = r[k] / r1[-1]
                q[k - len(r1) + 1] = f
                for i in range(len(r1)):
                    r[k - len(r1) + 1 + i] -= f * r1[i]
        snew = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    if sj:
                        snew[i + j] -= qi * sj
        r0, r1 = r1, trim(r)
        s0, s1 = s1, snew
    inv = [sj / r1[0] for sj in s1]
    deg = len(c.coeffs)
    inv = (inv + [Fraction(0)] * deg)[:deg]
    den = 1
    for f in inv:
        den = den * f.denominator // gcd(den, f.denominator)
    return CycRational(CyclotomicInt(c.m, tuple(int(f * den) for f in inv)),
                       den)


def primitive(row):
    """row divided by the gcd of its entries, as a tuple; a zero row as it
    is."""
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return tuple(row)
    if g == 0:
        return tuple(row)
    return tuple(x // g for x in row)


def row_reduce_pivots(rows):
    """Gauss-Jordan elimination in integers, one row at a time, stopping
    once the rank is full. Returns (reduced rows sorted by pivot column,
    their pivot columns, indices of the input rows that raised the rank).
    Each reduced row is primitive, positive at its pivot and zero at the
    other rows' pivots: the oracle for lattice._eliminate."""
    rank = len(rows[0]) if rows else 0
    basis = []
    kept = []
    for idx, row in enumerate(rows):
        if len(basis) == rank:
            break
        v = tuple(row)
        for p, b in basis:
            if v[p]:
                v = primitive([b[p] * x - v[p] * y for x, y in zip(v, b)])
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is None:
            continue
        if v[piv] < 0:
            v = tuple(-x for x in v)
        basis = [(p, primitive([v[piv] * x - b[piv] * y
                                for x, y in zip(b, v)]) if b[piv] else b)
                 for p, b in basis]
        basis.append((piv, v))
        kept.append(idx)
    basis.sort(key=lambda pb: pb[0])
    return [b for _, b in basis], [p for p, _ in basis], kept


def kernel_reference(rows, ncols):
    """(pivot columns, kernel basis) of an integer matrix with ncols
    columns. The basis has one primitive integer vector per non-pivot
    column f of row_reduce_pivots: positive at f, zero at the other
    non-pivot columns. The oracle for lattice._kernel."""
    reduced, pivots, _ = row_reduce_pivots(rows)
    den = 1
    for row, p in zip(reduced, pivots):
        den = lcm(den, row[p])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = den
        for row, p in zip(reduced, pivots):
            x[p] = -row[f] * (den // row[p])
        basis.append(primitive(x))
    return pivots, basis


def initial_simplex_reference(zpoints, d):
    """Indices of d+1 affinely independent points (greedy): the first point
    and each later one off the affine hull of those before it. The oracle
    for the start constraints of lattice._dual_dd."""
    base = zpoints[0]
    _, _, kept = row_reduce_pivots(
        [[a - b for a, b in zip(z, base)] for z in zpoints[1:]])
    if len(kept) < d:
        raise AssertionError("points are not full-dimensional after restriction")
    return [0] + [i + 1 for i in kept]


def levels_reference(poly):
    """LatticePolytope.levels by Fourier-Motzkin elimination over ridges,
    one pair of facets at a time in Python integers, from the facet table
    poly._facet_slacks: the oracle for the array levels, order included.

    Eliminating y[j], a facet of the projection is the projection of a
    facet with c[j] == 0, or of a ridge where an upper facet g meets a
    lower facet h: the intersection of their tight sets, when it has at
    least j points and no third facet's tight set holds it. Its facet is
    the primitive combination -h[j]*g + g[j]*h.

    The facets that hold a ridge are those through each of its points, so
    the ridge test intersects a bitset over facets per point of the ridge,
    where the array code tests every facet's tight set against the ridge.
    It takes about 0.3 s on the Z4 quartet (a,(b,(c,d)));, whose levels
    grow to 1,054 facets, and a scan of every tight set 3 to 4 s."""
    r, n = poly.lattice.rank, len(poly.points)
    rows, slack = poly._facet_slacks
    facets = [(tuple(row[:-1]), row[-1],
               sum(1 << i for i, s in enumerate(gaps) if s == 0))
              for row, gaps in zip(rows.tolist(), slack.tolist())]
    levels = [None] * r
    for j in range(r - 1, -1, -1):
        upper = [f for f in facets if f[0][j] > 0]
        lower = [f for f in facets if f[0][j] < 0]
        rows = upper + lower
        levels[j] = (tuple(c for c, _, _ in rows),
                     tuple(b for _, b, _ in rows), len(upper))
        if j == 0:
            break
        through = [sum(1 << g for g, (_, _, t) in enumerate(facets)
                       if t >> i & 1) for i in range(n)]
        projected = [(c[:j], b, t) for c, b, t in facets if c[j] == 0]
        for g, bg, tg in upper:
            for h, bh, th in lower:
                common = tg & th
                if common.bit_count() < j:
                    continue
                holders = -1
                for i in range(n):
                    if common >> i & 1:
                        holders &= through[i]
                if holders.bit_count() > 2:
                    continue
                row = primitive([-h[j] * gi + g[j] * hi
                                 for gi, hi in zip(g[:j], h[:j])] +
                                [-h[j] * bg + g[j] * bh])
                projected.append((row[:-1], row[-1], common))
        facets = projected
    return tuple(levels)


def dual_dd_reference(zpoints, d):
    """Facets (c, rhs), c.z <= rhs, of conv(zpoints) in R^d (full-
    dimensional case) by double description on the polar cone
    {v : (z_i, 1).v <= 0}, one ray and one zero set at a time in Python
    integers: the oracle for lattice._dual_dd, order included.

    The initial rays are those of the simplex cone of d+1 independent
    constraints: ray j spans the kernel of all of them but the j-th, on
    which it is negative. A ray's zero set (its tight constraints) is a
    Python int bitset. Two rays of the (d+1)-dimensional cone can be
    adjacent only when they share at least d-1 tight constraints, and are
    when no third ray's zero set holds their common one."""
    cons = [tuple(z) + (1,) for z in zpoints]
    start = initial_simplex_reference(zpoints, d)
    amat = [cons[i] for i in start]
    rays = []
    zero_sets = []
    start_bits = sum(1 << i for i in start)
    for j in range(d + 1):
        _, (ray,) = kernel_reference(amat[:j] + amat[j + 1:], d + 1)
        if sum(a * x for a, x in zip(amat[j], ray)) > 0:
            ray = tuple(-x for x in ray)
        rays.append(ray)
        zero_sets.append(start_bits & ~(1 << start[j]))

    start_set = set(start)
    order = [i for i in range(len(cons)) if i not in start_set]
    for t in order:
        a = cons[t]
        bit = 1 << t
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        if not plus:
            zero_sets = [zs | bit if v == 0 else zs
                         for zs, v in zip(zero_sets, vals)]
            continue
        minus = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new_rays = [rays[i] for i in minus + zero]
        new_zero = [zero_sets[i] for i in minus] + \
            [zero_sets[i] | bit for i in zero]
        for i in plus:
            zi = zero_sets[i]
            for j in minus:
                common = zi & zero_sets[j]
                if common.bit_count() < d - 1:
                    continue
                for k, zs in enumerate(zero_sets):
                    if (zs & common) == common and k != i and k != j:
                        break
                else:
                    comb = [vals[i] * rj - vals[j] * ri
                            for ri, rj in zip(rays[i], rays[j])]
                    new_rays.append(primitive(comb))
                    new_zero.append(common | bit)
        rays, zero_sets = new_rays, new_zero
    return [(tuple(ray[:-1]), -ray[-1]) for ray in rays]


def decompose_reference(q, n, points):
    """(found, examined) of the exhaustive search for q = p_1 + ... + p_n,
    each p_i a lattice point of conv(points), index-nondecreasing over the
    lattice points in ambient order: a node tests its remainder against
    the halfspaces of its dilate in Python integers (HRep.contains), and
    the root against the lattice too. The oracle for lattice.decompose,
    which tests every child at once on P's slack table; examined counts
    every node this search enters."""
    poly = points if isinstance(points, LatticePolytope) \
        else LatticePolytope(points)
    lat, hrep = poly.lattice, poly.hrep
    s1 = lattice_points_in_dilate(poly, 1)
    examined = 0
    dead = set()

    def rec(rest, k, lo):
        nonlocal examined
        examined += 1
        if k == 0:
            return [] if not any(rest) else None
        key = (rest, k, lo)
        if key in dead:
            return None
        if not hrep.contains(rest, k) or \
                k == n and not lat.contains(rest, k):
            dead.add(key)
            return None
        for idx in range(lo, len(s1)):
            sub = rec(tuple(a - b for a, b in zip(rest, s1[idx])), k - 1, idx)
            if sub is not None:
                return [s1[idx]] + sub
        dead.add(key)
        return None

    found = rec(tuple(q), n, 0)
    return None if found is None else tuple(found), examined


def least_witness_reference(poly, n):
    """The least point of nP in ambient order that is no sum of n lattice
    points of P, or None, for a LatticePolytope P that carries two or more
    stars: the oracle of the tree route's witness.

    The points of nP are joined lazily from the points of its stars' nP_s
    (lattice_points_in_dilate of each star projection), one column at a
    time in ambient order: a column takes, in increasing order, each value
    that every star holding it still has at some point agreeing with the
    columns fixed so far. By the fiber-product lemma (tree_idp_check) these
    tuples are the lattice points of nP, and one is undecomposable exactly
    when one of its parts is in its star, which decompose_reference tests,
    part by part, as each tuple is reached."""
    stars = poly.stars
    projections = [LatticePolytope(p) for p in poly.star_projections]
    at = [{c: i for i, c in enumerate(cols)} for cols in stars]
    dim = len(poly.points[0])
    undecomposable = {}

    def join(c, alive):
        if c == dim:
            yield ()
            return
        holders = [s for s in range(len(stars)) if c in at[s]]
        for x in sorted(set.intersection(*({p[at[s][c]] for p in alive[s]}
                                           for s in holders))):
            rest = list(alive)
            for s in holders:
                rest[s] = [p for p in alive[s] if p[at[s][c]] == x]
            for tail in join(c + 1, rest):
                yield (x,) + tail

    for q in join(0, [lattice_points_in_dilate(p, n) for p in projections]):
        for s, cols in enumerate(stars):
            part = tuple(q[c] for c in cols)
            if (s, part) not in undecomposable:
                undecomposable[s, part] = decompose_reference(
                    part, n, projections[s])[0] is None
            if undecomposable[s, part]:
                return q
    return None
