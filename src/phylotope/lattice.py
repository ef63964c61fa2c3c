"""Exact lattice geometry for integer polytopes.

Hermite-normal-form lattices, facet descriptions via incremental double
description in exact integers, lattice-point enumeration in dilates, the
integer decomposition property check, and the fiber product that mirrors
tree gluing. A LatticePolytope carries a polytope with the data these
derive from it, each computed once.

The facet layer runs on integer arrays, on two kernels. One exact
elimination, _eliminate, is a fraction-free (Bareiss) Gauss-Jordan batched
over a stack of matrices; every rank, kernel, greedy independent set and
inverse of the layer, and fourier's field ranks, are read off its reduced
form. One adjacent-pair step, _combine, crosses a hyperplane: it combines
each pair of rays on its two sides whose common zero set no third ray's
holds. The double description keeps its rays in one 2-D array and their
zero sets as packed uint64 bitsets, so the adjacency test of all
candidate pairs of a step is one array operation, in chunks. Every facet
is then certified from one matrix of slacks: it holds on every point, and
its tight points have affine rank d-1, as one elimination batched over all
facets shows. LatticePolytope keeps one facet table, _facet_slacks: its
facet rows and slacks in lattice coordinates, from one such matrix.

The double description runs on point sets and on stars, never on a whole
tree. The polytope of a tree, abelian or projected, is the fiber product of
its star projections over its inner edges, each gluing a toric fiber
product over a simplex (Sullivant, 2007), so its inequalities are its
stars' inequalities, pulled back. A LatticePolytope that knows its stars
(star_columns) certifies that it is that fiber product, by a sum-product
count of the stars' points, runs the double description on each distinct
star projection, pulls every star facet back to its own coordinates, and
keeps those the facet certificate passes: a pulled-back row that is tight
only on a lower face is dropped. tree_idp_check needs no facets of a tree
at all; a whole-tree idp_check of a LatticePolytope with stars, the
tests' oracle for it, does.

Dilates are enumerated by project and lift, in the intrinsic lattice
coordinates y of a polytope P: a point of nP is x = n*anchor + y.B. The
facets of every projection of P onto y[:j] are computed once per polytope,
from P's own certified facets by Fourier-Motzkin elimination over ridges:
eliminating y[j] is one _combine step across y[j] = 0, on the facets and
their tight sets over P's points. So the facets are found once per
polytope, and the double description's adjacency test is the ridge test.
Level j of the scan of nP keeps exactly the integer points of the
projection of nP, for every n.
The scan runs depth first and yields nP in small blocks, in lexicographic
order, so no level is ever held in full; each level's bound table is built
on its parents' products before they branch. Lexicographic order in y is
ambient order in x, since the basis is echelon with positive pivots:
where two rows y first differ, at coordinate j, their points x first
differ at the pivot column of basis row j, with the same sign. So
nothing the scan yields is sorted again. Points are solved in the lattice by one routine,
AffineLattice.coordinate_rows, one point or many.

The IDP check decides each split q = v + p (v in P, p in (n-1)P) on one
int64 mixed-radix code per point, in lattice coordinates: for a point of
kP, digit j is y[j] - k*min y[j] in [0, k*span_j]. One radix
top*span_j + 1 serves every degree k <= top, top being the highest degree
checked whose codes fit in int64, so the codes of v and p add without carry
to the code of q. Between degrees it keeps only the sorted codes of the
last degree, one int64 per point, as they are; a degree's rows, when a
tree's witness needs them, are decoded from its codes (_decode). Rows
return to ambient coordinates only for a witness, the first undecomposable
row the scan yields, which is the least, for a tree's claws at the degree
of its witness, for lattice_points_in_dilate, and for the points of a
decomposition. decompose searches on P's slack table: a
remainder's facet slacks, less those of a lattice point of P, are the
next remainder's. The lattice points of a 0/1 polytope are its points,
so such a P is never scanned for them.

A claw is decided on a pulling triangulation instead (pulling_idp_check),
at a cost that grows with its normalized volume rather than with its
dilates. The triangulation is streamed from the least vertex over the
faces cut out by P's facets. Each simplex, homogenized, is solved by
forward substitution along its flag of faces, in integers; its half-open
parallelepiped, cut by a generic interior point, adds its points to h*,
and a point of degree k >= 2 that is no lattice point of P plus a point of
the cone over P shows that P first fails at a degree <= k. That degree is
then scanned for the least witness; otherwise the counts are
L(n) = sum_k h*_k C(n - k + r, r). The h* streamed so far bounds the
scan's points from below, so the stream gives way to the scan of the whole
ceiling once it has cost more than that bound: a low ceiling or a large
volume is still scanned.

The polytope P of a tree with two or more inner vertices, abelian or
projected, is the fiber product of its stars over the inner edges
(Sullivant, 2007), and each star is the standard claw of its degree up to
a permutation of its columns: chi -> -chi on the block of the edge from
its parent (_claw_columns). The lattice points of nP are the tuples of its
stars' points that agree on the inner edges, and such a tuple is a sum of
points of P exactly when every part is (tree_idp_check proves it). So
tree_idp_check decides P on one claw per vertex degree, each decided once
as pulling_idp_check does and its dilates counted once per degree
(_claw_degrees): off the classes of its triangulation's stream, where the
claw is keyed by one block and triangulated, so no dilate is scanned; by a
plain scan of each dilate, where the triangulation showed the claw Normal;
and by one scan that both tallies and split-tests each dilate, where the
triangulation hands the claw on. The stars, linked by the columns they
share, form a tree (_star_tree), and one sum-product over it (_sum_product)
counts P's points per degree, on its claws' tallies by inner-edge blocks,
and, on the stars' points, the fiber product that certifies a
LatticePolytope with stars. P first fails where a claw does; there the
claws' rows, read through each star's column map, give P's least witness by
a greedy descent over its columns (_descent), certified without P's facets.
P itself is built only for its points, against which its count at degree 1
is checked, and its lattice, which holds the witness.

Overflow guards: the scan and the codes run on numpy integer arrays, each
bounded first in Python integers. The scan of nP runs in the narrowest of
int16, int32 and int64 whose signed range holds 2*max(n, 1)*magnitude,
which bounds every value and child count it computes; past int64, that is
once max(n, 1)*magnitude reaches 2**62, it raises. Its rows leave it as
int64. The codes are int64 and must stay below 2**63, so the check raises
at the first degree past top, and so do the claw tallies' int64 key codes
past their own bound. The facet arrays are int64 while each step's actual
maxima bound the values it computes below 2**62, and Python ints
(dtype=object) past that, on the same code path; so are the lattice
coordinates of points and the rows they return to in ambient
coordinates, the triangulation's reducibility test, on the actual maxima
of P's facet rows and lattice points, and the class tallies, under L(n)
and their binomial products. A triangulation raises past _PULL_CAP faces
memoized or simplices streamed, the only bound of its stream, and
the claw goes to the scan. An instance beyond a bound raises
ScaleExceededError instead of wrapping. Rows go back to ambient
coordinates in Python integers, so every reported number is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from math import comb, prod
from operator import mul

import numpy as np

from .errors import (BlockWidthMismatchError, ProjectionNotInSimplexError,
                     ScaleExceededError)
from .polytope import _CAP, ModelPolytope, _projected, build_polytope
from .trees import Tree, glue


def hermite_normal_form(rows):
    """Row-style HNF of an integer matrix: echelon form, positive pivots,
    entries above a pivot reduced into [0, pivot). Zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return []
    cols = len(work[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            while work[i][c]:
                q = work[r][c] // work[i][c]
                work[r] = [a - q * b for a, b in zip(work[r], work[i])]
                work[r], work[i] = work[i], work[r]
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
        for i in range(r):
            q = work[i][c] // work[r][c]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
    return [tuple(row) for row in work[:r]]


@dataclass(frozen=True)
class AffineLattice:
    """anchor + (integer span of basis rows); basis is in HNF."""

    anchor: tuple
    basis: tuple   # tuple of integer row tuples, echelon

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, point, scale: int = 1):
        """Integer coordinates of point - scale*anchor in the basis, or None.

        scale k tests membership in the lattice translated to k*anchor,
        which is the point lattice of the dilate kP. The point, shifted by
        (k - 1)*anchor, is solved as the one row of coordinate_rows, which
        raises ValueError for a point whose length is not the anchor's.
        """
        if len(point) == len(self.anchor):
            point = tuple(p - (scale - 1) * a
                          for p, a in zip(point, self.anchor))
        ys, inside = self.coordinate_rows([point])
        return tuple(ys[0].tolist()) if inside[0] else None

    def contains(self, point, scale: int = 1) -> bool:
        return self.coordinates(point, scale) is not None

    def coordinate_rows(self, points):
        """(ys, inside): the coordinates of every point of a sequence at
        once, by back-substitution row by row of the echelon basis, on
        integer arrays; the one lattice solve of the package, coordinates
        and contains included. ys has one row per point, and
        inside marks the points in the lattice; the row of a point outside
        is meaningless. The arrays follow _exact's rule on each step's
        actual maxima. Raises ValueError for a point whose length is not
        the anchor's."""
        width = len(self.anchor)
        for p in points:
            if len(p) != width:
                raise ValueError(f"point of length {len(p)} in a lattice of "
                                 f"length {width}")
        xs = _int_array(list(points) + [self.anchor], width)
        xs = _exact(2 * _absmax(xs), xs)[0]
        v = xs[:-1] - xs[-1]
        cols = []
        for row in _int_array(self.basis, width):
            c = np.flatnonzero(row != 0)[0]
            # a slice, so that a pivot past int64 divides an int64 v as an
            # object array; the bound holds row itself, even at q = 0
            q = v[:, c] // row[c:c + 1]
            v, q, row = _exact(_absmax(v) + (_absmax(q) + 1) * _absmax(row),
                               v, q, row)
            v -= q[:, None] * row
            cols.append(q)
        # the later rows are zero at c, so a remainder there stays in v
        inside = ~(v != 0).any(axis=1)
        ys = np.stack(cols, axis=1) if cols else np.zeros((len(v), 0),
                                                          dtype=np.int64)
        return _exact(_absmax(ys), ys)[0], inside


def spanned_lattice(points) -> AffineLattice:
    """The affine lattice generated by a point set: anchored at the smallest
    point, spanned by all differences."""
    pts = sorted(tuple(p) for p in points)
    if not pts:
        raise ValueError("need at least one point")
    anchor = pts[0]
    diffs = [[x - a for x, a in zip(p, anchor)] for p in pts[1:]]
    return AffineLattice(anchor=anchor, basis=tuple(hermite_normal_form(diffs)))


@dataclass(frozen=True)
class HRep:
    """Exact halfspace description: equalities c.x == rhs and inequalities
    c.x <= rhs, all integer and primitive. Dilates scale the right side.
    contains raises ValueError for a point whose length is not the rows'.
    A description with no rows is that of the one point of R^0, the only
    hull facet_description gives none, so its points have length 0."""

    equalities: tuple
    inequalities: tuple

    def contains(self, point, scale: int = 1) -> bool:
        rows = self.equalities or self.inequalities
        width = len(rows[0][0]) if rows else 0
        if len(point) != width:
            raise ValueError(f"point of length {len(point)} against "
                             f"rows of length {width}")
        for c, b in self.equalities:
            if sum(x * y for x, y in zip(c, point)) != b * scale:
                return False
        for c, b in self.inequalities:
            if sum(x * y for x, y in zip(c, point)) > b * scale:
                return False
        return True


def _absmax(a) -> int:
    """The largest absolute value in an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _exact(bound, *arrays):
    """The arrays as int64 when bound, which bounds every value computed
    from them next, is below 2**62, and as Python ints (dtype=object) past
    it."""
    dtype = np.int64 if bound < _INT64_SAFE else object
    return [a if a.dtype == dtype else a.astype(dtype) for a in arrays]


def _int_array(rows, width):
    """Integer rows of the given width as a 2-D array, by _exact's rule on
    their entries."""
    try:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        a = np.array(rows, dtype=object).reshape(len(rows), width)
    return _exact(_absmax(a), a)[0]


def _matmul(a, b):
    """a @ b in exact integers, by _exact's rule on a bound that the
    operands' actual maxima give every sum of products."""
    ma, mb = _absmax(a), _absmax(b)
    a, b = _exact(max(ma, mb, a.shape[-1] * ma * mb), a, b)
    return a @ b


def _eliminate(stack):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a stack of
    integer matrices, all at once and in place. Returns (the reduced stack,
    pivots): pivots[k, c] is the row of matrix k whose pivot is in column
    c, or -1 when column c has none.

    Column by column, each matrix takes as pivot row its first row that is
    nonzero there and no pivot yet, if it has one. Every other row becomes
    p*row - row[c]*pivot row, p the new pivot, divided exactly by the
    matrix's previous pivot; the pivot row stays. So every entry is a minor
    of the matrix (Bareiss, 1968), and every pivot equals the last one, D:
    a pivot column is D at its pivot row and zero elsewhere, and the rows
    divided by D are the reduced row echelon form. The rank is the number
    of pivots, and the pivot columns are the greedy independent columns.
    The columns stop once every row is a pivot. The entries are int64 while
    the step's actual maxima bound its products below 2**62, and Python
    ints past that (_exact)."""
    m = stack
    count, rows, cols = m.shape
    at = np.arange(count)
    pivots = np.full((count, cols), -1)
    used = np.zeros((count, rows), dtype=bool)
    prev = np.ones(count, dtype=np.int64)
    for c in range(cols):
        if used.all():
            break
        free = (m[:, :, c] != 0) & ~used
        has = free.any(axis=1)   # the matrices with a pivot in column c
        if not has.any():
            continue
        r = free.argmax(axis=1)
        mx = _absmax(m)   # at least 1, and each prev is an entry of m
        m, prev = _exact(2 * mx * mx, m, prev)
        # a matrix with no pivot here takes a zero pivot row, p = 1 and
        # divisor 1, so it stays as it is
        pivot = m[at, r] * has[:, None]
        p = np.where(has, pivot[:, c], 1)
        cross = m[:, :, c, None] * pivot[:, None]
        m *= p[:, None, None]
        m -= cross
        del cross
        m //= np.where(has, prev, 1)[:, None, None]
        m[at, r] += pivot   # the pivot row came out zero
        used[at, r] |= has
        pivots[:, c] = np.where(has, r, -1)
        prev = np.where(has, p, prev)
    return m, pivots


def _kernel(rows, ncols):
    """(pivot columns, kernel basis) of an integer matrix with ncols
    columns, read off its reduced form (_eliminate), whose pivots all equal
    D. The basis has one primitive vector per non-pivot column f: D at f,
    zero at the other non-pivot columns and -row[f] at each row's pivot
    column, made positive at f."""
    (m,), (pivot_row,) = _eliminate(_int_array(rows, ncols)[None])
    cols = np.flatnonzero(pivot_row >= 0)
    free = np.flatnonzero(pivot_row < 0)
    d = m[pivot_row[cols[-1]], cols[-1]] if len(cols) else 1
    basis = np.zeros((len(free), ncols), dtype=m.dtype)
    basis[:, free] = d * np.identity(len(free), dtype=m.dtype)
    basis[:, cols] = -m[pivot_row[cols]][:, free].T
    basis //= np.gcd.reduce(basis, axis=1)[:, None] * (1 if d > 0 else -1)
    return cols.tolist(), list(map(tuple, basis.tolist()))


def _bit_count(bits):
    """The set bits of each row of packed uint64 bitsets, along the last
    axis: each byte is counted by lookup, and the eight counts of a word
    are summed into its top byte by one multiplication."""
    counts = _POPCOUNT[bits.view(np.uint8)].view(np.uint64) \
        * np.uint64(0x0101010101010101) >> np.uint64(56)
    total = counts[..., 0]
    for w in range(1, counts.shape[-1]):
        total = total + counts[..., w]
    return total


def _adjacent(zero, plus, minus, d):
    """The adjacent pairs (i, j), i in plus and j in minus, of the rays
    whose zero sets are the rows of the packed bitsets zero, as (i, j,
    their common zero set), in plus-major order.

    Two rays of the (d+1)-dimensional cone are adjacent when their common
    zero set has at least d-1 elements and no third ray's zero set holds
    it. Both tests run on all candidate pairs of a step at once, in chunks
    of at most _FACET_CELLS pairs or (pair, ray) cells, word by word: bits
    are counted through a byte lookup table, and a ray holds a common set
    when no word of the set meets the ray's complement."""
    words = zero.shape[1]
    outside = ~zero
    found = []
    step = max(1, _FACET_CELLS // max(1, len(minus) * words))
    rows = max(1, _FACET_CELLS // len(zero))
    for s in range(0, len(plus), step):
        p = plus[s:s + step]
        common = zero[p, None] & zero[minus]
        pi, mj = np.nonzero(_bit_count(common) >= d - 1)
        common = common[pi, mj]
        held = np.empty(len(common), dtype=bool)
        for c in range(0, len(common), rows):
            part = common[c:c + rows]
            miss = part[:, None, 0] & outside[:, 0]
            for w in range(1, words):
                miss |= part[:, None, w] & outside[:, w]
            # i and j hold it, and no third ray
            held[c:c + rows] = (miss == 0).sum(axis=1) == 2
        found.append((p[pi[held]], minus[mj[held]], common[held]))
    i, j, common = (np.concatenate(parts) for parts in zip(*found))
    return i, j, common


def _combine(rays, vals, zero, plus, minus, d):
    """One double-description step across a hyperplane, whose values on
    the rays are vals: for each adjacent pair (i, j) of rays, i in plus and
    j in minus (_adjacent), in plus-major order, the primitive combination
    vals[i]*rays[j] - vals[j]*rays[i], which lies on the hyperplane, and
    the pair's common zero set. Returns them as two arrays, by _exact's
    rule on the combinations."""
    i, j, common = _adjacent(zero, plus, minus, d)
    rays, vals = _exact(2 * _absmax(vals) * _absmax(rays), rays, vals)
    new = vals[i, None] * rays[j] - vals[j, None] * rays[i]
    new //= np.gcd.reduce(new, axis=1)[:, None]
    return new, common


def _dual_dd(zh, d):
    """Facets of the convex hull of the points z in R^d (full-dimensional
    case), given as the rows (z, 1) of the integer array zh, by double
    description (Fukuda-Prodon) on the polar cone {v : (z, 1).v <= 0}: one
    constraint per point, and the extreme rays of the cone are the facets.
    Returns the rays as the rows of an integer array; a ray (c, c0) is the
    facet c.z <= -c0.

    The initial rays are those of the simplex cone of d+1 independent
    constraints A: ray j spans the kernel of all of them but the j-th, on
    which it is negative, so it is minus column j of A^-1. One elimination
    of [zh^T | I] gives both: A is the pivot columns of zh^T, the greedy
    independent constraints from the first, which are the first point and
    the greedy affinely independent ones after it, and A^-1 is read off
    the right block. Each further constraint keeps the rays it does not
    cut, minus then zero ones, and appends the primitive combination of
    each adjacent pair across it (_combine), plus-major; this fixes the
    order of the facets. A ray's zero set (its tight constraints) is a row
    of packed uint64 bitsets.

    The rays and the values of a constraint on them are int64 while the
    actual maxima of a step bound its sums of products below 2**62, and
    Python ints (dtype=object) past that (_exact)."""
    # [zh^T | I] reduces to D*I on A's columns and to D*A^-T on the right,
    # so the row of start constraint j ends in D times column j of A^-1
    (m,), (pivot_row,) = _eliminate(np.concatenate(
        [zh.T, np.identity(d + 1, dtype=zh.dtype)], axis=1)[None])
    start = np.flatnonzero(pivot_row[:len(zh)] >= 0)
    if len(start) <= d:
        raise AssertionError("points are not full-dimensional after restriction")
    rays = m[pivot_row[start], len(zh):]
    rays //= np.gcd.reduce(rays, axis=1)[:, None] * (
        -1 if m[pivot_row[0], 0] > 0 else 1)
    start = start.tolist()
    zero = np.zeros((d + 1, (len(zh) + 63) // 64), dtype=np.uint64)
    for j, t in enumerate(start):
        zero[np.arange(d + 1) != j, t // 64] |= np.uint64(1 << t % 64)

    start_set, mz = set(start), _absmax(zh)
    for t in range(len(zh)):
        if t in start_set:
            continue
        word, bit = t // 64, np.uint64(1 << t % 64)
        rays = _exact((d + 1) * _absmax(rays) * mz, rays)[0]
        vals = rays @ zh[t]
        at = vals == 0
        plus = np.flatnonzero(vals > 0)
        if not len(plus):
            zero[at, word] |= bit
            continue
        minus = np.flatnonzero(vals < 0)
        new, common = _combine(rays, vals, zero, plus, minus, d)
        common[:, word] |= bit
        keep = np.concatenate([minus, np.flatnonzero(at)])
        zero = np.concatenate([zero[keep], common])
        zero[len(minus):len(keep), word] |= bit
        rays = np.concatenate([rays[keep], new])
    return rays


def _tight_ranks(zh, tight):
    """For each row of the boolean array tight, the rank of the rows of zh
    it marks: the pivots of one elimination of all of them (_eliminate),
    each facet's rows padded with zero rows to the longest."""
    counts = tight.sum(axis=1)
    width = int(counts.max(initial=0))
    stack = zh[np.argsort(~tight, axis=1, kind="stable")[:, :width]]
    stack[np.arange(width) >= counts[:, None]] = 0
    return (_eliminate(stack)[1] >= 0).sum(axis=1)


def facet_description(poly) -> HRep:
    """Exact H-representation of the convex hull of a point sequence, of a
    ModelPolytope's vertices or of a LatticePolytope: affine-hull
    equalities plus facet inequalities, on a full-dimensional coordinate
    restriction.

    The hull comes from the polytope's lattice anchor + span(basis): its
    equalities c.x == c.anchor are the kernel of the basis rows, and the
    pivot columns of the echelon basis are the restriction's coordinates.

    The candidate inequalities come from double description (_dual_dd)
    on the points, or, for a LatticePolytope with two or more stars, from
    the facets of its star projections, pulled back (_star_rays): the
    double description then runs on the stars alone.

    Every candidate is certified in the restricted coordinates: it holds on
    every point, or this raises AssertionError, and it is tight on points
    of affine rank d-1. A double-description candidate that is not raises
    AssertionError too; a pulled-back one that is not is a lower face of P,
    and is dropped. The certificate runs on one matrix of slacks per chunk
    of candidates, at most _FACET_CELLS cells: each candidate's tight
    points, homogenized, must have rank d, and their ranks come from one
    batched elimination (_tight_ranks). The arrays follow _exact's rule:
    int64 while the actual maxima bound the next products below 2**62,
    Python ints past it."""
    poly = _as_polytope(poly)
    pts = poly.points
    if len(pts) > _POINT_CAP:
        raise ScaleExceededError(f"{len(pts)} points exceed cap {_POINT_CAP}")
    lat = poly.lattice
    pivots, normals = _kernel(lat.basis, len(lat.anchor))
    equalities = [(c, sum(ci * x for ci, x in zip(c, lat.anchor)))
                  for c in normals]
    d = len(pivots)
    if d > _DIM_CAP:
        raise ScaleExceededError(f"dimension {d} exceeds cap {_DIM_CAP}")
    dim = len(pts[0])
    xh = _int_array([p + (1,) for p in pts], dim + 1)
    if equalities and _matmul(_int_array([c + (-b,) for c, b in equalities],
                                         dim + 1), xh.T).any():
        raise AssertionError("an affine-hull equality rejects an input point")
    inequalities = []
    if d > 0:
        zh = xh[:, pivots + [dim]]
        pulled = len(poly.stars) >= 2
        rays = _star_rays(poly, xh, pivots) if pulled else _dual_dd(zh, d)
        facet = np.ones(len(rays), dtype=bool)
        step = max(1, _FACET_CELLS // zh.size)
        for s in range(0, len(rays), step):
            part = rays[s:s + step]
            slack = -_matmul(part, zh.T)   # -c0 - c.z, ray by ray
            bad = (slack < 0).any(axis=1)
            flat = _tight_ranks(zh, slack == 0) < d
            failed = np.flatnonzero(bad if pulled else bad | flat)
            if len(failed) and bad[failed[0]]:
                raise AssertionError(
                    "facet description rejects an input point")
            if len(failed):
                c, rhs = part[failed[0], :d].tolist(), -part[failed[0], d]
                raise AssertionError(f"inequality {tuple(c)} <= {int(rhs)} "
                                     "is not tight on a facet")
            facet[s:s + step] = ~flat
        for row in rays[facet].tolist():
            full = [0] * dim
            for x, col in zip(row, pivots):
                full[col] = x
            inequalities.append((tuple(full), -row[d]))
    return HRep(equalities=tuple(equalities), inequalities=tuple(inequalities))


def _star_rays(poly, xh, pivots):
    """The facets of each distinct star projection of the LatticePolytope
    P, pulled back to rays (c, c0) of P's restriction to the pivot columns
    of its lattice, as _dual_dd gives them: primitive, distinct, c.z <= -c0.

    With P's equalities the star projections (star_projections) describe P,
    which they certify to be their fiber product over the columns two stars
    share. A star facet c.x <= b, lifted to P's columns, then holds on P.
    On P's affine hull, x = anchor + y.B and z = anchor_z + y.A, A the basis
    on the pivot columns, upper triangular with positive pivots; so c.x =
    c.anchor + y.(B.c), and c.x <= b reads c_z.z <= b - c.anchor +
    c_z.anchor_z for the c_z with A.c_z = B.c. D*A^-1 comes off one
    elimination of [A | I], so the ray of every lifted row (c, -b) is that
    row times one integer matrix, then made primitive. Two lifted rows give
    the same halfspace of P's affine hull exactly when their primitive rays
    are equal, so once duplicates are dropped each facet of P has one ray;
    the certificate drops the rays of lower faces."""
    stars, dim = poly.stars, xh.shape[1] - 1
    lat, d = poly.lattice, len(pivots)
    basis = _int_array(lat.basis, dim)
    (m,), (piv,) = _eliminate(np.concatenate(
        [basis[:, pivots], np.identity(d, dtype=basis.dtype)], axis=1)[None])
    # A is triangular with positive pivots, so D = det A > 0; row i of
    # to_z is D*c_z for c = e_i: c.to_z = (D*A^-1.B.c)^T
    scale = int(m[piv[0], 0])
    to_z = _matmul(basis.T, m[piv[:d], d:].T).tolist()
    anchor_z = [lat.anchor[c] for c in pivots]
    # the ray of a lifted row (c, -b), times D, is (c, -b).pull
    pull = _int_array([row + [scale * a - sum(map(mul, row, anchor_z))]
                       for row, a in zip(to_z, lat.anchor)] +
                      [[0] * d + [scale]], d + 1)
    lifted, seen = [], {}
    for cols, key in zip(stars, poly.star_projections):
        if key not in seen:
            seen[key] = facet_description(key).inequalities
        for c, b in seen[key]:
            row = [0] * (dim + 1)
            for col, x in zip(cols, c):
                row[col] = x
            row[dim] = -b
            lifted.append(row)
    rays = _matmul(_int_array(lifted, dim + 1), pull)
    rays //= np.gcd.reduce(rays, axis=1)[:, None]
    return _int_array(list(dict.fromkeys(map(tuple, rays.tolist()))), d + 1)


def _check_fiber_product(projections, stars, dim, count):
    """Raise AssertionError unless count distinct points of length dim,
    whose star projections (the distinct rows on each star's columns, in
    the star's column order) are given, are all the tuples of star points
    that agree on the columns two stars share.

    The stars must cover every column, and the stars that share columns
    must form a tree (_star_tree), as the stars of a tree's inner vertices
    do over its inner edges. Every shared block must be a unit vector at
    every point, so that each gluing is a fiber product over a simplex
    (Sullivant, 2007), and the polytope the fiber product of its stars'
    polytopes. The tuples are counted by the sum-product over that tree
    (_sum_product), each star's table its points by their shared blocks.
    The points map one to one into the tuples, since the stars cover every
    column, so equal counts make them equal sets."""
    if set().union(*stars) != set(range(dim)):
        raise AssertionError("the stars miss a column of the polytope")
    plan = _star_tree(stars)
    tables = {}
    for s, up, kids in plan:
        at = {c: k for k, c in enumerate(stars[s])}
        links = ([up] if up else []) + [cols for _, cols in kids]
        tables[s] = []
        for row in projections[s]:
            blocks = tuple(tuple(row[at[c]] for c in cols) for cols in links)
            for cols, block in zip(links, blocks):
                if sorted(block) != [0] * (len(cols) - 1) + [1]:
                    raise AssertionError(
                        f"the block of columns {list(cols)} shared by two "
                        f"stars is {sorted(block)} at a point, no unit "
                        "vector")
            tables[s].append((blocks, 1))
    total = _sum_product(plan, tables)
    if total != count:
        raise AssertionError(f"the stars' fiber product has {total} points, "
                             f"the polytope {count}")


def _star_tree(stars):
    """The stars (column tuples) linked by the columns they share, as a
    plan for _sum_product: (star, up, kids) for each star, after its
    children, rooted at star 0, which comes last. up holds the columns the
    star shares with its parent, sorted, and is empty at the root; kids
    holds (child, the columns they share) in star order. Raises
    AssertionError unless the links form a tree."""
    links = [[] for _ in stars]   # per star: (neighbour, shared columns)
    for i, a in enumerate(stars):
        for j, b in enumerate(stars[:i]):
            shared = tuple(sorted(set(a) & set(b)))
            if shared:
                links[i].append((j, shared))
                links[j].append((i, shared))
    order, parent = [0], {0: (None, ())}
    for s in order:
        for t, shared in links[s]:
            if t not in parent:
                parent[t] = s, shared
                order.append(t)
    if len(order) != len(stars) or sum(map(len, links)) != 2 * len(order) - 2:
        raise AssertionError("the stars that share columns form no tree")
    return [(s, parent[s][1], [(t, shared) for t, shared in links[s]
                               if parent[t][0] == s])
            for s in reversed(order)]


def _sum_product(plan, tables):
    """The tuples of rows, one of tables[s] for each star s of the plan
    (_star_tree), that agree on every block two linked stars share, each
    counted as the product of its rows' counts, in Python integers.

    tables[s] lists (blocks, count): the blocks of star s on its links,
    the one it shares with its parent first, when it has one, then one per
    child, in kids' order; a block may be any hashable value the two ends
    of a link agree on. Each star sends its parent, keyed by the block
    they share, the count of its subtree's tuples."""
    sent = {}
    for s, up, kids in plan:
        into = [sent[t] for t, _ in kids]
        lead = 1 if up else 0
        out = {}
        for blocks, count in tables[s]:
            for got, block in zip(into, blocks[lead:]):
                count *= got.get(block, 0)
            if count:
                head = blocks[0] if up else ()
                out[head] = out.get(head, 0) + count
        sent[s] = out
    return sent[plan[-1][0]].get((), 0)


# Cells (rows x constraints) of the widest bound table in a dilate's scan.
# Its row count is the most rows any level holds at once, and the most
# points in one block the scan yields. It also bounds the cells (classes x
# keys) of one chunk of a claw's class tallies.
_CHUNK_CELLS = 1 << 17
# The scan's integer types, narrowest first. The scan of nP runs in the
# first whose signed range holds 2*max(n, 1)*magnitude: max(n, 1)*magnitude
# bounds every value it computes, the coefficients included, and
# 2*n*magnitude + 1 every child count, as _dilate_blocks shows. For int64
# the rule reads max(n, 1)*magnitude < 2**62; past it, the scan raises.
_SCAN_TYPES = (np.int16, np.int32, np.int64)
# Cap on the points of one dilate, read when a scan runs. idp_check holds
# one int64 code per point of a degree, 8 bytes each, so this bounds what it
# keeps.
_ROW_CAP = 20_000_000
# Caps on the input of facet_description: distinct points, affine dimension.
_POINT_CAP = 1500
_DIM_CAP = 24
# The facet arrays of facet_description hold int64 below this bound on the
# values a step computes, Python ints (dtype=object) past it (_exact).
_INT64_SAFE = 2 ** 62
# Cells of the largest array of one chunk of the double description's
# adjacency test and of the facet certificate.
_FACET_CELLS = 1 << 15
# The set bits of each byte value: a bit count for packed bitsets that
# numpy 1.x has too.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
# Cap on the faces a pulling triangulation memoizes and on the simplices it
# yields.
_PULL_CAP = 2_000_000
# The message of a claw whose scan finds no undecomposable point through
# the degree of an irreducible point of its triangulation.
_DECOMPOSED = "an irreducible point of degree {} decomposed in the scan"
# The dilate-scan points that cost about as much as one unit of normalized
# volume triangulated. Measured on claws of rank 8 to 15, the ratio lies
# between 2 and 40; the scan's cost per point grows with the lattice points
# of P.
_SCAN_POINTS_PER_VOLUME = 16


@dataclass(frozen=True)
class LatticePolytope:
    """The convex hull P of integer points, in the affine lattice they span.

    Derived data is computed once, on first use: the lattice, the facets,
    the project-and-lift scan data and the lattice points of P. A point of
    the dilate nP is x = n*anchor + y.B in lattice coordinates y. Points of
    different lengths raise ValueError.

    stars, when P is the polytope of a tree, holds the columns of the edges
    at each inner vertex (star_columns). With two or more, the facets are
    the stars' facets pulled back, once P is certified their fiber product
    (star_projections, facet_description); the double description then
    runs on the stars alone. tree_idp_check decides a tree on its claws and
    builds no facets of P, so only a whole-tree idp_check, the oracle of the
    tests, reads P's stars."""

    points: tuple   # sorted, distinct integer tuples of one length
    # column tuples, one per inner vertex of a tree; they choose how the
    # facets are found, not what they are, so equality ignores them
    stars: tuple = field(default=(), compare=False)

    def __post_init__(self):
        pts = tuple(sorted(set(map(tuple, self.points))))
        if not pts:
            raise ValueError("need at least one point")
        lengths = sorted({len(p) for p in pts})
        if len(lengths) > 1:
            raise ValueError(f"points of different lengths {lengths}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "stars", tuple(map(tuple, self.stars)))

    @cached_property
    def lattice(self) -> AffineLattice:
        return spanned_lattice(self.points)

    @cached_property
    def hrep(self) -> HRep:
        return facet_description(self)

    @cached_property
    def star_projections(self) -> tuple:
        """For each star, the distinct rows of P's points on its columns,
        sorted, in the star's column order: P's star projections, once P is
        certified their fiber product (_check_fiber_product)."""
        dim = len(self.points[0])
        xs = _int_array(self.points, dim)
        projections = tuple(tuple(sorted(set(map(tuple, xs[:, list(cols)]
                                                 .tolist()))))
                            for cols in self.stars)
        _check_fiber_product(projections, self.stars, dim, len(xs))
        return projections

    @cached_property
    def _coordinates(self) -> np.ndarray:
        """The lattice coordinates y of the points, one row per point, as an
        integer array by _exact's rule (AffineLattice.coordinate_rows)."""
        ys, inside = self.lattice.coordinate_rows(self.points)
        if not inside.all():
            raise AssertionError("input point outside its own lattice")
        return ys

    @cached_property
    def low(self) -> tuple:
        """Each lattice coordinate's minimum over P."""
        return tuple(self._coordinates.min(axis=0).tolist())

    @cached_property
    def span(self) -> tuple:
        """Each lattice coordinate's range over P."""
        ys = self._coordinates
        return tuple((ys.max(axis=0) - ys.min(axis=0)).tolist())

    @cached_property
    def _facet_slacks(self) -> tuple:
        """(rows, slack): P's facets c.y <= b, in hrep's order, as the
        primitive rows (c, b) of an integer array, and slack[g, i] = b -
        c.y of facet g at point i.

        An hrep row (c, b) reads (c.B, b - c.anchor) in lattice coordinates,
        as c.x = c.anchor + c.B.y at x = anchor + y.B: an equality must read
        zero there, and a facet holds integer points, so its gcd divides its
        side. The arrays follow _exact's rule."""
        lat, hrep = self.lattice, self.hrep
        dim = len(lat.anchor)
        lift = _int_array([row + (0,) for row in lat.basis] +
                          [tuple(-a for a in lat.anchor) + (1,)], dim + 1).T
        if hrep.equalities and _matmul(_int_array(
                [c + (b,) for c, b in hrep.equalities], dim + 1), lift).any():
            raise AssertionError("an equality is not constant on the lattice")
        rows = _matmul(_int_array([c + (b,) for c, b in hrep.inequalities],
                                  dim + 1), lift)
        rows //= np.gcd.reduce(rows, axis=1)[:, None]
        ys = self._coordinates
        at = np.concatenate([-ys, np.ones((len(ys), 1), dtype=ys.dtype)],
                            axis=1)
        return rows, _matmul(rows, at.T)

    @cached_property
    def levels(self) -> tuple:
        """levels[j] bounds y[j] given y[:j]: the facets c.y <= b of the
        projection of P onto y[:j+1] with c[j] != 0, as (coefficient rows,
        right sides, count of upper bounds c[j] > 0, which come first).

        The last level is P itself, with its facets (_facet_slacks). Each
        lower level comes from the one above by Fourier-Motzkin elimination
        of y[j]: a facet of the projection is the projection of a facet
        with c[j] == 0, or of a ridge where an upper facet g meets a lower
        facet h. That ridge is the intersection of their tight sets when no
        third facet's tight set holds it, and its facet is the primitive
        combination -h[j]*g + g[j]*h, tight on that intersection. On the
        rows (c, b) of _facet_slacks, with their tight sets as packed
        uint64 bitsets, this is one double-description step across
        c[j] = 0 (_combine): the facets with c[j] == 0 are kept, and the
        ridges follow them, plus-major, which fixes each level's order.
        The ridge test needs P's list to hold facets only, which
        facet_description certifies."""
        rows, slack = self._facet_slacks
        bits = np.packbits(slack == 0, axis=1)
        zero = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 8))).view(np.uint64)
        levels = [None] * self.lattice.rank
        for j in range(len(levels) - 1, -1, -1):
            vals = rows[:, j]
            plus, minus = np.flatnonzero(vals > 0), np.flatnonzero(vals < 0)
            bounds = rows[np.concatenate([plus, minus])].tolist()
            levels[j] = (tuple(tuple(row[:j + 1]) for row in bounds),
                         tuple(row[-1] for row in bounds), len(plus))
            if j == 0:
                break
            # eliminate y[j]: the projection has dimension j, so a ridge of
            # the (j+1)-dimensional polytope above has at least j points;
            # every row below is zero at y[j] and past it
            new, common = _combine(rows, vals, zero, plus, minus, j + 1)
            keep = np.flatnonzero(vals == 0)
            rows = np.concatenate([rows[keep], new])
            zero = np.concatenate([zero[keep], common])
        return tuple(levels)

    @cached_property
    def magnitude(self) -> int:
        """A bound that, times max(n, 1), holds every value the scan of nP
        computes."""
        bound = [max(abs(lo), abs(lo + s))
                 for lo, s in zip(self.low, self.span)]
        return max(bound + [abs(b) + sum(abs(ci) * m
                                         for ci, m in zip(c, bound))
                            for coef, rhs, _ in self.levels
                            for c, b in zip(coef, rhs)], default=0)

    @cached_property
    def lattice_points(self) -> np.ndarray:
        """The lattice points of P as int64 rows of lattice coordinates y,
        in lexicographic order: the degree-1 scan, or, when every
        coordinate of every point is 0 or 1, the points themselves. A
        lattice point of such a P lies in the unit cube, so it is a vertex
        of the cube, which is a convex combination of points of P only as
        one of them; and the points, sorted in ambient order, are in
        lexicographic order in y."""
        if set().union(*self.points) <= {0, 1}:
            return self._coordinates
        return _dilate_array(self, 1)

    @cached_property
    def vertex_bits(self) -> int:
        """The vertices of P among points, as a bitset: a point is a vertex
        when the facets through it, read off the slack matrix, meet in it
        alone."""
        tight = self._facet_slacks[1] == 0
        return sum(1 << i for i in range(len(self.points))
                   if tight[tight[:, i]].all(axis=0).sum() == 1)

    def pulling_triangulation(self):
        """Yield the simplices of the pulling triangulation of P from its
        least vertex, each as its flag (v_0..v_r, g_0..g_{r-1}): v_k is the
        least vertex of the face F_k, F_0 = P, and F_{k+1} = F_k & tight(g_k)
        is a facet of F_k that misses v_k. Faces are bitsets over the
        vertices, v_k indices into points, g_k indices into P's facet rows
        (_facet_slacks). Of the facets that cut F_{k+1}, g_k is one of least
        slack at v_k, so that a unimodular simplex's slacks multiply to 1
        wherever they can (_half_open).

        The facets of a face F are the inclusion-maximal proper nonempty
        sets F & tight(g). One such set S is maximal exactly when every
        facet of P through S but not through F cuts F in S, so no rank is
        computed. A face with dim + 1 vertices is a simplex, pulled
        directly; the facets of every other face that miss its least vertex
        are memoized. Past _PULL_CAP faces memoized or simplices yielded,
        this raises ScaleExceededError."""
        vbits, slack = self.vertex_bits, self._facet_slacks[1]
        slacks = slack.tolist()
        # per facet, its tight points as a bitset; faces are sets of
        # vertices, so a face meets it in vertices only
        tights = [int.from_bytes(bits.tobytes(), "little") for bits
                  in np.packbits(slack == 0, axis=1, bitorder="little")]
        # bitsets over facets: those through point v, those at slack 1
        through, near = ([sum(1 << g for g, row in enumerate(slacks)
                              if row[v] == s) for v in range(len(self.points))]
                         for s in (0, 1))
        cuts = {}

        def lowest(gs, v):
            """A facet among the bitset gs of least slack at v."""
            if gs & near[v]:
                return (gs & near[v] & -(gs & near[v])).bit_length() - 1
            return min(_bits(gs), key=lambda g: slacks[g][v])

        def cut(face, apex, dim):
            got = cuts.get(face)
            if got is None:
                inside, touching = -1, 0
                for v in _bits(face):
                    inside &= through[v]
                    touching |= through[v]
                cutting = {}   # F & tight(g) -> the facets g that cut it
                for g in _bits(touching & ~through[apex]):
                    sub = face & tights[g]
                    cutting[sub] = cutting.get(sub, 0) | 1 << g
                got = []
                for sub, gs in cutting.items():
                    if sub.bit_count() < dim:   # a facet has dim vertices
                        continue
                    common = -1
                    for v in _bits(sub):
                        common &= through[v]
                    if common & ~inside == gs:
                        got.append((lowest(gs, apex), sub))
                if len(cuts) >= _PULL_CAP:
                    raise ScaleExceededError(
                        f"pulling triangulation holds more than {_PULL_CAP} "
                        "faces, the cap of a triangulation")
                cuts[face] = got
            return got

        def walk(face, dim):
            verts = _bits(face)
            if len(verts) == dim + 1:
                # a simplex: its flag pulls its vertices in order, each
                # g_k through the later vertices and not through v_k
                gs, common = [], -1
                for k in range(dim - 1, -1, -1):
                    common &= through[verts[k + 1]]
                    gs.append(lowest(common & ~through[verts[k]], verts[k]))
                yield tuple(verts), tuple(reversed(gs))
                return
            for g, sub in cut(face, verts[0], dim):
                for vs, gs in walk(sub, dim - 1):
                    yield (verts[0],) + vs, (g,) + gs

        for count, flag in enumerate(walk(vbits, self.lattice.rank), 1):
            if count > _PULL_CAP:
                raise ScaleExceededError(
                    f"pulling triangulation has more than {_PULL_CAP} "
                    "simplices, the cap of a triangulation")
            yield flag


def _bits(x):
    """The indices of the set bits of x, ascending."""
    s = bin(x)[:1:-1]
    return [i for i, c in enumerate(s) if c == "1"]


def star_columns(tree: Tree, width: int) -> tuple:
    """For each inner vertex of tree, the columns of the blocks of the
    edges at it, in edge order, each edge a block of width coordinates:
    the stars of a LatticePolytope of the tree."""
    return tuple(tuple(c for e, edge in enumerate(tree.edges) if v in edge
                       for c in range(e * width, (e + 1) * width))
                 for v in tree.inner)


def _as_polytope(poly) -> LatticePolytope:
    """poly itself when it is a LatticePolytope, else the lattice polytope
    of a ModelPolytope's vertices or of a sequence of points."""
    if isinstance(poly, LatticePolytope):
        return poly
    return LatticePolytope(poly.vertices if isinstance(poly, ModelPolytope)
                           else poly)


def _dilate_blocks(poly: LatticePolytope, n):
    """Points of nP as blocks of int64 rows of lattice coordinates y; the
    rows of all blocks, in turn, are in lexicographic order.

    Level j extends each kept prefix y[:j] by the integers between its
    bounds from the projection onto y[:j+1], so it keeps exactly the
    integer points of that projection of nP. The scan is depth first: a
    level passes its children on in slices of at most `rows` rows, and each
    slice is lifted to the last level before the next is made. So every
    level holds at most `rows` rows at once, every bound table at most
    _CHUNK_CELLS cells, and every block at most `rows` points. A level's
    bound table is freed before its slices are lifted. Raises once the
    blocks hold more than _ROW_CAP points.

    Each slice comes with its products with the next level's coefficients,
    built on its parents before branching: for a child (parent, y) at level
    j, A[:, :j+1].(parent, y) = A[:, :j].parent + y*A[:, j], with the first
    term taken once per parent of the slice.

    The scan runs in one integer type per (P, n): the narrowest of
    _SCAN_TYPES whose signed range holds 2*reach, reach = max(n, 1) *
    magnitude. That bounds every value it computes. A coordinate y[i] of nP
    is at most n*m_i in absolute value, m_i >= 1 being coordinate i's bound
    in magnitude; so a bound-table cell n*b - A[:, :j+1].y, and any partial
    sum of its terms, is at most n*(|b| + sum |c_i|*m_i) <= n*magnitude, as
    are the scaled right sides and the cell after its division. A
    coefficient c_i is at most magnitude, even at n = 0, hence max(n, 1).
    The bounds lo and hi lie within n*magnitude too, so a child count
    hi - lo + 1 is at most 2*n*magnitude + 1; that fits as well, since
    2*reach is even and below 2**(bits-1). The point counts ends, first and
    k are int64, and blocks leave as int64 rows."""
    reach = max(n, 1) * poly.magnitude
    dtype = next((t for t in _SCAN_TYPES
                  if 2 * reach < 2 ** (np.iinfo(t).bits - 1)), None)
    if dtype is None:
        raise ScaleExceededError(
            f"dilate enumeration at degree {n} reaches "
            f"{reach}, beyond the int64 scan bound 2**62")
    levels = []
    for j, (coef, rhs, upper) in enumerate(poly.levels):
        a = np.array(coef, dtype=dtype)
        # (step, bound-table columns whose |c[j]| is step), step > 1
        divided = [(s, np.flatnonzero(np.abs(a[:, j]) == s))
                   for s in sorted({abs(c[j]) for c in coef} - {1})]
        # what level j-1 multiplies by: its parents' rows, and the children's
        # y[j-1]
        head, tail = (np.ascontiguousarray(a[:, :j - 1].T), a[:, j - 1]) \
            if j else (None, None)
        levels.append((head, tail, divided,
                       np.array([n * b for b in rhs], dtype=dtype), upper))
    rows = max(1, _CHUNK_CELLS // max((len(rhs) for _, rhs, _ in
                                       poly.levels), default=1))

    def lift(j, parents, q):
        """Children of the rows y[:j] of parents, lifted to the last level;
        q holds each parent's products with level j's coefficients, and
        becomes the level's bound table."""
        if j == len(levels):   # rank 0: the one point y = ()
            yield parents.astype(np.int64)
            return
        divided, bn, upper = levels[j][2:]
        np.subtract(bn, q, out=q)
        for step, cols in divided:
            q[:, cols] //= step
        lo = -q[:, upper:].min(axis=1)
        counts = q[:, :upper].min(axis=1) - lo + 1
        del q
        np.maximum(counts, 0, out=counts)
        ends = np.cumsum(counts, dtype=np.int64)
        # child k of parent i (ends[i-1] <= k < ends[i]) has y[j] = k + first[i]
        first = lo - ends + counts
        del lo, counts
        m = int(ends[-1])
        last = j + 1 == len(levels)
        for start in range(0, m, rows):
            k = np.arange(start, min(start + rows, m), dtype=np.int64)
            parent = np.searchsorted(ends, k, side="right")
            out = np.empty((len(k), j + 1), dtype=np.int64 if last else dtype)
            out[:, :j] = parents[parent]
            out[:, j] = k + first[parent]
            del k
            if last:
                yield out
                continue
            head, tail = levels[j + 1][:2]
            p0 = parent[0]
            q = (parents[p0:parent[-1] + 1] @ head)[parent - p0]
            q += np.multiply.outer(out[:, j], tail)
            child = lift(j + 1, out, q)
            del parent, q   # the child frees its table before it branches
            yield from child

    width = len(poly.levels[0][1]) if levels else 0
    total = 0
    for block in lift(0, np.zeros((1, 0), dtype=dtype),
                      np.zeros((1, width), dtype=dtype)):
        total += len(block)
        if total > _ROW_CAP:
            raise ScaleExceededError(
                f"dilate of degree {n} has more than {_ROW_CAP} points, the "
                "point cap of a scan")
        yield block


def _dilate_array(poly: LatticePolytope, n):
    """Points of nP as int64 rows of lattice coordinates y, in
    lexicographic order: the blocks of _dilate_blocks, concatenated."""
    return np.concatenate([np.empty((0, poly.lattice.rank), dtype=np.int64),
                           *_dilate_blocks(poly, n)])


def _ambient(ys, n, lat: AffineLattice):
    """Rows x = n*anchor + y.B of an integer array ys, as an integer array.
    The product follows _exact's rule on a bound that the operands' actual
    maxima give every entry, so it cannot wrap."""
    width = len(lat.anchor)
    basis = _int_array(lat.basis, width)
    shift = _int_array([[n * a for a in lat.anchor]], width)
    ys, basis, shift = _exact(
        lat.rank * _absmax(ys) * _absmax(basis) + _absmax(shift),
        ys, basis, shift)
    return ys @ basis + shift


def _ambient_rows(ys, n, lat: AffineLattice) -> list:
    """The rows of _ambient, as tuples of Python integers."""
    return list(map(tuple, _ambient(ys, n, lat).tolist()))


def lattice_points_in_dilate(points, n: int):
    """All points of (the lattice anchored at n*anchor) inside n*conv(points),
    sorted. points may be a point sequence, a ModelPolytope or a
    LatticePolytope. Enumeration runs intrinsically in lattice coordinates,
    in lexicographic order, which is ambient order, so no sort is needed.
    Raises ValueError for a negative n, and ScaleExceededError past _ROW_CAP
    points or the scan's int64 bound."""
    if n < 0:
        raise ValueError(f"dilate degree must be nonnegative, got {n}")
    poly = _as_polytope(points)
    return _ambient_rows(_dilate_array(poly, n), n, poly.lattice)


def _code_size(span, n):
    """How many values the codes of degree n take: the product of their
    radices n*span[j] + 1."""
    return prod(n * s + 1 for s in span)


def _code_weights(span, n):
    """Weights of the degree-n mixed-radix code of a row y of kP, k <= n:
    digit j is y[j] - k*low[j] in [0, k*span[j]], radix n*span[j] + 1, the
    first coordinate most significant. Raises unless every code fits in
    int64."""
    size = _code_size(span, n)
    if size >= 2 ** 63:
        raise ScaleExceededError(
            f"lattice-coordinate codes at degree {n} take {size} values, "
            "beyond the int64 bound 2**63")
    return np.array([_code_size(span[j + 1:], n) for j in range(len(span))],
                    dtype=np.int64)


def _codes(rows, k, low, weights):
    """Codes of rows of kP: digits y - k*low under the given weights."""
    return (rows - k * np.asarray(low, dtype=np.int64)) @ weights


def _undecomposable(codes, vcodes, prev):
    """Positions in codes (points of nP) of the points that are no sum
    v + p of a point v of P (vcodes) and a point p of (n-1)P (prev,
    ascending), all encoded by _codes in the weights of one degree top >= n.

    With the shifted digits of _code_weights, the digits of v and p add
    without carry to those of v + p, and any two digit vectors whose
    entries differ by at most n*span[j] < top*span[j] + 1 have equal codes
    only when they are equal, so code(q) - code(v) == code(p) certifies
    q = v + p."""
    undecided = np.arange(len(codes))
    if not len(prev):
        return undecided
    for vcode in vcodes:
        t = codes - vcode
        split = prev.take(np.searchsorted(prev, t), mode="clip") == t
        undecided = undecided[~split]
        codes = codes[~split]
        if not len(undecided):
            break
    return undecided


@dataclass(frozen=True)
class IdpReport:
    verdict: str                 # "Normal" | "NotNormal"
    degrees_checked: tuple
    witness: tuple = None
    witness_degree: int = None
    points_per_degree: tuple = ()   # ((degree, count), ...)

    @property
    def normal(self) -> bool:
        return self.verdict == "Normal"

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}",
                 "degrees checked: "
                 f"{self.degrees_checked[0]}..{self.degrees_checked[-1]}"]
        if self.witness is not None:
            lines.append(f"witness degree: {self.witness_degree}")
            lines.append("witness: " + " ".join(str(x) for x in self.witness))
        lines.append("points per degree: " + " ".join(
            f"{d}={c}" for d, c in self.points_per_degree))
        return "\n".join(lines) + "\n"


def _report(counts, witness=None) -> IdpReport:
    """The report of the point counts ((1, L(1)), ..., (n, L(n))) of a check
    through degree n, which failed there with witness when one is given."""
    n = counts[-1][0]
    return IdpReport(verdict="Normal" if witness is None else "NotNormal",
                     degrees_checked=tuple(range(2, n + 1)), witness=witness,
                     witness_degree=None if witness is None else n,
                     points_per_degree=tuple(counts))


@dataclass(frozen=True)
class DecompositionResult:
    found: tuple     # n points summing to q, or None
    examined: int    # nodes visited; with found None this certifies the search


def decompose(q, n: int, points) -> DecompositionResult:
    """Exhaustive search for q = p_1 + ... + p_n with each p_i a lattice
    point of conv(points); index-nondecreasing, so multisets are visited
    once. Failure is a complete-search certificate. points may be a point
    sequence, a ModelPolytope or a LatticePolytope. Raises ValueError for a
    negative n and for a q whose length is not the points'.

    The lattice points of P are tried in scan order, which is ambient
    order. q is solved in the lattice of nP once, at the root: each
    remainder q - v_1 - ... - v_k then lies in the lattice of (n - k)P, and
    it lies in (n - k)P exactly when its facet slacks there are
    nonnegative. A node carries that slack vector s, and the slack of its
    child q' - v in (k - 1)P is s minus the slack of v in P; so one array
    test against P's slack table picks every child that fits, and only
    those are visited. examined counts the children tested, whether they
    fit or not, and the root: the nodes of a search that visits them all.
    A child of degree 0 fits only as the point 0, since P is bounded."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    poly = _as_polytope(points)
    q = tuple(q)
    if len(q) != len(poly.points[0]):
        raise ValueError(f"point of length {len(q)} against points of "
                         f"length {len(poly.points[0])}")
    y = poly.lattice.coordinates(q, n)
    if y is None:
        return DecompositionResult(found=None, examined=1)
    rows = poly._facet_slacks[0]
    slack = _matmul(rows, _int_array([tuple(-a for a in y) + (n,)],
                                     len(y) + 1).T)[:, 0]
    if (slack < 0).any():
        return DecompositionResult(found=None, examined=1)
    pts = poly.lattice_points
    table = _matmul(rows, np.concatenate(
        [-pts, np.ones((len(pts), 1), dtype=pts.dtype)], axis=1).T)
    slack, table = _exact(_absmax(slack) + _absmax(table), slack, table)
    examined = 1
    dead = set()

    def rec(s, k, lo):
        nonlocal examined
        if k == 0:
            return []
        key = (tuple(s.tolist()), k, lo)
        if key in dead:
            return None
        fits = (table[:, lo:] <= s[:, None]).all(axis=0)
        for idx in (np.flatnonzero(fits) + lo).tolist():
            sub = rec(s - table[:, idx], k - 1, idx)
            if sub is not None:
                examined += idx - lo + 1
                return [idx] + sub
        examined += len(pts) - lo
        dead.add(key)
        return None

    found = rec(slack, n, 0)
    return DecompositionResult(
        found=None if found is None else tuple(
            _ambient_rows(pts[found], 1, poly.lattice)), examined=examined)


def _ceiling(max_degree, poly=None):
    """The degree ceiling of an IDP check of the LatticePolytope poly:
    max_degree, or by default max(2, rank - 1) of poly's lattice, which
    suffices for full normality of a lattice polytope. A ceiling below 2
    would certify nothing and raises ValueError. With poly None the
    ceiling is only checked, and comes back as it is."""
    if max_degree is None:
        return None if poly is None else max(2, poly.lattice.rank - 1)
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    return max_degree


def _split_scan(poly: LatticePolytope, max_degree: int, first: bool):
    """The split test of idp_check on P, degree by degree: (weights, a
    generator of (n, blocks) for n = 1..max_degree), where blocks yields
    (rows, codes, bad) for each block of rows of nP (_dilate_blocks), codes
    their codes (_codes) in the weights, and bad the positions in rows of
    the points that are no sum v + p of a lattice point v of P and a point
    p of (n-1)P (_undecomposable). With first, only the first such point of
    a degree is sought: bad holds at most it, and once it is found the rest
    of the degree is not tested. Degree 1 is one block, P's lattice points,
    with no split test. A degree's blocks must be exhausted before the next
    degree is asked for.

    Every degree is encoded in the code weights of one degree top: the
    highest up to max_degree whose codes fit in int64. They encode each
    degree below top without carry too, so a degree's codes pass unchanged
    to the next, and only the sorted codes of the last degree are kept. The
    weights and the codes of P are made before this returns; a degree past
    top raises ScaleExceededError when it starts."""
    low, span = poly.low, poly.span
    top = max_degree
    while top > 2 and _code_size(span, top) >= 2 ** 63:
        top -= 1
    weights = _code_weights(span, top)
    vcodes = _codes(poly.lattice_points, 1, low, weights)
    held = [vcodes]

    def blocks(n, prev):
        found = False
        for rows in _dilate_blocks(poly, n):
            codes = _codes(rows, n, low, weights)
            bad = codes[:0]
            if not found:
                bad = _undecomposable(codes, vcodes, prev)[:1 if first
                                                           else None]
                found = first and len(bad) > 0
            if n < top:
                held.append(codes)
            yield rows, codes, bad

    def degrees():
        nonlocal held
        yield 1, iter([(poly.lattice_points, vcodes, vcodes[:0])])
        for n in range(2, max_degree + 1):
            if n > top:
                _code_weights(span, n)   # raises: these codes pass int64
            prev = np.concatenate(held)
            held = []
            yield n, blocks(n, prev)
            del prev   # freed before the next degree joins its codes

    return weights, degrees()


def _decode(codes, n, low, weights):
    """The rows y of nP whose codes in the given weights (_codes) are the
    concatenated arrays codes, in their order: digit j of a code is its
    quotient by weights[j], reduced mod its radix weights[j-1] //
    weights[j] below the first."""
    digits = np.concatenate(codes)[:, None] // weights
    digits[:, 1:] %= weights[:-1] // weights[1:]
    return digits + n * np.asarray(low, dtype=np.int64)


def idp_check(poly, max_degree: int = None) -> IdpReport:
    """Integer decomposition property, degree by degree.

    For each n, every lattice point of nP must split as v + (point of
    (n-1)P) with v a lattice point of P; by induction that is exactly
    decomposability into n points. The degree ceiling is _ceiling's:
    max_degree, at least 2, or by default max(2, dim-1). A failure is
    re-verified independently (halfspaces, lattice membership, exhaustive
    search) before it is reported. poly may be a ModelPolytope, a
    LatticePolytope or a sequence of points.

    Degree n is checked block by block as the scan yields it, against the
    sorted codes of degree n-1 (_split_scan). The scan yields nP in ambient
    order, so the witness, the least undecomposable point, is the first
    the scan yields, and it is the one row converted to ambient
    coordinates. A failing degree is scanned to its end, so its point
    count is complete."""
    poly = _as_polytope(poly)
    max_degree = _ceiling(max_degree, poly)
    lat, hrep = poly.lattice, poly.hrep
    _, degrees = _split_scan(poly, max_degree, first=True)
    counts = []
    for n, blocks in degrees:
        witness = None
        total = 0
        for rows, _, bad in blocks:
            total += len(rows)
            if len(bad):
                witness = _ambient_rows(rows[bad], n, lat)[0]
        counts.append((n, total))
        if witness is not None:
            if not hrep.contains(witness, n):
                raise AssertionError("witness fails the halfspace check")
            if not lat.contains(witness, n):
                raise AssertionError("witness fails the lattice check")
            if decompose(witness, n, poly).found is not None:
                raise AssertionError("witness decomposed on re-verification")
            return _report(counts, witness)
    return _report(counts)


def _flag_weights(verts, rows, values):
    """(m, h) with x = sum_k (m[k]/h) * w_k, w_k = (1, y) of vertex verts[k],
    for the point x of the cone whose functionals l_k take values[k].

    l_k for k < r is the facet whose rows[k][v] = l_k(w_v) is the slack of
    point v; l_r is the degree. On the flag, l_k vanishes on w_j for j > k,
    so the system is lower triangular with diagonal l_k(w_k), and forward
    substitution solves it in integers: m[k] is the weight of w_k times h,
    the product of the diagonal."""
    m, h = [], 1
    for k, v in enumerate(verts):
        s = values[k] * h
        if k < len(rows):
            row = rows[k]
            for j in range(k):
                s -= row[verts[j]] * m[j]
            step = row[v]
            if step != 1:
                m = [x * step for x in m]
                h *= step
        else:
            s -= sum(m)
        m.append(s)
    return m, h


def _subgroup(gens, mod):
    """The subgroup of (Z/mod)^d that the tuples gens generate."""
    group = {(0,) * len(gens[0])}
    for g in gens:
        old, step = list(group), g
        while step not in group:
            group.update(tuple((a + b) % mod for a, b in zip(e, step))
                         for e in old)
            step = tuple((a + b) % mod for a, b in zip(step, g))
    return group


def _half_open(poly: LatticePolytope, top: int, width: int = 0):
    """Yield, for each simplex of P's pulling triangulation, (its normalized
    volume, the degrees of the lattice points of its half-open
    parallelepiped, the least degree in 2..top of such a point that is
    irreducible, or None, its class data).

    The class data is None unless width > 0 and every point of P has a
    unit vector e_g as its first block of width coordinates, as a claw's
    points have on its first edge. Then it is (c, blocks): c[g] counts the
    simplex's vertices whose first block is e_g, and blocks holds the first
    block of each parallelepiped point, in the order of the degrees. A
    point sum_k (a_k/h)*w_k of the cone has the first block
    sum_k (a_k/h)*e_g(k), g(k) that of vertex k, so its entries sum to its
    degree.

    The simplex is homogenized to the cone over rows w_k = (1, y_k). The
    cones over the simplices, each without the facets that separate it
    from a generic interior point q, partition the cone over P, so their
    parallelepipeds' lattice points, by degree, sum to h*. q is sum_v
    (v+1)*w_v over the vertices, perturbed by eps^j*e_j for j = 1..r: a
    facet is dropped when the weight of its opposite vertex in q is
    negative, lexicographically in eps. A unimodular simplex's
    parallelepiped holds one point, the sum of the w_k whose facet it
    drops. A point x of degree t >= 2 is reducible when x - (1, y_v) is in
    the cone over P for some lattice point v of P.

    The weights come from _flag_weights. The facet functionals of the
    flag times the rows w_k make a triangular matrix of determinant h, the
    product of its diagonal, so the volume divides h: when h is 1 the
    simplex is unimodular. Otherwise its parallelepiped's points are the
    weights of the unit vectors, mod 1, and what they generate; the volume
    is taken apart from them, as the product of the pivots of the rows'
    Hermite normal form.

    The facets are P's rows and slacks (_facet_slacks). The reducibility
    test follows _exact's rule: a parallelepiped point has degree t <= r + 1,
    so its coordinates are at most r + 1 times the largest of P's lattice
    points, and every value the test takes is below r*a*((r + 1)*p + 1), a
    and p the largest entries of the facet rows and of P's lattice points."""
    r = poly.lattice.rank
    ys = poly._coordinates.tolist()
    if width:
        unit = [0] * (width - 1) + [1]
        if any(sorted(p[:width]) != unit for p in poly.points):
            raise AssertionError("a first block is no unit vector")
        chars = [p[:width].index(1) for p in poly.points]
    facets, slack = poly._facet_slacks
    slack = slack.tolist()
    units = [[row[-1]] + [-a for a in row[:-1]] for row in facets.tolist()]
    q = [0] * (r + 1)
    for v in _bits(poly.vertex_bits):
        q = [a + (v + 1) * x for a, x in zip(q, [1] + ys[v])]
    at_q = [sum(a * x for a, x in zip(u, q)) for u in units]
    facets, points = _exact(r * _absmax(facets) * (
        (r + 1) * _absmax(poly.lattice_points) + 1),
        facets, poly.lattice_points)
    normals, sides = facets[:, :-1], facets[:, -1]
    reach = normals @ points.T

    def reducible(t, y):
        need = normals @ np.array(y, dtype=normals.dtype) - (t - 1) * sides
        return bool((reach >= need[:, None]).all(axis=0).any())

    def unit_weights(verts, rows, gs, j):
        return _flag_weights(verts, rows, [units[g][j] for g in gs] +
                             [int(j == 0)])[0]

    def first_block(verts, a, h):
        """The first block of the point sum_k (a[k]/h)*w_k."""
        block = [0] * width
        for x, v in zip(a, verts):
            block[chars[v]] += x
        if any(b % h for b in block):
            raise AssertionError("a parallelepiped point's block is off "
                                 "the lattice")
        return tuple(b // h for b in block)

    for verts, gs in poly.pulling_triangulation():
        rows = [slack[g] for g in gs]
        m, h = _flag_weights(verts, rows, [at_q[g] for g in gs] + [q[0]])
        drop = [x < 0 for x in m]
        for k in (k for k, x in enumerate(m) if not x):
            drop[k] = next(x < 0 for x in (unit_weights(verts, rows, gs, j)[k]
                                           for j in range(1, r + 1)) if x)
        counts = None
        if width:
            counts = [0] * width
            for v in verts:
                counts[chars[v]] += 1
            counts = tuple(counts)
        if h == 1:
            yield 1, (sum(drop),), None, counts and (
                counts, (first_block(verts, drop, 1),))
            continue
        volume = prod(row[i] for i, row in enumerate(
            hermite_normal_form([[1] + ys[v] for v in verts])))
        degrees, blocks, bad = [], [], None
        for a in _subgroup([tuple(x % h for x in
                                  unit_weights(verts, rows, gs, j))
                            for j in range(r + 1)], h):
            a = [h if d and not x else x for x, d in zip(a, drop)]
            t, rem = divmod(sum(a), h)
            y = [divmod(sum(x * ys[v][i] for x, v in zip(a, verts)), h)
                 for i in range(r)]
            if rem or any(rest for _, rest in y):
                raise AssertionError("a parallelepiped point is off the "
                                     "lattice")
            degrees.append(t)
            if counts:
                blocks.append(first_block(verts, a, h))
            if 2 <= t <= top and (bad is None or t < bad) and \
                    not reducible(t, [c for c, _ in y]):
                bad = t
        yield volume, tuple(degrees), bad, counts and (counts, tuple(blocks))


def ehrhart_counts(h_star, r: int, top: int) -> tuple:
    """L(n) = sum_k h*_k * C(n - k + r, r) for n = 1..top: the lattice
    points of the dilates of a polytope of dimension r with that h*."""
    return tuple(sum(h * comb(n - k + r, r) for k, h in enumerate(h_star))
                 for n in range(1, top + 1))


def pulling_idp_check(poly, max_degree: int = None) -> IdpReport:
    """idp_check's report, decided on P's pulling triangulation (_half_open)
    where that is cheaper than the dilate scan.

    P fails first at the least degree of an irreducible parallelepiped
    point: such a point is no sum of lattice points of P, and a point of
    nP is p + sum of simplex vertices with p in a parallelepiped, so it
    splits when p does. At the first irreducible point, of degree k <=
    max_degree, the stream stops and the result is idp_check(P,
    max_degree=k), whose verdict, least witness and counts are the
    scan's; it must fail, or this raises AssertionError. Otherwise P is
    Normal through max_degree and its counts come from h*, checked against
    the volumes and the lattice points of P.

    The route. The h* streamed so far, with h*_0 = 1 and h*_1 = L(1) - r -
    1 known from the start, gives by ehrhart_counts a lower bound on the
    points the scan visits in degrees 2..max_degree. Every 64 simplices
    the stream gives way to idp_check(P, max_degree) once
    _SCAN_POINTS_PER_VOLUME times the volume streamed passes that bound;
    so the stream costs about as much as a scan of the dilates it has
    counted at most, and a low ceiling or a large volume goes to the scan.
    A triangulation past _PULL_CAP goes to the scan too, which has caps of
    its own.

    The same stream can group its parallelepiped points into the classes
    that count a claw's dilates by block (_pulling, _class_tallies);
    tree_idp_check asks for them, and this check does not, so a lone claw
    pays nothing for them. tree_idp_check takes a claw that the stream
    hands on to its own scan, which counts and split-tests each dilate
    once."""
    poly = _as_polytope(poly)
    max_degree = _ceiling(max_degree, poly)
    report, _, bad = _pulling(poly, max_degree)
    if report is None:
        report = idp_check(poly, bad or max_degree)
        if bad and report.normal:
            raise AssertionError(_DECOMPOSED.format(bad))
    return report


def _pulling(poly: LatticePolytope, max_degree, width: int = 0):
    """(P's report from its pulling triangulation, or None, P's classes or
    None, the degree of its irreducible point, or None): the stream of
    pulling_idp_check.

    The report is None when the stream hands P to the scan: at an
    irreducible point of degree bad, which the scan through bad must
    confirm, or by the route rule or past _PULL_CAP, bad None, when P is to
    be scanned through max_degree. Otherwise P is Normal through
    max_degree, with its counts from h*.

    With width > 0 the same stream groups its parallelepiped points into
    classes (_half_open): classes[(c, block)] is how many points have the
    first block `block`, of degree sum(block), in a simplex whose vertices
    carry the first blocks e_g, c[g] of them. They are returned when the
    stream decides P Normal, after a check that their multiplicities sum
    to h* degree by degree; otherwise, and with width 0, classes is None,
    and nothing is grouped.

    The ceiling is _ceiling's. The stream raises ScaleExceededError only
    past _PULL_CAP, which hands P to the scan: its reducibility test
    follows _exact's rule."""
    max_degree = _ceiling(max_degree, poly)
    r = poly.lattice.rank
    h_star, volume, bad, whole = [0] * (r + 2), 0, None, False
    classes = {}
    # h*_0 = 1 and h*_1 = L(1) - r - 1, whatever the stream has reached
    floor = [1, len(poly.lattice_points) - r - 1] + [0] * r
    try:
        for count, (vol, degrees, bad, key) in enumerate(
                _half_open(poly, max_degree, width), 1):
            if bad is not None:
                break
            volume += vol
            for t in degrees:
                h_star[t] += 1
            if key:
                c, blocks = key
                for block in blocks:
                    classes[c, block] = classes.get((c, block), 0) + 1
            if count % 64 == 0 and \
                    _SCAN_POINTS_PER_VOLUME * volume > \
                    sum(ehrhart_counts(list(map(max, h_star, floor)), r,
                                       max_degree)[1:]):
                break
        else:
            whole = True
    except ScaleExceededError:   # past _PULL_CAP
        pass
    if not whole:
        return None, None, bad
    if sum(h_star) != volume:
        raise AssertionError(f"h* sums to {sum(h_star)}, the volumes to "
                             f"{volume}")
    counts = ehrhart_counts(h_star, r, max_degree)
    if counts[0] != len(poly.lattice_points):
        raise AssertionError(f"h* counts {counts[0]} lattice points in P, "
                             f"the scan {len(poly.lattice_points)}")
    if width:
        by_degree = [0] * (r + 2)
        for (_, block), mult in classes.items():
            by_degree[sum(block)] += mult
        if by_degree != h_star:
            raise AssertionError(f"the classes count {by_degree} points by "
                                 f"degree, h* is {h_star}")
    return _report(tuple(enumerate(counts, 1))), \
        classes if width else None, None


def _summed(codes, counts):
    """The distinct codes, ascending, each with the sum of its counts."""
    order = np.argsort(codes, kind="stable")
    codes, counts = codes[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(counts, starts)


def _key_weights(poly: LatticePolytope, m: int, w: int, n: int):
    """(g, offset): the key code of a point of the claw's dilate nP by its
    first m edge blocks is y @ g + offset, y its lattice row.

    A block of a point of nP holds the multiplicities of the characters
    on its edge, w values summing to n. Its key code takes the first w-1
    as digits, radix n + 1, the first most significant; a point's key
    code is that of its first m blocks, the first block most significant.
    Both are bounded in Python integers before any row is coded; past the
    int64 bound this raises."""
    lat = poly.lattice
    digit = [0] * len(lat.anchor)
    for i in range(m):
        for t in range(w - 1):
            digit[i * w + t] = (n + 1) ** ((m - 1 - i) * (w - 1) + w - 2 - t)
    g = [sum(b * d for b, d in zip(row, digit)) for row in lat.basis]
    # |y[j]| <= n*max(|low[j]|, |low[j] + span[j]|) on nP
    reach = max((n + 1) ** (m * (w - 1)), n * sum(
        abs(gj) * max(abs(lo), abs(lo + s))
        for gj, lo, s in zip(g, poly.low, poly.span)))
    if reach >= 2 ** 63:
        raise ScaleExceededError(
            f"claw tally codes at degree {n} reach {reach}, beyond the "
            "int64 bound 2**63")
    return (np.array(g, dtype=np.int64),
            n * sum(a * d for a, d in zip(lat.anchor, digit)))


def _blocks(n: int, w: int):
    """The blocks of a point of degree n, w nonnegative integers summing to
    n, as the rows of an int64 array in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(w - 1):
        width = n - rows.sum(axis=1) + 1   # the values of the next entry
        ends = np.cumsum(width)
        parent = np.repeat(np.arange(len(rows)), width)
        value = np.arange(ends[-1]) - np.repeat(ends - width, width)
        rows = np.column_stack([rows[parent], value])
    return np.column_stack([rows, n - rows.sum(axis=1)])


def _class_tallies(classes: dict, w: int, totals):
    """Yield, for n = 1..len(totals), (key codes, counts) of the points of a
    claw's dilate nP by its first block, as _scan_tallies gives them for
    m = 1, counted off the claw's classes (_pulling) with no point visited.
    totals[n-1] is the claw's L(n), from its h*.

    A point of nP is p + sum_k a_k*w_k, the a_k nonnegative integers, for
    exactly one simplex and one point p of its half-open parallelepiped
    (Stanley, 1980). If p has degree t and first block beta, and c_g of the
    simplex's vertices have the first block e_g, the point's first block is
    b = beta plus, at each g, the a_k of those c_g vertices. So the class
    (c, beta), of multiplicity mult, gives
        mult * prod_g C(b_g - beta_g + c_g - 1, c_g - 1)
    points of first block b when b >= beta and none otherwise, where
    C(a - 1, -1) is 1 at a = 0 and 0 past it; the b_g - beta_g sum to n - t.

    On arrays: for each g, the distinct pairs (c_g, beta_g) of the classes
    give a table of that factor by pair and key, read off a table of
    binomials. A chunk of classes, at most _CHUNK_CELLS cells, gathers the
    rows of its pairs and multiplies them, and its multiplicities sum them
    by a matrix product. Every count and partial sum is at most L(n), and
    every partial product at most prod_g C(n + c_g - 1, c_g - 1) for some
    class; the arrays are int64 while both are below 2**62, and Python ints
    past that. Raises AssertionError unless the counts sum to L(n)."""
    cs = np.array([c for c, _ in classes], dtype=np.int64).reshape(-1, w)
    betas = np.array([b for _, b in classes], dtype=np.int64).reshape(-1, w)
    mults = list(classes.values())
    pad, most = int(betas.max()), int(cs.max())
    pairs = []   # per g: the distinct (c_g, beta_g), and each class's pair
    for g in range(w):
        got, at = np.unique(np.stack([cs[:, g], betas[:, g]], axis=1),
                            axis=0, return_inverse=True)
        pairs.append((got[:, :1], got[:, 1:], at.reshape(-1)))
    shapes = {tuple(c) for c in cs.tolist()}
    for n, total in enumerate(totals, 1):
        ways = [comb(n + c - 1, c - 1) if c else 1 for c in range(most + 1)]
        worst = max(prod(ways[c] for c in shape) for shape in shapes)
        dtype = np.int64 if max(total, worst) < _INT64_SAFE else object
        # table[c, pad + a]: the ways to add a vertices among c
        table = np.array([[0] * pad + [comb(a + c - 1, c - 1) if c else
                                       int(a == 0) for a in range(n + 1)]
                          for c in range(most + 1)], dtype=dtype)
        keys = _blocks(n, w)
        factors = [table[c, keys[:, g] + pad - beta]
                   for g, (c, beta, _) in enumerate(pairs)]
        mult = np.array(mults, dtype=dtype)
        out = np.zeros(len(keys), dtype=dtype)
        step = max(1, _CHUNK_CELLS // len(keys))
        for s in range(0, len(mult), step):
            part = factors[0][pairs[0][2][s:s + step]]
            for factor, (_, _, at) in zip(factors[1:], pairs[1:]):
                part *= factor[at[s:s + step]]
            out += mult[s:s + step] @ part
        if out.sum() != total:
            raise AssertionError(f"the class tallies of degree {n} sum to "
                                 f"{out.sum()}, h* counts {total}")
        hit = np.flatnonzero(out)
        yield keys[hit, :-1] @ (n + 1) ** np.arange(w - 2, -1, -1), out[hit]


def _star(k: int) -> Tree:
    """The k-leaf claw, its edges leaving the centre."""
    return Tree(root=0, edges=tuple((0, i) for i in range(1, k + 1)),
                labels=(None,) + tuple(f"x{i}" for i in range(1, k + 1)))


def _claw_columns(tree: Tree, model, flavor: str) -> tuple:
    """For each inner vertex v of tree, in star_columns' order, the column
    of the standard claw (_star) that each column of v's star maps to.

    Block i of the star, its i-th edge, maps to the claw's block i, by
    chi -> -chi on the block of the edge from v's parent and the identity
    elsewhere: a network's signed sum at v has -chi on that edge, where the
    claw's, whose edges all leave its centre, has chi. In the projected
    flavor it permutes the dual orbits, which are orbits of automorphisms
    of the character group, and those commute with chi -> -chi. Each map
    is an involution, so it takes the claw's columns back to the star's
    too."""
    group = model.group
    orbits = model.dual_orbits if flavor == "projected" else \
        [(chi,) for chi in group.elements()]
    where = {chi: i for i, orbit in enumerate(orbits) for chi in orbit}
    neg = [where[group.neg(orbit[0])] for orbit in orbits]
    return tuple(tuple(b * len(neg) + (neg[t] if tree.edges[e][1] == v else t)
                       for b, e in enumerate(e for e, edge in
                                             enumerate(tree.edges)
                                             if v in edge)
                       for t in range(len(neg)))
                 for v in tree.inner)


def _claw_degrees(claw: LatticePolytope, top: int, m: int, w: int,
                  pulled):
    """Yield, for n = 1..top, (key codes, counts, marks, rows) of the claw's
    dilate nP, for tree_idp_check: its points counted by their key codes
    over its first m blocks of width w (_key_weights), as _summed gives
    them. pulled is _pulling's (report, classes, bad) on P through top.

    - P triangulated, with classes: the tallies are _class_tallies', and
      no dilate is scanned.
    - P triangulated, without: each nP is scanned once, and no point is
      split-tested, since the triangulation showed P Normal.
    - P handed to the scan: each nP, n >= 2, is scanned and split-tested
      once (_split_scan, every mark kept) through bad, or top with bad
      None, and must fail by degree bad, or this raises AssertionError.
      marks then flags its points that are no sum of n points of P, in
      scan order, none at n = 1, and rows returns its rows of lattice
      coordinates, in the same order, decoded from the codes of the split
      test (_decode), so that no degree's rows are held.

    Otherwise marks and rows are None. nP at n = 1 is P's lattice points."""
    report, classes, bad = pulled
    if classes:
        for tally in _class_tallies(classes, w, [
                count for _, count in report.points_per_degree]):
            yield (*tally, None, None)
        return
    weights, degrees = (None, None) if report else \
        _split_scan(claw, bad or top, first=False)
    for n in range(1, (bad or top) + 1):
        g, offset = _key_weights(claw, m, w, n)
        blocks = next(degrees)[1] if degrees else (
            (ys, None, None) for ys in ([claw.lattice_points] if n == 1
                                        else _dilate_blocks(claw, n)))
        parts, held, marks = [], [], []
        for ys, codes, at in blocks:
            parts.append(np.unique(ys @ g + offset, return_counts=True))
            if codes is not None:
                held.append(codes)
                marks.append(np.bincount(at, minlength=len(ys)) > 0)
        keys, counts = _summed(*map(np.concatenate, zip(*parts)))
        if not held:
            yield keys, counts, None, None
            continue
        marks = np.concatenate(marks)
        if n == bad and not marks.any():
            raise AssertionError(_DECOMPOSED.format(bad))
        yield keys, counts, marks, partial(_decode, held, n, claw.low,
                                           weights)


def tree_idp_check(tree: Tree, model, flavor: str = "abelian",
                   max_degree: int = None, cap: int = _CAP) -> IdpReport:
    """idp_check's report on the polytope P of model on tree, abelian or
    projected (flavor), decided on its claws, the standard k-claw (_star),
    projected with P, for each degree k of an inner vertex, instead of on a
    scan of P. The ceiling is _ceiling's on P, and it is checked before any
    polytope is built; cap bounds the networks of P and of each claw, as in
    build_polytope. With fewer than two inner vertices P is a claw (or an
    edge), decided by pulling_idp_check.

    The fiber-product lemma. Every inner vertex v keeps its star, the
    edges at v, whose polytope P_v is the projection of P onto their
    blocks. A network of the tree is a tuple of networks of the stars that
    agree on the inner edges, so P is the fiber product of the P_v over the
    inner-edge blocks (_star_tree), each block a unit vector e_g at every
    point. In the projected flavor, P and the P_v are their images under
    the sum over the dual orbits in each block, which sends e_g to the
    unit vector of g's orbit; the orbits are those of automorphisms of
    the character group, which map networks to networks and fix that sum,
    so two lifts that agree on a link's orbit can be made to agree on its
    character by one automorphism of one side, one link at a time. Then
    for n >= 1: (a) the lattice points of nP are the tuples of lattice
    points of the nP_v that agree on the shared blocks; (b) such a tuple
    is a sum of n lattice points of P exactly when every part is a sum of
    n lattice points of its P_v.
    - (a) Each nP_v, and its lattice, spanned by the projections of P's
      points, is a projection of nP and of its lattice. Conversely, glue
      one link at a time: P is the fiber product of its projections P_1,
      P_2 onto the two sides of the link, and a value e_g of the block at
      a point of either side is that of a point of P, so both sides have
      it. For parts q_1, q_2 that agree on the block, write q_1 = sum c_u u
      and q_2 = sum d_x x as integer combinations of points with
      coefficient sum n, let a be the block, and take points u_g, x_g with
      block e_g. Then (q_1, q_2) = sum c_u (u, x_g(u)) + sum d_x (u_g(x), x)
      - sum a_g (u_g, x_g), g(u) the value of u on the block: a combination
      of points of P with sum n, so (q_1, q_2) lies in the lattice of nP.
      With real weights summing to n instead, a_g is the weight of the
      points with block e_g on each side, and (q_1, q_2) is the sum of
      lam_u*mu_x/a_g (u, x) over the pairs of equal block e_g: a point of
      nP.
    - (b) A split of the tuple into n points of P restricts to one of each
      part. If each part is a sum of n points of its P_v, the summands at
      both ends of a link carry e_g on it a_g times each; pair them by that
      value, link by link from the root of the star tree: that makes n
      tuples that agree on every link, points of P, summing to the tuple.
    So nP counts the sum-product over the star tree (_sum_product) of the
    points of the nP_v, keyed by their shared blocks, and a point of nP is
    undecomposable exactly when some part is. Every point q_v of nP_v is a
    part of one, by (a): past each link, with block a, extend it by
    sum_g a_g times the far side of a point of P with e_g there. So P first
    fails at the least degree at which some P_v does.

    The claws. P_v is the k-claw after the column map of _claw_columns, a
    permutation, so it has the claw's failing degree and point counts, and
    the stars of one degree share one claw. Each claw is decided once by
    _pulling and its dilates counted once per degree (_claw_degrees), keyed
    by its first m blocks, m the most inner edges at a vertex of its
    degree. Degree by degree, a star with u inner edges reads its claw's
    tally marginalized to the first u blocks, decoded block by block: the
    claw is symmetric under block permutation, so they count any u of its
    blocks. These tallies glue the blocks as the claw has them, with no
    chi -> -chi on an edge from a parent; negating every block of the
    stars at odd depth in the star tree maps that gluing onto P, a
    permutation within each block, so the counts are the same. P is 0/1,
    so its lattice points are its points, and the count at n = 1 must be
    len(P.points), or this raises AssertionError. The claws handed to the
    scan are counted first; below the least degree at which one of them
    marks a point, every claw is Normal, so P is.

    The witness. At that degree n each claw's rows of nP are taken: the
    marked claws' from their split test, the others' from one scan of nP.
    Each star reads its claw's rows through its column map, in P's
    columns, and P's count at n is the sum-product of their link blocks.
    The witness, the least undecomposable point of nP in ambient order, is
    found by a greedy descent over P's columns in ambient order (_descent):
    each column takes its least value for which the tuples that agree with
    the values fixed so far, less those whose parts are all unmarked, stay
    above 0. Once every column is fixed one tuple remains, with a marked
    part. It is certified without P's facets: it
    lies in P's lattice at scale n, each part, in its claw's columns, lies
    in the claw's halfspaces, and decompose finds no split of its first
    marked part in its claw; each failure raises AssertionError. With the
    lemma, that makes it an undecomposable point of nP."""
    _ceiling(max_degree)   # before any polytope is built
    whole = _projected(build_polytope(tree, model, cap=cap), model, flavor)
    poly = LatticePolytope(whole.vertices)
    if len(tree.inner) < 2:
        return pulling_idp_check(poly, max_degree)
    max_degree = _ceiling(max_degree, poly)
    w = whole.block_width
    stars, maps = star_columns(tree, w), _claw_columns(tree, model, flavor)
    plan = _star_tree(stars)
    shape = {s: (len(stars[s]) // w, (1 if up else 0) + len(kids))
             for s, up, kids in plan}   # star -> (claw degree, inner edges)
    keyed = {k: max(u for j, u in shape.values() if j == k)
             for k, _ in shape.values()}   # claw degree -> blocks it keys
    claws = {k: LatticePolytope(_projected(build_polytope(
        _star(k), model, cap=cap), model, flavor).vertices) for k in keyed}
    pulled = {k: _pulling(claw, max_degree, w if keyed[k] == 1 else 0)
              for k, claw in claws.items()}
    degrees = {k: _claw_degrees(claws[k], max_degree, keyed[k], w,
                                pulled[k]) for k in claws}
    tested = [k for k in claws if pulled[k][0] is None]
    counts = []
    for n in range(1, max_degree + 1):
        got = {k: next(degrees[k]) for k in tested}
        if any(got[k][2].any() for k in tested):
            break
        got.update((k, next(degrees[k])) for k in claws if k not in got)
        q = (n + 1) ** (w - 1)   # one block's key codes are 0..q-1
        tables = {}
        for s, (k, used) in shape.items():
            keys, tally = _summed(got[k][0] // q ** (keyed[k] - used),
                                  got[k][1])
            blocks = [(keys // q ** (used - 1 - i) % q).tolist()
                      for i in range(used)]
            tables[s] = zip(zip(*blocks), tally.tolist())
        counts.append((n, _sum_product(plan, tables)))
        if n == 1 and counts[0][1] != len(poly.points):
            raise AssertionError(f"the claws count {counts[0][1]} points "
                                 f"of P, P has {len(poly.points)}")
    else:
        return _report(counts)
    rows = {}   # per claw: its rows of nP, in ambient coordinates, and marks
    for k, claw in claws.items():
        ys = got[k][3]() if k in got else _dilate_array(claw, n)
        rows[k] = (_ambient(ys, n, claw.lattice),
                   got[k][2] if k in got else np.zeros(len(ys), dtype=bool))
    count, witness, first = _descent(plan, stars, [
        (rows[shape[s][0]][0][:, maps[s]], rows[shape[s][0]][1])
        for s in range(len(stars))])
    counts.append((n, count))
    # each star's part in its claw's columns, the maps being involutions
    parts = [(claws[shape[s][0]], tuple(witness[cols[i]] for i in maps[s]))
             for s, cols in enumerate(stars)]
    for claw, part in parts:
        if not claw.hrep.contains(part, n):
            raise AssertionError("witness fails the halfspace check")
    if not poly.lattice.contains(witness, n):
        raise AssertionError("witness fails the lattice check")
    if decompose(parts[first][1], n, parts[first][0]).found is not None:
        raise AssertionError("witness decomposed on re-verification")
    return _report(counts, witness)


def _descent(plan, stars, parts):
    """(count, witness, s) at a failing degree n of a tree, for
    tree_idp_check: parts[s] = (rows, marks) holds the points of nP_s of
    star s, in the star's columns, and the marks of the undecomposable
    ones. count is the tuples of rows, one per star, that agree on every
    link of the star tree plan (_sum_product); the witness is the least
    such tuple in ambient order with a marked part, found by the greedy
    descent over the tree's columns; s is the first star whose part of it
    is marked. Every link is the block of one edge, so all have one
    width."""
    at = [{c: i for i, c in enumerate(cols)} for cols in stars]
    rows, marks = zip(*parts)
    codes, heads = {}, {}   # per star: a link code per row, the blocks of each
    for s, up, kids in plan:
        pos = [at[s][c] for link in ([up] if up else []) + [c for _, c in kids]
               for c in link]
        keys, code = np.unique(rows[s][:, pos], axis=0, return_inverse=True)
        codes[s], w = code.reshape(-1), len(kids[0][1] if kids else up)
        heads[s] = [tuple(tuple(row[i:i + w]) for i in range(0, len(row), w))
                    for row in keys.tolist()]

    def count(keep):
        """The agreeing tuples of rows, one per star s among those keep[s]
        marks."""
        return _sum_product(plan, {s: [
            (heads[s][c], k) for c, k in enumerate(np.bincount(
                codes[s][keep[s]], minlength=len(heads[s])).tolist()) if k]
            for s in codes})

    keep = [np.ones(len(r), dtype=bool) for r in rows]
    total = count(keep)
    witness = []
    for c in range(max(map(max, stars)) + 1):
        column = {s: rows[s][:, at[s][c]] for s in range(len(stars))
                  if c in at[s]}
        first = next(iter(column))
        for value in sorted(set(column[first][keep[first]].tolist())):
            trial = list(keep)
            for s, values in column.items():
                trial[s] = keep[s] & (values == value)
            plain = [k & ~mark for k, mark in zip(trial, marks)]
            if count(trial) > count(plain):
                break
        else:
            raise AssertionError("no value of a column keeps an "
                                 "undecomposable point")
        keep = trial
        witness.append(value)
    return total, tuple(witness), next(
        s for s, mark in enumerate(marks) if mark[keep[s]].any())


def fiber_product(p1: ModelPolytope, block1: int, p2: ModelPolytope,
                  block2: int) -> ModelPolytope:
    """Pairs of vertices agreeing on the designated blocks, with the shared
    block written once: the polytope analogue of gluing trees along a leaf
    edge. Both block projections must land in the standard simplex.

    The pairs come out in increasing order with no sort: p1's vertices
    increase, and the remainders in one shared-block bucket increase as
    p2's vertices do, since they differ only off the block they share."""
    if p1.block_width != p2.block_width:
        raise BlockWidthMismatchError(
            f"block widths {p1.block_width} and {p2.block_width} differ")
    if p1.flavor != p2.flavor:
        raise BlockWidthMismatchError("cannot mix polytope flavors")
    for poly, blk in ((p1, block1), (p2, block2)):
        if not 0 <= blk < poly.n_blocks:
            raise ValueError(f"no block {blk}")
        for v in poly.vertices:
            proj = poly.block(v, blk)
            if any(x < 0 for x in proj) or sum(proj) != 1:
                raise ProjectionNotInSimplexError(
                    f"block {blk} projection {proj} is not a simplex vertex")
    w = p1.block_width
    by_proj = {}
    for v in p2.vertices:
        key = p2.block(v, block2)
        rest = v[:block2 * w] + v[(block2 + 1) * w:]
        by_proj.setdefault(key, []).append(rest)
    verts = []
    for v in p1.vertices:
        key = p1.block(v, block1)
        for rest in by_proj.get(key, ()):
            verts.append(v + rest)
    return ModelPolytope(vertices=tuple(verts),
                         n_blocks=p1.n_blocks + p2.n_blocks - 1,
                         block_width=w, flavor=p1.flavor)


def glued_polytope(model, t1, leaf1, t2, leaf2, cap: int = _CAP):
    """Polytope of the glued tree computed through the fiber product.

    glue() returns both factors directed as in the glued tree, with the
    merged edge entering the second factor's side, so their polytopes'
    blocks already carry the glued tree's signs and agree on the merged
    edge's block. The returned polytope's blocks follow the glued tree's
    edge order, so it compares directly against build_polytope on the
    glued tree."""
    res = glue(t1, leaf1, t2, leaf2)
    prod = fiber_product(build_polytope(res.factor1, model, cap=cap),
                         res.glued1,
                         build_polytope(res.factor2, model, cap=cap),
                         res.glued2)
    return res, prod
