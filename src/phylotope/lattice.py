"""Exact lattice geometry for integer polytopes.

Hermite-normal-form lattices, facet descriptions via incremental double
description in exact integers, lattice-point enumeration in dilates, the
integer decomposition property check, and the fiber product that mirrors
tree gluing. A LatticePolytope carries a polytope with the data these
derive from it, each computed once.

Dilates are enumerated by project and lift, in the intrinsic lattice
coordinates y of a polytope P: a point of nP is x = n*anchor + y.B. The
facets of every projection of P onto y[:j] are computed once per polytope,
from P's own certified facets by Fourier-Motzkin elimination over ridges,
so the double description runs once per polytope. Level j of the scan of
nP keeps exactly the integer points of the projection of nP, for every n.
The scan runs depth first and yields nP in small blocks, in lexicographic
order, so no level is ever held in full; each level's bound table is built
on its parents' products before they branch.

The IDP check decides each split q = v + p (v in P, p in (n-1)P) on one
int64 mixed-radix code per point, in lattice coordinates: for a point of
kP, digit j is y[j] - k*min y[j] in [0, k*span_j]. One radix
top*span_j + 1 serves every degree k <= top, top being the highest degree
checked whose codes fit in int64, so the codes of v and p add without carry
to the code of q. Between degrees it keeps only the sorted codes of the
last degree, one int64 per point, as they are. Rows return to ambient
coordinates only for a witness and for lattice_points_in_dilate.

Overflow guards: the scan and the codes run on numpy integer arrays, each
bounded first in Python integers. The scan of nP runs in the narrowest of
int16, int32 and int64 whose signed range holds 2*max(n, 1)*magnitude,
which bounds every value and child count it computes; past int64, that is
once max(n, 1)*magnitude reaches 2**62, it raises. Its rows leave it as
int64. The codes are int64 and must stay below 2**63, so the check raises
at the first degree past top. An instance beyond a bound raises
ScaleExceededError instead of wrapping. Rows go back to ambient coordinates
in Python integers, so every reported number is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

import numpy as np

from .errors import (BlockWidthMismatchError, ProjectionNotInSimplexError,
                     ScaleExceededError)
from .polytope import ModelPolytope, build_polytope, negate_block
from .trees import glue


def _primitive(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return tuple(row)
    if g == 0:
        return tuple(row)
    return tuple(x // g for x in row)


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
        which is the point lattice of the dilate kP.
        """
        v = [p - scale * a for p, a in zip(point, self.anchor)]
        coords = []
        for row in self.basis:
            c = next(i for i, x in enumerate(row) if x)
            q, rem = divmod(v[c], row[c])
            if rem:
                return None
            coords.append(q)
            v = [a - q * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)

    def contains(self, point, scale: int = 1) -> bool:
        return self.coordinates(point, scale) is not None


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
    c.x <= rhs, all integer and primitive. Dilates scale the right side."""

    equalities: tuple
    inequalities: tuple

    def contains(self, point, scale: int = 1) -> bool:
        for c, b in self.equalities:
            if sum(x * y for x, y in zip(c, point)) != b * scale:
                return False
        for c, b in self.inequalities:
            if sum(x * y for x, y in zip(c, point)) > b * scale:
                return False
        return True


def _row_reduce_pivots(rows, rank=None):
    """Gauss-Jordan elimination in integers, one row at a time, stopping
    once the rank is full, or once it reaches rank when that is given.
    Returns (reduced rows sorted by pivot column, their pivot columns,
    indices of the input rows that raised the rank). Each reduced row is
    primitive, positive at its pivot and zero at the other rows' pivots."""
    if rank is None:
        rank = len(rows[0]) if rows else 0
    basis = []
    kept = []
    for idx, row in enumerate(rows):
        if len(basis) == rank:
            break
        v = tuple(row)
        for p, b in basis:
            if v[p]:
                v = _primitive([b[p] * x - v[p] * y for x, y in zip(v, b)])
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is None:
            continue
        if v[piv] < 0:
            v = tuple(-x for x in v)
        basis = [(p, _primitive([v[piv] * x - b[piv] * y
                                 for x, y in zip(b, v)]) if b[piv] else b)
                 for p, b in basis]
        basis.append((piv, v))
        kept.append(idx)
    basis.sort(key=lambda pb: pb[0])
    return [b for _, b in basis], [p for p, _ in basis], kept


def _kernel(rows, ncols):
    """(pivot columns, kernel basis) of an integer matrix with ncols
    columns. The basis has one primitive integer vector per non-pivot
    column f of _row_reduce_pivots: positive at f, zero at the other
    non-pivot columns."""
    reduced, pivots, _ = _row_reduce_pivots(rows)
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
        basis.append(_primitive(x))
    return pivots, basis


def _affine_hull(points):
    """(equalities, pivot columns): primitive integer equations of the hull
    and a coordinate subset that restricts to a full-dimensional copy."""
    base = points[0]
    pivots, normals = _kernel([[x - b for x, b in zip(p, base)]
                               for p in points[1:]], len(base))
    equalities = [(c, sum(ci * x for ci, x in zip(c, base)))
                  for c in normals]
    return equalities, pivots


def _initial_simplex(zpoints, d):
    """Indices of d+1 affinely independent points (greedy)."""
    base = zpoints[0]
    _, _, kept = _row_reduce_pivots(
        [[a - b for a, b in zip(z, base)] for z in zpoints[1:]])
    if len(kept) < d:
        raise AssertionError("points are not full-dimensional after restriction")
    return [0] + [i + 1 for i in kept]


def _dual_dd(zpoints, d):
    """Facets of conv(zpoints) in R^d (full-dimensional case) by double
    description on the polar cone {v : (z_i, 1).v <= 0}: one constraint per
    point, extreme rays of the cone are the facets.

    The initial rays are those of the simplex cone of d+1 independent
    constraints: ray j spans the kernel of all of them but the j-th, on
    which it is negative. A ray's zero set (its tight constraints) is a
    bitset. Two rays of the (d+1)-dimensional cone can be adjacent only
    when they share at least d-1 tight constraints, which spares most pairs
    the combinatorial test."""
    cons = [tuple(z) + (1,) for z in zpoints]
    start = _initial_simplex(zpoints, d)
    amat = [cons[i] for i in start]
    rays = []
    zero_sets = []
    start_bits = sum(1 << i for i in start)
    for j in range(d + 1):
        _, (ray,) = _kernel(amat[:j] + amat[j + 1:], d + 1)
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
                    new_rays.append(_primitive(comb))
                    new_zero.append(common | bit)
        rays, zero_sets = new_rays, new_zero

    facets = []
    for ray in rays:
        c, c0 = ray[:-1], ray[-1]
        facets.append((tuple(c), -c0))
    return facets


def facet_description(points) -> HRep:
    """Exact H-representation of conv(points): affine-hull equalities plus
    facet inequalities found by double description on a full-dimensional
    coordinate restriction.

    Every inequality is certified a facet in the restricted coordinates:
    it holds on every point and is tight on points of affine rank d-1.
    Raises AssertionError otherwise."""
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) > _POINT_CAP:
        raise ScaleExceededError(f"{len(pts)} points exceed cap {_POINT_CAP}")
    equalities, pivots = _affine_hull(pts)
    d = len(pivots)
    if d > _DIM_CAP:
        raise ScaleExceededError(f"dimension {d} exceeds cap {_DIM_CAP}")
    if any(sum(ci * x for ci, x in zip(c, p)) != b
           for c, b in equalities for p in pts):
        raise AssertionError("an affine-hull equality rejects an input point")
    inequalities = []
    if d > 0:
        zpoints = [tuple(p[c] for c in pivots) for p in pts]
        for c, rhs in _dual_dd(zpoints, d):
            vals = [sum(ci * x for ci, x in zip(c, z)) for z in zpoints]
            if max(vals) > rhs:
                raise AssertionError("facet description rejects an input point")
            tight = [z for z, v in zip(zpoints, vals) if v == rhs]
            if not tight or len(_row_reduce_pivots(
                    [[a - b for a, b in zip(z, tight[0])] for z in tight[1:]],
                    rank=d - 1)[2]) < d - 1:
                raise AssertionError(f"inequality {c} <= {rhs} is not tight "
                                     "on a facet")
            full = [0] * len(pts[0])
            for x, col in zip(c, pivots):
                full[col] = x
            inequalities.append((tuple(full), rhs))
    return HRep(equalities=tuple(equalities), inequalities=tuple(inequalities))


# Cells (rows x constraints) of the widest bound table in a dilate's scan.
# Its row count is the most rows any level holds at once, and the most
# points in one block the scan yields.
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


@dataclass(frozen=True)
class LatticePolytope:
    """The convex hull P of integer points, in the affine lattice they span.

    Derived data is computed once, on first use: the lattice, the facets,
    the project-and-lift scan data and the lattice points of P. A point of
    the dilate nP is x = n*anchor + y.B in lattice coordinates y."""

    points: tuple   # sorted, distinct integer tuples

    def __post_init__(self):
        pts = tuple(sorted(set(map(tuple, self.points))))
        if not pts:
            raise ValueError("need at least one point")
        object.__setattr__(self, "points", pts)

    @cached_property
    def lattice(self) -> AffineLattice:
        return spanned_lattice(self.points)

    @cached_property
    def hrep(self) -> HRep:
        return facet_description(self.points)

    @cached_property
    def _coordinates(self) -> list:
        ys = [self.lattice.coordinates(p) for p in self.points]
        if None in ys:
            raise AssertionError("input point outside its own lattice")
        return ys

    @cached_property
    def low(self) -> tuple:
        """Each lattice coordinate's minimum over P."""
        return tuple(map(min, zip(*self._coordinates)))

    @cached_property
    def span(self) -> tuple:
        """Each lattice coordinate's range over P."""
        return tuple(max(c) - lo
                     for c, lo in zip(zip(*self._coordinates), self.low))

    @cached_property
    def levels(self) -> tuple:
        """levels[j] bounds y[j] given y[:j]: the facets c.y <= b of the
        projection of P onto y[:j+1] with c[j] != 0, as (coefficient rows,
        right sides, count of upper bounds c[j] > 0, which come first).

        The last level is P itself, whose facets hrep gives; each facet
        carries its tight set, a bitset over the input points. Each lower
        level comes from the one above by Fourier-Motzkin elimination of
        y[j]: a facet of the projection is the projection of a facet with
        c[j] == 0, or of a ridge where an upper facet g meets a lower facet
        h. That ridge is the intersection of their tight sets when no third
        facet's tight set holds it, and its facet is the primitive
        combination -h[j]*g + g[j]*h, tight on that intersection. The ridge
        test needs P's list to hold facets only, which facet_description
        certifies."""
        lat, hrep, ys = self.lattice, self.hrep, self._coordinates
        r = lat.rank

        def in_y(c, b):
            """c.x <= b at x = anchor + y.B, as (w, b') with w.y <= b'."""
            return ([sum(bi * ci for bi, ci in zip(row, c))
                     for row in lat.basis],
                    b - sum(ci * ai for ci, ai in zip(c, lat.anchor)))

        if any(in_y(c, b) != ([0] * r, 0) for c, b in hrep.equalities):
            raise AssertionError("an equality is not constant on the lattice")
        facets = []
        # a facet holds integer vertices, so its gcd divides the side
        for row in (_primitive(w + [b]) for w, b in
                    (in_y(c, b) for c, b in hrep.inequalities)):
            c, b = row[:-1], row[-1]
            facets.append((c, b, sum(1 << i for i, y in enumerate(ys)
                                     if sum(a * x for a, x in zip(c, y)) == b)))
        levels = [None] * r
        for j in range(r - 1, -1, -1):
            upper = [f for f in facets if f[0][j] > 0]
            lower = [f for f in facets if f[0][j] < 0]
            rows = upper + lower
            levels[j] = (tuple(c for c, _, _ in rows),
                         tuple(b for _, b, _ in rows), len(upper))
            if j == 0:
                break
            # eliminate y[j]: the projection has dimension j, so a ridge of
            # the (j+1)-dimensional polytope above has at least j points
            tights = [t for _, _, t in facets]
            projected = [(c[:j], b, t) for c, b, t in facets if c[j] == 0]
            for g, bg, tg in upper:
                for h, bh, th in lower:
                    common = tg & th
                    if common.bit_count() < j or sum(
                            t & common == common for t in tights) > 2:
                        continue
                    row = _primitive([-h[j] * gi + g[j] * hi
                                      for gi, hi in zip(g[:j], h[:j])] +
                                     [-h[j] * bg + g[j] * bh])
                    projected.append((row[:-1], row[-1], common))
            facets = projected
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
        in lexicographic order."""
        return _dilate_array(self, 1)


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
                f"dilate of degree {n} has more than row_cap {_ROW_CAP} "
                "points")
        yield block


def _dilate_array(poly: LatticePolytope, n):
    """Points of nP as int64 rows of lattice coordinates y, in
    lexicographic order: the blocks of _dilate_blocks, concatenated."""
    return np.concatenate([np.empty((0, poly.lattice.rank), dtype=np.int64),
                           *_dilate_blocks(poly, n)])


def _ambient_rows(ys, n, lat: AffineLattice) -> list:
    """Rows x = n*anchor + y.B of an int64 array ys, as tuples of Python
    integers: the product runs on object arrays, so it cannot wrap."""
    basis = np.array(lat.basis, dtype=object).reshape(lat.rank,
                                                      len(lat.anchor))
    xs = ys.astype(object) @ basis + np.array([n * a for a in lat.anchor],
                                              dtype=object)
    return list(map(tuple, xs.tolist()))


def lattice_points_in_dilate(points, n: int):
    """All points of (the lattice anchored at n*anchor) inside n*conv(points),
    sorted. points may be a point sequence, a ModelPolytope or a
    LatticePolytope. Enumeration runs intrinsically in lattice coordinates.
    Raises ValueError for a negative n, and ScaleExceededError past _ROW_CAP
    points or the scan's int64 bound."""
    if n < 0:
        raise ValueError(f"dilate degree must be nonnegative, got {n}")
    poly = _as_polytope(points)
    return sorted(_ambient_rows(_dilate_array(poly, n), n, poly.lattice))


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


@dataclass(frozen=True)
class DecompositionResult:
    found: tuple     # n points summing to q, or None
    examined: int    # nodes visited; with found None this certifies the search


def decompose(q, n: int, points) -> DecompositionResult:
    """Exhaustive search for q = p_1 + ... + p_n with each p_i a lattice
    point of conv(points); index-nondecreasing, so multisets are visited
    once. Failure is a complete-search certificate. points may be a point
    sequence, a ModelPolytope or a LatticePolytope. Raises ValueError for a
    negative n."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    poly = _as_polytope(points)
    lat, hrep = poly.lattice, poly.hrep
    s1 = sorted(_ambient_rows(poly.lattice_points, 1, lat))
    q = tuple(q)
    examined = 0
    dead = set()

    def rec(rest, k, min_idx):
        nonlocal examined
        examined += 1
        if k == 0:
            return [] if not any(rest) else None
        key = (rest, k, min_idx)
        if key in dead:
            return None
        if not hrep.contains(rest, k) or not lat.contains(rest, k):
            dead.add(key)
            return None
        for idx in range(min_idx, len(s1)):
            v = s1[idx]
            sub = rec(tuple(a - b for a, b in zip(rest, v)), k - 1, idx)
            if sub is not None:
                return [v] + sub
        dead.add(key)
        return None

    found = rec(q, n, 0)
    return DecompositionResult(
        found=None if found is None else tuple(found), examined=examined)


def idp_check(poly, max_degree: int = None) -> IdpReport:
    """Integer decomposition property, degree by degree.

    For each n, every lattice point of nP must split as v + (point of
    (n-1)P) with v a lattice point of P; by induction that is exactly
    decomposability into n points. The default degree ceiling max(2, dim-1)
    suffices for full normality of a lattice polytope; a smaller ceiling
    than 2 would certify nothing and raises ValueError. A failure is
    re-verified independently (halfspaces, lattice membership, exhaustive
    search) before it is reported. poly may be a ModelPolytope, a
    LatticePolytope or a sequence of points.

    Degree n is checked block by block as the scan yields it, against the
    sorted codes of degree n-1; only the codes of degree n are kept for the
    next degree. A failing degree is still scanned to its end, so the
    witness is the least undecomposable point in ambient order and the
    point count of that degree is complete.

    Every degree is encoded in the code weights of one degree top: the
    highest up to max_degree whose codes fit in int64. They encode each
    degree below top without carry too, so a degree's codes pass unchanged
    to the next. A degree past top raises ScaleExceededError when it
    starts."""
    if max_degree is not None and max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    poly = _as_polytope(poly)
    lat, hrep, low, span = poly.lattice, poly.hrep, poly.low, poly.span
    if max_degree is None:
        max_degree = max(2, lat.rank - 1)
    s1 = poly.lattice_points
    counts = [(1, len(s1))]
    top = max_degree
    while top > 2 and _code_size(span, top) >= 2 ** 63:
        top -= 1
    weights = _code_weights(span, top)
    vcodes = _codes(s1, 1, low, weights)
    held = [vcodes]
    degrees = []
    for n in range(2, max_degree + 1):
        if n > top:
            _code_weights(span, n)   # raises: these codes pass int64
        prev = np.concatenate(held)
        held = []
        bad = []
        total = 0
        for block in _dilate_blocks(poly, n):
            total += len(block)
            codes = _codes(block, n, low, weights)
            bad.append(block[_undecomposable(codes, vcodes, prev)])
            if n < top:
                held.append(codes)
        del prev   # freed before the next degree joins its codes
        counts.append((n, total))
        degrees.append(n)
        bad = np.concatenate(bad)
        if len(bad):
            witness = min(_ambient_rows(bad, n, lat))
            if not hrep.contains(witness, n):
                raise AssertionError("witness fails the halfspace check")
            if not lat.contains(witness, n):
                raise AssertionError("witness fails the lattice check")
            if decompose(witness, n, poly).found is not None:
                raise AssertionError("witness decomposed on re-verification")
            return IdpReport(verdict="NotNormal", degrees_checked=tuple(degrees),
                             witness=witness, witness_degree=n,
                             points_per_degree=tuple(counts))
    return IdpReport(verdict="Normal", degrees_checked=tuple(degrees),
                     points_per_degree=tuple(counts))


def fiber_product(p1: ModelPolytope, block1: int, p2: ModelPolytope,
                  block2: int) -> ModelPolytope:
    """Pairs of vertices agreeing on the designated blocks, with the shared
    block written once: the polytope analogue of gluing trees along a leaf
    edge. Both block projections must land in the standard simplex."""
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
    verts = sorted(set(verts))
    return ModelPolytope(vertices=tuple(verts),
                         n_blocks=p1.n_blocks + p2.n_blocks - 1,
                         block_width=w, flavor=p1.flavor)


def glued_polytope(model, t1, leaf1, t2, leaf2, cap: int = 10 ** 6):
    """Polytope of the glued tree computed through the fiber product.

    Edge orientation flips recorded by glue() act on abelian blocks as the
    character negation involution; the matching condition across the merged
    edge carries one extra negation. The returned polytope's blocks follow
    the glued tree's edge order, so it compares directly against
    build_polytope on the glued tree."""
    res = glue(t1, leaf1, t2, leaf2)
    q1 = build_polytope(t1, model, cap=cap)
    q2 = build_polytope(t2, model, cap=cap)
    for i in res.flipped1:
        q1 = negate_block(q1, model, i)
    negs2 = set(res.flipped2) ^ {res.glued2}
    for i in negs2:
        q2 = negate_block(q2, model, i)
    prod = fiber_product(q1, res.glued1, q2, res.glued2)
    return res, prod
