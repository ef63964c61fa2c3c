"""Differential tests of the dilate scan and the IDP check against
independent oracles, on random small point sets."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylotope.lattice import (_dilate_array, _dilate_points_py,
                               _dilate_scan, _dilate_setup, _DilateScan,
                               _undecomposable, decompose,
                               facet_description, idp_check,
                               lattice_points_in_dilate, spanned_lattice)

# About a third of these sets in dimension 3 and 4 are not IDP.
point_sets = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=7,
    unique=True))


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
    lat = spanned_lattice(pts)
    hrep = facet_description(pts)
    for n in range(2, max_degree + 1):
        for q in _box_points(pts, n, lat, hrep):
            if decompose(q, n, pts, lat, hrep).found is None:
                return n, q
    return None


@settings(max_examples=60, deadline=None)
@given(point_sets, st.integers(1, 4))
def test_dilate_scan_matches_reference(pts, n):
    lat = spanned_lattice(pts)
    hrep = facet_description(pts)
    W, offs, lo, hi, _ = _dilate_setup(sorted(pts), lat, hrep, n)
    ref = _dilate_points_py(W, offs, n, lo, hi)
    rows = _dilate_array(_dilate_scan(tuple(pts), lat, hrep), n, 10 ** 6)
    # same points, in the lexicographic order the code kernel relies on
    assert rows.tolist() == [list(y) for y in ref]
    assert lattice_points_in_dilate(pts, n, lat, hrep) == \
        sorted(_ambient(y, n, lat) for y in ref)


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
    scan = _DilateScan(levels=(), low=tuple(low), span=tuple(span),
                       magnitude=0)
    got = _undecomposable(*(np.array(a, dtype=np.int64).reshape(-1, r)
                            for a in (sn, s1, prev)), n, scan)
    prev_set = set(prev)
    want = [q for q in sn
            if not any(tuple(a - b for a, b in zip(q, v)) in prev_set
                       for v in s1)]
    assert got.tolist() == [list(q) for q in want]


def test_code_kernel_top_digit_does_not_carry():
    # q = (0, 2) has the top digit n*span = 2. With a radix of 2 instead of
    # 3, code(q) - code(0) would equal code((1, 0)), a point of (n-1)P, and
    # q would wrongly count as decomposed.
    scan = _DilateScan(levels=(), low=(0, 0), span=(1, 1), magnitude=0)
    sn, s1, prev = (np.array([p], dtype=np.int64)
                    for p in ((0, 2), (0, 0), (1, 0)))
    assert _undecomposable(sn, s1, prev, 2, scan).tolist() == [[0, 2]]


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
