from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import field_rank_by_elimination
from phylotope.cyclotomic import (CycRational, CyclotomicInt,
                                  cyclotomic_polynomial)
from phylotope.fourier import _field_rank

ORDERS = (1, 2, 3, 4, 6, 12)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_powers_cycle():
    for m in ORDERS:
        z = CyclotomicInt.zeta(m)
        assert z ** m == CyclotomicInt.one(m)
        prod = CyclotomicInt.one(m)
        for _ in range(m):
            prod = prod * z
        assert prod == CyclotomicInt.one(m)


def test_fourth_root_arithmetic():
    i = CyclotomicInt.zeta(4)
    assert i * i == CyclotomicInt.from_int(4, -1)
    assert (1 + i) * (1 - i) == CyclotomicInt.from_int(4, 2)
    assert i * i ** 3 == CyclotomicInt.one(4)


elems = st.integers(min_value=-9, max_value=9)


@st.composite
def cyc(draw, m=None):
    if m is None:
        m = draw(st.sampled_from(ORDERS))
    deg = len(cyclotomic_polynomial(m)) - 1
    coeffs = draw(st.lists(elems, min_size=deg, max_size=deg))
    out = CyclotomicInt.zero(m)
    z = CyclotomicInt.zeta(m)
    for k, c in enumerate(coeffs):
        out = out + z ** k * c
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_ring_axioms(m, data):
    a = data.draw(cyc(m=m))
    b = data.draw(cyc(m=m))
    c = data.draw(cyc(m=m))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == CyclotomicInt.zero(m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_field_division(m, data):
    a = data.draw(cyc(m=m))
    b = data.draw(cyc(m=m))
    qb = CycRational(b)
    if qb == 0:
        return
    qa = CycRational(a)
    assert (qa / qb) * qb == qa


def test_rational_normalization():
    half = CycRational.from_int(4, 1) / 2
    assert half + half == 1
    third = CycRational.from_int(3, 1) / 3
    assert third * 3 == CycRational.from_int(3, 1)
    assert CycRational.from_int(2, 6) / 4 == CycRational.from_int(2, 3) / 2


def test_field_rank():
    one = CyclotomicInt.one(4)
    i = CyclotomicInt.zeta(4)
    zero = CyclotomicInt.zero(4)
    for rank in (_field_rank, field_rank_by_elimination):
        assert rank([[one, i], [i, -one]]) == 1
        assert rank([[one, zero], [zero, one]]) == 2
        assert rank([[zero, zero]]) == 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12)), st.data())
def test_realified_rank_matches_field_elimination(m, data):
    # rows past the first `base` are Z[zeta]-combinations of earlier ones,
    # so the rank is often below both dimensions
    ncols = data.draw(st.integers(1, 4))
    base = data.draw(st.integers(1, 3))
    rows = [data.draw(st.lists(cyc(m=m), min_size=ncols, max_size=ncols))
            for _ in range(base)]
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = [data.draw(cyc(m=m)) for _ in rows]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)),
                         CyclotomicInt.zero(m)) for j in range(ncols)])
    assert _field_rank(rows) == field_rank_by_elimination(rows)
