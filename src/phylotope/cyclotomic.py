"""Exact arithmetic in cyclotomic integer rings Z[zeta_m] and their fraction
fields.

Elements are represented on the power basis 1, x, ..., x^(deg-1) of
Z[x]/(Phi_m(x)) where Phi_m is the m-th cyclotomic polynomial, computed by
recursive exact division of x^m - 1 by the Phi_d for proper divisors d.
For m <= 2 the ring degenerates to plain integers (deg = 1) and the same
code path applies.

Integer arithmetic only, no floats and no rationals: a CycRational is a
CyclotomicInt numerator over one positive integer denominator, reduced to
a canonical form. Division multiplies by an inverse taken from the field
norm, c^-1 = (product of the other conjugates of c) / N(c), whose
denominator N(c) is a nonzero integer.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, ascending degree, monic."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


def _exact_div(a, b):
    """Divide integer polynomial a by monic b; remainder must vanish."""
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c:
            out[k - db] = c
            for i in range(db + 1):
                a[k - db + i] -= c * b[i]
    if any(a):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def _degree(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_basis(m: int, k: int) -> tuple:
    """x^k reduced mod Phi_m, as a coefficient tuple of length deg."""
    return _reduce((0,) * k + (1,), m)


def _reduce(coeffs, m):
    """Reduce an arbitrary-degree integer coefficient list mod Phi_m."""
    deg = _degree(m)
    phi = cyclotomic_polynomial(m)
    cs = list(coeffs) + [0] * max(0, deg - len(coeffs))
    for k in range(len(cs) - 1, deg - 1, -1):
        c = cs[k]
        if c:
            cs[k] = 0
            for i in range(deg):
                cs[k - deg + i] -= c * phi[i]
    return tuple(cs[:deg])


class CyclotomicInt:
    """An element of Z[zeta_m] on the power basis."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        deg = _degree(m)
        coeffs = tuple(coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for m={m}")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, m: int) -> "CyclotomicInt":
        return cls(m, (0,) * _degree(m))

    @classmethod
    def one(cls, m: int) -> "CyclotomicInt":
        return cls.from_int(m, 1)

    @classmethod
    def from_int(cls, m: int, k: int) -> "CyclotomicInt":
        deg = _degree(m)
        return cls(m, (k,) + (0,) * (deg - 1))

    @classmethod
    def zeta(cls, m: int, e: int = 1) -> "CyclotomicInt":
        """zeta_m^e."""
        return cls(m, _power_basis(m, e % m))

    def _check(self, other):
        if self.m != other.m:
            raise ValueError(f"mixed rings: m={self.m} vs m={other.m}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.m, other)
        elif not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check(other)
        return CyclotomicInt(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, (int, CyclotomicInt)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.m, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CyclotomicInt(self.m, _reduce(prod, self.m))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent on a ring element")
        out = CyclotomicInt.one(self.m)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, CyclotomicInt) and self.m == other.m:
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return not any(self.coeffs[1:]) and self.coeffs[0] == other
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        # across rings only integers compare, by their value, as they hash
        if any(self.coeffs[1:]) or any(other.coeffs[1:]):
            self._check(other)
        return self.coeffs[0] == other.coeffs[0]

    def __hash__(self):
        # an element equal to an int hashes as that int
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.m, self.coeffs))

    def __repr__(self):
        deg = len(self.coeffs)
        if deg == 1:
            return f"CyclotomicInt({self.m}, {self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{i}" if i > 1 else "z"
                terms.append(f"{c}*{z}" if c != 1 else z)
        return f"CyclotomicInt({self.m}, {' + '.join(terms) or '0'})"


def _field_inverse(c: CyclotomicInt):
    """Return (n, d) with c * n == d, n a CyclotomicInt, d a positive int.

    n is the product of the conjugates sigma_k(c), zeta -> zeta^k, over the
    k in 2..m-1 prime to m, so c * n is the field norm N(c): the product of
    all conjugates, a rational integer, nonzero for c != 0. n takes its sign
    so that d > 0.
    """
    if c.is_zero():
        raise ZeroDivisionError("inverse of zero")
    m, deg = c.m, _degree(c.m)
    n = CyclotomicInt.one(m)
    for k in range(2, m):
        if gcd(k, m) == 1:
            conj = [0] * deg
            for i, ci in enumerate(c.coeffs):
                if ci:
                    for j, b in enumerate(_power_basis(m, i * k % m)):
                        conj[j] += ci * b
            n = n * CyclotomicInt(m, conj)
    d = (c * n).coeffs
    if any(d[1:]):
        raise ArithmeticError("the norm is not an integer")
    return (n, d[0]) if d[0] > 0 else (-n, -d[0])


class CycRational:
    """num / den with num a CyclotomicInt and den a positive integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: CyclotomicInt, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = den
        for c in num.coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = CyclotomicInt(num.m, tuple(c // g for c in num.coeffs))
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def from_int(cls, m: int, k: int) -> "CycRational":
        return cls(CyclotomicInt.from_int(m, k))

    @property
    def m(self):
        return self.num.m

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, CycRational):
            return other
        if isinstance(other, CyclotomicInt):
            return CycRational(other)
        if isinstance(other, int):
            return CycRational.from_int(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return CycRational(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        inv_n, inv_d = _field_inverse(o.num)
        return CycRational(self.num * inv_n * o.den, self.den * inv_d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        # den 1 is equal to its numerator, so it hashes as the numerator
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"CycRational({self.num!r})"
        return f"CycRational({self.num!r} / {self.den})"

