"""Exact arithmetic in cyclotomic integer rings Z[zeta_m] and their fraction
fields.

Elements are represented on the power basis 1, x, ..., x^(deg-1) of
Z[x]/(Phi_m(x)) where Phi_m is the m-th cyclotomic polynomial, computed by
recursive exact division of x^m - 1 by the Phi_d for proper divisors d.
For m <= 2 the ring degenerates to plain integers (deg = 1) and the same
code path applies.

No floating point anywhere; rationals use integer numerator tuples with a
shared positive integer denominator.
"""

from __future__ import annotations

from fractions import Fraction
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
        self._check(other)
        return CyclotomicInt(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInt(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInt.from_int(self.m, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.m, tuple(a * other for a in self.coeffs))
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
        if isinstance(other, int):
            return not any(self.coeffs[1:]) and self.coeffs[0] == other
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
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

    Extended Euclid over Q[x] against Phi_m; Phi_m is irreducible so the gcd
    of any nonzero residue with it is a nonzero constant.
    """
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
    g = r1[0]
    if g == 0:
        raise ZeroDivisionError("inverse of zero")
    inv = [sj / g for sj in s1]
    deg = _degree(c.m)
    inv = (inv + [Fraction(0)] * deg)[:deg]
    den = 1
    for f in inv:
        den = den * f.denominator // gcd(den, f.denominator)
    n = CyclotomicInt(c.m, tuple(int(f * den) for f in inv))
    if den < 0:
        n, den = -n, -den
    return n, den


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
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"CycRational({self.num!r})"
        return f"CycRational({self.num!r} / {self.den})"

