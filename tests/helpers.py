"""Test-only helpers and oracles that the package itself does not need."""

from fractions import Fraction
from math import gcd

from phylotope.cyclotomic import (CycRational, CyclotomicInt,
                                  cyclotomic_polynomial)
from phylotope.errors import UnknownVertexError
from phylotope.trees import Tree, _orient_from


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
