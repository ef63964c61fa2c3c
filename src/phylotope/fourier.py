"""Fourier-side linear algebra of group-based models.

Every matrix here is l_f, the matrix with entry f(h_b - h_a) for a function
f on H: l_chi for a character chi, l_{f_o} for the sum f_o of a dual
orbit's characters, and the edge matrix of a parameter row, l_f of the
row's character sum. Also here: symmetry checks, the dimension count for
the space of G-invariant transition matrices, the leaf-tensor oracle (the
marginal tensor of a tree by exact contraction, and its socket coordinates
by the inverse character transform), and the Z4 circulant demonstration.

Everything is exact: matrices carry CyclotomicInt entries, coefficients come
back as CycRational. Ranks over the cyclotomic field Q(zeta_m) are rational
ranks of the realified rows, so the integer elimination of lattice.py is
the only elimination here, and _field_rank its only caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import add, mul

from .cyclotomic import CycRational, CyclotomicInt, _reduce
from .errors import NotInvariantError, ShapeMismatchError
from .groups import GroupModel, character_eval, unique_transporter
from .lattice import _row_reduce_pivots
from .polytope import _CAP, _index_networks
from .trees import Tree


def l_f(model: GroupModel, f) -> tuple:
    """Matrix with entry (a, b) = f(h_a^{-1} h_b); f maps residue tuples to
    ring values."""
    n = model.n_states
    return tuple(tuple(f(unique_transporter(model, a, b)) for b in range(n))
                 for a in range(n))


def l_chi(model: GroupModel, chi: tuple) -> tuple:
    """The rank-one projector w_{-chi} (x) w_chi, w_chi the vector with
    entry chi(h_a) at state a; its entry (a, b) is chi(h_b - h_a)."""
    return l_f(model, lambda h: character_eval(model, chi, h))


def _character_sum(model: GroupModel, pairs) -> dict:
    """h -> sum of c * chi(h) over the (chi, c) pairs, for every h in H."""
    m = model.group.exponent
    out = {}
    for h in model.group.elements():
        acc = CyclotomicInt.zero(m)
        for chi, c in pairs:
            acc = acc + character_eval(model, chi, h) * c
        out[h] = acc
    return out


def f_o(model: GroupModel, k: int) -> tuple:
    """(function, matrix) for the dual orbit model.dual_orbits[k]: f_o, the
    sum of the orbit's characters as a function on H, and l_{f_o}."""
    func = _character_sum(model, [(chi, 1) for chi in model.dual_orbits[k]])
    return func, l_f(model, func.__getitem__)


def g_invariance_check(model: GroupModel, matrix) -> bool:
    """True iff simultaneous row/column permutation by every element of G
    fixes the matrix."""
    n = model.n_states
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise ShapeMismatchError(f"expected a {n}x{n} matrix")
    for g in model.g_elements:
        for a in range(n):
            for b in range(n):
                if matrix[g(a)][g(b)] != matrix[a][b]:
                    return False
    return True


def _fixed_space_dimension(model: GroupModel) -> int:
    """Dimension of {M : M[g(a)][g(b)] = M[a][b] for all g in G}: such an M
    is constant on each G-orbit of state pairs (a, b), and every function
    constant on the orbits is fixed, so it is the number of orbits."""
    n = model.n_states
    return len({min((g(a), g(b)) for g in model.g_elements)
                for a in range(n) for b in range(n)})


def _field_rank(rows) -> int:
    """Rank over Q(zeta_m) of a matrix of CyclotomicInt entries.

    Since 1, zeta, ..., zeta^(deg-1) is a Q-basis of the field (deg the
    degree of Phi_m), the rows times those powers span over Q what the rows
    span over Q(zeta_m), a space of Q-dimension deg times the rank. Read on
    the power basis, the products are integer rows for the one elimination
    kernel."""
    m, deg = rows[0][0].m, len(rows[0][0].coeffs)
    powers = [CyclotomicInt.zeta(m, k) for k in range(deg)]
    real = [[c for e in row for c in (e * z).coeffs]
            for row in rows for z in powers]
    return len(_row_reduce_pivots(real)[0]) // deg


def what_dimension(model: GroupModel) -> int:
    """Number of dual orbits = dim of the G-invariant transition space.

    Cross-checked two ways before returning: the matrices l_{f_o} must be
    linearly independent over the cyclotomic field, and the fixed space of
    the permutation action, counted as the G-orbits on state pairs apart
    from the dual orbits, must have the same dimension.
    """
    d = len(model.dual_orbits)
    flat = []
    for i in range(d):
        _, mat = f_o(model, i)
        flat.append([e for row in mat for e in row])
    if _field_rank(flat) != d:
        raise AssertionError("orbit matrices are not independent")
    if _fixed_space_dimension(model) != d:
        raise AssertionError("fixed-space dimension disagrees with orbit count")
    return d


@dataclass(frozen=True)
class LeafTensor:
    """Exact tensor indexed by leaf-state assignments, lexicographic in leaf
    order (first leaf most significant)."""

    n_states: int
    n_leaves: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n_states ** self.n_leaves:
            raise ShapeMismatchError("value count != n_states ** n_leaves")

    def index(self, assignment) -> int:
        pos = 0
        for a in assignment:
            pos = pos * self.n_states + a
        return pos

    def __getitem__(self, assignment):
        return self.values[self.index(assignment)]


def raw_leaf_tensor(model: GroupModel, tree: Tree, edge_matrices) -> LeafTensor:
    """The tensor whose entry at a leaf-state assignment is the sum over all
    inner-state extensions of the product of edge matrix entries
    M_e[state(parent), state(child)].

    Computed exactly by one bottom-up contraction of the tree (Felsenstein's
    pruning, run on all leaf assignments at once). Each vertex gets one
    table: per assignment to the leaves below it, in depth-first leaf order
    with the first leaf most significant, a vector over its own states. A
    leaf edge passes up a column of its matrix; any other edge passes up
    matrix times vector. A vertex takes the entrywise product of its
    children's messages over the outer product of their keys. At the root
    the states are summed, or, when the root is itself a leaf, its state
    becomes the first key digit. The table is then permuted into the global
    leaf order.

    edge_matrices: one |A| x |A| matrix per edge position.
    """
    n = model.n_states
    if len(edge_matrices) != len(tree.edges):
        raise ShapeMismatchError("need one matrix per edge")
    for mat in edge_matrices:
        if len(mat) != n or any(len(r) != n for r in mat):
            raise ShapeMismatchError(f"edge matrices must be {n}x{n}")
    kids = tree.children_map

    def contract(v):
        """(leaves below v in depth-first order, one vector over the states
        of v per assignment to those leaves, lexicographic)."""
        order, rows = (), None
        for i, c in kids[v]:
            mat = edge_matrices[i]
            if kids[c]:
                below, sub = contract(c)
                msg = [[reduce(add, map(mul, r, vec)) for r in mat]
                       for vec in sub]
            else:
                below = (c,)
                msg = [[r[a] for r in mat] for a in range(n)]
            rows = msg if rows is None else \
                [list(map(mul, x, y)) for x in rows for y in msg]
            order += below
        return order, rows

    order, rows = contract(tree.root)
    if tree.degree[tree.root] == 1:
        order = (tree.root,) + order
        local = [vec[a] for a in range(n) for vec in rows]
    else:
        local = [reduce(add, vec) for vec in rows]
    stride = {v: n ** k for k, v in enumerate(reversed(order))}
    index = [0]
    for v in tree.leaves:
        index = [i + a * stride[v] for i in index for a in range(n)]
    return LeafTensor(n_states=n, n_leaves=len(tree.leaves),
                      values=tuple(local[i] for i in index))


def _digits(pos: int, base: int, length: int) -> tuple:
    """pos written with `length` digits in `base`, most significant first."""
    out = []
    for _ in range(length):
        pos, d = divmod(pos, base)
        out.append(d)
    return tuple(reversed(out))


def _check_tensor_invariance(model: GroupModel, tensor: LeafTensor):
    n = model.n_states
    values = tensor.values
    for g in model.g_elements:
        if g.is_identity():
            continue
        image = [g(a) for a in range(n)]
        moved = [0]  # moved[pos]: flat index of g applied to assignment pos
        for _ in range(tensor.n_leaves):
            moved = [i * n + b for i in moved for b in image]
        for pos, dest in enumerate(moved):
            if values[dest] != values[pos]:
                raise NotInvariantError(
                    f"tensor not fixed by {g!r} at "
                    f"{_digits(pos, n, tensor.n_leaves)}")


def _lift(m: int, v) -> list:
    """An int or element of Z[zeta_m] as m integers: its power-basis
    coefficients read in Z[x]/(x^m - 1)."""
    if isinstance(v, CyclotomicInt):
        if v.m != m:
            raise ValueError(f"mixed rings: m={v.m} vs m={m}")
        v = v.coeffs
    else:
        v = (v,)
    return list(v) + [0] * (m - len(v))


def socket_coordinates(model: GroupModel, tensor: LeafTensor) -> dict:
    """Coefficients of the tensor in the basis {(x)_l w_{chi_l}}.

    Checks G-invariance first, then transforms one leaf axis at a time with
    the exact inverse character table. Each entry of that table is a root
    of unity zeta_m^e, so tensor entries are carried in Z[x]/(x^m - 1) as m
    integers and multiplied by zeta_m^e as a cyclic shift by e. Each
    coefficient is reduced mod Phi_m once at the end; since Phi_m divides
    x^m - 1 that quotient map is a ring homomorphism, so the result is
    exact. Coefficients on non-socket character tuples must vanish
    (NotInvariant otherwise); the returned dict has one CycRational entry
    per socket, zeros included.
    """
    group = model.group
    n = model.n_states
    if tensor.n_states != n:
        raise ShapeMismatchError("tensor state count does not match model")
    _check_tensor_invariance(model, tensor)
    m = group.exponent
    size = group.size
    characters = group.characters()
    # inverse table: (-chi_u)(h_a) = zeta_m^shifts[u][a]
    shifts = [[group.pairing_exponent(group.neg(u), model.elem_of_state[a])
               for a in range(n)] for u in characters]
    vals = [_lift(m, v) for v in tensor.values]
    L = tensor.n_leaves
    stride = len(vals)
    for _axis in range(L):
        stride //= n
        new = [None] * len(vals)
        for outer in range(0, len(vals), stride * n):
            for inner in range(stride):
                base = outer + inner
                col = [vals[base + k * stride] for k in range(n)]
                for u, row in enumerate(shifts):
                    acc = [0] * m
                    for e, c in zip(row, col):
                        acc = list(map(add, acc, c[m - e:] + c[:m - e]))
                    new[base + u * stride] = acc
        vals = new
    den = size ** L
    out = {}
    for pos, acc in enumerate(vals):
        num = CyclotomicInt(m, _reduce(acc, m))
        chars = tuple(characters[d] for d in _digits(pos, size, L))
        total = group.zero()
        for c in chars:
            total = group.add(total, c)
        if total == group.zero():
            out[chars] = CycRational(num, den)
        elif not num.is_zero():
            raise NotInvariantError(
                f"nonzero coefficient on non-socket tuple {chars}")
    return out


def params_to_matrices(model: GroupModel, params):
    """Edge matrices from a parameter table: row e holds one coefficient
    p_chi per character, canonical order, and gives l_f of f = sum of
    p_chi * chi, which is the sum of p_chi * l_chi."""
    chars = model.group.characters()
    mats = []
    for row in params:
        if len(row) != len(chars):
            raise ShapeMismatchError("parameter row has the wrong length")
        func = _character_sum(model, list(zip(chars, row)))
        mats.append(l_f(model, func.__getitem__))
    return mats


def monomial_socket_vector(model: GroupModel, tree: Tree, params) -> dict:
    """The monomial parameterization on sockets: each network contributes the
    product of its per-edge parameters to its socket.

    params: per edge position, coefficients indexed by character (canonical
    order). With abelian H each socket is hit by exactly one network, so
    every value is a single monomial; keys follow the canonical network
    order.
    """
    group = model.group
    if len(params) != len(tree.edges):
        raise ShapeMismatchError("need one parameter row per edge")
    for row in params:
        if len(row) != group.size:
            raise ShapeMismatchError("parameter row has the wrong length")
    chars = group.characters()
    out = {}
    for net, sock in _index_networks(tree, group, _CAP):
        term = 1
        for i, k in enumerate(net):
            term = term * params[i][k]
        out[tuple(chars[k] for k in sock)] = term
    return out


@dataclass(frozen=True)
class AppendixReport:
    """The Z4 circulant computation: Fourier images of (a, b, b, d)."""

    matrix: tuple          # 4 rows of (coeff of a, coeff of b, coeff of d)
    relation_ok: bool      # (1+i) x1 - 2i x2 + (i-1) x3 == 0, symbolically
    image_rank: int        # rank of the coefficient matrix over Q(i)
    separators: tuple      # ((j, k), (a, b, d)) per coordinate pair
    all_pairs_separated: bool

    def to_text(self) -> str:
        names = ("a", "b", "d")
        lines = []
        for j, row in enumerate(self.matrix):
            lines.append(f"x{j} = " + _gaussian_combo(row, names))
        lines.append("relation (1+i)*x1 - 2i*x2 + (i-1)*x3 = 0: "
                     + ("verified" if self.relation_ok else "FAILED"))
        lines.append(f"image rank: {self.image_rank}")
        for (j, k), point in self.separators:
            a, b, d = point
            lines.append(f"x{j} != x{k} at (a,b,d)=({a},{b},{d})")
        lines.append("coordinate equalities cut out the image: "
                     + ("no" if self.all_pairs_separated else "UNDECIDED"))
        return "\n".join(lines) + "\n"


def _gaussian_str(z: CyclotomicInt) -> str:
    re, im = z.coeffs
    if im == 0:
        return str(re)
    ims = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
    if re == 0:
        return ims
    return f"{re}{'+' if im > 0 else ''}{ims}"


def _gaussian_combo(row, names) -> str:
    parts = []
    for z, name in zip(row, names):
        if z.is_zero():
            continue
        s = _gaussian_str(z)
        if s == "1":
            term = name
        elif s == "-1":
            term = f"-{name}"
        elif "+" in s[1:] or "-" in s[1:]:
            term = f"({s})*{name}"
        else:
            term = f"{s}*{name}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) or "0"


def appendix_demo() -> AppendixReport:
    """Fourier transform of a Z4 circulant with the two middle parameters
    identified, and the certificate that the image subspace satisfies a
    genuinely Gaussian-coefficient relation rather than any equality of two
    coordinates."""
    i = CyclotomicInt.zeta(4)
    one = CyclotomicInt.one(4)

    # x_j = a + (i^j + i^(2j)) b + i^(3j) d
    matrix = tuple((one, i ** j + i ** (2 * j), i ** (3 * j))
                   for j in range(4))

    coeff = ((1 + i), CyclotomicInt.from_int(4, -2) * i, (i - 1))
    relation_ok = all(
        (coeff[0] * matrix[1][c] + coeff[1] * matrix[2][c]
         + coeff[2] * matrix[3][c]).is_zero()
        for c in range(3))

    rank = _field_rank([list(col) for col in zip(*matrix)])

    def evaluate(j, a, b, d):
        row = matrix[j]
        return row[0] * a + row[1] * b + row[2] * d

    small = (0, 1, -1, 2, -2)
    separators = []
    ok = True
    for j in range(4):
        for k in range(j + 1, 4):
            found = None
            for a, b, d in product(small, repeat=3):
                if evaluate(j, a, b, d) != evaluate(k, a, b, d):
                    found = (a, b, d)
                    break
            if found is None:
                ok = False
            else:
                separators.append(((j, k), found))
    return AppendixReport(matrix=matrix, relation_ok=relation_ok,
                          image_rank=rank, separators=tuple(separators),
                          all_pairs_separated=ok and len(separators) == 6)
