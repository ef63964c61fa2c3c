"""Fourier-side linear algebra of group-based models.

Basis vectors w_chi, the matrices l_f built from functions on H, orbit sums
l_{f_o}, symmetry checks, the dimension count for the space of G-invariant
transition matrices, a brute-force leaf-tensor oracle with its socket
decomposition, and the Z4 circulant demonstration.

Everything is exact: matrices carry CyclotomicInt entries, coefficients come
back as CycRational.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cyclotomic import CycRational, CyclotomicInt, field_rank
from .errors import NotInvariantError, ShapeMismatchError
from .groups import GroupModel, character_eval, unique_transporter
from .lattice import _row_reduce_pivots
from .polytope import enumerate_networks, socket_of_network
from .trees import Tree


def w_chi(model: GroupModel, chi: tuple) -> tuple:
    """The vector with entry chi(h_a) at state a."""
    return tuple(character_eval(model, chi, model.elem_of_state[a])
                 for a in range(model.n_states))


def l_f(model: GroupModel, f) -> tuple:
    """Matrix with entry (a, b) = f(h_a^{-1} h_b); f maps residue tuples to
    ring values (a dict or a callable)."""
    get = f.__getitem__ if hasattr(f, "__getitem__") else f
    n = model.n_states
    return tuple(tuple(get(unique_transporter(model, a, b)) for b in range(n))
                 for a in range(n))


def l_chi(model: GroupModel, chi: tuple) -> tuple:
    """The rank-one projector w_{-chi} (x) w_chi, entry chi(h_b - h_a)."""
    return l_f(model, lambda h: character_eval(model, chi, h))


def f_o(model: GroupModel, orbit) -> tuple:
    """(function, matrix) for one dual orbit: f_o = sum of the orbit's
    characters as functions on H, l_{f_o} the matching matrix sum.

    `orbit` is an entry of model.dual_orbits or its index.
    """
    if isinstance(orbit, int):
        orbit = model.dual_orbits[orbit]
    m = model.group.exponent
    func = {}
    for h in model.group.elements():
        acc = CyclotomicInt.zero(m)
        for chi in orbit:
            acc = acc + character_eval(model, chi, h)
        func[h] = acc
    return func, l_f(model, func)


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
    """Exact dimension of {M : M[g(a)][g(b)] = M[a][b] for all g in G}:
    the variable count minus the rank of the constraint system, found by
    integer elimination."""
    n = model.n_states
    nvar = n * n
    rows = []
    for g in model.g_elements:
        if g.is_identity():
            continue
        for a in range(n):
            for b in range(n):
                i, j = g(a) * n + g(b), a * n + b
                if i == j:
                    continue
                row = [0] * nvar
                row[i] += 1
                row[j] -= 1
                rows.append(row)
    return nvar - len(_row_reduce_pivots(rows)[0])


def what_dimension(model: GroupModel) -> int:
    """Number of dual orbits = dim of the G-invariant transition space.

    Cross-checked two ways before returning: the matrices l_{f_o} must be
    linearly independent over the cyclotomic field, and the fixed space of
    the permutation action must have the same dimension.
    """
    d = len(model.dual_orbits)
    flat = []
    for i in range(d):
        _, mat = f_o(model, i)
        flat.append([e for row in mat for e in row])
    if field_rank(flat) != d:
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
    """Brute-force marginalization: the tensor whose entry at a leaf-state
    assignment is the sum over all inner-state extensions of the product of
    edge matrix entries M_e[state(parent), state(child)].

    edge_matrices: one |A| x |A| matrix per edge position.
    """
    n = model.n_states
    edges = tree.edges
    if len(edge_matrices) != len(edges):
        raise ShapeMismatchError("need one matrix per edge")
    for mat in edge_matrices:
        if len(mat) != n or any(len(r) != n for r in mat):
            raise ShapeMismatchError(f"edge matrices must be {n}x{n}")
    leaves = tree.leaves
    leaf_pos = {v: i for i, v in enumerate(leaves)}
    kids = tree.children_map

    def up(v, assignment):
        """Vector over states x of v: the subtree below v contracted, with
        leaf states pinned to `assignment`."""
        if not kids[v]:
            vec = [0] * n
            vec[assignment[leaf_pos[v]]] = 1
            return vec
        vec = [1] * n
        for i, c in kids[v]:
            sub = up(c, assignment)
            mat = edge_matrices[i]
            for x in range(n):
                acc = 0
                for y in range(n):
                    if sub[y] != 0:
                        acc = acc + mat[x][y] * sub[y]
                vec[x] = vec[x] * acc
        return vec

    values = []
    root_is_leaf = tree.degree[tree.root] == 1
    for assignment in product(range(n), repeat=len(leaves)):
        vec = up(tree.root, assignment)
        if root_is_leaf:
            values.append(vec[assignment[leaf_pos[tree.root]]])
        else:
            total = 0
            for x in vec:
                total = total + x
            values.append(total)
    return LeafTensor(n_states=n, n_leaves=len(leaves), values=tuple(values))


def _check_tensor_invariance(model: GroupModel, tensor: LeafTensor):
    n = model.n_states
    for g in model.g_elements:
        if g.is_identity():
            continue
        for assignment in product(range(n), repeat=tensor.n_leaves):
            moved = tuple(g(a) for a in assignment)
            if tensor[moved] != tensor[assignment]:
                raise NotInvariantError(
                    f"tensor not fixed by {g!r} at {assignment}")


def socket_coordinates(model: GroupModel, tensor: LeafTensor) -> dict:
    """Coefficients of the tensor in the basis {(x)_l w_{chi_l}}.

    Checks G-invariance first, then transforms one leaf axis at a time with
    the exact inverse character table. Coefficients on non-socket character
    tuples must vanish (NotInvariant otherwise); the returned dict has one
    CycRational entry per socket, zeros included.
    """
    group = model.group
    n = model.n_states
    if tensor.n_states != n:
        raise ShapeMismatchError("tensor state count does not match model")
    _check_tensor_invariance(model, tensor)
    m = group.exponent
    size = group.size
    # inverse table: D[u][a] = (-chi_u)(h_a)
    table = [[character_eval(model, group.neg(u), model.elem_of_state[a])
              for a in range(n)] for u in group.characters()]
    vals = [v if isinstance(v, CyclotomicInt) else CyclotomicInt.from_int(m, v)
            for v in tensor.values]
    L = tensor.n_leaves
    stride = len(vals)
    for _axis in range(L):
        stride //= n
        new = [None] * len(vals)
        for outer in range(0, len(vals), stride * n):
            for inner in range(stride):
                base = outer + inner
                col = [vals[base + k * stride] for k in range(n)]
                for u in range(size):
                    acc = CyclotomicInt.zero(m)
                    for k in range(n):
                        acc = acc + table[u][k] * col[k]
                    new[base + u * stride] = acc
        vals = new
    den = size ** L
    out = {}
    for pos, num in enumerate(vals):
        digits = []
        p = pos
        for _ in range(L):
            digits.append(p % size)
            p //= size
        digits.reverse()
        chars = tuple(group.element(d) for d in digits)
        total = group.zero()
        for c in chars:
            total = group.add(total, c)
        if total == group.zero():
            out[chars] = CycRational(num, den)
        elif not num.is_zero():
            raise NotInvariantError(
                f"nonzero coefficient on non-socket tuple {chars}")
    return out


def params_to_matrices(model: GroupModel, params, by_orbit: bool = False):
    """Expand a parameter table into edge matrices: row e gives coefficients
    of l_chi per character (abelian) or of l_{f_o} per orbit (by_orbit)."""
    group = model.group
    mats = []
    if by_orbit:
        basis = [f_o(model, i)[1] for i in range(len(model.dual_orbits))]
    else:
        basis = [l_chi(model, chi) for chi in group.characters()]
    n = model.n_states
    m = group.exponent
    for row in params:
        if len(row) != len(basis):
            raise ShapeMismatchError("parameter row has the wrong length")
        acc = [[CyclotomicInt.zero(m) for _ in range(n)] for _ in range(n)]
        for coef, mat in zip(row, basis):
            for a in range(n):
                for b in range(n):
                    acc[a][b] = acc[a][b] + mat[a][b] * coef
        mats.append(tuple(tuple(r) for r in acc))
    return mats


def monomial_socket_vector(model: GroupModel, tree: Tree, params,
                           by_orbit: bool = False) -> dict:
    """The monomial parameterization on sockets: each network contributes the
    product of its per-edge parameters to its socket.

    params: per edge position, coefficients indexed by character (canonical
    order) or, with by_orbit, by dual orbit. With abelian H each socket is
    hit by exactly one network, so every value is a single monomial.
    """
    group = model.group
    if len(params) != len(tree.edges):
        raise ShapeMismatchError("need one parameter row per edge")
    if by_orbit:
        orbit_of = {}
        for k, orb in enumerate(model.dual_orbits):
            for chi in orb:
                orbit_of[chi] = k
        index = orbit_of.__getitem__
        width = len(model.dual_orbits)
    else:
        index = group.index
        width = group.size
    for row in params:
        if len(row) != width:
            raise ShapeMismatchError("parameter row has the wrong length")
    out = {}
    for assign in enumerate_networks(tree, group):
        term = 1
        for i, chi in enumerate(assign):
            term = term * params[i][index(chi)]
        socket = socket_of_network(tree, group, assign)
        if socket in out:
            raise NotInvariantError("two networks share a socket")
        out[socket] = term
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
        elif any(c in s for c in "+-") and not s.startswith("-"):
            term = f"({s})*{name}"
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

    rank = field_rank([list(col) for col in zip(*matrix)])

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
