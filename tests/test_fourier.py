import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reorient
from phylotope.cyclotomic import CycRational, CyclotomicInt
from phylotope.errors import NotInvariantError, ShapeMismatchError
from phylotope.fourier import (LeafTensor, _fixed_space_dimension,
                               appendix_demo, f_o, g_invariance_check,
                               l_chi, monomial_socket_vector,
                               params_to_matrices, raw_leaf_tensor,
                               socket_coordinates, what_dimension)
from phylotope.groups import (abelian_model, character_eval, preset_model,
                              unique_transporter)
from phylotope.lattice import _row_reduce_pivots
from phylotope.polytope import enumerate_sockets
from phylotope.trees import parse_newick

CLAW = parse_newick("(a,b,c);")
QUARTET = parse_newick("((a,b),(c,d));")

# trees of 2..5 leaves; each test re-roots them at any vertex, leaves included
ORACLE_TREES = [parse_newick(t) for t in (
    "(a,b);", "(a,b,c);", "((a,b),(c,d));", "(a,b,c,d);",
    "((a,b),c,(d,e));", "(a,b,c,d,e);", "(((a,b),c),(d,e));",
    "((a,b,c),(d,e));")]
ORACLE_GROUPS = [[2], [3], [4], [2, 2]]


def _leaf_tensor_by_definition(model, tree, mats):
    """The definition raw_leaf_tensor implements: per leaf assignment, the
    sum over all inner-state extensions of the product over edges (u, v) of
    M_e[state(u)][state(v)]."""
    n = model.n_states
    values = []
    for leaf_states in product(range(n), repeat=len(tree.leaves)):
        state = dict(zip(tree.leaves, leaf_states))
        total = 0
        for inner_states in product(range(n), repeat=len(tree.inner)):
            state.update(zip(tree.inner, inner_states))
            term = 1
            for (u, v), mat in zip(tree.edges, mats):
                term = term * mat[state[u]][state[v]]
            total = total + term
        values.append(total)
    return tuple(values)


def _socket_coordinates_by_table(model, tensor):
    """socket_coordinates with a dense table of CyclotomicInt characters and
    ring products in place of shifts, and an invariance check that looks up
    every moved assignment."""
    group = model.group
    n = model.n_states
    for g in model.g_elements:
        for assignment in product(range(n), repeat=tensor.n_leaves):
            if tensor[tuple(g(a) for a in assignment)] != tensor[assignment]:
                raise NotInvariantError(f"tensor not fixed by {g!r}")
    m = group.exponent
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
                for u in range(group.size):
                    acc = CyclotomicInt.zero(m)
                    for k in range(n):
                        acc = acc + table[u][k] * col[k]
                    new[base + u * stride] = acc
        vals = new
    out = {}
    for digits, num in zip(product(range(group.size), repeat=L), vals):
        chars = tuple(group.element(d) for d in digits)
        total = group.zero()
        for c in chars:
            total = group.add(total, c)
        if total == group.zero():
            out[chars] = CycRational(num, group.size ** L)
        elif not num.is_zero():
            raise NotInvariantError(f"nonzero coefficient on {chars}")
    return out


def _ring_elements(m):
    deg = len(CyclotomicInt.zero(m).coeffs)
    return st.lists(st.integers(-2, 2), min_size=deg, max_size=deg).map(
        lambda cs: CyclotomicInt(m, cs))


def test_l_chi_is_transporter_character():
    k3p = preset_model("K3P")
    for chi in k3p.group.characters():
        mat = l_chi(k3p, chi)
        for a in range(4):
            for b in range(4):
                want = character_eval(k3p, chi, unique_transporter(k3p, a, b))
                assert mat[a][b] == want


def test_l_chi_is_rank_one_product():
    z4 = abelian_model([4])
    for chi in z4.group.characters():
        neg = z4.group.neg(chi)
        wm = [character_eval(z4, neg, h) for h in z4.elem_of_state]
        wp = [character_eval(z4, chi, h) for h in z4.elem_of_state]
        mat = l_chi(z4, chi)
        for a in range(4):
            for b in range(4):
                assert mat[a][b] == wm[a] * wp[b]


def test_orbit_sums_are_invariant():
    for name in ("K2P", "JC"):
        model = preset_model(name)
        for k in range(len(model.dual_orbits)):
            _, mat = f_o(model, k)
            assert g_invariance_check(model, mat)


def test_invariance_check_rejects_asymmetric():
    k2p = preset_model("K2P")
    mat = [[CyclotomicInt.from_int(2, a * 4 + b) for b in range(4)]
           for a in range(4)]
    assert not g_invariance_check(k2p, mat)
    with pytest.raises(ShapeMismatchError):
        g_invariance_check(k2p, [[CyclotomicInt.one(2)]])


def test_what_dimension_presets():
    got = {n: what_dimension(preset_model(n))
           for n in ("CFN", "JC", "K2P", "K3P")}
    assert got == {"CFN": 2, "JC": 2, "K2P": 3, "K3P": 4}


def test_what_dimension_abelian_is_group_size():
    # deg Phi_m > 1 for all of these but Z2xZ2, so the field rank is
    # realified over more than one power of zeta
    for orders in ([3], [2, 2], [4], [5], [8], [2, 3]):
        assert what_dimension(abelian_model(orders)) == prod(orders)


def test_identity_matrices_give_diagonal_tensor():
    z3 = abelian_model([3])
    n = z3.n_states
    one = CyclotomicInt.one(z3.group.exponent)
    zero = CyclotomicInt.zero(z3.group.exponent)
    ident = [[one if a == b else zero for b in range(n)] for a in range(n)]
    tensor = raw_leaf_tensor(z3, CLAW, [ident] * 3)
    for idx in range(n ** 3):
        states = (idx // 9, (idx // 3) % 3, idx % 3)
        want = 1 if len(set(states)) == 1 else 0
        assert tensor.values[tensor.index(states)] == want


def test_tensor_index_layout():
    t = LeafTensor(n_states=3, n_leaves=2,
                   values=tuple(range(9)))
    assert t.index((0, 0)) == 0
    assert t.index((0, 1)) == 1
    assert t.index((1, 0)) == 3
    assert t[(2, 2)] == 8


def test_socket_coordinates_rejects_noninvariant():
    z2 = abelian_model([2])
    vals = [0] * 8
    vals[1] = 1
    with pytest.raises(NotInvariantError):
        socket_coordinates(z2, LeafTensor(n_states=2, n_leaves=3,
                                          values=tuple(vals)))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3]))
def test_oracle_agreement_property(seed, order):
    rng = random.Random(seed)
    model = abelian_model([order])
    group = model.group
    tree = CLAW
    params = [[rng.randint(-2, 2) for _ in range(group.size)]
              for _ in tree.edges]
    mats = params_to_matrices(model, params)
    coords = socket_coordinates(model, raw_leaf_tensor(model, tree, mats))
    mono = monomial_socket_vector(model, tree, params)
    scalar = CycRational.from_int(group.exponent,
                                  group.size ** len(tree.inner))
    assert set(coords) == set(mono)
    for socket, value in mono.items():
        assert coords[socket] == scalar * value


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_leaf_tensor_contraction_matches_definition(data):
    model = abelian_model(data.draw(st.sampled_from(ORACLE_GROUPS)))
    n = model.n_states
    # the definition costs n ** vertices products per edge
    tree = data.draw(st.sampled_from(
        [t for t in ORACLE_TREES if n ** t.n_vertices <= 4096]))
    tree = reorient(tree, data.draw(st.integers(0, tree.n_vertices - 1)))
    entry = _ring_elements(model.group.exponent)
    square = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    mats = [data.draw(square) for _ in tree.edges]
    tensor = raw_leaf_tensor(model, tree, mats)
    assert tensor.n_leaves == len(tree.leaves)
    assert tensor.values == _leaf_tensor_by_definition(model, tree, mats)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_socket_shifts_match_table_transform(data):
    model = data.draw(st.sampled_from(
        [abelian_model(o) for o in ORACLE_GROUPS] + [preset_model("K2P")]))
    n = model.n_states
    n_leaves = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[n]))
    value = st.one_of(st.integers(-3, 3), _ring_elements(model.group.exponent))
    # one value per G-orbit of assignments makes the tensor invariant
    orbit_value = {}
    values = []
    for assignment in product(range(n), repeat=n_leaves):
        orbit = min(tuple(g(a) for a in assignment) for g in model.g_elements)
        if orbit not in orbit_value:
            orbit_value[orbit] = data.draw(value)
        values.append(orbit_value[orbit])
    tensor = LeafTensor(n_states=n, n_leaves=n_leaves, values=tuple(values))
    assert socket_coordinates(model, tensor) == \
        _socket_coordinates_by_table(model, tensor)
    # every G-orbit has at least |H| >= 2 members, so one changed entry
    # breaks invariance
    pos = data.draw(st.integers(0, len(values) - 1))
    values[pos] = values[pos] + 1
    broken = LeafTensor(n_states=n, n_leaves=n_leaves, values=tuple(values))
    with pytest.raises(NotInvariantError):
        socket_coordinates(model, broken)
    with pytest.raises(NotInvariantError):
        _socket_coordinates_by_table(model, broken)


def test_monomial_vector_covers_all_sockets():
    z3 = abelian_model([3])
    params = [[1] * 3 for _ in QUARTET.edges]
    mono = monomial_socket_vector(z3, QUARTET, params)
    assert set(mono) == set(enumerate_sockets(QUARTET, z3.group))


def test_appendix_demo_report():
    rep = appendix_demo()
    assert rep.relation_ok
    assert rep.image_rank == 3
    assert rep.all_pairs_separated
    assert len(rep.separators) == 6
    text = rep.to_text()
    assert "relation (1+i)*x1 - 2i*x2 + (i-1)*x3 = 0: verified" in text
    assert "image rank: 3" in text


def _fixed_space_rank(model):
    """The fixed space's dimension as the variable count minus the rank of
    the constraints M[g(a)][g(b)] - M[a][b] = 0, by integer elimination."""
    n = model.n_states
    rows = []
    for g in model.g_elements:
        for a in range(n):
            for b in range(n):
                i, j = g(a) * n + g(b), a * n + b
                if i != j:
                    row = [0] * (n * n)
                    row[i], row[j] = 1, -1
                    rows.append(row)
    return n * n - len(_row_reduce_pivots(rows)[0])


@pytest.mark.parametrize("model", [
    *("CFN", "JC", "K2P", "K3P"),
    *([k] for k in range(2, 9)), [2, 2], [2, 3], [2, 4], [2, 2, 2]])
def test_fixed_space_dimension_counts_pair_orbits(model):
    # a matrix fixed by G is constant on each G-orbit of state pairs (a, b),
    # so the fixed space has one dimension per orbit
    model = preset_model(model) if isinstance(model, str) \
        else abelian_model(model)
    n = model.n_states
    orbits = {frozenset((g(a), g(b)) for g in model.g_elements)
              for a in range(n) for b in range(n)}
    assert _fixed_space_dimension(model) == len(orbits) == \
        _fixed_space_rank(model)


@pytest.mark.parametrize("model", [
    *([k] for k in (2, 3, 4)), [2, 2], *("K2P", "JC", "K3P")])
def test_params_to_matrices_sums_character_matrices(model):
    model = preset_model(model) if isinstance(model, str) \
        else abelian_model(model)
    chars = model.group.characters()
    n = model.n_states
    rng = random.Random(len(chars) * 31 + len(model.g_elements))
    params = [[rng.randint(-3, 3) for _ in chars] for _ in range(3)]
    basis = [l_chi(model, chi) for chi in chars]
    for row, mat in zip(params, params_to_matrices(model, params)):
        for a in range(n):
            for b in range(n):
                want = CyclotomicInt.zero(model.group.exponent)
                for coef, term in zip(row, basis):
                    want = want + term[a][b] * coef
                assert mat[a][b] == want
    with pytest.raises(ShapeMismatchError):
        params_to_matrices(model, [[1] * (len(chars) - 1)])
