import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylotope.cyclotomic import CycRational, CyclotomicInt
from phylotope.errors import NotInvariantError, ShapeMismatchError
from phylotope.fourier import (LeafTensor, _fixed_space_dimension,
                               appendix_demo, f_o, g_invariance_check,
                               l_chi, l_f,
                               monomial_socket_vector, params_to_matrices,
                               raw_leaf_tensor, socket_coordinates, w_chi,
                               what_dimension)
from phylotope.groups import (abelian_model, character_eval, preset_model,
                              unique_transporter)
from phylotope.polytope import enumerate_sockets
from phylotope.trees import parse_newick

CLAW = parse_newick("(a,b,c);")
QUARTET = parse_newick("((a,b),(c,d));")


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
        wm = w_chi(z4, neg)
        wp = w_chi(z4, chi)
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
    assert what_dimension(abelian_model([3])) == 3
    assert what_dimension(abelian_model([2, 2])) == 4


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
    import random
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


def test_monomial_vector_covers_all_sockets():
    z3 = abelian_model([3])
    params = [[1] * 3 for _ in QUARTET.edges]
    mono = monomial_socket_vector(z3, QUARTET, params)
    assert set(mono) == set(enumerate_sockets(QUARTET, z3.group))


def test_orbit_parameters_expand():
    k2p = preset_model("K2P")
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mats = params_to_matrices(k2p, rows, by_orbit=True)
    for k in range(3):
        assert mats[k] == f_o(k2p, k)[1]
        assert g_invariance_check(k2p, mats[k])


def test_appendix_demo_report():
    rep = appendix_demo()
    assert rep.relation_ok
    assert rep.image_rank == 3
    assert rep.all_pairs_separated
    assert len(rep.separators) == 6
    text = rep.to_text()
    assert "relation (1+i)*x1 - 2i*x2 + (i-1)*x3 = 0: verified" in text
    assert "image rank: 3" in text


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
    assert _fixed_space_dimension(model) == len(orbits)
