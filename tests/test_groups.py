import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phylotope.groups
from phylotope.errors import (CapExceededError, NotFreeError, NotNormalError,
                              NotTransitiveError, ParseError)
from phylotope.groups import (CyclicFactorization, Permutation, abelian_model,
                              build_model, character_eval, close_group,
                              parse_group_file, parse_group_spec, preset_model,
                              unique_transporter)

orders_lists = st.lists(st.integers(min_value=2, max_value=5),
                        min_size=1, max_size=3)


@settings(max_examples=50, deadline=None)
@given(orders_lists)
def test_element_index_round_trip(orders):
    g = CyclicFactorization(tuple(orders))
    assert g.size == len(list(g.elements()))
    for i in range(g.size):
        assert g.index(g.element(i)) == i


def test_canonical_order_is_first_factor_fastest():
    g = CyclicFactorization((2, 2))
    assert list(g.elements()) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    g3 = CyclicFactorization((3, 2))
    assert g3.element(1) == (1, 0)
    assert g3.element(3) == (0, 1)


@settings(max_examples=50, deadline=None)
@given(orders_lists, st.data())
def test_pairing_is_bilinear(orders, data):
    g = CyclicFactorization(tuple(orders))
    u = g.element(data.draw(st.integers(0, g.size - 1)))
    a = g.element(data.draw(st.integers(0, g.size - 1)))
    b = g.element(data.draw(st.integers(0, g.size - 1)))
    m = g.exponent
    assert (g.pairing_exponent(u, g.add(a, b))
            == (g.pairing_exponent(u, a) + g.pairing_exponent(u, b)) % m)
    assert g.pairing_exponent(u, g.neg(a)) == (-g.pairing_exponent(u, a)) % m


def test_character_eval_unit_circle():
    g = CyclicFactorization((4,))
    vals = [character_eval(g, (1,), (h,)) for h in range(4)]
    assert vals[0] == 1
    assert vals[2] == -1
    assert vals[1] * vals[3] == vals[0]


perms = st.permutations(list(range(4)))


@settings(max_examples=50, deadline=None)
@given(perms, perms, st.integers(0, 3))
def test_permutation_composition(p_imgs, q_imgs, x):
    p = Permutation(tuple(p_imgs))
    q = Permutation(tuple(q_imgs))
    assert (p * q)(x) == p(q(x))
    assert (p * p.inverse())(x) == x
    assert p.inverse().inverse() == p


def test_from_cycles():
    p = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    assert p.images == (1, 0, 3, 2)
    assert Permutation.from_cycles(4, [(0, 1, 2, 3)]).images == (1, 2, 3, 0)


def test_close_group_dihedral(monkeypatch):
    a = Permutation((1, 0, 3, 2))
    b = Permutation((2, 3, 0, 1))
    t = Permutation((0, 1, 3, 2))
    assert len(close_group([a, b])) == 4
    assert len(close_group([a, b, t])) == 8
    monkeypatch.setattr(phylotope.groups, "_CLOSURE_CAP", 3)
    with pytest.raises(CapExceededError):
        close_group([Permutation((1, 2, 3, 0))])


def test_presets():
    cfn = preset_model("CFN")
    assert cfn.n_states == 2 and cfn.is_abelian
    k3p = preset_model("K3P")
    assert k3p.n_states == 4 and k3p.is_abelian
    k2p = preset_model("K2P")
    assert not k2p.is_abelian and len(k2p.g_elements) == 8
    jc = preset_model("JC")
    assert len(jc.g_elements) == 24
    assert k2p.states == ("A", "C", "G", "T")


def test_preset_orbits():
    k2p = preset_model("K2P")
    assert k2p.dual_orbits == (((0, 0),), ((1, 0), (1, 1)), ((0, 1),))
    assert k2p.conj_orbits == (((0, 0),), ((1, 0),), ((0, 1), (1, 1)))
    jc = preset_model("JC")
    assert jc.dual_orbits == (((0, 0),), ((1, 0), (0, 1), (1, 1)))


def test_transporter():
    k3p = preset_model("K3P")
    for a in range(4):
        for b in range(4):
            h = unique_transporter(k3p, a, b)
            perm = k3p.h_perms[k3p.group.index(h)]
            assert perm(a) == b


def test_abelian_model_regular_action():
    z6 = abelian_model([6])
    assert z6.n_states == 6
    for i in range(6):
        h = z6.elem_of_state[i]
        # h moves the base state 0 to state i
        assert z6.h_perms[z6.group.index(h)](0) == i


def test_group_spec_parsing():
    assert parse_group_spec("Z2").group.orders == (2,)
    assert parse_group_spec("z2xz2").group.orders == (2, 2)
    assert parse_group_spec("Z4").group.orders == (4,)
    assert parse_group_spec("K2P").name == "K2P"
    with pytest.raises(ParseError):
        parse_group_spec("Q8")
    with pytest.raises(ParseError):
        parse_group_spec("Z0")


def test_group_spec_keeps_no_whitespace():
    # the spec goes into vertex-file headers, which split on whitespace
    assert parse_group_spec(" Z2 x Z2 ").spec == "Z2xZ2"
    assert parse_group_spec("z2xz2").spec == "z2xz2"
    assert parse_group_spec("Z3xZ4").spec == "Z3xZ4"


def test_group_file_round_trip():
    text = """
# 2-parameter model as a file
name: K2P-file
states: A C G T
orders: 2 2
h: (1,2)(3,4); (1,3)(2,4)
g: (3,4)
base: A
"""
    model = parse_group_file(text)
    assert not model.is_abelian
    assert len(model.g_elements) == 8
    assert model.dual_orbits == preset_model("K2P").dual_orbits


def test_group_file_errors():
    with pytest.raises(ParseError):
        parse_group_file("states: A C\norders: 2\nh: (1,3)")
    with pytest.raises(ParseError):
        parse_group_file("orders: 2\nh: (1,2)")
    with pytest.raises(ParseError):
        parse_group_file("states: A B\nstates: A B\norders: 2\nh: (1,2)")
    # the name goes into vertex-file headers, which split on whitespace
    for name in ("my CFN", ""):
        with pytest.raises(ParseError, match="whitespace"):
            parse_group_file(f"name: {name}\nstates: A B\norders: 2\n"
                             "h: (1,2)")
    assert parse_group_file(
        "name: my_CFN\nstates: A B\norders: 2\nh: (1,2)").spec == "my_CFN"


def test_build_model_rejects_intransitive_h():
    # identity generator: H collapses and reaches only the base state
    with pytest.raises(NotTransitiveError):
        build_model(("a", "b"), (2,), [Permutation((0, 1))])
    # a transposition on three states leaves the third state unreachable
    with pytest.raises(NotTransitiveError):
        build_model(("a", "b", "c"), (2,), [Permutation((1, 0, 2))])


def test_build_model_rejects_nonnormal_h():
    # cyclic H of order 4 inside the full symmetric group is not normal
    four_cycle = Permutation((1, 2, 3, 0))
    with pytest.raises(NotNormalError):
        build_model(("a", "b", "c", "d"), (4,), [four_cycle],
                    extra_generators=[Permutation((1, 0, 2, 3))])


def test_build_model_rejects_nonfree_h():
    # Z2 x Z2 where one factor repeats the other: (1,1) acts as identity
    swap = Permutation((1, 0))
    with pytest.raises((NotFreeError, NotTransitiveError)):
        build_model(("a", "b"), (2, 2), [swap, swap])
