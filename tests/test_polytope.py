from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decode_vertex, reorient
from phylotope.errors import CapExceededError
from phylotope.groups import abelian_model, preset_model
from phylotope.polytope import (ModelPolytope, build_polytope,
                                enumerate_networks, enumerate_sockets,
                                negate_block, network_socket_bijection,
                                project_orbits, socket_of_network,
                                vertex_file_text)
from phylotope.trees import parse_newick

TREES = ("(a,b,c);", "((a,b),(c,d));", "((a,b),c,(d,e));")
GROUPS = ([2], [3], [4], [2, 2])


def _rerooted_cases():
    """(group, tree) for every GROUPS x TREES pair, the tree re-rooted at
    each of its vertices, leaves included."""
    for orders in GROUPS:
        group = abelian_model(orders).group
        for text in TREES:
            tree = parse_newick(text)
            for v in range(tree.n_vertices):
                yield group, reorient(tree, v)


def _solved_networks(tree, group):
    """Oracle: networks by solving one chosen edge per inner vertex.

    The edges no inner vertex chooses run through all characters; then,
    root outward, each inner vertex solves its lowest-numbered outgoing
    edge from the signed-sum condition. Sorted by character index."""
    depth = {tree.root: 0}
    order = [tree.root]
    for v in order:
        for _, c in tree.children_map[v]:
            depth[c] = depth[v] + 1
            order.append(c)
    inner = sorted(tree.inner, key=lambda v: depth[v])
    chosen = {v: min(i for i, _ in tree.children_map[v]) for v in inner}
    free = [i for i in range(len(tree.edges)) if i not in chosen.values()]
    parent_edge = {c: i for i, (_, c) in enumerate(tree.edges)}
    nets = []
    for combo in product(group.characters(), repeat=len(free)):
        assign = [None] * len(tree.edges)
        for i, chi in zip(free, combo):
            assign[i] = chi
        for v in inner:
            acc = group.zero()
            if v != tree.root:
                acc = group.add(acc, assign[parent_edge[v]])
            for i, _ in tree.children_map[v]:
                if i != chosen[v]:
                    acc = group.sub(acc, assign[i])
            assert assign[chosen[v]] is None
            assign[chosen[v]] = acc
        nets.append(tuple(assign))
    nets.sort(key=lambda a: tuple(group.index(c) for c in a))
    return nets


def test_networks_match_edge_solver():
    for group, tree in _rerooted_cases():
        nets = enumerate_networks(tree, group)
        assert nets == _solved_networks(tree, group), (group, tree)
        assert network_socket_bijection(tree, group) == (
            nets, [socket_of_network(tree, group, a) for a in nets])


def test_sockets_match_brute_force():
    for orders in GROUPS:
        group = abelian_model(orders).group
        for text in TREES:
            tree = parse_newick(text)
            want = []
            for combo in product(group.characters(),
                                 repeat=len(tree.leaves)):
                total = group.zero()
                for chi in combo:
                    total = group.add(total, chi)
                if total == group.zero():
                    want.append(combo)
            assert enumerate_sockets(tree, group) == want, (orders, text)


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(GROUPS), st.sampled_from(TREES))
def test_network_socket_bijection_property(orders, tree_text):
    model = abelian_model(orders)
    tree = parse_newick(tree_text)
    group = model.group
    nets = enumerate_networks(tree, group)
    socks = enumerate_sockets(tree, group)
    e, inner, leaves = len(tree.edges), len(tree.inner), len(tree.leaves)
    assert len(nets) == group.size ** (e - inner)
    assert len(socks) == group.size ** (leaves - 1)
    assert network_socket_bijection(tree, group)
    got = {socket_of_network(tree, group, a) for a in nets}
    assert got == set(socks)


def test_network_condition_holds():
    for group, tree in _rerooted_cases():
        for assignment in enumerate_networks(tree, group):
            for v in tree.inner:
                acc = group.zero()
                for i, (p, c) in enumerate(tree.edges):
                    if c == v:
                        acc = group.sub(acc, assignment[i])
                    elif p == v:
                        acc = group.add(acc, assignment[i])
                assert acc == group.zero()


def test_socket_sums_trivial():
    z4 = abelian_model([4])
    tree = parse_newick("(a,b,c);")
    for sock in enumerate_sockets(tree, z4.group):
        total = z4.group.zero()
        for chi in sock:
            total = z4.group.add(total, chi)
        assert total == z4.group.zero()


def test_vertices_are_indicator_blocks():
    k3p = preset_model("K3P")
    tree = parse_newick("(a,b,c);")
    poly = build_polytope(tree, k3p)
    assert poly.flavor == "abelian"
    assert poly.n_blocks == 3 and poly.block_width == 4
    assert len(poly.vertices) == 16
    for v in poly.vertices:
        for b in range(poly.n_blocks):
            blk = poly.block(v, b)
            assert sum(blk) == 1 and set(blk) <= {0, 1}
    assert poly.vertices == tuple(sorted(poly.vertices))


def test_decode_vertex_round_trip():
    z3 = abelian_model([3])
    tree = parse_newick("(a,b,c);")
    poly = build_polytope(tree, z3)
    nets = enumerate_networks(tree, z3.group)
    decoded = [decode_vertex(poly, z3, v) for v in poly.vertices]
    assert sorted(decoded) == sorted(nets)


def test_vertex_cap():
    z4 = abelian_model([4])
    tree = parse_newick("((a,b),(c,d));")
    with pytest.raises(CapExceededError):
        build_polytope(tree, z4, cap=10)


def test_projection_merges_orbit_columns():
    k2p = preset_model("K2P")
    tree = parse_newick("(a,b,c);")
    poly = build_polytope(tree, k2p)
    proj = project_orbits(poly, k2p)
    assert proj.flavor == "projected"
    assert proj.block_width == len(k2p.dual_orbits) == 3
    assert len(proj.vertices) == 10
    # column sums within each block are preserved
    assert all(sum(proj.block(v, b)) == 1
               for v in proj.vertices for b in range(proj.n_blocks))
    assert project_orbits(proj, k2p) is proj


def test_negate_block_is_involution():
    z3 = abelian_model([3])
    tree = parse_newick("(a,b,c);")
    poly = build_polytope(tree, z3)
    once = negate_block(poly, z3, 1)
    assert set(once.vertices) != set(poly.vertices) or z3.group.size <= 2
    twice = negate_block(once, z3, 1)
    assert twice.vertices == poly.vertices


def test_negate_block_trivial_for_exponent_two():
    v4 = abelian_model([2, 2])
    tree = parse_newick("(a,b,c);")
    poly = build_polytope(tree, v4)
    assert negate_block(poly, v4, 0).vertices == poly.vertices


def test_vertex_file_format():
    z2 = abelian_model([2])
    tree = parse_newick("(a,b,c);")
    poly = build_polytope(tree, z2)
    text = vertex_file_text(poly, "Z2", tree.newick())
    lines = text.splitlines()
    assert lines[0] == "# group=Z2 tree=(a,b,c); flavor=abelian dim=6 count=4"
    assert len(lines) == 5
    assert lines[1:] == sorted(lines[1:])
    for line in lines[1:]:
        assert len(line.split()) == 6
