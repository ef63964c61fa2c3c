"""Networks, sockets, and the vertex polytope of a group-based model.

A network assigns a character of H to every edge so that the signed sum at
each inner vertex is trivial (incoming negative, outgoing positive; the root
has no incoming term). A socket assigns characters to the leaves, summing to
trivial. Restriction of a network to the leaf edges, with a minus sign at a
leaf that is its edge's parent (a degree-1 root), is a bijection onto
sockets. Its inverse puts on each edge the sum of the socket's characters on
the leaves on the edge's side away from the root; every network here is
built that way, in character indices.

The polytope of a model on a tree has one 0/1 vertex per network: per edge a
block of |H| coordinates, holding the indicator of the edge's character in
the canonical character order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BijectionFailureError, CapExceededError
from .groups import GroupModel
from .trees import Tree

# Cap on the networks, or sockets, that the listings below return.
_CAP = 10 ** 6


def _index_sockets(tree: Tree, group):
    """All sockets as character-index tuples in leaf order, sorted, and the
    |H| x |H| index addition table. The first L-1 leaves run through every
    value and the last leaf cancels their sum, so the tuples come out in
    lexicographic order."""
    elems = group.elements()
    add = [[group.index(group.add(a, b)) for b in elems] for a in elems]
    neg = [group.index(group.neg(a)) for a in elems]
    sockets = []
    for head in product(range(group.size), repeat=len(tree.leaves) - 1):
        acc = 0
        for k in head:
            acc = add[acc][k]
        sockets.append(head + (neg[acc],))
    return sockets, add


def _index_networks(tree: Tree, group, cap: int):
    """(network, socket) index-tuple pairs, sorted by network: the canonical
    network order.

    Each edge carries the sum of the socket over the leaves on its child
    side. This is the inverse of signed leaf restriction: a leaf edge
    carries its leaf's character, and at every inner vertex the incoming
    edge's leaves split into those of its outgoing edges, so chi_in =
    sum chi_out (at an inner root the outgoing sums add up to the whole,
    trivial socket). A degree-1 root lies on no edge's child side; its
    socket entry is minus its edge's character, which the zero sum of the
    socket already gives.
    """
    count = group.size ** (len(tree.leaves) - 1)
    if count > cap:
        raise CapExceededError(f"{count} networks exceed the cap of {cap}")
    sockets, add = _index_sockets(tree, group)
    leaf_pos = {v: j for j, v in enumerate(tree.leaves)}
    kids = tree.children_map

    def below(v):
        if not kids[v]:
            return (leaf_pos[v],)
        return tuple(j for _, c in kids[v] for j in below(c))

    sides = [below(c) for _, c in tree.edges]
    pairs = []
    for sock in sockets:
        net = []
        for side in sides:
            acc = 0
            for j in side:
                acc = add[acc][sock[j]]
            net.append(acc)
        pairs.append((tuple(net), sock))
    pairs.sort()
    return pairs


def socket_of_network(tree: Tree, group, assignment) -> tuple:
    """Signed restriction of an edge assignment to the leaves, in leaf order."""
    out = []
    for leaf, i in zip(tree.leaves, tree.leaf_edges):
        chi = assignment[i]
        out.append(chi if tree.edges[i][1] == leaf else group.neg(chi))
    return tuple(out)


def enumerate_networks(tree: Tree, group):
    """All networks as character tuples in edge-position order, sorted by
    character index. Raises CapExceeded past _CAP."""
    chars = group.characters()
    return [tuple(chars[k] for k in net)
            for net, _ in _index_networks(tree, group, _CAP)]


def enumerate_sockets(tree: Tree, group):
    """All sockets (leaf assignments summing to trivial), sorted by
    character index."""
    count = group.size ** (len(tree.leaves) - 1)
    if count > _CAP:
        raise CapExceededError(f"{count} sockets exceed the cap of {_CAP}")
    chars = group.characters()
    return [tuple(chars[k] for k in sock)
            for sock in _index_sockets(tree, group)[0]]


def network_socket_bijection(tree: Tree, group):
    """Aligned (networks, sockets) lists under signed leaf restriction.

    Verifies that every network restricts to the socket it was built from,
    and that these restrictions are distinct and cover the socket set.
    """
    chars = group.characters()
    nets, built = [], []
    for net, sock in _index_networks(tree, group, _CAP):
        nets.append(tuple(chars[k] for k in net))
        built.append(tuple(chars[k] for k in sock))
    sockets = [socket_of_network(tree, group, a) for a in nets]
    if sockets != built:
        raise BijectionFailureError(
            "a network does not restrict to its own socket")
    if (len(set(sockets)) != len(sockets)
            or set(sockets) != set(enumerate_sockets(tree, group))):
        raise BijectionFailureError(
            "network restrictions do not cover the socket set")
    return nets, sockets


@dataclass(frozen=True)
class ModelPolytope:
    """Integer vertices with an (edge, basis-index) block structure.

    flavor "abelian": one block of width |H| per edge, vertices are 0/1
    network indicators. flavor "projected": block width |O| after summing
    coordinates over dual orbits and removing duplicates.
    """

    vertices: tuple          # tuple of int tuples, sorted
    n_blocks: int
    block_width: int
    flavor: str              # "abelian" | "projected"

    def __post_init__(self):
        for v in self.vertices:
            if len(v) != self.dim_ambient:
                raise ValueError("vertex length does not match block layout")

    @property
    def dim_ambient(self) -> int:
        return self.n_blocks * self.block_width

    def block(self, vertex, b: int) -> tuple:
        w = self.block_width
        return tuple(vertex[b * w:(b + 1) * w])


def build_polytope(tree: Tree, model: GroupModel,
                   cap: int = 10 ** 6) -> ModelPolytope:
    """One vertex per network; per edge, the indicator of its character."""
    w = model.group.size
    verts = []
    for net, _ in _index_networks(tree, model.group, cap):
        vec = [0] * (w * len(net))
        for i, k in enumerate(net):
            vec[i * w + k] = 1
        verts.append(tuple(vec))
    verts.sort()
    return ModelPolytope(vertices=tuple(verts), n_blocks=len(tree.edges),
                         block_width=w, flavor="abelian")


def project_orbits(poly: ModelPolytope, model: GroupModel) -> ModelPolytope:
    """Sum coordinates over dual orbits in every block, drop duplicates.

    Identity on already-projected polytopes.
    """
    if poly.flavor == "projected":
        return poly
    orbits = model.dual_orbits
    group = model.group
    if poly.block_width != group.size:
        raise ValueError("polytope blocks do not match the model's H")
    cols = [[group.index(chi) for chi in o] for o in orbits]
    seen = set()
    out = []
    for v in poly.vertices:
        pv = []
        for b in range(poly.n_blocks):
            base = b * poly.block_width
            for idxs in cols:
                pv.append(sum(v[base + j] for j in idxs))
        pv = tuple(pv)
        if pv not in seen:
            seen.add(pv)
            out.append(pv)
    out.sort()
    return ModelPolytope(vertices=tuple(out), n_blocks=poly.n_blocks,
                         block_width=len(orbits), flavor="projected")


def negate_block(poly: ModelPolytope, model: GroupModel, block: int) -> ModelPolytope:
    """Apply the chi -> -chi coordinate permutation inside one edge block
    (transports abelian vertices across an edge orientation flip)."""
    if poly.flavor != "abelian":
        raise ValueError("negation acts on abelian blocks")
    group = model.group
    perm = [group.index(group.neg(group.element(j))) for j in range(group.size)]
    w = poly.block_width
    verts = []
    for v in poly.vertices:
        nv = list(v)
        base = block * w
        for j in range(w):
            nv[base + perm[j]] = v[base + j]
        verts.append(tuple(nv))
    verts.sort()
    return ModelPolytope(vertices=tuple(verts), n_blocks=poly.n_blocks,
                         block_width=w, flavor=poly.flavor)


def vertex_file_text(poly: ModelPolytope, group_spec: str, tree_text: str) -> str:
    """Bit-exact text form: a header then sorted vertex lines."""
    lines = [f"# group={group_spec} tree={tree_text} flavor={poly.flavor} "
             f"dim={poly.dim_ambient} count={len(poly.vertices)}"]
    for v in sorted(poly.vertices):
        lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"
