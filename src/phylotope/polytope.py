"""Networks, sockets, and the vertex polytope of a group-based model.

A network assigns a character of H to every edge so that the signed sum at
each inner vertex is trivial (incoming negative, outgoing positive; the root
has no incoming term). A socket assigns characters to the leaves, summing to
trivial. Restriction of a network to the leaf edges, with a minus sign at a
leaf that is its edge's parent (a degree-1 root), is a bijection onto
sockets.

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


def _elimination_order(tree: Tree):
    """Inner vertices ordered root-outward, each with its chosen (lowest
    numbered) outgoing edge; used to solve one edge per inner vertex."""
    depth = {tree.root: 0}
    order = [tree.root]
    for v in order:
        for _, c in tree.children_map[v]:
            depth[c] = depth[v] + 1
            order.append(c)
    inner = sorted(tree.inner, key=lambda v: depth[v])
    chosen = {}
    for v in inner:
        kids = tree.children_map[v]
        if not kids:
            raise BijectionFailureError("inner vertex without outgoing edge")
        chosen[v] = min(i for i, _ in kids)
    return inner, chosen


def socket_of_network(tree: Tree, group, assignment) -> tuple:
    """Signed restriction of an edge assignment to the leaves, in leaf order."""
    out = []
    for leaf, i in zip(tree.leaves, tree.leaf_edges):
        chi = assignment[i]
        out.append(chi if tree.edges[i][1] == leaf else group.neg(chi))
    return tuple(out)


def iter_networks(tree: Tree, group):
    """Yield all networks as tuples of characters in edge-position order.

    Free edges (those not chosen by any inner vertex) run through all
    |H|^(|E|-|N|) combinations in canonical order; each inner vertex's chosen
    edge is then solved from the signed-sum condition, root first so every
    chosen edge is determined exactly once.
    """
    inner, chosen = _elimination_order(tree)
    chosen_pos = set(chosen.values())
    free = [i for i in range(len(tree.edges)) if i not in chosen_pos]
    parent_edge = {}
    for i, (u, v) in enumerate(tree.edges):
        parent_edge[v] = i
    chars = group.characters()
    for combo in product(chars, repeat=len(free)):
        assign = [None] * len(tree.edges)
        for i, chi in zip(free, combo):
            assign[i] = chi
        for v in inner:
            # condition: -chi_in + sum chi_out = 0, solve the chosen edge
            acc = group.zero()
            if v != tree.root:
                acc = group.add(acc, assign[parent_edge[v]])
            for i, _ in tree.children_map[v]:
                if i != chosen[v]:
                    acc = group.sub(acc, assign[i])
            if assign[chosen[v]] is not None:
                raise BijectionFailureError("chosen edge already set")
            assign[chosen[v]] = acc
        yield tuple(assign)


def enumerate_networks(tree: Tree, group, cap: int = 10 ** 6):
    """All networks, sorted canonically. Raises CapExceeded past `cap`."""
    expected = group.size ** (len(tree.edges) - len(tree.inner))
    if expected > cap:
        raise CapExceededError(
            f"{expected} networks exceed the cap of {cap}")
    nets = sorted(iter_networks(tree, group),
                  key=lambda a: tuple(group.index(c) for c in a))
    if len(nets) != expected:
        raise BijectionFailureError(
            f"enumerated {len(nets)} networks, expected {expected}")
    return nets


def enumerate_sockets(tree: Tree, group, cap: int = 10 ** 6):
    """All sockets (leaf assignments summing to trivial), sorted; independent
    of the network enumeration."""
    nl = len(tree.leaves)
    expected = group.size ** (nl - 1)
    if expected > cap:
        raise CapExceededError(f"{expected} sockets exceed the cap of {cap}")
    chars = group.characters()
    out = []
    for combo in product(chars, repeat=nl - 1):
        acc = group.zero()
        for c in combo:
            acc = group.sub(acc, c)
        out.append(combo + (acc,))
    out.sort(key=lambda s: tuple(group.index(c) for c in s))
    return out


def network_socket_bijection(tree: Tree, group, cap: int = 10 ** 6):
    """Aligned (networks, sockets) lists under signed leaf restriction.

    Verifies that restriction is a bijection onto the independently
    enumerated socket set.
    """
    nets = enumerate_networks(tree, group, cap=cap)
    sockets = [socket_of_network(tree, group, a) for a in nets]
    if len(set(sockets)) != len(sockets):
        raise BijectionFailureError("two networks share a socket")
    if sorted(sockets) != sorted(enumerate_sockets(tree, group, cap=cap)):
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
    provenance: str = ""

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


def build_polytope(tree: Tree, model: GroupModel, cap: int = 10 ** 6,
                   provenance: str = "") -> ModelPolytope:
    """One vertex per network; per edge, the indicator of its character."""
    group = model.group
    w = group.size
    verts = []
    for assign in enumerate_networks(tree, group, cap=cap):
        vec = [0] * (w * len(tree.edges))
        for i, chi in enumerate(assign):
            vec[i * w + group.index(chi)] = 1
        verts.append(tuple(vec))
    verts.sort()
    return ModelPolytope(vertices=tuple(verts), n_blocks=len(tree.edges),
                         block_width=w, flavor="abelian",
                         provenance=provenance)


def decode_vertex(poly: ModelPolytope, model: GroupModel, vertex) -> tuple:
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
                         block_width=len(orbits), flavor="projected",
                         provenance=poly.provenance)


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
                         block_width=w, flavor=poly.flavor,
                         provenance=poly.provenance)


def vertex_file_text(poly: ModelPolytope, group_spec: str, tree_text: str) -> str:
    """Bit-exact text form: a header then sorted vertex lines."""
    lines = [f"# group={group_spec} tree={tree_text} flavor={poly.flavor} "
             f"dim={poly.dim_ambient} count={len(poly.vertices)}"]
    for v in sorted(poly.vertices):
        lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"
