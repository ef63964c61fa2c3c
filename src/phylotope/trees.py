"""Rooted trees, Newick parsing, and leaf gluing.

Vertices are integers; edges are (parent, child) pairs directed away from the
root. Leaves are the degree-1 vertices, so a degree-1 root counts as a leaf
(the 1-edge tree has two leaves and no inner vertex). A Newick string whose
outermost group has exactly two members denotes the tree in which those two
subtrees are joined by a single edge; the written root is suppressed and the
first member becomes the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotALeafError, ParseError, UnknownVertexError


@dataclass(frozen=True)
class Tree:
    root: int
    edges: tuple    # (parent, child) pairs
    labels: tuple   # one entry per vertex; inner vertices carry None

    def __post_init__(self):
        n = len(self.labels)
        if len(self.edges) != n - 1:
            raise ValueError("edge count must be vertex count - 1")
        incoming = [0] * n
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
            incoming[v] += 1
        if incoming[self.root] != 0:
            raise ValueError("root has an incoming edge")
        if any(c != 1 for v, c in enumerate(incoming) if v != self.root):
            raise ValueError("every non-root vertex needs exactly one parent")
        seen = {self.root}
        frontier = [self.root]
        kids = self.children_map
        while frontier:
            nxt = []
            for v in frontier:
                for _, c in kids[v]:
                    if c in seen:
                        raise ValueError("not a tree (cycle)")
                    seen.add(c)
                    nxt.append(c)
            frontier = nxt
        if len(seen) != n:
            raise ValueError("not connected")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @cached_property
    def children_map(self) -> tuple:
        """Per vertex, the list of (edge position, child)."""
        out = [[] for _ in self.labels]
        for i, (u, v) in enumerate(self.edges):
            out[u].append((i, v))
        return tuple(tuple(x) for x in out)

    @cached_property
    def degree(self) -> tuple:
        deg = [0] * len(self.labels)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def leaves(self) -> tuple:
        return tuple(v for v in range(self.n_vertices) if self.degree[v] == 1)

    @cached_property
    def inner(self) -> tuple:
        return tuple(v for v in range(self.n_vertices) if self.degree[v] > 1)

    @cached_property
    def leaf_edges(self) -> tuple:
        """For each leaf (in self.leaves order) its incident edge position."""
        pos = {}
        for i, (u, v) in enumerate(self.edges):
            for w in (u, v):
                if self.degree[w] == 1:
                    pos[w] = i
        return tuple(pos[v] for v in self.leaves)

    def leaf_by_label(self, label: str) -> int:
        hits = [v for v in self.leaves if self.labels[v] == label]
        if not hits:
            raise UnknownVertexError(f"no leaf labelled {label!r}")
        if len(hits) > 1:
            raise UnknownVertexError(f"leaf label {label!r} is ambiguous")
        return hits[0]

    def newick(self) -> str:
        kids = self.children_map

        def sub(v):
            if not kids[v]:
                return self.labels[v]
            return "(" + ",".join(sub(c) for _, c in kids[v]) + ")"

        rk = kids[self.root]
        if len(rk) == 1:
            return f"({self.labels[self.root]},{sub(rk[0][1])});"
        return sub(self.root) + ";"


def parse_newick(text: str) -> Tree:
    labels = []
    edges = []
    n = len(text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def subtree():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of input", offset=pos)
        if text[pos] == "(":
            v = len(labels)
            labels.append(None)
            open_pos = pos
            pos += 1
            count = 0
            while True:
                child = subtree()
                edges.append((v, child))
                count += 1
                skip_ws()
                if pos >= n:
                    raise ParseError("unbalanced parentheses", offset=open_pos)
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                raise ParseError(f"expected ',' or ')', found {text[pos]!r}",
                                 offset=pos)
            if count < 2:
                raise ParseError("clade needs at least two children",
                                 offset=open_pos)
            skip_ws()
            if pos < n and text[pos] == ":":
                raise ParseError("branch lengths are not supported", offset=pos)
            if pos < n and text[pos] not in ",);":
                raise ParseError("labels are only allowed on leaves", offset=pos)
            return v
        if text[pos] in "'\"":
            raise ParseError("quoted labels are not supported", offset=pos)
        start = pos
        while pos < n and text[pos] not in "(),;:" and not text[pos].isspace():
            pos += 1
        if pos < n and text[pos] == ":":
            raise ParseError("branch lengths are not supported", offset=pos)
        word = text[start:pos]
        if not word:
            raise ParseError("empty clade member", offset=start)
        v = len(labels)
        labels.append(word)
        return v

    root = subtree()
    skip_ws()
    if pos >= n or text[pos] != ";":
        raise ParseError("expected ';'", offset=pos)
    pos += 1
    skip_ws()
    if pos < n:
        raise ParseError("trailing characters after ';'", offset=pos)
    if labels[root] is not None:
        raise ParseError("a bare label is not a tree", offset=0)

    leaf_names = [x for x in labels if x is not None]
    if len(set(leaf_names)) != len(leaf_names):
        dup = next(x for x in leaf_names if leaf_names.count(x) > 1)
        raise ParseError(f"duplicate leaf label {dup!r}")

    root_kids = [(i, c) for i, (u, c) in enumerate(edges) if u == root]
    if len(root_kids) == 2:
        # suppress the written degree-2 root: join its two subtrees directly
        (i1, c1), (_, c2) = root_kids
        edges = [(u, v) for u, v in edges if u != root]
        edges.insert(i1, (c1, c2))
        remap = {v: v - (1 if v > root else 0) for v in range(len(labels))}
        edges = [(remap[u], remap[v]) for u, v in edges]
        labels = [x for v, x in enumerate(labels) if v != root]
        root = remap[c1]

    return Tree(root=root, edges=tuple(edges), labels=tuple(labels))


def _orient_from(tree: Tree, new_root: int):
    """Edge list re-directed away from new_root, keeping positions; also the
    set of positions whose direction flipped."""
    adj = [[] for _ in range(tree.n_vertices)]
    for i, (u, v) in enumerate(tree.edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    parent = {new_root: None}
    order = [new_root]
    for v in order:
        for i, w in adj[v]:
            if w not in parent:
                parent[w] = (v, i)
                order.append(w)
    new_edges = list(tree.edges)
    flipped = set()
    for w, entry in parent.items():
        if entry is None:
            continue
        v, i = entry
        if tree.edges[i] != (v, w):
            flipped.add(i)
        new_edges[i] = (v, w)
    return new_edges, frozenset(flipped)


@dataclass(frozen=True)
class GlueResult:
    """Glued tree plus the correspondence needed to transport per-edge data.

    t1's edges keep their positions, so the merged edge sits at glued1.
    edge_map2 sends t2's edge positions to result positions (None at
    glued2, whose edge is the merged one). flipped1/flipped2 list the original edge positions whose
    direction had to be reversed to orient the result away from its root;
    per-edge data that is orientation-sensitive must be transported through
    the corresponding involution on those edges.
    """

    tree: Tree
    edge_map2: tuple
    flipped1: frozenset
    flipped2: frozenset
    glued1: int
    glued2: int


def _resolve_leaf(tree: Tree, leaf) -> int:
    v = tree.leaf_by_label(leaf) if isinstance(leaf, str) else leaf
    if not 0 <= v < tree.n_vertices:
        raise UnknownVertexError(f"no vertex {v}")
    if tree.degree[v] != 1:
        raise NotALeafError(f"vertex {v} has degree {tree.degree[v]}")
    return v


def glue(t1: Tree, leaf1, t2: Tree, leaf2) -> GlueResult:
    """Identify leaf1's edge with leaf2's edge.

    Both leaf vertices disappear; their neighbours become the endpoints of a
    single merged edge. Edge positions of t1 are preserved (the merged edge
    sits where leaf1's edge was) and t2's remaining edges follow in their
    original order. The result is rooted at t1's root, or at leaf1's
    neighbour when t1's root is the removed leaf. A leaf label of t2 that
    a surviving leaf of t1 also carries gets the suffix "_2", repeated until
    the label is unique, so the result's Newick string parses back.
    """
    l1 = _resolve_leaf(t1, leaf1)
    l2 = _resolve_leaf(t2, leaf2)
    i1 = t1.leaf_edges[t1.leaves.index(l1)]
    i2 = t2.leaf_edges[t2.leaves.index(l2)]
    u, v = t1.edges[i1]
    p1 = u if v == l1 else v
    u, v = t2.edges[i2]
    p2 = u if v == l2 else v

    if t1.root == l1:
        edges1, flipped1 = _orient_from(t1, p1)
    else:
        edges1, flipped1 = list(t1.edges), frozenset()
    edges2, flipped2 = _orient_from(t2, p2)

    vmap1 = tuple(None if x == l1 else x - (1 if x > l1 else 0)
                  for x in range(t1.n_vertices))
    off = t1.n_vertices - 1
    vmap2 = tuple(None if x == l2 else off + x - (1 if x > l2 else 0)
                  for x in range(t2.n_vertices))

    out_edges = []
    for i, (a, b) in enumerate(edges1):
        if i == i1:
            out_edges.append((vmap1[p1], vmap2[p2]))
        else:
            out_edges.append((vmap1[a], vmap1[b]))
    emap2 = []
    for j, (a, b) in enumerate(edges2):
        if j == i2:
            emap2.append(None)
        else:
            emap2.append(len(out_edges))
            out_edges.append((vmap2[a], vmap2[b]))

    labels1 = tuple(x for v, x in enumerate(t1.labels) if v != l1)
    labels2 = [x for v, x in enumerate(t2.labels) if v != l2]
    taken = set(labels1) | set(labels2)
    for k, x in enumerate(labels2):
        if x is not None and x in labels1:
            while x in taken:
                x += "_2"
            taken.add(x)
            labels2[k] = x
    labels = labels1 + tuple(labels2)
    root = vmap1[p1] if t1.root == l1 else vmap1[t1.root]
    tree = Tree(root=root, edges=tuple(out_edges), labels=labels)
    return GlueResult(tree=tree, edge_map2=tuple(emap2),
                      flipped1=flipped1, flipped2=flipped2,
                      glued1=i1, glued2=i2)
