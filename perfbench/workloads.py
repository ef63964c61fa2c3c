"""Benchmark workloads and the correctness gate for their outputs.

The expectations here do not come from the program under test:

* Normal verdicts and their degree ranges come from acceptance test_03
  (the Z4 claw) and from Sullivant's toric fiber product theorem (J. Algebra
  2007): a fiber product of normal claws is normal, so the Z3 and K3P
  quartets and the Z2 six-leaf caterpillar are Normal through any degree.
* The K2P projected witness is confirmed by brute force to be no sum of two
  vertices of the projected polytope on the same tree, and to be
  nonnegative with each edge block summing to twice the vertices' block
  sum, as a point of 2P must.
* Oracle scalars and glue counts follow from the group order and the tree
  shape: |H|^(inner vertices) and |H|^(edges - inner vertices).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

# Group orders of the specs used below; presets are Z2 or Z2xZ2 models.
PRESET_ORDERS = {"CFN": 2, "JC": 4, "K2P": 4, "K3P": 4}


def group_order(spec: str) -> int:
    if spec in PRESET_ORDERS:
        return PRESET_ORDERS[spec]
    order = 1
    for factor in spec.split("x"):
        if not re.fullmatch(r"Z[1-9][0-9]*", factor):
            raise ValueError(f"unknown group spec {spec!r}")
        order *= int(factor[1:])
    return order


def tree_shape(newick: str) -> tuple:
    """(edges, inner vertices) of the unrooted tree a Newick string names.

    Each parenthesised group is an inner vertex; a root with two children
    has degree 2 and is suppressed, merging its two edges into one."""
    text = newick.strip().rstrip(";")
    leaves = inner = 0
    root_children = 0
    depth = 0
    expect_leaf = True
    for ch in text:
        if ch == "(":
            inner += 1
            depth += 1
            expect_leaf = True
        elif ch in ",)":
            if depth == 1:
                root_children += 1
            if ch == ")":
                depth -= 1
            expect_leaf = ch == ","
        elif expect_leaf and not ch.isspace():
            leaves += 1
            expect_leaf = False
    if depth:
        raise ValueError(f"unbalanced Newick string {newick!r}")
    edges = leaves + inner - 1
    if root_children == 2:
        inner -= 1
        edges -= 1
    return edges, inner


def _field(out: str, name: str):
    prefix = name + ": "
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def points_per_degree(out: str) -> str:
    """The `points per degree` line, recorded but never gated: a change of
    method may legally change it."""
    return _field(out, "points per degree") or ""


def _check_exit(rc, want) -> list:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def normal(lo: int, hi: int) -> Callable:
    def check(rc, out, refs):
        problems = _check_exit(rc, 0)
        if _field(out, "verdict") != "Normal":
            problems.append(f"verdict {_field(out, 'verdict')!r}, "
                            "expected 'Normal'")
        if _field(out, "degrees checked") != f"{lo}..{hi}":
            problems.append(f"degrees checked {_field(out, 'degrees checked')!r}"
                            f", expected '{lo}..{hi}'")
        if _field(out, "witness") is not None:
            problems.append("a Normal verdict carries a witness")
        return problems
    return check


def parse_vertex_file(out: str):
    """(header fields, vertex tuples) of a vertex file, or raise ValueError."""
    lines = out.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing vertex file header")
    header = dict(item.split("=", 1) for item in lines[0][2:].split()
                  if "=" in item)
    verts = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    return header, verts


def vertex_file(dim: int = None, count: int = None) -> Callable:
    """Header count equals the number of vertex lines; lines are sorted,
    distinct and of the header's dimension. dim and count, when given,
    are fixed expectations."""
    def check(rc, out, refs):
        problems = _check_exit(rc, 0)
        try:
            header, verts = parse_vertex_file(out)
        except ValueError as exc:
            return problems + [f"unreadable vertex file: {exc}"]
        try:
            h_dim, h_count = int(header["dim"]), int(header["count"])
        except (KeyError, ValueError):
            return problems + [f"bad vertex file header {header}"]
        if h_count != len(verts):
            problems.append(f"header count={h_count} but {len(verts)} lines")
        if any(len(v) != h_dim for v in verts):
            problems.append(f"a vertex line is not of dim {h_dim}")
        if any(a >= b for a, b in zip(verts, verts[1:])):
            problems.append("vertex lines are not sorted and distinct")
        if dim is not None and h_dim != dim:
            problems.append(f"dim={h_dim}, expected {dim}")
        if count is not None and h_count != count:
            problems.append(f"count={h_count}, expected {count}")
        return problems
    return check


def glue(spec: str, tree1: str, tree2: str) -> Callable:
    """Gluing merges one leaf edge of each tree: |E| = E1 + E2 - 1 and
    |N| = N1 + N2, so there are |H|^(|E|-|N|) networks, one vertex each,
    in dimension |E| * |H|."""
    e1, n1 = tree_shape(tree1)
    e2, n2 = tree_shape(tree2)
    edges, inner = e1 + e2 - 1, n1 + n2
    h = group_order(spec)
    return vertex_file(dim=edges * h, count=h ** (edges - inner))


def oracle(spec: str, tree: str, draws: int) -> Callable:
    scalar = group_order(spec) ** tree_shape(tree)[1]

    def check(rc, out, refs):
        problems = _check_exit(rc, 0)
        want = {"draws": str(draws), "scalar": str(scalar),
                "derived scalar matches": "yes",
                "agreement": f"exact on all {draws} draws"}
        for name, value in want.items():
            if _field(out, name) != value:
                problems.append(f"{name}: {_field(out, name)!r}, "
                                f"expected {value!r}")
        return problems
    return check


def _block_sums(point, width) -> tuple:
    return tuple(sum(point[i:i + width]) for i in range(0, len(point), width))


def not_normal_witness(degree: int, ref: str, tree: str) -> Callable:
    """NotNormal with a witness at `degree` that no `degree` vertices of the
    polytope printed by reference run `ref` sum to.

    The witness must also look like a point of degree * P: every entry is
    >= 0, and each edge block (dim / |E| coordinates) sums to `degree`
    times that block's sum on the vertices, which all share it."""
    edges = tree_shape(tree)[0]

    def check(rc, out, refs):
        problems = _check_exit(rc, 1)
        if _field(out, "verdict") != "NotNormal":
            problems.append(f"verdict {_field(out, 'verdict')!r}, "
                            "expected 'NotNormal'")
        if _field(out, "witness degree") != str(degree):
            problems.append(f"witness degree {_field(out, 'witness degree')!r}"
                            f", expected '{degree}'")
        text = _field(out, "witness")
        try:
            witness = tuple(int(x) for x in text.split())
        except (AttributeError, ValueError):
            return problems + [f"unreadable witness {text!r}"]
        verts = refs.get(ref)
        if not verts:
            return problems + [f"reference vertices {ref!r} missing"]
        dim = len(verts[0])
        if len(witness) != dim:
            return problems + [f"witness has {len(witness)} coordinates, "
                               f"vertices have {dim}"]
        width = dim // edges
        block_sums = {_block_sums(v, width) for v in verts}
        if width * edges != dim or len(block_sums) != 1:
            return problems + [f"reference vertices {ref!r} have no common "
                               f"sum on each of {edges} edge blocks"]
        want = tuple(degree * b for b in block_sums.pop())
        if min(witness) < 0:
            problems.append("witness has a negative entry")
        if _block_sums(witness, width) != want:
            problems.append(f"witness edge blocks sum to "
                            f"{_block_sums(witness, width)}, expected {want}")
        for combo in combinations_with_replacement(verts, degree):
            if tuple(map(sum, zip(*combo))) == witness:
                problems.append(f"witness is a sum of {degree} vertices")
                break
        return problems
    return check


def verify_paper(total: int) -> Callable:
    def check(rc, out, refs):
        problems = _check_exit(rc, 0)
        last = out.splitlines()[-1] if out else ""
        want = f"{total} of {total} checks passed"
        if last != want:
            problems.append(f"last line {last!r}, expected {want!r}")
        return problems
    return check


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    # Vertex files printed once per benchmark run, outside timing, for the
    # gate of a case to read by id.
    references: tuple = ()


K2P_5LEAF = "((a,b),c,(d,e));"

WORKLOADS = {w.name: w for w in (
    # Both sides of idp_check's packing test: ambient dim <= 16 takes the
    # radix-16 packed check (the claw and the Z3 quartet, 64 and 51 facets),
    # dim > 16 takes the pure-Python fallback (the rest, with the heaviest
    # facet descriptions and the NotNormal witness path).
    Workload("idp-scan", (
        Case("z4-claw", ("normality", "--group", "Z4", "--tree", "(a,b,c);"),
             normal(2, 8)),
        Case("z3-quartet-d7", ("normality", "--group", "Z3", "--tree",
                               "((a,b),(c,d));", "--max-degree", "7"),
             normal(2, 7)),
        Case("k2p-5leaf-projected", ("normality", "--group", "K2P", "--tree",
                                     K2P_5LEAF, "--flavor", "projected"),
             not_normal_witness(2, "k2p-5leaf-vertices", K2P_5LEAF)),
        Case("k3p-quartet-d3", ("normality", "--group", "K3P", "--tree",
                                "((a,b),(c,d));", "--max-degree", "3"),
             normal(2, 3)),
        Case("z2-caterpillar6-d6", ("normality", "--group", "Z2", "--tree",
                                    "((a,b),(c,(d,(e,f))));",
                                    "--max-degree", "6"),
             normal(2, 6)),
    ), references=(
        Case("k2p-5leaf-vertices", ("project", "--group", "K2P", "--tree",
                                    K2P_5LEAF), vertex_file()),
    )),
    Workload("model-pipeline", (
        Case("oracle-z2xz2", ("oracle-test", "--group", "Z2xZ2", "--tree",
                              K2P_5LEAF, "--seed", "6"),
             oracle("Z2xZ2", K2P_5LEAF, 6)),
        Case("oracle-z4", ("oracle-test", "--group", "Z4", "--tree",
                           "((a,b),(c,d));", "--seed", "20"),
             oracle("Z4", "((a,b),(c,d));", 20)),
        Case("glue-k3p", ("glue", "--group", "K3P", "--tree", K2P_5LEAF,
                          "--tree", "((p,q),r,(s,t));", "e", "p"),
             glue("K3P", K2P_5LEAF, "((p,q),r,(s,t));")),
        Case("project-k2p", ("project", "--group", "K2P", "--tree",
                             "((a,b),c,((d,e),(f,g)));"),
             vertex_file()),
        Case("verify-paper", ("verify-paper",), verify_paper(11)),
    )),
)}

ALL_CASE_IDS = tuple(c.id for w in WORKLOADS.values() for c in w.cases)
