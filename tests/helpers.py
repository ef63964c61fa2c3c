"""Test-only helpers and oracles that the package itself does not need."""

from phylotope.cyclotomic import CycRational
from phylotope.errors import UnknownVertexError
from phylotope.trees import Tree, _orient_from


def leaf_labels(tree: Tree) -> tuple:
    return tuple(tree.labels[v] for v in tree.leaves)


def reorient(tree: Tree, new_root: int) -> Tree:
    """Same undirected tree with edges redirected away from new_root."""
    if not 0 <= new_root < tree.n_vertices:
        raise UnknownVertexError(f"no vertex {new_root}")
    if new_root == tree.root:
        return tree
    new_edges, _ = _orient_from(tree, new_root)
    return Tree(root=new_root, edges=tuple(new_edges), labels=tree.labels)


def decode_vertex(poly, model, vertex) -> tuple:
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


def field_rank_by_elimination(rows) -> int:
    """Rank over Q(zeta_m) of a matrix of CyclotomicInt or CycRational
    entries, by Gaussian elimination in the field: the oracle for the
    realified rank of fourier._field_rank."""
    work = [[e if isinstance(e, CycRational) else CycRational(e) for e in row]
            for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work))
                    if not work[r][col].is_zero()), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, len(work)):
            if not work[r][col].is_zero():
                f = work[r][col] / pivot
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank
