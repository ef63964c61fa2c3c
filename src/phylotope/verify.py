"""Named consistency checks of hand-transcribed reference values.

Each check recomputes something the library derives (vertex listings, orbit
structures, dimensions, normality verdicts) and compares it against values
fixed independently, either inline or in the golden data files shipped with
the package. run_checks returns (name, ok, detail) triples; the CLI renders
them one per line.
"""

from importlib import resources

import numpy as np

from .cyclotomic import CyclotomicInt
from .fourier import (appendix_demo, f_o, g_invariance_check, l_chi,
                      what_dimension, _gaussian_str)
from .groups import (abelian_model, character_eval, parse_group_spec,
                     preset_model)
from .lattice import LatticePolytope, decompose, idp_check
from .polytope import (build_polytope, enumerate_networks, enumerate_sockets,
                       project_orbits, vertex_file_text)
from .trees import parse_newick

CLAW = "(a,b,c);"
QUARTET = "((a,b),(c,d));"
CATERPILLAR5 = "((a,b),c,(d,e));"


def load_golden(name: str) -> str:
    """Read a frozen vertex listing shipped as package data."""
    return (resources.files("phylotope") / "golden" / name).read_text()


def _check_symmetry_closures():
    k2p = preset_model("K2P")
    jc = preset_model("JC")
    sizes = (len(k2p.g_elements), len(jc.g_elements))
    ok = sizes == (8, 24)
    return ok, f"K2P symmetry group has {sizes[0]} elements, JC has {sizes[1]}"


def _check_orbit_structure():
    k2p = preset_model("K2P")
    jc = preset_model("JC")
    got = (k2p.dual_orbits, jc.dual_orbits)
    want = ((((0, 0),), ((1, 0), (1, 1)), ((0, 1),)),
            (((0, 0),), ((1, 0), (0, 1), (1, 1))))
    return got == want, f"dual orbits {got[0]} and {got[1]}"


def _check_quartic_characters():
    z4 = abelian_model([4]).group
    i = CyclotomicInt.zeta(4)
    vals = [character_eval(z4, (1,), (h,)) for h in range(4)]
    ok = vals == [CyclotomicInt.one(4), i, i * i, i * i * i]
    return ok, "character 1 on the 4-cycle takes values 1, i, -1, -i" if ok \
        else f"unexpected values {vals}"


def _check_kernel_matrices():
    k3p = preset_model("K3P")
    m = l_chi(k3p, (0, 1))
    want = [[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]]
    if any(m[a][b] != want[a][b] for a in range(4) for b in range(4)):
        return False, "rank-one character matrix differs"
    k2p = preset_model("K2P")
    _, mo = f_o(k2p, 1)
    want2 = [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    if any(mo[a][b] != want2[a][b] for a in range(4) for b in range(4)):
        return False, "doubleton orbit matrix differs"
    return True, "rank-one and orbit-sum matrices match the fixed values"


def _check_invariance():
    k2p = preset_model("K2P")
    _, mo = f_o(k2p, 1)
    g_invariance_check(k2p, mo)
    # a lone character from the doubleton orbit must move under the
    # transposition generator, which is what forces the orbit sum
    single = l_chi(k2p, (1, 0))
    tr = next(p for p in k2p.g_elements if p.images == (0, 1, 3, 2))
    moved = any(single[tr(a)][tr(b)] != single[a][b]
                for a in range(4) for b in range(4))
    return moved, "orbit sums are invariant; a lone character is not"


def _check_model_dimensions():
    got = tuple(what_dimension(preset_model(n))
                for n in ("CFN", "JC", "K2P", "K3P"))
    return got == (2, 2, 3, 4), f"dimensions {got} for CFN, JC, K2P, K3P"


def _check_claw_vertices():
    k3p = preset_model("K3P")
    text = vertex_file_text(build_polytope(parse_newick(CLAW), k3p),
                            "K3P", CLAW)
    want = load_golden("k3p_claw_abelian.txt")
    return text == want, f"{text.count(chr(10)) - 1} vertices against golden"


def _check_projected_claw_vertices():
    k2p = preset_model("K2P")
    poly = project_orbits(build_polytope(parse_newick(CLAW), k2p), k2p)
    text = vertex_file_text(poly, "K2P", CLAW)
    want = load_golden("k2p_claw_projected.txt")
    return text == want, f"{text.count(chr(10)) - 1} vertices against golden"


def _zero_sum_filters(tree, group):
    """(networks, sockets) by brute force, as character-index tuples: of
    all |H|^|E| edge assignments those whose signed sum vanishes at every
    inner vertex (outgoing edges positive, the incoming edge negative), and
    of all |H|^L leaf assignments those summing to zero. Index 0 is the
    identity; the sums run on index tables, one array column per edge."""
    elems = group.elements()
    add = np.array([[group.index(group.add(a, b)) for b in elems]
                    for a in elems])
    neg = np.array([group.index(group.neg(a)) for a in elems])

    def every(k):
        return np.indices((group.size,) * k, dtype=np.int8).reshape(k, -1).T

    def zero_sum(cols):
        acc = 0
        for c in cols:
            acc = add[acc, c]
        return acc == 0

    nets = every(len(tree.edges))
    for v in tree.inner:
        nets = nets[zero_sum([nets[:, i] if u == v else neg[nets[:, i]]
                              for i, (u, w) in enumerate(tree.edges)
                              if v in (u, w)])]
    socks = every(len(tree.leaves))
    socks = socks[zero_sum(socks.T)]
    return [list(map(tuple, x.tolist())) for x in (nets, socks)]


def _check_counting_laws():
    cases = []
    for spec in ("Z2", "Z3", "Z4", "Z2xZ2"):
        group = parse_group_spec(spec).group
        chars = group.characters()
        for tree_text in (CLAW, QUARTET, CATERPILLAR5):
            tree = parse_newick(tree_text)
            got = (enumerate_networks(tree, group),
                   enumerate_sockets(tree, group))
            laws = (group.size ** (len(tree.edges) - len(tree.inner)),
                    group.size ** (len(tree.leaves) - 1))
            for listed, brute, law in zip(got, _zero_sum_filters(tree, group),
                                          laws):
                brute = [tuple(chars[k] for k in t) for t in brute]
                if len(listed) != law or sorted(listed) != sorted(brute):
                    return False, (f"networks or sockets of {spec} on "
                                   f"{tree_text} miss the law or the "
                                   "brute-force count")
            cases.append((spec, tree_text))
    return True, f"{len(cases)} group/tree pairs satisfy both counting laws"


def _check_claw_normality():
    cfn = preset_model("CFN")
    claw = parse_newick(CLAW)
    rep = idp_check(build_polytope(claw, cfn))
    if not rep.normal:
        return False, "2-state claw flagged as not normal"
    k2p = preset_model("K2P")
    proj = LatticePolytope(
        project_orbits(build_polytope(claw, k2p), k2p).vertices)
    repk = idp_check(proj)
    if repk.normal or repk.witness != (1, 0, 1, 1, 0, 1, 1, 0, 1):
        return False, f"projected claw verdict {repk.verdict}, witness {repk.witness}"
    cert = decompose(repk.witness, 2, proj)
    if cert.found is not None:
        return False, "witness unexpectedly decomposed"
    return True, ("2-state claw normal; projected 2-parameter claw has the "
                  "degree-2 witness, certified undecomposable")


def _check_quartic_coordinates():
    rep = appendix_demo()
    got = tuple(tuple(_gaussian_str(z) for z in row) for row in rep.matrix)
    want = (("1", "2", "1"),
            ("1", "-1+i", "-i"),
            ("1", "0", "-1"),
            ("1", "-1-i", "i"))
    if got != want:
        return False, f"coordinate matrix {got}"
    if not rep.relation_ok or rep.image_rank != 3 or not rep.all_pairs_separated:
        return False, "relation, rank, or separation failed"
    return True, "coordinate matrix, linear relation, rank 3, separation"


CHECKS = (
    ("symmetry-closures", _check_symmetry_closures),
    ("orbit-structure", _check_orbit_structure),
    ("quartic-characters", _check_quartic_characters),
    ("kernel-matrices", _check_kernel_matrices),
    ("orbit-sum-invariance", _check_invariance),
    ("model-dimensions", _check_model_dimensions),
    ("three-parameter-claw-vertices", _check_claw_vertices),
    ("projected-claw-vertices", _check_projected_claw_vertices),
    ("counting-laws", _check_counting_laws),
    ("claw-normality", _check_claw_normality),
    ("quartic-coordinates", _check_quartic_coordinates),
)


def run_checks(only=None):
    """Run all named checks, or the named subset; returns (name, ok, detail)."""
    names = {name for name, _ in CHECKS}
    if only is not None:
        unknown = set(only) - names
        if unknown:
            raise ValueError("unknown check(s): " + ", ".join(sorted(unknown)))
        if not only:
            raise ValueError("no check named")
    results = []
    for name, fn in CHECKS:
        if only is not None and name not in only:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:   # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
