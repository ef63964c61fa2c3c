"""Command line front end.

Every subcommand is deterministic given its flags: vertex files are sorted,
reports have fixed field order, and the oracle test draws its random
parameters from a seeded generator. Exit codes: 0 success (or Normal),
1 semantic negative (NotNormal, failed check, oracle disagreement),
2 input error, 3 resource cap exceeded.
"""

import argparse
import random
import sys

from .errors import CapExceededError, PhylotopeError, ScaleExceededError
from .fourier import (appendix_demo, monomial_socket_vector,
                      params_to_matrices, raw_leaf_tensor, socket_coordinates,
                      what_dimension)
from .groups import parse_group_file, parse_group_spec
from .lattice import glued_polytope, idp_check, tree_idp_check
from .polytope import build_polytope, project_orbits, vertex_file_text
from .trees import parse_newick
from .verify import run_checks

ORACLE_MAX_LEAVES = 5
ORACLE_MAX_GROUP = 4


def _load_model(args):
    if getattr(args, "group", None) and getattr(args, "group_file", None):
        raise ValueError("give either --group or --group-file, not both")
    if getattr(args, "group", None):
        return parse_group_spec(args.group)
    if getattr(args, "group_file", None):
        with open(args.group_file) as f:
            return parse_group_file(f.read())
    raise ValueError("a group is required (--group or --group-file)")


def _load_tree(args):
    texts = _tree_texts(args, expect=1)
    return parse_newick(texts[0])


def _tree_texts(args, expect):
    inline = getattr(args, "tree", None) or []
    from_file = getattr(args, "tree_file", None) or []
    if inline and from_file:
        raise ValueError("give trees via --tree or --tree-file, not both")
    texts = list(inline)
    for path in from_file:
        with open(path) as f:
            texts.append(f.read().strip())
    if len(texts) != expect:
        raise ValueError(f"expected {expect} tree(s), got {len(texts)}")
    return texts


def _emit(text: str, out):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _projected(poly, model, flavor):
    if flavor != "projected":
        return poly
    if model.is_abelian:
        raise ValueError(
            "projected flavor needs a model with a symmetry group larger "
            "than its abelian core; use the abelian flavor here")
    return project_orbits(poly, model)


def cmd_polytope(args) -> int:
    model = _load_model(args)
    tree = _load_tree(args)
    poly = build_polytope(tree, model, cap=args.vertex_cap)
    poly = _projected(poly, model, args.flavor)
    _emit(vertex_file_text(poly, model.spec, tree.newick()), args.out)
    return 0


def cmd_normality(args) -> int:
    model = _load_model(args)
    tree = _load_tree(args)
    if args.flavor == "abelian":
        report = tree_idp_check(tree, model, max_degree=args.max_degree,
                                cap=args.vertex_cap)
    else:
        poly = build_polytope(tree, model, cap=args.vertex_cap)
        report = idp_check(_projected(poly, model, args.flavor),
                           max_degree=args.max_degree)
    _emit(report.to_text(), args.out)
    return 0 if report.normal else 1


def cmd_glue(args) -> int:
    model = _load_model(args)
    texts = _tree_texts(args, expect=2)
    t1, t2 = parse_newick(texts[0]), parse_newick(texts[1])
    res, prod = glued_polytope(model, t1, args.leaf1, t2, args.leaf2,
                               cap=args.vertex_cap)
    direct = build_polytope(res.tree, model, cap=args.vertex_cap)
    if prod.vertices != direct.vertices:
        sys.stderr.write("fiber product disagrees with the direct "
                         "construction on the glued tree\n")
        return 1
    _emit(vertex_file_text(prod, model.spec, res.tree.newick()), args.out)
    return 0


def cmd_oracle_test(args) -> int:
    model = _load_model(args)
    tree = _load_tree(args)
    if not model.is_abelian:
        raise ValueError("the oracle test runs on abelian models")
    if len(tree.leaves) > ORACLE_MAX_LEAVES:
        raise ValueError(f"oracle test is limited to {ORACLE_MAX_LEAVES} leaves")
    if model.group.size > ORACLE_MAX_GROUP:
        raise ValueError(f"oracle test is limited to groups of size "
                         f"{ORACLE_MAX_GROUP}")
    if args.seed < 1:
        raise ValueError("--seed must be a positive draw count")
    group = model.group
    rng = random.Random(args.seed)
    draws = args.seed
    scalar = group.size ** len(tree.inner)
    seen_nonzero = False
    for k in range(draws):
        params = [[rng.randint(-3, 3) for _ in range(group.size)]
                  for _ in tree.edges]
        mats = params_to_matrices(model, params)
        coords = socket_coordinates(model, raw_leaf_tensor(model, tree, mats))
        mono = monomial_socket_vector(model, tree, params)
        for socket, value in mono.items():
            if coords[socket] != scalar * value:
                _emit(f"draws: {draws}\nagreement: FAILED at draw {k} "
                      f"socket {socket}\n", args.out)
                return 1
            seen_nonzero = seen_nonzero or value != 0
    lines = [f"group: {model.spec}",
             f"tree: {tree.newick()}",
             f"draws: {draws}",
             f"scalar: {scalar}",
             "derived scalar matches: " + ("yes" if seen_nonzero
                                           else "no nonzero coordinate seen"),
             f"agreement: exact on all {draws} draws"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_dim_what(args) -> int:
    model = _load_model(args)
    dim = what_dimension(model)
    _emit(f"group: {model.spec}\n"
          f"orbits: {len(model.dual_orbits)}\n"
          f"dimension: {dim}\n", args.out)
    return 0


def cmd_appendix_demo(args) -> int:
    _emit(appendix_demo().to_text(), args.out)
    return 0


def cmd_verify_paper(args) -> int:
    only = None
    if args.only is not None:
        only = [s.strip() for s in args.only.split(",") if s.strip()]
    results = run_checks(only=only)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
             for name, ok, detail in results]
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - failed} of {len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylotope",
        description="Lattice polytopes of group-based Markov models on trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument("--group", help="group spec: Z2, Z3, Z4, Z2xZ2, or a "
                                       "preset CFN/JC/K2P/K3P")
        p.add_argument("--group-file", help="path to a group description file")

    def add_tree(p, repeat=False):
        kw = {"action": "append"} if repeat else \
            {"action": "append", "metavar": "NEWICK"}
        p.add_argument("--tree", **kw, help="Newick tree string")
        p.add_argument("--tree-file", action="append",
                       help="path to a Newick file")

    def add_out(p):
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("polytope", help="enumerate vertices of a model polytope")
    add_group(p); add_tree(p); add_out(p)
    p.add_argument("--flavor", choices=("abelian", "projected"),
                   default="abelian")
    p.add_argument("--vertex-cap", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("project", help="vertices in orbit-sum coordinates")
    add_group(p); add_tree(p); add_out(p)
    p.add_argument("--vertex-cap", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_polytope, flavor="projected")

    p = sub.add_parser("normality", help="integer decomposition property check")
    add_group(p); add_tree(p); add_out(p)
    p.add_argument("--flavor", choices=("abelian", "projected"),
                   default="abelian")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--vertex-cap", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("glue", help="glue two trees at leaves and compare the "
                                    "fiber product with the direct build")
    add_group(p); add_tree(p, repeat=True); add_out(p)
    p.add_argument("leaf1", help="leaf label in the first tree")
    p.add_argument("leaf2", help="leaf label in the second tree")
    p.add_argument("--vertex-cap", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("oracle-test", help="compare the monomial socket "
                                           "parameterization with exact "
                                           "marginalization")
    add_group(p); add_tree(p); add_out(p)
    p.add_argument("--seed", type=int, default=20,
                   help="draw count; also seeds the generator")
    p.set_defaults(func=cmd_oracle_test)

    p = sub.add_parser("dim-what", help="parameter count of the orbit-sum model")
    add_group(p); add_out(p)
    p.set_defaults(func=cmd_dim_what)

    p = sub.add_parser("appendix-demo", help="4-state circulant Fourier "
                                             "coordinates demo")
    add_out(p)
    p.set_defaults(func=cmd_appendix_demo)

    p = sub.add_parser("verify-paper", help="run the named reference checks")
    add_out(p)
    p.add_argument("--only", help="comma-separated check names")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "vertex_cap", 1) < 1:
            raise ValueError(f"--vertex-cap must be at least 1, got "
                             f"{args.vertex_cap}")
        if getattr(args, "max_degree", None) is not None \
                and args.max_degree < 2:
            raise ValueError(f"max_degree must be at least 2, got "
                             f"{args.max_degree}")
        return args.func(args)
    except (CapExceededError, ScaleExceededError) as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except (PhylotopeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
