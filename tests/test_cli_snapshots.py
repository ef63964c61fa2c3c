"""Byte-exact stdout and exit codes of every subcommand on small inputs.

The goldens in tests/cli_snapshots/ pin the CLI's observable behaviour, so
a refactor can show that it changed none of it. After an intended change of
output, rewrite them with

    PYTHONPATH=src python tests/test_cli_snapshots.py

and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from phylotope.cli import main

GOLDEN = pathlib.Path(__file__).parent / "cli_snapshots"
CLAW = "(a,b,c);"

# name -> (argv, exit code); every subcommand and every exit code appears
CASES = {
    "polytope-z2-claw": (("polytope", "--group", "Z2", "--tree", CLAW), 0),
    "polytope-k3p-claw": (("polytope", "--group", "K3P", "--tree", CLAW), 0),
    "project-k2p-claw": (("project", "--group", "K2P", "--tree", CLAW), 0),
    "normality-z2-claw": (("normality", "--group", "Z2", "--tree", CLAW), 0),
    "normality-k2p-claw-projected": (
        ("normality", "--group", "K2P", "--tree", CLAW,
         "--flavor", "projected"), 1),
    "normality-z3-quartet-d4": (("normality", "--group", "Z3", "--tree",
                                 "((a,b),(c,d));", "--max-degree", "4"), 0),
    # rooted at the leaf a
    "normality-z3-leaf-root-d3": (("normality", "--group", "Z3", "--tree",
                                   "(a,((b,c),(d,e)));", "--max-degree", "3"),
                                  0),
    "glue-z3-claws": (("glue", "--group", "Z3", "--tree", CLAW,
                       "--tree", CLAW, "c", "a"), 0),
    "oracle-test-z2-quartet": (("oracle-test", "--group", "Z2", "--tree",
                                "((a,b),(c,d));", "--seed", "3"), 0),
    "dim-what-k2p": (("dim-what", "--group", "K2P"), 0),
    "dim-what-z5": (("dim-what", "--group", "Z5"), 0),
    "appendix-demo": (("appendix-demo",), 0),
    "verify-paper-subset": (("verify-paper", "--only",
                             "orbit-structure,model-dimensions,"
                             "projected-claw-vertices,claw-normality"), 0),
    "bad-newick": (("polytope", "--group", "Z2", "--tree", "(a,b,c"), 2),
    "vertex-cap": (("polytope", "--group", "Z3", "--tree", CLAW,
                    "--vertex-cap", "4"), 3),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_snapshot(name):
    argv, want_code = CASES[name]
    code, out = run(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_code) in CASES.items():
        code, out = run(argv)
        if code != want_code:
            sys.exit(f"{name}: exit code {code}, expected {want_code}")
        (GOLDEN / f"{name}.txt").write_text(out)
