import os
import pathlib
import subprocess
import sys

import pytest

import phylotope.cli
import phylotope.lattice
import phylotope.verify
from phylotope.cli import main
from phylotope.groups import parse_group_spec
from phylotope.lattice import _star, star_columns
from phylotope.polytope import build_polytope, project_orbits
from phylotope.trees import parse_newick


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_polytope_stdout_and_determinism(capsys):
    code, out, err = run(capsys, "polytope", "--group", "Z2",
                         "--tree", "(a,b,c);")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# group=Z2 tree=(a,b,c); flavor=abelian dim=6 count=4"
    assert len(lines) == 5
    code2, out2, _ = run(capsys, "polytope", "--group", "Z2",
                         "--tree", "(a,b,c);")
    assert (code2, out2) == (code, out)


def test_polytope_out_file(tmp_path, capsys):
    target = tmp_path / "verts.txt"
    code, out, _ = run(capsys, "polytope", "--group", "K3P",
                       "--tree", "(a,b,c);", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# group=K3P tree=(a,b,c); "
                           "flavor=abelian dim=12 count=16\n")
    assert len(text.splitlines()) == 17


def test_project_matches_projected_flavor(capsys):
    _, direct, _ = run(capsys, "project", "--group", "K2P",
                       "--tree", "(a,b,c);")
    _, flavored, _ = run(capsys, "polytope", "--group", "K2P",
                         "--tree", "(a,b,c);", "--flavor", "projected")
    assert direct == flavored
    assert "count=10" in direct.splitlines()[0]


def test_projected_flavor_rejected_for_abelian(capsys):
    code, _, err = run(capsys, "polytope", "--group", "Z3",
                       "--tree", "(a,b,c);", "--flavor", "projected")
    assert code == 2
    assert "error:" in err


def test_bad_newick_is_input_error(capsys):
    code, _, err = run(capsys, "polytope", "--group", "Z2",
                       "--tree", "(a,b,c")
    assert code == 2
    assert "error:" in err


def test_unknown_group_is_input_error(capsys):
    code, _, err = run(capsys, "polytope", "--group", "Q8",
                       "--tree", "(a,b,c);")
    assert code == 2
    assert "error:" in err


def test_group_and_group_file_conflict(tmp_path, capsys):
    gf = tmp_path / "g.txt"
    gf.write_text("states: 0 1\norders: 2\nh: (1,2)\n")
    code, _, err = run(capsys, "polytope", "--group", "Z2",
                       "--group-file", str(gf), "--tree", "(a,b,c);")
    assert code == 2
    code, out, _ = run(capsys, "polytope", "--group-file", str(gf),
                       "--tree", "(a,b,c);")
    assert code == 0
    assert "count=4" in out.splitlines()[0]


def test_vertex_cap_exit(capsys):
    code, _, err = run(capsys, "polytope", "--group", "Z3",
                       "--tree", "((a,b),(c,d));", "--vertex-cap", "5")
    assert code == 3
    assert "resource cap:" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ("polytope", "--tree", "(a,b,c);"),
    ("project", "--tree", "(a,b,c);"),
    ("normality", "--tree", "(a,b,c);"),
    ("glue", "--tree", "(a,b,c);", "--tree", "(d,e,f);", "c", "d")])
def test_vertex_cap_below_one_is_input_error(capsys, command, cap):
    code, out, err = run(capsys, *command, "--group", "K2P",
                         "--vertex-cap", cap)
    assert code == 2
    assert out == ""
    assert "--vertex-cap must be at least 1" in err


def test_normality_exit_codes(capsys):
    code, out, _ = run(capsys, "normality", "--group", "Z2",
                       "--tree", "(a,b,c);")
    assert code == 0
    assert "verdict: Normal" in out
    code, out, _ = run(capsys, "normality", "--group", "K2P",
                       "--tree", "(a,b,c);", "--flavor", "projected")
    assert code == 1
    assert "verdict: NotNormal" in out
    assert "witness degree: 2" in out


Z6_QUARTET = ("normality", "--group", "Z6", "--tree", "((a,b),(c,d));")


def test_z6_quartet_is_decided_through_its_claw(capsys):
    # The whole tree polytope has dimension 25, past the facet cap of 24,
    # so its own scan exits 3; its 3-claw, of rank 15 with 36 vertices, is
    # scanned instead.
    code, out, err = run(capsys, *Z6_QUARTET, "--max-degree", "3")
    assert (code, err) == (0, "")
    assert out == ("verdict: Normal\n"
                   "degrees checked: 2..3\n"
                   "points per degree: 1=216 2=22086 3=1378784\n")


def _spy(monkeypatch, *names):
    """The calls of the named functions of phylotope.lattice, as they run:
    (name, the points of the polytope each is called on, its other
    arguments)."""
    calls = []
    for name in names:
        real = getattr(phylotope.lattice, name)

        def spy(poly, *args, real=real, name=name):
            calls.append((name, phylotope.lattice._as_polytope(poly).points,
                          args))
            return real(poly, *args)

        monkeypatch.setattr(phylotope.lattice, name, spy)
    return calls


def test_a_failing_claw_gives_the_tree_its_witness(capsys, monkeypatch):
    # The Z6 3-claw first fails at degree 4; the tree fails there too, and
    # its witness is found on the claw's marked points of degree 4. The
    # whole tree polytope, of dimension 25, past the facet cap of 24, is
    # never described, scanned or handed to idp_check: every facet
    # description and dilate scan runs on the claw, each dilate once.
    calls = _spy(monkeypatch, "facet_description", "_dilate_blocks",
                 "idp_check", "_star_rays")
    code, out, err = run(capsys, *Z6_QUARTET, "--max-degree", "4")
    assert (code, err) == (1, "")
    assert out == ("verdict: NotNormal\n"
                   "degrees checked: 2..4\n"
                   "witness degree: 4\n"
                   "witness: 0 0 0 0 0 4 0 1 1 0 1 1 1 0 1 1 0 1 0 1 1 0 1 "
                   "1 1 0 1 1 0 1\n"
                   "points per degree: 1=216 2=22086 3=1378784 4=56359125\n")
    claw = build_polytope(_star(3), parse_group_spec("Z6")).vertices
    assert {name for name, _, _ in calls} == {"facet_description",
                                              "_dilate_blocks"}
    assert all(points == claw for _, points, _ in calls)
    scans = [args for name, _, args in calls if name == "_dilate_blocks"]
    assert scans == [(2,), (3,), (4,)]


def test_projected_facets_come_from_the_stars(capsys, monkeypatch):
    # A projected tree is decided on its claw, which is each of its star
    # projections here: every facet description and every dilate scan of
    # the run is on the points of one of them, never on those of the tree's
    # polytope P.
    seen = _spy(monkeypatch, "facet_description", "_dilate_blocks")
    newick = "((a,b),c,(d,e));"
    code, out, _ = run(capsys, "normality", "--group", "K2P", "--tree",
                       newick, "--flavor", "projected")
    assert code == 1 and "witness degree: 2" in out
    k2p = parse_group_spec("K2P")
    points = project_orbits(build_polytope(parse_newick(newick), k2p),
                            k2p).vertices
    projections = {tuple(sorted({tuple(p[c] for c in cols) for p in points}))
                   for cols in star_columns(parse_newick(newick), 3)}
    assert {name for name, _, _ in seen} == {"facet_description",
                                             "_dilate_blocks"}
    assert all(pts in projections for _, pts, _ in seen)
    assert all(pts != points for _, pts, _ in seen)


@pytest.mark.parametrize("argv", [
    # the route rule sends the claw of a low ceiling to the scan
    ("--group", "K3P", "--tree", "((a,b),(c,d));", "--max-degree", "3"),
    ("--group", "Z6", "--tree", "((a,b),(c,d));", "--max-degree", "3"),
    # a claw keyed by two blocks, triangulated, and scanned for its tallies
    ("--group", "Z2", "--tree", "((a,b),(c,(d,(e,f))));", "--max-degree",
     "6"),
    # one projected claw for four stars, failing at degree 2
    ("--group", "K2P", "--tree", "((a,b),(c,d),(e,f));", "--flavor",
     "projected"),
])
def test_each_claw_dilate_is_scanned_once(capsys, monkeypatch, argv):
    calls = _spy(monkeypatch, "_dilate_blocks")
    code, _, err = run(capsys, "normality", *argv)
    assert code in (0, 1) and err == ""
    scans = [(points, args) for _, points, args in calls]
    assert scans and len(set(scans)) == len(scans)


@pytest.mark.parametrize("degree", ["1", "0", "-5"])
def test_normality_degree_ceiling_below_two_is_input_error(capsys, degree):
    code, out, err = run(capsys, "normality", "--group", "K2P",
                         "--tree", "(a,b,c);", "--flavor", "projected",
                         "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert "at least 2" in err


def test_tree_degree_ceiling_below_two_is_input_error(capsys):
    code, out, err = run(capsys, *Z6_QUARTET, "--max-degree", "1")
    assert (code, out) == (2, "")
    assert "at least 2" in err


@pytest.mark.parametrize("flavor", ["abelian", "projected"])
def test_degree_ceiling_is_checked_before_enumeration(capsys, flavor):
    # 64 networks exceed a vertex cap of 1, so any enumeration exits 3
    code, out, err = run(capsys, "normality", "--group", "K2P",
                         "--tree", "((a,b),(c,d));", "--flavor", flavor,
                         "--max-degree", "1", "--vertex-cap", "1")
    assert (code, out) == (2, "")
    assert err == "error: max_degree must be at least 2, got 1\n"


def test_degree_ceiling_is_checked_before_the_group_is_read(capsys):
    code, out, err = run(capsys, "normality", "--tree", "((a,b),(c,d));",
                         "--max-degree", "1")
    assert (code, out) == (2, "")
    assert err == "error: max_degree must be at least 2, got 1\n"


def test_glue_emits_glued_polytope(capsys):
    code, out, _ = run(capsys, "glue", "--group", "Z2",
                       "--tree", "(a,b,c);",
                       "--tree", "(p,q,r);", "c", "p")
    assert code == 0
    head = out.splitlines()[0]
    assert "flavor=abelian" in head
    assert "count=8" in head
    # glued quartet has five edges and a two-state group: dim 10
    assert "dim=10" in head


def test_glue_leaf_arguments_are_labels(capsys):
    # digits are labels too: "3" names the leaf labelled 3, not index 3
    code, out, _ = run(capsys, "glue", "--group", "Z2",
                       "--tree", "(1,2,3);", "--tree", "(1,2,3);", "3", "3")
    assert code == 0
    assert out.splitlines()[0].startswith(
        "# group=Z2 tree=(1,2,(1_2,2_2)); flavor=abelian dim=10 count=8")
    code, _, err = run(capsys, "glue", "--group", "Z2", "--tree", "(a,b,c);",
                       "--tree", "(p,q,r);", "2", "3")
    assert code == 2
    assert "no leaf labelled '2'" in err


def test_glue_needs_exactly_two_trees(capsys):
    code, _, err = run(capsys, "glue", "--group", "Z2",
                       "--tree", "(a,b,c);", "c", "p")
    assert code == 2


def test_oracle_test_agreement(capsys):
    code, out, _ = run(capsys, "oracle-test", "--group", "Z3",
                       "--tree", "(a,b,c);", "--seed", "5")
    assert code == 0
    assert "draws: 5" in out
    assert "agreement: exact" in out
    assert "derived scalar matches: yes" in out


def test_oracle_test_reports_disagreement(capsys, monkeypatch):
    exact = phylotope.cli.monomial_socket_vector

    def off_by_one(*args, **kwargs):
        out = exact(*args, **kwargs)
        socket = min(out)
        out[socket] = out[socket] + 1
        return out

    monkeypatch.setattr(phylotope.cli, "monomial_socket_vector", off_by_one)
    code, out, _ = run(capsys, "oracle-test", "--group", "Z3",
                       "--tree", "(a,b,c);", "--seed", "5")
    assert code == 1
    assert "agreement: FAILED at draw 0" in out


def test_oracle_test_limits(capsys):
    code, _, err = run(capsys, "oracle-test", "--group", "Z2",
                       "--tree", "(a,b,(c,(d,(e,f))));")
    assert code == 2
    code, _, err = run(capsys, "oracle-test", "--group", "Z6",
                       "--tree", "(a,b,c);")
    assert code == 2
    code, _, err = run(capsys, "oracle-test", "--group", "JC",
                       "--tree", "(a,b,c);")
    assert code == 2


def test_dim_what(capsys):
    code, out, _ = run(capsys, "dim-what", "--group", "K2P")
    assert code == 0
    assert out.strip().endswith("3")


def test_appendix_demo(capsys):
    code, out, _ = run(capsys, "appendix-demo")
    assert code == 0
    assert "relation (1+i)*x1 - 2i*x2 + (i-1)*x3 = 0: verified" in out
    assert "image rank: 3" in out
    assert "coordinate equalities cut out the image: no" in out


def test_verify_paper_only_filter(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only",
                       "model-dimensions,counting-laws")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert any(l.startswith("PASS model-dimensions") for l in lines)
    assert any(l.startswith("PASS counting-laws") for l in lines)
    assert "2 of 2 checks passed" in lines[-1]


def test_verify_paper_unknown_name(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "no-such-check")
    assert code == 2


@pytest.mark.parametrize("only", [",", "", " , "])
def test_verify_paper_only_naming_no_check_is_input_error(capsys, only):
    code, out, err = run(capsys, "verify-paper", "--only", only)
    assert code == 2
    assert out == ""
    assert "no check named" in err


def test_counting_laws_fail_on_a_non_network(capsys, monkeypatch):
    real = phylotope.verify.enumerate_networks

    def one_wrong(tree, group):
        nets = real(tree, group)
        # a network with one edge changed breaks the condition at an inner
        # endpoint of that edge; the list keeps its length
        first = nets[0]
        wrong = group.add(first[0], group.element(1))
        return [(wrong,) + first[1:]] + nets[1:]

    monkeypatch.setattr(phylotope.verify, "enumerate_networks", one_wrong)
    code, out, _ = run(capsys, "verify-paper", "--only", "counting-laws")
    assert code == 1
    assert "FAIL counting-laws" in out


def test_verify_paper_detects_corruption(capsys, monkeypatch):
    real = phylotope.verify.load_golden

    def corrupt(name):
        text = real(name)
        head, first, *rest = text.splitlines()
        return "\n".join([head, first.replace("0", "7", 1)] + rest) + "\n"

    monkeypatch.setattr(phylotope.verify, "load_golden", corrupt)
    code, out, _ = run(capsys, "verify-paper", "--only",
                       "three-parameter-claw-vertices")
    assert code == 1
    assert "FAIL three-parameter-claw-vertices" in out


def test_consecutive_calls_match_separate_processes(capsys):
    # One parser serves every main call of a process, so a call must not
    # see what an earlier one parsed: --tree appends to each call's own
    # list. A glue call with two trees, then a normality call with one,
    # then one with two, each as its own process and in one process.
    runs = [
        ("glue", "--group", "Z2", "--tree", "(a,b,c);", "--tree",
         "(p,q,r);", "c", "p"),
        ("normality", "--group", "Z2", "--tree", "(a,b,c);"),
        ("normality", "--group", "Z2", "--tree", "(a,b,c);", "--tree",
         "(a,b,c);"),
    ]
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(phylotope.cli.__file__).parents[1]))
    alone = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "phylotope.cli", *argv],
                              capture_output=True, text=True, env=env)
        alone.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in alone] == [0, 0, 2]
    assert alone[2][2] == "error: expected 1 tree(s), got 2\n"
    for argv, want in zip(runs + runs, alone + alone):
        assert run(capsys, *argv) == want
