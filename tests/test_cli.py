import pytest

import phylotope.cli
import phylotope.lattice
import phylotope.verify
from phylotope.cli import main


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
    # so its own scan exits 3; its 3-claw, of rank 10, is scanned instead.
    code, out, err = run(capsys, *Z6_QUARTET, "--max-degree", "3")
    assert (code, err) == (0, "")
    assert out == ("verdict: Normal\n"
                   "degrees checked: 2..3\n"
                   "points per degree: 1=216 2=22086 3=1378784\n")


def test_a_failing_claw_hands_its_degree_to_the_tree_scan(capsys,
                                                          monkeypatch):
    # The Z6 3-claw first fails at degree 4, so the whole tree is scanned
    # through degree 4 only; that scan stops at the facet cap, as it does
    # with no claws.
    ceilings = []
    scan = phylotope.lattice.idp_check

    def spy(poly, max_degree=None):
        ceilings.append(max_degree)
        return scan(poly, max_degree)

    monkeypatch.setattr(phylotope.lattice, "idp_check", spy)
    code, out, err = run(capsys, *Z6_QUARTET)
    assert (code, out) == (3, "")
    assert err == "resource cap: dimension 25 exceeds cap 24\n"
    assert ceilings == [4]


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
