"""Tests of the benchmark itself: the gate, the span arithmetic, the metric
names, and the traced pass. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import (CASE, END, NAME, PARENT, START,  # noqa: E402
                     layer_metrics, self_times)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check(case_id, rc, out, refs=None):
    case = next(c for w in wl.WORKLOADS.values()
                for c in w.cases + w.references if c.id == case_id)
    return case.check(rc, out, refs or {})


# --- the gate -------------------------------------------------------------

Z4_CLAW = ("verdict: Normal\ndegrees checked: 2..8\npoints per degree: "
           "1=16 2=136 3=800 4=3626 5=13488 6=42972 7=120912 8=307395\n")


def test_gate_accepts_and_rejects_normal_verdicts():
    assert check("z4-claw", 0, Z4_CLAW) == []
    # points per degree is recorded, never gated
    assert check("z4-claw", 0, Z4_CLAW.replace("8=307395", "8=1")) == []
    assert check("z4-claw", 1, Z4_CLAW)
    assert check("z4-claw", 0, Z4_CLAW.replace("Normal", "NotNormal"))
    assert check("z4-claw", 0, Z4_CLAW.replace("2..8", "2..7"))
    assert check("z4-claw", 3, "")


def test_gate_rejects_a_doctored_witness():
    # three edges, two coordinates per edge block, each block summing to 1
    gate = wl.not_normal_witness(2, "ref", "(a,b,c);")
    refs = {"ref": [(1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 1, 0),
                    (1, 0, 0, 1, 0, 1), (0, 1, 1, 0, 0, 1)]}

    def out(witness):
        return ("verdict: NotNormal\ndegrees checked: 2..2\n"
                f"witness degree: 2\nwitness: {witness}\n")
    assert gate(1, out("1 1 1 1 1 1"), refs) == []
    assert gate(1, out("1 1 1 1 2 0"), refs)      # vertices 0 + 1
    assert gate(1, out("2 0 2 0 2 0"), refs)      # a vertex twice
    assert gate(1, out("1 1 1 1 1 0"), refs)      # wrong degree
    assert gate(1, out("1 1 1"), refs)            # wrong width
    assert gate(0, out("1 1 1 1 1 1"), refs)      # wrong exit code
    assert gate(1, out("1 1 1 1 1 1").replace("degree: 2", "degree: 3"), refs)
    assert gate(1, out("1 1 1 1 1 1"), {})        # no reference vertices
    # right width and total, no sum of two vertices, but no point of 2P
    assert gate(1, out("3 -1 1 1 1 1"), refs) == ["witness has a negative entry"]
    assert gate(1, out("1 1 2 1 0 1"), refs) == [
        "witness edge blocks sum to (2, 3, 1), expected (2, 2, 2)"]
    # vertices whose blocks disagree give no block sums to check against
    bad = {"ref": refs["ref"] + [(1, 1, 0, 0, 1, 0)]}
    assert gate(1, out("1 1 1 1 1 1"), bad)


def _vertex_file(verts, count=None, dim=None):
    head = (f"# group=Z2 tree=x flavor=abelian dim={dim or len(verts[0])} "
            f"count={len(verts) if count is None else count}")
    return "\n".join([head] + [" ".join(map(str, v)) for v in verts]) + "\n"


def test_gate_rejects_a_doctored_glue_count():
    # (a,b,c) glued to (d,e,f): 5 edges, 2 inner vertices, 2^3 networks
    gate = wl.glue("Z2", "(a,b,c);", "(d,e,f);")
    verts = sorted(tuple((i >> k) & 1 for k in range(10)) for i in range(8))
    assert gate(0, _vertex_file(verts), {}) == []
    assert gate(0, _vertex_file(verts, count=9), {})
    assert gate(0, _vertex_file(verts[:-1]), {})
    assert gate(0, _vertex_file(verts[::-1]), {})
    assert gate(0, _vertex_file([v + (0,) for v in verts]), {})
    assert gate(1, _vertex_file(verts), {})


def test_gate_rejects_doctored_oracle_and_verify_reports():
    good = ("group: Z4\ntree: (a,b,(c,d));\ndraws: 20\nscalar: 16\n"
            "derived scalar matches: yes\nagreement: exact on all 20 draws\n")
    assert check("oracle-z4", 0, good) == []
    assert check("oracle-z4", 0, good.replace("16", "64"))
    assert check("oracle-z4", 0, good.replace("yes", "no nonzero coordinate seen"))
    assert check("oracle-z4", 1, "draws: 20\nagreement: FAILED at draw 3\n")
    assert check("verify-paper", 0, "PASS a: b\n11 of 11 checks passed\n") == []
    assert check("verify-paper", 1, "FAIL a: b\n10 of 11 checks passed\n")


def test_expectations_come_from_group_order_and_tree_shape():
    assert wl.tree_shape("((a,b),c,(d,e));") == (7, 3)
    assert wl.tree_shape("((a,b),(c,d));") == (5, 2)
    assert wl.tree_shape("(a,b,c);") == (3, 1)
    assert wl.group_order("Z2xZ2") == wl.group_order("K3P") == 4
    # 13 edges and 6 inner vertices after gluing two 5-leaf caterpillars
    one_line = _vertex_file([(0,) * 52], count=16384)
    assert check("glue-k3p", 0, one_line) == ["header count=16384 but 1 lines"]


# --- span arithmetic ------------------------------------------------------

def span(name, start, end, parent=-1, degree=None, count=None):
    return [name, start, end, parent, "case", degree, count]


def test_self_time_subtracts_the_union_of_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0),      # overlaps a: union is 1..6
             span("c", 2.0, 3.0, 1),
             span("d", 9.0, 12.0, 0)]     # runs past its parent: clipped
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])


def test_layer_metrics_on_a_synthetic_pass():
    spans = [span("lattice.idp_check", 0.0, 10.0),
             span("lattice.facet_description", 0.5, 1.5, 0, count=51),
             span("lattice._dilate_array", 2.0, 3.0, 0, degree=2, count=351),
             span("lattice._undecomposable", 3.0, 3.5, 0, degree=2, count=351),
             span("lattice._dilate_array", 4.0, 6.0, 0, degree=3, count=2869),
             span("lattice._undecomposable_py", 6.0, 7.0, 0, degree=3,
                  count=2869),
             span("lattice.decompose", 8.0, 9.0, 0, count=22),
             span("lattice.decompose", 8.2, 8.6, 6, count=5)]
    m = layer_metrics(spans, {"cyclotomic.mul.calls": 7})
    assert m["lattice.dilate.s"] == pytest.approx(3.0)
    assert m["lattice.dilate.d3.s"] == pytest.approx(2.0)
    assert m["lattice.dilate.points"] == 351 + 2869
    assert m["lattice.decomp.packed.s"] == pytest.approx(0.5)
    assert m["lattice.decomp.fallback.s"] == pytest.approx(1.0)
    assert m["lattice.decomp.d2.s"] == pytest.approx(0.5)
    assert m["lattice.decomp.points"] == 351 + 2869
    assert m["lattice.facet_description.facets"] == 51
    # a recursive call is timed once, through its outermost span
    assert m["lattice.decompose.s"] == pytest.approx(1.0)
    assert m["lattice.decompose.examined"] == 27
    assert m["lattice.idp_check.self_s"] == pytest.approx(10 - 6.5)
    assert m["cyclotomic.mul.calls"] == 7
    assert m["cyclotomic.add.calls"] == 0
    assert m["lattice.dilate.d8.s"] == 0


# --- metric names and BENCHMARK.json --------------------------------------

def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert per_layer == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert end_to_end == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    names = per_layer + end_to_end + list(wl.WORKLOADS) + list(wl.ALL_CASE_IDS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME_RE.fullmatch(name), name


# --- children -------------------------------------------------------------

SMALL = (
    wl.Case("claw", ("normality", "--group", "Z2", "--tree", "(a,b,c);"),
            wl.normal(2, 2)),
    wl.Case("witness", ("normality", "--group", "K2P", "--tree", "(a,b,c);",
                        "--flavor", "projected"), lambda rc, out, refs: []),
    wl.Case("glue", ("glue", "--group", "Z2", "--tree", "(a,b,c);", "--tree",
                     "(d,e,f);", "c", "d"),
            wl.glue("Z2", "(a,b,c);", "(d,e,f);")),
    wl.Case("oracle", ("oracle-test", "--group", "Z3", "--tree",
                       "((a,b),(c,d));", "--seed", "2"),
            wl.oracle("Z3", "((a,b),(c,d));", 2)),
    wl.Case("verify", ("verify-paper",), wl.verify_paper(11)),
)


def small_run(cases=SMALL):
    return run.Run(ROOT, wl.Workload("small", tuple(cases)), seed=0,
                   seconds=0)


def test_traced_pass_leaves_stdout_byte_identical():
    bench = small_run()
    plain = bench.child(SMALL)
    traced = bench.child(SMALL, trace=True)
    assert bench.gate(SMALL, plain) and bench.gate(SMALL, traced)
    assert [r["stdout"] for r in plain["cases"]] == \
        [r["stdout"] for r in traced["cases"]]
    assert [r["rc"] for r in plain["cases"]] == [0, 1, 0, 0, 0]
    names = {s[NAME] for s in traced["spans"]}
    assert {"cli.main", "lattice.idp_check", "lattice._dilate_array",
            "lattice.decompose", "trees.glue"} <= names
    assert {s[CASE] for s in traced["spans"]} == {c.id for c in SMALL}
    assert all(s[END] >= s[START] and s[PARENT] < i
               for i, s in enumerate(traced["spans"]))
    assert traced["counts"]["cyclotomic.mul.calls"] > 0
    assert "spans" not in plain


def test_a_case_that_hits_the_resource_cap_fails_the_pass_fast():
    capped = wl.Case("capped", ("normality", "--group", "Z2", "--tree",
                                "(a,b,c);", "--vertex-cap", "1"),
                     wl.normal(2, 2))
    cases = (capped, SMALL[-1])
    bench = small_run(cases)
    report = bench.child(cases)
    assert [r["rc"] for r in report["cases"]] == [3]
    assert not bench.gate(cases, report)
    assert (bench.attempted, bench.failed) == (2, 2)


def test_a_child_running_at_the_deadline_is_killed_and_its_cases_fail():
    slow = wl.Case("slow", ("normality", "--group", "Z4", "--tree",
                            "(a,b,c);"), wl.normal(2, 8))
    bench = small_run((slow,))
    bench.deadline = time.monotonic() + 1
    start = time.monotonic()
    assert bench.child((slow,)) is None
    assert time.monotonic() - start < 10
    assert (bench.attempted, bench.failed) == (1, 1)


def test_no_pass_starts_that_would_not_end_before_the_deadline(monkeypatch):
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    bench = small_run()
    passes = []

    def fake_pass():
        # each pass takes 10 s; the deadline leaves room for one
        passes.append(None)
        bench.longest = 10.0
        bench.setups.append(0.25)
        return {"cases": [{"id": "x", "wall": 10.0}], "maxrss_mb": 50.0}
    monkeypatch.setattr(bench, "timed_pass", fake_pass)
    bench.deadline = time.monotonic() + 12
    metrics, _ = run.end_to_end(bench, seconds=60)
    assert len(passes) == 1
    assert metrics["wall_s"] == (10.0, "s")
    # with room to spare, the run makes at least MIN_PASSES passes
    passes.clear()
    bench.deadline = time.monotonic() + 1000
    run.end_to_end(bench, seconds=0)
    assert len(passes) == run.MIN_PASSES


def test_the_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "idp-scan", "--seed", "1",
                     "--seconds", "1"]) == 2
