"""Out-of-process CLI benchmark of phylotope.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload idp-scan --seed 1 --seconds 40 --trace 0

Each pass runs every case of the workload, in an order shuffled by --seed,
through phylotope.cli.main in one fresh child interpreter; children run one
at a time, each case after the previous one finished (a closed loop with one
client). Every case's output is checked by the gate in workloads.py before
its time counts. --trace 0 runs passes until --seconds have gone by and
reports the end-to-end metrics; --trace 1 runs one untraced and one traced
pass and reports the per-layer metrics. The run ends by --seconds plus
DEADLINE_SLACK_S: no pass starts that would not end by then, and a child
still running then is killed and its cases fail. The last line of stdout is a JSON
object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import layer_metrics, layer_metric_names  # noqa: E402
from workloads import ALL_CASE_IDS, WORKLOADS, parse_vertex_file, \
    points_per_degree  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# The run's deadline is this long after --seconds: room for set-up, the
# reference runs, the overrun of the last pass and a traced pass. A child
# still running at the deadline is killed and its cases fail.
DEADLINE_SLACK_S = 130
# A further pass starts only while this many times the longest child so far
# still fits before the deadline.
PASS_MARGIN = 1.5
# Children that only import the package, so setup_s is a median of several.
SETUP_CHILDREN = 6
# Fewest timed passes per run, so wall_s is always a median of several.
MIN_PASSES = 2
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """State of one benchmark run: the gate's tallies and the children's
    set-up times."""

    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.rng = random.Random(seed)
        self.deadline = time.monotonic() + seconds + DEADLINE_SLACK_S
        self.longest = 0.0   # longest child so far, spawn to exit
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.refs = {}

    def child(self, cases, trace=False):
        """Run cases in one fresh child; returns its report, or None with
        the failure reported when it did not exit cleanly in time."""
        start = time.monotonic()
        env = dict(os.environ, **CHILD_ENV)
        job = {"cases": [[c.id, list(c.argv)] for c in cases], "trace": trace}
        with subprocess.Popen([sys.executable, CHILD, self.root],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, cwd=self.root, env=env,
                              text=True) as proc:
            try:
                out, err = proc.communicate(
                    json.dumps(job),
                    timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return self._lost(cases, "child killed at the run deadline")
            except BaseException:   # interrupted: leave no child behind
                proc.kill()
                raise
        self.longest = max(self.longest, time.monotonic() - start)
        if proc.returncode != 0:
            return self._lost(cases, f"child exited {proc.returncode}: "
                                     f"{err.strip()[-500:]}")
        report = json.loads(out)
        self.setups.append(report["ready"] - start)
        return report

    def _lost(self, cases, why):
        log(f"FAIL pass of {len(cases)} case(s): {why}")
        self.attempted += len(cases)
        self.failed += len(cases)
        return None

    def gate(self, cases, report):
        """Check each case's output; True when all cases ran and passed."""
        if report is None:
            return False
        ok = len(report["cases"]) == len(cases)
        by_id = {c.id: c for c in cases}
        for res in report["cases"]:
            self.attempted += 1
            case = by_id[res["id"]]
            if res["crash"]:
                problems = ["crashed: " + res["crash"].strip()]
            else:
                problems = case.check(res["rc"], res["stdout"], self.refs)
                if res["rc"] == 3:
                    problems.append("resource cap hit: " + res["stderr"])
            if problems:
                self.failed += 1
                ok = False
                log(f"FAIL {case.id}: " + "; ".join(problems))
        missing = len(cases) - len(report["cases"])
        if missing:
            log(f"FAIL {missing} case(s) not run after a failed case")
            self.attempted += missing
            self.failed += missing
        return ok

    def references(self):
        cases = self.workload.references
        if not cases:
            return True
        report = self.child(cases)
        if not self.gate(cases, report):
            return False
        for case, res in zip(cases, report["cases"]):
            self.refs[case.id] = parse_vertex_file(res["stdout"])[1]
        return True

    def fits(self):
        """Whether another pass is expected to end before the deadline."""
        return time.monotonic() + PASS_MARGIN * self.longest < self.deadline

    def timed_pass(self, trace=False):
        cases = list(self.workload.cases)
        self.rng.shuffle(cases)
        report = self.child(cases, trace=trace)
        return report if self.gate(cases, report) else None


def log(msg):
    print(msg, flush=True)


def pass_wall(report):
    return sum(r["wall"] for r in report["cases"])


def summarize(passes):
    """One line per case: exit code, median wall time and the (ungated)
    points per degree."""
    for case_id in sorted({r["id"] for r in passes[0]["cases"]}):
        walls = [r["wall"] for p in passes for r in p["cases"]
                 if r["id"] == case_id]
        res = next(r for r in passes[0]["cases"] if r["id"] == case_id)
        ppd = points_per_degree(res["stdout"])
        log(f"case {case_id}: exit {res['rc']}, median {statistics.median(walls):.3f} s"
            f" over {len(walls)}" + (f", points per degree: {ppd}" if ppd else ""))


def end_to_end(run, seconds):
    for _ in range(SETUP_CHILDREN):
        run.child([])
    passes = []
    start = time.monotonic()
    while True:
        report = run.timed_pass()
        if report is None:
            return {}, passes
        passes.append(report)
        if len(passes) >= MIN_PASSES and time.monotonic() - start >= seconds:
            break
        if not run.fits():
            # a slow program is reported as slow, from fewer passes
            log(f"stopping after {len(passes)} pass(es): another would not "
                "end before the run's deadline")
            break
    walls = [pass_wall(p) for p in passes]
    # The fastest pass is logged, not a metric: on a shared machine it
    # spreads from run to run more than the median does.
    log(f"{len(passes)} passes, wall s: " + " ".join(f"{w:.3f}" for w in walls)
        + f"; min {min(walls):.3f}, median {statistics.median(walls):.3f}")
    values = {"wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
              "setup_s": statistics.median(run.setups)}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, passes


def per_layer(run):
    plain = run.timed_pass()
    traced = run.timed_pass(trace=True) if plain else None
    if traced is None:
        return {}, [plain] if plain else []
    for a, b in zip(sorted(plain["cases"], key=lambda r: r["id"]),
                    sorted(traced["cases"], key=lambda r: r["id"])):
        if a["stdout"] != b["stdout"]:
            log(f"FAIL {a['id']}: traced stdout differs from untraced")
            run.failed += 1
            return {}, [plain]
    values = layer_metrics(traced["spans"], traced["counts"])
    walls = {r["id"]: r["wall"] for r in plain["cases"]}
    for case_id in ALL_CASE_IDS:
        values[f"cli.case.{case_id}.s"] = walls.get(case_id, 0.0)
    values["cli.stdout_bytes"] = sum(len(r["stdout"].encode())
                                     for r in plain["cases"])
    values["trace.overhead_frac"] = pass_wall(traced) / pass_wall(plain) - 1
    units = per_layer_units()
    metrics = {k: (values[k], u) for k, u in units.items()
               if k != "failed_frac"}
    return metrics, [plain]


def per_layer_units():
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    units = {k: "s" if k.endswith((".s", "_s")) else "count"
             for k in layer_metric_names()}
    units.update({f"cli.case.{c}.s": "s" for c in ALL_CASE_IDS})
    units.update({"cli.stdout_bytes": "bytes", "trace.overhead_frac": "frac",
                  "failed_frac": "frac"})
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopping the benchmark stops its child too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "phylotope", "cli.py")):
        sys.stderr.write(f"no phylotope sources under {root}/src; run from "
                         "the root of a checkout\n")
        return 2
    run = Run(root, WORKLOADS[args.workload], args.seed, args.seconds)
    metrics, passes = {}, []
    if run.references():
        if args.trace:
            metrics, passes = per_layer(run)
        else:
            metrics, passes = end_to_end(run, args.seconds)
    if passes:
        summarize(passes)
    correct = run.failed == 0 and bool(metrics)
    if args.trace:
        # reported even when the run failed; it reads 0 on a correct run,
        # so it is no end-to-end metric
        metrics["failed_frac"] = (run.failed / max(run.attempted, 1), "frac")
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
