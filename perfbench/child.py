"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py ROOT < job.json

Imports phylotope from ROOT/src, runs the job's cases one after another
through phylotope.cli.main, and writes one JSON object to stdout: when the
import finished (time.monotonic, the clock the parent also reads), each
case's exit code, wall time and output, the peak RSS, and, for a traced
job, the spans and counters. A case that crashes or exits 3 ends the pass.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# Keeps a runaway case from taking the machine's memory; it fails instead.
ADDRESS_SPACE_LIMIT = 4 << 30


def run_case(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    rc, crash = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed case, reported with its traceback
        crash = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - start
    return {"rc": rc, "wall": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "crash": crash}


def main():
    root = sys.argv[1]
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from phylotope import cli
    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        sys.exit(f"phylotope imported from {cli.__file__}, not from {src}")
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for case_id, argv in job["cases"]:
        if tracer:
            tracer.case = case_id
        res = run_case(cli, argv)
        res["id"] = case_id
        results.append(res)
        if res["crash"] or res["rc"] == 3:
            break
    report = {"ready": ready, "cases": results,
              "maxrss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
