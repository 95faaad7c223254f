"""One fresh process per workload run: import qverify, warm up, run rounds.

Started by run.py.  It prints "ready" once qverify is imported and the
warm-up request is done (run.py times set-up up to that line), then runs
whole rounds of requests through `qverify.cli.main(argv)` in-process, one
at a time, until the measuring time is used up.  With --trace it then runs
the same rounds again with spans installed.  Everything it observed goes to
<work>/result.json; the checking is left to run.py.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_request(main, argv):
    """(exit code or None, error text or None, seconds, report text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code!r}): {err.getvalue().strip()[-300:]}"
    except Exception as exc:  # a request that escapes the CLI counts as failed
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code not in (0, 1) and error is None:
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    return code, error, seconds, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import qverify.cli
    if not Path(qverify.cli.__file__).resolve().is_relative_to(ROOT):
        print(f"qverify imported from {qverify.cli.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    os.environ["QVERIFY_CHECKER"] = str(args.work / "checker-stub.sh")
    code, error, _, _ = run_request(qverify.cli.main, workloads.WARMUP[args.workload])
    if error:
        print(f"warm-up failed: {error}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = workloads.workload_rng(args.workload, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds, measured = [], 0.0
    cpu_start = time.process_time()
    while measured < budget:
        requests = workloads.build_round(args.workload, rng, args.work, len(rounds))
        done = []
        for req in requests:
            code, error, seconds, report = run_request(qverify.cli.main, req.argv)
            measured += seconds
            done.append({"kind": req.kind, "argv": req.argv, "satisfiable": req.satisfiable,
                         "num_vars": req.num_vars, "clauses": req.clauses,
                         "catalog": req.catalog, "code": code, "error": error,
                         "seconds": seconds, "report": report})
        rounds.append(done)
    cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, traced = None, 0.0
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            for i, row in enumerate(r for done in rounds for r in done):
                tracer.request = i
                _, error, seconds, report = run_request(qverify.cli.main, row["argv"])
                traced += seconds
                row.update(traced_error=error, traced_report=report)
        finally:
            tracer.uninstall()
        layers = tracer.aggregate()
        tracer.dump(args.work.parent / f"spans-{args.workload}-{args.seed}.csv.gz")

    # the catalog's own clauses, so witnesses can also be checked clause by clause
    from qverify.synthetic import generate_synthetic
    catalog_cnfs = {}
    for name in {r["catalog"] for done in rounds for r in done if r["catalog"]}:
        formula = generate_synthetic(name, {})
        catalog_cnfs[name] = [formula.num_variables,
                              [[lit.to_int() for lit in cl.literals] for cl in formula.clauses]]

    result = {"rounds": rounds, "measured_s": measured, "cpu_s": cpu, "traced_s": traced,
              "peak_rss_mb": peak_rss_mb, "layers": layers, "catalog_cnfs": catalog_cnfs}
    (args.work / "result.json").write_text(json.dumps(result))
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
