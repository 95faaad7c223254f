"""Benchmark for `qverify verify`.

    python3 perfbench/run.py --workload {oracle,solvers} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Workloads are described in workloads.py.
The run is a closed loop with one client: a fresh worker process imports
qverify from ./src, does one warm-up request, then sends requests through
`qverify.cli.main(argv)` one after another for at least S seconds of
measured time, finishing the round of requests it is in.

Set-up time is the median over several fresh processes of interpreter start
to qverify imported and the warm-up request done.  Every answer is checked
here, with the benchmark's own DIMACS evaluator and catalog predicates.

--trace 0 prints the end-to-end metrics.  --trace 1 measures for S/2, reruns
the same requests with spans installed around qverify's public functions
(spans.py), checks the two runs' reports are byte-identical apart from
duration_ms, and prints the per-layer metrics and the tracing overhead.
The last line of output is one JSON object; the line before it holds the
details (tail percentile, request count, nproc, BLAS threads).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 9
# A run still going SETUP_ALLOWANCE_S + 3 * S seconds after it started is
# killed.  It measures S seconds (with --trace, S/2 untraced and the same
# requests again traced) and finishes the round it is in; 3 * S leaves room
# for that round on a slow host.
SETUP_ALLOWANCE_S = 30.0
BLAS_THREADS = 1
TAIL_BEYOND = 10


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _start_worker(args, work: Path, *extra):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("QVERIFY_CHECKER", None)
    argv = [sys.executable, str(HERE / "worker.py"), "--work", str(work),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    return proc, started


def _until(proc, started, line: str, deadline: float) -> float | None:
    """Seconds from start until the worker prints ``line``; None if it never
    does.  A worker still running at the deadline is killed."""
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        for got in proc.stdout:
            if got.strip() == line:
                return time.perf_counter() - started
        return None
    finally:
        watchdog.cancel()


def _stop(proc, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def _without_duration(text: str) -> list[str]:
    return [line for line in text.splitlines() if '"duration_ms"' not in line]


def check(row: dict, catalog_cnfs: dict) -> str | None:
    """Why the answer to one request is wrong, or None when it is right."""
    try:
        report = json.loads(row["report"])
        sat = report["verdict"] == "sat"
    except (ValueError, KeyError):
        return "no JSON report with a verdict"
    if sat != (row["code"] == 1):
        return f"exit {row['code']} disagrees with verdict {report['verdict']}"
    if row["kind"].startswith("brute/") and sat != row["satisfiable"]:
        return f"oracle says {report['verdict']} on an input built {'SAT' if row['satisfiable'] else 'UNSAT'}"
    if not sat:
        return None
    if not row["satisfiable"]:
        return "Sat verdict on an input that is unsatisfiable by construction"
    # MSB-first bitstring over the CNF variables: the last character is variable 1
    try:
        witness = int(report["witness"], 2)
    except (ValueError, KeyError):
        return "Sat verdict without a bitstring witness"
    if row["catalog"]:
        bits, predicate = workloads.CATALOG[row["catalog"]]
        if not predicate(witness & ((1 << bits) - 1)):
            return f"witness {report['witness']} breaks the {row['catalog']} predicate"
        num_vars, clauses = catalog_cnfs[row["catalog"]]
    else:
        num_vars, clauses = row["num_vars"], row["clauses"]
    if len(report["witness"]) != num_vars or not gen.evaluate(clauses, witness):
        return f"witness {report['witness']} does not satisfy the CNF"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (ROOT / "src" / "qverify" / "cli.py").is_file():
        return _fail(f"no qverify sources under {ROOT / 'src'}; run from a full checkout")

    deadline = time.perf_counter() + SETUP_ALLOWANCE_S + 3 * args.seconds
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, deadline: float) -> int:
    workloads.write_checker_stub(work)
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, started = _start_worker(args, work, "--setup-only")
        setup.append(_until(proc, started, "ready", deadline))
        if _stop(proc, deadline) != 0 or setup[-1] is None:
            return _fail("set-up probe failed")
    extra = ["--trace"] if args.trace else []
    proc, started = _start_worker(args, work, *extra)
    try:
        setup.append(_until(proc, started, "ready", deadline))
        finished = _until(proc, started, "done", deadline)
    finally:
        code = _stop(proc, deadline)
    if code != 0 or setup[-1] is None or finished is None:
        return _fail(f"worker exited {code} without a result")
    result = json.loads((work / "result.json").read_text())

    rows = [row for done in result["rounds"] for row in done]
    failed = incorrect = 0
    for row in rows:
        row["ok"] = False
        if row["error"]:
            failed += 1
            print(f"failed: {row['kind']}: {row['error']}", file=sys.stderr)
            continue
        problem = check(row, result["catalog_cnfs"])
        if args.trace and problem is None:
            if row["traced_error"] or (_without_duration(row["traced_report"])
                                       != _without_duration(row["report"])):
                problem = "traced report differs from the untraced one"
        if problem:
            incorrect += 1
            print(f"wrong: {row['kind']} {row['argv']}: {problem}", file=sys.stderr)
            continue
        row["ok"] = True
    attempted = len(rows)
    sat_rows = [row for row in rows if row["ok"] and row["satisfiable"]]
    latencies = sorted(row["seconds"] for row in rows)
    tail_rank = max(0, attempted - 1 - TAIL_BEYOND)
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(result["rounds"]),
        "requests": attempted, "measured_s": result["measured_s"],
        # below 1 when the worker waited: on the checker stub, or for a CPU
        "cpu_over_wall": result["cpu_s"] / result["measured_s"],
        "tail_percentile": 100.0 * tail_rank / attempted if attempted else 0.0,
        "tail_requests_beyond": attempted - 1 - tail_rank,
        "setup_samples_s": setup, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "by_kind_s": _by_kind(rows),
    }
    if args.trace:
        overhead = result["traced_s"] - result["measured_s"]
        values = spans.layer_metrics(result["layers"], len(result["rounds"]))
        values["trace.overhead_s"] = overhead / len(result["rounds"])
        detail.update(traced_s=result["traced_s"], overhead_s=overhead,
                      spans_file=str(work.parent / f"spans-{args.workload}-{args.seed}.csv.gz"))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "verify_per_s": sum(r["ok"] for r in rows) / result["measured_s"],
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": latencies[tail_rank],
            "peak_rss_mb": result["peak_rss_mb"],
            "witness_rate": (sum(r["code"] == 1 for r in sat_rows) / len(sat_rows)
                             if sat_rows else 1.0),
            "success_rate": sum(r["ok"] for r in rows) / attempted,
        }
    # names and units as BENCHMARK.json declares them, which must be exactly these
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != values.keys():
        return _fail(f"metrics differ from BENCHMARK.json: {sorted(units.keys() ^ values.keys())}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _by_kind(rows) -> dict:
    """[count, median seconds] per request kind, for reading runs."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row["kind"], []).append(row["seconds"])
    return {k: [len(v), round(statistics.median(v), 4)] for k, v in sorted(groups.items())}


if __name__ == "__main__":
    sys.exit(main())
