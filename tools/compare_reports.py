"""Byte identity of `qverify verify` answers between a base revision and
this checkout, over seeded rounds of a benchmark workload, or of the sweep
CSVs.

    python3 tools/compare_reports.py --base HEAD~1 --workload solvers \
        --workload oracle --workload sweeps --rounds 5 --seed 1

Run from the root of a checkout.  The base revision is extracted with
`git archive`, as bench_pairs.py does; the change is this checkout's working
tree.  The rounds are built by perfbench/workloads.py (read, never changed)
and their inputs written once, under one directory that both sides read, so
the reports' `instance` fields match.  Each tree then answers every request
in one fresh process, through `qverify.cli.main(argv)` with one BLAS thread,
as the benchmark's worker does.

`--workload` is repeatable: the base is extracted once and each workload is
checked in turn.  For every request kind the tool prints how many requests
differ, in stdout without its `duration_ms` line or in the exit code.

`--workload sweeps` runs `sweep convergence`, `sweep rates` and `sweep
heatmap` at their default arguments instead (`--rounds` and `--seed` are not
read), through `qverify.cli.main` in one fresh process per tree, each tree
writing to its own directory.  It prints whether each CSV is byte-identical.

The tool exits 1 when any request or CSV of any workload differs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEPS = ("convergence", "rates", "heatmap")

# Run in a fresh interpreter inside one tree, with the tree's src directory
# as the first argument: import qverify from there and nowhere else.
_IMPORT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
src = sys.argv[1]
sys.path.insert(0, src)
import qverify.cli
if not Path(qverify.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
    sys.exit(f"qverify imported from {qverify.cli.__file__}, not from {src}")
"""

# Answer every request of a JSON list of argvs and write [{"code", "stdout"}]
# in the same order.
_ANSWER = _IMPORT + """
requests, out = sys.argv[2:]
rows = []
for argv in json.loads(Path(requests).read_text()):
    stdout = io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = qverify.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    rows.append({"code": code, "stdout": stdout.getvalue()})
Path(out).write_text(json.dumps(rows))
"""

# Run each default sweep, writing its CSV under the output directory.
_SWEEP = _IMPORT + """
out = sys.argv[2]
for study in sys.argv[3:]:
    with redirect_stdout(io.StringIO()):
        code = qverify.cli.main(["sweep", study, "--out", out])
    if code != 0:
        sys.exit(f"sweep {study} exited {code}")
"""


def _without_duration(text: str) -> list[str]:
    return [line for line in text.splitlines() if '"duration_ms"' not in line]


def differing(kinds: list[str], base: list[dict], change: list[dict]) -> dict[str, tuple[int, int]]:
    """Per request kind, in sorted order: (requests whose exit code or stdout
    without its `duration_ms` line differ, requests).  The three lists hold
    one entry per request, in the same order."""
    if not len(kinds) == len(base) == len(change):
        raise ValueError("need one base and one change answer per request")
    out: dict[str, tuple[int, int]] = {}
    for kind, b, c in zip(kinds, base, change):
        differs = b["code"] != c["code"] or \
            _without_duration(b["stdout"]) != _without_duration(c["stdout"])
        count, total = out.get(kind, (0, 0))
        out[kind] = (count + differs, total + 1)
    return dict(sorted(out.items()))


def differing_files(base: Path, change: Path) -> list[str]:
    """Names of the files, in either directory, sorted, that the other
    directory lacks or holds with other bytes."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()})
    return [name for name in names
            if not ((base / name).is_file() and (change / name).is_file()
                    and (base / name).read_bytes() == (change / name).read_bytes())]


def _run(script: str, tree: Path, args: list[str], env: dict) -> None:
    argv = [sys.executable, "-c", script, str(tree / "src"), *args]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"compare_reports: running in {tree} exited "
                         f"{done.returncode}: {done.stderr.strip()[-500:]}")


def _answers(tree: Path, requests: Path, out: Path, env: dict) -> list[dict]:
    _run(_ANSWER, tree, [str(requests), str(out)], env)
    return json.loads(out.read_text())


def _compare_sweeps(base_tree: Path, scratch: Path, env: dict) -> int:
    outs = {}
    for side, tree in (("base", base_tree), ("change", ROOT)):
        outs[side] = scratch / f"{side}-sweeps"
        outs[side].mkdir()
        _run(_SWEEP, tree, [str(outs[side]), *SWEEPS], env)
    differ = differing_files(outs["base"], outs["change"])
    for name in sorted({p.name for out in outs.values() for p in out.iterdir()}):
        print(f"{name}\t{'differs' if name in differ else 'identical'}")
    print(f"sweeps: {len(differ)} CSVs differ")
    return 1 if differ else 0


def _compare_rounds(workload: str, rounds: int, seed: int, base_tree: Path,
                    scratch: Path, env: dict) -> int:
    import workloads

    inputs = scratch / "inputs"
    inputs.mkdir(parents=True)
    rng = workloads.workload_rng(workload, seed)
    requests = [req for index in range(rounds)
                for req in workloads.build_round(workload, rng, inputs, index)]
    argvs = scratch / "requests.json"
    argvs.write_text(json.dumps([req.argv for req in requests]))
    env = env | {"QVERIFY_CHECKER": str(workloads.write_checker_stub(inputs))}
    base = _answers(base_tree, argvs, scratch / "base.json", env)
    change = _answers(ROOT, argvs, scratch / "change.json", env)

    table = differing([req.kind for req in requests], base, change)
    for kind, (count, total) in table.items():
        print(f"{kind}\t{count} of {total} differ")
    count = sum(c for c, _ in table.values())
    print(f"{workload}: {count} of {len(requests)} requests differ "
          f"({rounds} rounds, seed {seed})")
    return 1 if count else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload, or sweeps (repeatable)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where to extract the base and write the inputs "
                             "(default: a temporary directory)")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    import workloads
    from bench_pairs import extract
    for workload in args.workload:
        if workload != "sweeps" and workload not in workloads.BUILDERS:
            parser.error(f"--workload must be one of {sorted(workloads.BUILDERS)} or sweeps")

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        scratch = Path(scratch)
        base_tree = extract(args.base, scratch)
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        for workload in dict.fromkeys(args.workload):
            if workload == "sweeps":
                status |= _compare_sweeps(base_tree, scratch, env)
            else:
                status |= _compare_rounds(workload, args.rounds, args.seed, base_tree,
                                          scratch / workload, env)
    return status


if __name__ == "__main__":
    sys.exit(main())
