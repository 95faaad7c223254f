"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --base HEAD~1 --workload solvers --pairs 10 \
        --seed 101 --seconds 40 --out BENCH_N.json

Run from the root of a checkout.  The base revision is extracted with
`git archive` into a scratch directory (--workdir, default a temporary one),
so `.git` is left as it was; the change is this checkout's working tree.
Before the first pair, `python -m compileall -q src perfbench` writes the
bytecode caches of both trees (`"compiled": true` in the output): where
PYTHONDONTWRITEBYTECODE is set, a fresh `git archive` tree would otherwise
recompile qverify in every process, and `setup_s` would count that against
the base alone.
Pair i runs `python3 perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each tree, one after the other, the base first on even
pairs and the change first on odd ones, so that drift of the host over the
session falls on both sides alike.

For every end-to-end metric that BENCHMARK.json declares, the output holds
each side's median and inclusive quartiles (`statistics.quantiles(method=
"inclusive")`), the change's median over the base's, the number of pairs the
change won (strictly better in the metric's direction), whether the medians
differ by more than the base's interquartile range, whether the change
stays within the metric's bound (`within_bound`), and whether it beats the
base by more than that bound (`beyond_bound`).  Each run's values are kept as
well, with the request count and the per-class seconds (`requests`,
`by_kind_s`) of run.py's detail line, which show which request class moved
and how many requests a run's peak RSS covers.  Per request class, the
workload's `by_kind_s` summary holds each side's median of the runs' class
medians, the change's over the base's, and the number of pairs the change
won (a lower class median).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def revisions(root: Path, base: str) -> dict:
    """The base and change commits of the checkout at ``root`` and their src
    trees; the change is marked `+dirty` where the working tree differs from
    HEAD, and its src tree where src/ does.  The src trees identify what was
    measured even after the commits are reworded."""
    def dirty(*paths: str) -> str:
        return "+dirty" if _git(root, "status", "--porcelain", "--", *paths) else ""

    return {
        "base": _git(root, "rev-parse", base),
        "base_src_tree": _git(root, "rev-parse", f"{base}:src"),
        "change": _git(root, "rev-parse", "HEAD") + dirty(),
        "change_src_tree": _git(root, "rev-parse", "HEAD:src") + dirty("src"),
    }


def extract(rev: str, into: Path) -> Path:
    """The files of revision ``rev`` under ``into``/base, from `git archive`."""
    into.mkdir(parents=True, exist_ok=True)
    archive = into / "base.tar"
    with archive.open("wb") as handle:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=handle)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "base", filter="data")
    archive.unlink()
    return into / "base"


def compile_tree(tree: Path) -> None:
    """Write the bytecode caches of ``tree``'s sources and benchmark."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {tree} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} was not correct")
    detail = json.loads(lines[-2])["detail"]  # run.py prints it just before the result
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return values | {"requests": detail["requests"], "by_kind_s": detail["by_kind_s"]}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(declared: list[dict], pairs: list[dict]) -> dict:
    """Per metric: both sides' medians and quartiles, wins and bound."""
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [pair["base"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        b, c = _spread(base), _spread(change)
        worse = (b["median"] - c["median"]) if higher else (c["median"] - b["median"])
        bound = metric["bound"] * abs(b["median"])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "change": c,
            "ratio": c["median"] / b["median"] if b["median"] else None,
            "wins": sum((y > x) if higher else (y < x) for x, y in zip(base, change)),
            "pairs": len(pairs),
            "beyond_base_iqr": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
            "within_bound": worse <= bound,
            "beyond_bound": -worse > bound,
        }
    return out


def summarise_kinds(pairs: list[dict]) -> dict:
    """Per request class (run.py's `by_kind_s`, [count, median seconds] per
    run): both sides' medians of the class medians, their ratio and the
    pairs the change won, over the pairs where both runs met the class."""
    out = {}
    kinds = {kind for pair in pairs for side in ("base", "change")
             for kind in pair[side]["by_kind_s"]}
    for kind in sorted(kinds):
        met = [(pair["base"]["by_kind_s"][kind][1], pair["change"]["by_kind_s"][kind][1])
               for pair in pairs
               if kind in pair["base"]["by_kind_s"] and kind in pair["change"]["by_kind_s"]]
        if not met:
            continue
        base = statistics.median(b for b, _ in met)
        change = statistics.median(c for _, c in met)
        out[kind] = {"base": base, "change": change,
                     "ratio": change / base if base else None,
                     "wins": sum(c < b for b, c in met), "pairs": len(met)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True, help="JSON summary to write")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where to extract the base (default: a temporary directory)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = revisions(ROOT, args.base) | {
        "seconds": args.seconds, "nproc": os.cpu_count(), "compiled": True, "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        base_tree = extract(args.base, Path(scratch))
        for tree in (base_tree, ROOT):
            compile_tree(tree)
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("base", base_tree), ("change", ROOT)]
                pair = {"seed": seed, "first": order[i % 2][0]}
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    pair[side] = _run(tree, workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            summary["workloads"][workload] = {"metrics": summarise(declared, pairs),
                                              "by_kind_s": summarise_kinds(pairs),
                                              "pairs": pairs}
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
