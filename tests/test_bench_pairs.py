"""`tools/bench_pairs.py` summarises alternating parent/change runs; its
summary is checked here on hand-made pairs."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

DECLARED = [
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "verify_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(base: dict, change: dict) -> list[dict]:
    """Pairs from per-metric value lists; a run also carries run.py's detail."""
    count = len(next(iter(base.values())))
    runs = []
    for i in range(count):
        side = {}
        for label, values in (("base", base), ("change", change)):
            side[label] = {name: v[i] for name, v in values.items()}
            side[label] |= {"requests": 100 + i, "by_kind_s": {"qsvt/dimacs/n16": 0.01}}
        runs.append({"seed": 101 + i, "first": "base" if i % 2 == 0 else "change", **side})
    return runs


def test_summary_counts_wins_and_both_bounds():
    base = {"latency_p50_s": [0.010, 0.011, 0.012, 0.013, 0.014],
            "verify_per_s": [60.0, 61.0, 62.0, 63.0, 64.0],
            "peak_rss_mb": [50.0, 50.0, 50.0, 50.0, 50.0]}
    change = {"latency_p50_s": [0.006, 0.007, 0.008, 0.0115, 0.009],
              "verify_per_s": [62.0, 60.0, 63.0, 64.0, 65.0],
              "peak_rss_mb": [56.0, 56.0, 56.0, 56.0, 56.0]}
    out = _tool().summarise(DECLARED, _pairs(base, change))

    p50 = out["latency_p50_s"]
    assert p50["base"] == {"median": 0.012, "q1": 0.011, "q3": 0.013}
    assert p50["change"]["median"] == 0.008
    assert p50["ratio"] == pytest.approx(2 / 3)
    assert p50["wins"] == 5 and p50["pairs"] == 5
    assert p50["beyond_base_iqr"]           # 0.004 apart, IQR 0.002
    assert p50["within_bound"]
    assert p50["beyond_bound"]              # 0.004 better, bound 25% of 0.012
    rate = out["verify_per_s"]
    assert rate["wins"] == 4
    assert not rate["beyond_base_iqr"]      # 1 apart, IQR 2
    assert rate["within_bound"] and not rate["beyond_bound"]
    rss = out["peak_rss_mb"]
    assert rss["ratio"] == pytest.approx(1.12)
    assert rss["wins"] == 0
    assert not rss["within_bound"] and not rss["beyond_bound"]


def test_beyond_bound_needs_more_than_the_bound():
    base = {"latency_p50_s": [0.02, 0.02, 0.02], "verify_per_s": [10.0, 10.0, 10.0],
            "peak_rss_mb": [40.0, 40.0, 40.0]}
    change = {"latency_p50_s": [0.01, 0.01, 0.01], "verify_per_s": [12.5, 12.5, 12.5],
              "peak_rss_mb": [35.0, 35.0, 35.0]}
    out = _tool().summarise(DECLARED, _pairs(base, change))
    assert out["latency_p50_s"]["beyond_bound"]       # 50% better, bound 25%
    assert not out["verify_per_s"]["beyond_bound"]    # 2.5 better, bound 2.5
    assert out["peak_rss_mb"]["beyond_bound"]         # 12.5% better, bound 10%
    assert all(out[m]["within_bound"] for m in out)


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def test_revisions_mark_a_dirty_src_tree(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "mod.py").write_text("x = 1\n")
    (repo / "notes.md").write_text("notes\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    head, tree = _git(repo, "rev-parse", "HEAD"), _git(repo, "rev-parse", "HEAD:src")
    revisions = _tool().revisions

    clean = revisions(repo, "HEAD")
    assert clean == {"base": head, "base_src_tree": tree,
                     "change": head, "change_src_tree": tree}
    (repo / "notes.md").write_text("more notes\n")
    outside = revisions(repo, "HEAD")
    assert outside["change"] == head + "+dirty" and outside["change_src_tree"] == tree
    (repo / "src" / "mod.py").write_text("x = 2\n")
    inside = revisions(repo, "HEAD")
    assert inside["change"] == head + "+dirty"
    assert inside["change_src_tree"] == tree + "+dirty"
    assert inside["base_src_tree"] == tree


def test_a_missing_workdir_is_created(tmp_path, monkeypatch):
    class Extracted(Exception):
        pass

    def extract(rev, into):
        raise Extracted(into)

    tool = _tool()
    workdir = tmp_path / "not" / "made"
    monkeypatch.setattr(tool, "revisions", lambda root, base: {})
    monkeypatch.setattr(tool, "extract", extract)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                     "oracle", "--out", str(tmp_path / "out.json"),
                                     "--workdir", str(workdir)])
    with pytest.raises(Extracted) as raised:
        tool.main()
    assert raised.value.args[0].parent == workdir


def test_kinds_summary_takes_the_median_of_the_class_medians():
    def run(kinds):
        return {"latency_p50_s": 0.01, "requests": 10, "by_kind_s": kinds}

    base = [{"qsvt/n16": [24, 0.0040], "grover/n14": [1, 0.045]},
            {"qsvt/n16": [24, 0.0044], "grover/n14": [1, 0.046]},
            {"qsvt/n16": [24, 0.0036], "grover/n14": [1, 0.044], "vqe/unique": [1, 0.01]}]
    change = [{"qsvt/n16": [24, 0.0021], "grover/n14": [1, 0.044]},
              {"qsvt/n16": [24, 0.0024], "grover/n14": [1, 0.047]},
              {"qsvt/n16": [24, 0.0020], "grover/n14": [1, 0.045]}]
    pairs = [{"seed": 1 + i, "first": "base", "base": run(b), "change": run(c)}
             for i, (b, c) in enumerate(zip(base, change))]
    out = _tool().summarise_kinds(pairs)

    assert list(out) == ["grover/n14", "qsvt/n16"]  # no pair met vqe/unique on both sides
    assert out["qsvt/n16"] == {"base": 0.0040, "change": 0.0021,
                               "ratio": pytest.approx(0.525), "wins": 3, "pairs": 3}
    grover = out["grover/n14"]
    assert grover["base"] == 0.045 and grover["change"] == 0.045
    assert grover["ratio"] == 1.0 and grover["wins"] == 1 and grover["pairs"] == 3


def test_both_trees_are_compiled_before_the_first_run(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    for part in ("src/pkg", "perfbench"):
        (repo / part).mkdir(parents=True)
    (repo / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "perfbench" / "run.py").write_text("y = 2\n")
    (repo / "BENCHMARK.json").write_text('{"end_to_end": []}\n')
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")

    class FirstRun(Exception):
        pass

    def cached(tree):
        return all(list((tree / part / "__pycache__").glob("*.pyc"))
                   for part in ("src/pkg", "perfbench"))

    seen = []

    def run(tree, workload, seed, seconds):
        # the base's extracted tree is gone once main returns
        seen.append((tree, cached(tree), cached(repo)))
        raise FirstRun

    tool = _tool()
    monkeypatch.setattr(tool, "ROOT", repo)
    monkeypatch.setattr(tool, "_run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD", "--workload",
                                     "oracle", "--out", str(tmp_path / "out.json"),
                                     "--workdir", str(tmp_path / "work")])
    with pytest.raises(FirstRun):
        tool.main()
    (tree, tree_cached, repo_cached), = seen
    assert tree != repo  # pair 0 runs the base first
    assert tree_cached and repo_cached
