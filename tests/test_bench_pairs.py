"""`tools/bench_pairs.py` summarises alternating parent/change runs; its
summary is checked here on hand-made pairs."""
import importlib.util
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
