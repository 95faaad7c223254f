"""`tools/compare_reports.py` counts, per request kind, the answers that
differ between two trees; its comparison is checked here on hand-made
answers."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(verdict: str, duration_ms: float) -> str:
    return (f'{{\n  "verdict": "{verdict}",\n  "duration_ms": {duration_ms},\n'
            f'  "instance": "/shared/in0000.cnf"\n}}\n')


def test_only_duration_may_differ():
    kinds = ["qsvt/dimacs/n16q16/unsat", "qsvt/dimacs/n16q16/unsat", "grover/unique"]
    base = [{"code": 0, "stdout": _report("none", 10.5)},
            {"code": 0, "stdout": _report("none", 9.0)},
            {"code": 1, "stdout": _report("sat", 3.25)}]
    change = [{"code": 0, "stdout": _report("none", 6.125)},
              {"code": 0, "stdout": _report("none", 5.0)},
              {"code": 1, "stdout": _report("sat", 3.0)}]
    assert _tool().differing(kinds, base, change) == {
        "grover/unique": (0, 1), "qsvt/dimacs/n16q16/unsat": (0, 2)}


def test_a_report_line_or_an_exit_code_counts_as_a_difference():
    kinds = ["b", "a", "a", "a"]
    base = [{"code": 0, "stdout": _report("none", 1.0)},
            {"code": 0, "stdout": _report("none", 1.0)},
            {"code": 0, "stdout": _report("none", 1.0)},
            {"code": 2, "stdout": ""}]
    change = [{"code": 1, "stdout": _report("none", 1.0)},         # exit code
              {"code": 0, "stdout": _report("sat", 1.0)},          # a report line
              {"code": 0, "stdout": _report("none", 1.0) + "\n"},  # a trailing line
              {"code": "raised ValueError: boom", "stdout": ""}]
    out = _tool().differing(kinds, base, change)
    assert out == {"a": (3, 3), "b": (1, 1)}
    assert list(out) == ["a", "b"]


def test_answers_must_pair_up_with_the_requests():
    with pytest.raises(ValueError, match="one base and one change"):
        _tool().differing(["a", "b"], [{"code": 0, "stdout": ""}] * 2,
                          [{"code": 0, "stdout": ""}])


def test_sweep_csvs_must_match_byte_for_byte(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        side.mkdir()
        (side / "heatmap.csv").write_bytes(b"d,delta,value\n1,0.5,0.25\n")
    (base / "rates.csv").write_bytes(b"instance\nunique\n")
    (change / "rates.csv").write_bytes(b"instance\nunique\n\n")      # a trailing line
    (base / "convergence.csv").write_bytes(b"run\n0\n")                # base only
    (change / "extra.csv").write_bytes(b"")                             # change only
    tool = _tool()
    assert tool.differing_files(base, change) == ["convergence.csv", "extra.csv", "rates.csv"]
    (change / "rates.csv").write_bytes(b"instance\nunique\n")
    (change / "convergence.csv").write_bytes(b"run\n0\n")
    (change / "extra.csv").unlink()
    assert tool.differing_files(base, change) == []


def test_a_missing_workdir_is_created(tmp_path, monkeypatch):
    class Extracted(Exception):
        pass

    def extract(rev, into):
        raise Extracted(into)

    # main imports `extract` from the tools directory's bench_pairs module
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import bench_pairs

    monkeypatch.setattr(bench_pairs, "extract", extract)
    workdir = tmp_path / "not" / "made"
    monkeypatch.setattr("sys.argv", ["compare_reports.py", "--base", "HEAD",
                                     "--workload", "sweeps", "--workdir", str(workdir)])
    with pytest.raises(Extracted) as raised:
        _tool().main()
    assert raised.value.args[0].parent == workdir
