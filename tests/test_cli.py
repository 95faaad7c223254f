import json
from pathlib import Path

import pytest

from qverify.cli import main

DATA = Path(__file__).parent / "data"

UNSAT = "p cnf 1 2\n1 0\n-1 0\n"


def test_satisfiable_instance_exits_one(tmp_path, capsys):
    code = main(["verify", "--synthetic", "unique", "--solver", "brute"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "sat"
    assert payload["witness"] == "101010"
    assert payload["solver"] == "brute"


def test_unsatisfiable_dimacs_exits_zero(tmp_path, capsys):
    path = tmp_path / "contradiction.cnf"
    path.write_text(UNSAT)
    code = main(["verify", "--dimacs", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "none"
    assert "witness" not in payload


def test_report_schema_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--synthetic", "or:n=3", "--solver", "qsvt",
            "--seed", "7", "--out"]
    assert main(argv + [str(out_a)]) == 1
    assert main(argv + [str(out_b)]) == 1
    a, b = json.loads(out_a.read_text()), json.loads(out_b.read_text())
    for key in ("instance", "provenance", "n_cnf_vars", "n_qubo_vars", "n_aux",
                "gap", "solver", "config", "verdict", "seed", "duration_ms",
                "witness", "rate", "rate_sampled"):
        assert key in a, key
    a.pop("duration_ms"), b.pop("duration_ms")
    assert a == b
    # bytes identical too, apart from that one timing line
    lines_a = [l for l in out_a.read_text().splitlines() if "duration_ms" not in l]
    lines_b = [l for l in out_b.read_text().splitlines() if "duration_ms" not in l]
    assert lines_a == lines_b


def test_trace_file(tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["verify", "--synthetic", "or", "--solver", "qaoa",
                 "--max-iterations", "25", "--seed", "1",
                 "--out", str(tmp_path / "r.json"), "--trace-file", str(trace)])
    assert code == 1
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,value"
    assert len(lines) > 1
    for row in lines[1:]:
        i, v = row.split(",")
        int(i), float(v)


def test_bad_arguments_exit_two(tmp_path, capsys):
    assert main(["verify", "--dimacs", str(tmp_path / "missing.cnf")]) == 2
    assert main(["verify", "--synthetic", "no-such-instance"]) == 2
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert main(["verify", "--dimacs", str(bad)]) == 2
    capsys.readouterr()


def test_missing_checker_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QVERIFY_CHECKER", str(tmp_path / "nowhere"))
    code = main(["verify", "--source", str(DATA / "div_by_zero.c"),
                 "--check", "div-by-zero"])
    assert code == 3
    capsys.readouterr()


def test_fake_checker_end_to_end(make_fake_checker, checker_env, tmp_path):
    # an always-falsifiable payload: the checker "found" a reachable flaw
    script, log = make_fake_checker("p cnf 2 1\n1 2 0\n")
    checker_env(script)
    out = tmp_path / "report.json"
    code = main(["verify", "--source", str(DATA / "overflow.c"),
                 "--check", "overflow", "--unwind", "2", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "sat"
    argv = log.read_text().splitlines()
    assert argv[0].endswith("overflow.c")
    assert "--dimacs" in argv
    assert "--signed-overflow-check" in argv
    assert argv[-2:] == ["--unwind", "2"]


def test_fake_checker_unsat_means_no_flaw(make_fake_checker, checker_env, tmp_path):
    script, _ = make_fake_checker(UNSAT)
    checker_env(script)
    code = main(["verify", "--source", str(DATA / "div_by_zero.c"),
                 "--check", "div-by-zero", "--out", str(tmp_path / "r.json")])
    assert code == 0


@pytest.mark.parametrize("study,flags", [
    ("convergence", ["--runs", "2", "--max-iterations", "15"]),
    ("heatmap", ["--max-degree", "10", "--max-inverse-gap", "6"]),
])
def test_sweeps_are_reproducible(study, flags, tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    base = ["sweep", study, *flags]
    assert main(base + ["--out", str(dir_a)]) == 0
    assert main(base + ["--out", str(dir_b)]) == 0
    capsys.readouterr()
    (file_a,) = list(dir_a.glob("*.csv"))
    (file_b,) = list(dir_b.glob("*.csv"))
    assert file_a.read_bytes() == file_b.read_bytes()


def test_rates_sweep_columns(tmp_path, capsys):
    out = tmp_path / "rates"
    code = main(["sweep", "rates", "--instance", "or:n=3", "--instance", "xor:n=3",
                 "--shots", "2000", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == "instance,n_qubits,gap_estimated,gap_exact,degree,rate,verdict"
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[6] in ("sat", "none")
        assert 0.0 <= float(cells[5]) <= 1.0


def test_parallel_jobs_match_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["sweep", "convergence", "--runs", "2", "--max-iterations", "10"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert (serial / "convergence.csv").read_bytes() == \
        (parallel / "convergence.csv").read_bytes()


def test_solver_exception_exits_two_not_one(tmp_path, capsys):
    # 200 copies of (x1 | x2) push the 1/M gap so low that no filter degree
    # under the cap suffices; the DegreeCapError must not read as "flaw"
    path = tmp_path / "degree-cap.cnf"
    path.write_text("p cnf 16 201\n" + "1 2 0\n" * 200 + "3 0\n")
    code = main(["verify", "--dimacs", str(path), "--solver", "qsvt"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qverify: ")
    assert captured.err.count("\n") == 1


def test_layers_below_one_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--synthetic", "or", "--solver", "qaoa", "--layers", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_layers_are_passed_through_unchanged(capsys):
    from qverify.optimizers import OptimizerSpec
    from qverify.pipeline import build_problem, solve
    from qverify.synthetic import generate_synthetic

    problem = build_problem(generate_synthetic("or", {}))
    optimizer = OptimizerSpec(kind="simultaneous-perturbation", max_iterations=3)
    assert solve(problem, "vqe", optimizer=optimizer, layers=0).config["layers"] == 0
    code = main(["verify", "--synthetic", "or", "--solver", "qaoa", "--layers", "1",
                 "--max-iterations", "3"])
    assert code in (0, 1)
    assert json.loads(capsys.readouterr().out)["config"]["layers"] == 1


def test_oracle_budget_above_cap_rejected_before_allocation(tmp_path, capsys):
    import tracemalloc

    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 25 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dimacs", str(path), "--oracle-budget", "25"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 1 << 20
    for bad in ("-1", "25"):
        with pytest.raises(SystemExit):
            main(["verify", "--dimacs", str(path), "--oracle-budget", bad])
    capsys.readouterr()


def test_formula_over_24_variables_rejected_before_reduction(tmp_path, capsys):
    import tracemalloc

    path = tmp_path / "declared.cnf"
    path.write_text("p cnf 1000000 0\n")
    tracemalloc.start()
    try:
        code = main(["verify", "--dimacs", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qverify: 1000000 CNF variables exceed 24, the most any solver takes\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--synthetic", "xor:n=200000"],
    ["sweep", "rates", "--out", "unused", "--instance", "addition:bits=50000"],
    ["sweep", "convergence", "--out", "unused", "--instance", "or:n=3",
     "--instance", "xor:n=200000"],
], ids=["verify", "rates", "convergence"])
def test_catalog_instance_over_24_variables_rejected_before_building(argv, capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    # each spec asks for 200000 value variables
    assert captured.err == (f"qverify: {argv[-1]}: 200000 value variables exceed 24, "
                            "the most any solver takes\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--dimacs", "missing.cnf", "--shots", "0"],
    ["verify", "--dimacs", "missing.cnf", "--solver", "brute", "--shots", "-5"],
    ["verify", "--dimacs", "missing.cnf", "--max-iterations", "0"],
    ["verify", "--dimacs", "missing.cnf", "--solver", "qsvt", "--degree", "0"],
    ["sweep", "convergence", "--out", "unused", "--runs", "0"],
    ["sweep", "rates", "--out", "unused", "--jobs", "-4"],
], ids=["shots", "negative-shots", "max-iterations", "degree", "runs", "jobs"])
def test_numeric_options_below_one_rejected_before_loading(argv, tmp_path,
                                                         monkeypatch, capsys):
    # the input file does not exist: reaching the loader would return 2
    # instead of raising, so SystemExit shows the option failed at parse time
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["verify", "--synthetic", "unique", "--unwind", "0"], "must be >= 1, got 0"),
    (["verify", "--dimacs", "missing.cnf", "--unwind", "-3"], "must be >= 1, got -3"),
    (["sweep", "heatmap", "--out", "unused", "--max-degree", "0"], "must be >= 1, got 0"),
    (["sweep", "heatmap", "--out", "unused", "--max-inverse-gap", "1"], "must be >= 2, got 1"),
    (["verify", "--dimacs", "missing.cnf", "--seed", "-5"], "must be >= 0, got -5"),
    (["sweep", "convergence", "--out", "unused", "--seed", "-1"], "must be >= 0, got -1"),
    (["sweep", "rates", "--out", "unused", "--seed", "-2"], "must be >= 0, got -2"),
], ids=["unwind-synthetic", "unwind-dimacs", "max-degree", "max-inverse-gap",
        "seed-verify", "seed-convergence", "seed-rates"])
def test_empty_range_options_rejected(argv, message, tmp_path, monkeypatch, capsys):
    # --unwind 0 would be accepted and ignored by the synthetic and DIMACS
    # sources; the heatmap bounds would give a header-only CSV
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_smallest_heatmap_grid_is_one_row(tmp_path, capsys):
    assert main(["sweep", "heatmap", "--out", str(tmp_path), "--max-degree", "1",
                 "--max-inverse-gap", "2"]) == 0
    assert len((tmp_path / "heatmap.csv").read_text().splitlines()) == 2
    capsys.readouterr()


def test_parser_is_built_once_per_process():
    from qverify.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_check_list_does_not_leak_between_calls(make_fake_checker, checker_env, tmp_path):
    from qverify.cli import _build_parser

    script, log = make_fake_checker("p cnf 2 1\n1 2 0\n")
    checker_env(script)
    source = str(DATA / "overflow.c")
    assert main(["verify", "--source", source, "--check", "overflow",
                 "--out", str(tmp_path / "a.json")]) == 1
    assert "--signed-overflow-check" in log.read_text().splitlines()
    assert main(["verify", "--source", source, "--out", str(tmp_path / "b.json")]) == 1
    assert "--signed-overflow-check" not in log.read_text().splitlines()
    assert _build_parser().parse_args(["verify", "--source", source]).check == []


def _without_duration(text: str) -> list[str]:
    return [line for line in text.splitlines() if "duration_ms" not in line]


def test_report_does_not_depend_on_earlier_requests(tmp_path):
    import os
    import subprocess
    import sys

    argv = ["verify", "--synthetic", "or:n=3", "--solver", "qsvt", "--seed", "7"]
    first = tmp_path / "first.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "qverify.cli", *argv, "--out", str(first)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert main(["verify", "--synthetic", "unique", "--solver", "grover", "--seed", "3",
                 "--out", str(tmp_path / "other.json")]) == 1
    later = tmp_path / "later.json"
    assert main([*argv, "--out", str(later)]) == 1
    assert _without_duration(later.read_text()) == _without_duration(first.read_text())


def test_brute_never_builds_the_ising_model(monkeypatch, capsys):
    import qverify.pipeline as pipeline

    def refuse(qubo):
        raise AssertionError("brute read the Ising model")

    monkeypatch.setattr(pipeline, "qubo_to_ising", refuse)
    assert main(["verify", "--synthetic", "unique", "--solver", "brute"]) == 1
    assert main(["verify", "--synthetic", "xor:n=3", "--solver", "brute"]) in (0, 1)
    capsys.readouterr()


def test_qsvt_builds_the_ising_model_once_per_request(monkeypatch, capsys):
    import qverify.pipeline as pipeline

    calls = []
    original = pipeline.qubo_to_ising

    def counting(qubo):
        calls.append(qubo)
        return original(qubo)

    monkeypatch.setattr(pipeline, "qubo_to_ising", counting)
    for request in (1, 2):
        assert main(["verify", "--synthetic", "or:n=3", "--solver", "qsvt"]) == 1
        assert len(calls) == request
    capsys.readouterr()


def test_brute_memory_stays_near_the_table(tmp_path, capsys):
    # every one of the 2^18 assignments satisfies the empty formula: the
    # peak is the int64 table and a bool mask, then the mask and the int64
    # result; holding them as Python ints would cost about 36 bytes each more
    import tracemalloc

    from qverify.cli import _build_parser

    path = tmp_path / "free.cnf"
    path.write_text("p cnf 18 0\n")
    _build_parser()
    tracemalloc.start()
    try:
        code = main(["verify", "--dimacs", str(path), "--solver", "brute"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak <= 12 << 18
    capsys.readouterr()
