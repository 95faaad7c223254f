import pytest

from qverify.checker import (
    CheckerConfig,
    CheckerError,
    CheckerUnavailableError,
    _extract_dimacs,
    checker_flag_table,
    resolve_checker,
    run_model_checker,
)

SAT_DIMACS = "p cnf 3 2\n1 -2 0\n3 0"


def _config(tmp_path, **kwargs):
    source = tmp_path / "prog.c"
    source.write_text("int main(void) { return 0; }\n")
    return CheckerConfig(source=source, **kwargs)


def test_flag_table_covers_documented_checks():
    table = checker_flag_table()
    assert set(table) == {
        "bounds", "overflow", "div-by-zero", "pointer",
        "conversion", "nan", "memory-leak",
    }
    assert all(flag.startswith("--") for flags in table.values() for flag in flags)


def test_config_rejects_unknown_check(tmp_path):
    with pytest.raises(ValueError, match="unknown checks"):
        _config(tmp_path, checks=("use-after-free",))
    with pytest.raises(ValueError, match="unwind"):
        _config(tmp_path, unwind=0)


def test_argv_layout(tmp_path):
    config = _config(tmp_path, checks=("div-by-zero", "bounds"), unwind=7)
    argv = config.argv("cbmc")
    assert argv[0] == "cbmc"
    assert argv[1].endswith("prog.c")
    assert argv[2] == "--dimacs"
    assert argv[3:5] == ["--div-by-zero-check", "--bounds-check"]
    assert argv[-2:] == ["--unwind", "7"]


def test_run_parses_fenced_output(tmp_path, make_fake_checker, checker_env):
    script, log = make_fake_checker(SAT_DIMACS)
    checker_env(script)
    formula = run_model_checker(_config(tmp_path, checks=("overflow",), unwind=3))
    assert formula.num_variables == 3
    assert len(formula.clauses) == 2
    assert formula.provenance == "model-checker"
    argv = log.read_text().splitlines()
    assert argv[0].endswith("prog.c")
    assert argv[1] == "--dimacs"
    assert "--signed-overflow-check" in argv
    assert argv[-2:] == ["--unwind", "3"]


def test_env_override_beats_default(make_fake_checker, checker_env):
    script, _ = make_fake_checker(SAT_DIMACS)
    checker_env(script)
    assert resolve_checker() == str(script)


def test_unavailable(tmp_path, checker_env):
    checker_env(tmp_path / "definitely-not-here")
    with pytest.raises(CheckerUnavailableError):
        run_model_checker(_config(tmp_path))


def test_missing_source(tmp_path, make_fake_checker, checker_env):
    script, _ = make_fake_checker(SAT_DIMACS)
    checker_env(script)
    config = CheckerConfig(source=tmp_path / "absent.c")
    with pytest.raises(CheckerError, match="does not exist"):
        run_model_checker(config)


def test_garbage_output(tmp_path, make_fake_checker, checker_env):
    script, _ = make_fake_checker("no dimacs here at all", exit_code=6)
    checker_env(script)
    with pytest.raises(CheckerError, match="exited 6"):
        run_model_checker(_config(tmp_path))


def test_extract_dimacs_filters_chatter():
    noisy = "\n".join([
        "CBMC version 6.0",
        "Parsing prog.c",
        "p cnf 2 2",
        "1 2 0",
        "Converting",
        "-1 -2 0",
        "Runtime: 0.1s",
    ])
    assert _extract_dimacs(noisy) == "p cnf 2 2\n1 2 0\n-1 -2 0\n"
    with pytest.raises(CheckerError, match="no DIMACS header"):
        _extract_dimacs("nothing useful")
