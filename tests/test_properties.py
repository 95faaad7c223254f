"""Properties of the whole CLI and of the DIMACS parser on generated inputs.

Exit 1 ("flaw reachable") must always come with a witness the formula
accepts, for every solver; the exhaustive `brute` solver must exit 1
exactly on satisfiable formulas.  The parser must reject bad text only with
`CnfError`, and read back whatever it emits.
"""
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import cli
from qverify.cnf import Clause, CnfError, CnfFormula, emit_dimacs, parse_dimacs
from qverify.pipeline import SOLVERS

from reference import enumerate_sat


@st.composite
def formulas(draw, max_vars: int = 5, max_clauses: int = 8, max_width: int = 3):
    """CNFs over at most ``max_vars`` variables, no variable twice in a clause."""
    num_vars = draw(st.integers(1, max_vars))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        width = draw(st.integers(1, min(max_width, num_vars)))
        variables = draw(st.permutations(range(1, num_vars + 1)))[:width]
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append(Clause.of(*(-v if s else v for v, s in zip(variables, signs))))
    return CnfFormula(num_vars, tuple(clauses))


def _verify(formula: CnfFormula, solver: str, seed: int) -> tuple[int, dict]:
    """Exit code and JSON report of `qverify verify` on ``formula``, with
    small shot and iteration counts so every solver answers quickly."""
    with tempfile.TemporaryDirectory() as scratch:
        dimacs, out = Path(scratch) / "f.cnf", Path(scratch) / "report.json"
        dimacs.write_text(emit_dimacs(formula))
        code = cli.main(["verify", "--dimacs", str(dimacs), "--solver", solver,
                         "--seed", str(seed), "--shots", "64", "--layers", "1",
                         "--max-iterations", "3", "--out", str(out)])
        return code, json.loads(out.read_text())


@pytest.mark.parametrize("solver", SOLVERS)
@settings(max_examples=40, deadline=None)
@given(formula=formulas(), seed=st.integers(0, 3))
def test_exit_1_only_with_a_witness_the_formula_accepts(solver, formula, seed):
    code, report = _verify(formula, solver, seed)
    assert code in (0, 1)
    assert (code == 1) == (report["verdict"] == "sat")
    if code == 1:
        # the witness is printed most-significant variable first
        assert formula.evaluate(int(report["witness"], 2))
    if solver == "brute":
        assert (code == 1) == bool(enumerate_sat(formula))


# lines that look like DIMACS often enough to reach past the header checks
_dimacs_like = st.lists(
    st.one_of(
        st.text(alphabet="pcnf%-0123 \t", max_size=12),
        st.builds("p cnf {} {}".format, st.integers(-2, 4), st.integers(-2, 4)),
        st.lists(st.integers(-5, 5), max_size=5).map(lambda row: " ".join(map(str, row))),
    ),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _dimacs_like))
def test_parse_dimacs_raises_only_cnf_error_and_reads_back_what_it_emits(text):
    try:
        formula = parse_dimacs(text)
    except CnfError:
        return
    assert parse_dimacs(emit_dimacs(formula)) == formula
