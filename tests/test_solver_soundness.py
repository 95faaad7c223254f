"""No solver may ever report Sat with a witness the formula rejects.

Sampling-based routines are free to miss solutions (that is what the brute
oracle is for), but a false Sat would poison every downstream verdict.
"""

import numpy as np
import pytest

from qverify.optimizers import OptimizerSpec
from qverify.pipeline import SOLVERS, build_problem, solve
from qverify.solvers import Sat

from conftest import random_formula
from reference import enumerate_sat


def _small_formula(rng):
    # keep registers small enough for the heaviest solver in the list
    return random_formula(rng, max_vars=4, max_clauses=5, max_width=3)


@pytest.mark.parametrize("solver", SOLVERS)
def test_sat_verdicts_always_carry_valid_witnesses(solver):
    rng = np.random.default_rng(101)
    iterations = {"brute": 40, "grover": 25}.get(solver, 8)
    for trial in range(iterations):
        formula = _small_formula(rng)
        problem = build_problem(formula)
        report = solve(problem, solver, seed=trial, shots=256,
                       optimizer=OptimizerSpec(max_iterations=30))
        if isinstance(report.verdict, Sat):
            assert formula.evaluate(report.verdict.witness), (solver, trial)


def test_brute_verdict_matches_enumeration():
    rng = np.random.default_rng(55)
    for trial in range(40):
        formula = _small_formula(rng)
        problem = build_problem(formula)
        report = solve(problem, "brute", seed=trial)
        solutions = enumerate_sat(formula)
        if solutions:
            assert isinstance(report.verdict, Sat)
            assert report.verdict.witness == solutions[0]
            assert report.best_value == 0
        else:
            assert not isinstance(report.verdict, Sat)
            assert report.best_value >= 1


def test_exhaustive_solvers_never_miss():
    # brute and qsvt both see the whole space; on satisfiable inputs they
    # must say Sat (qsvt's post-selected state keeps every solution at full
    # relative weight, and solutions dominate after filtering)
    rng = np.random.default_rng(77)
    found = 0
    for trial in range(12):
        formula = _small_formula(rng)
        if not enumerate_sat(formula):
            continue
        found += 1
        problem = build_problem(formula)
        assert isinstance(solve(problem, "brute", seed=trial).verdict, Sat)
        assert isinstance(
            solve(problem, "qsvt", seed=trial, shots=2048).verdict, Sat
        )
    assert found >= 5  # the generator overwhelmingly produces satisfiable inputs
