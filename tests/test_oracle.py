import numpy as np
import pytest

from qverify.cnf import CnfFormula, parse_dimacs
from qverify.oracle import BudgetExceededError, qubo_spectrum
from qverify.reduction import cnf_to_qubo

from conftest import random_formula
from reference import enumerate_sat


def test_enumerate_matches_pointwise_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = random_formula(rng, max_vars=8, max_clauses=10)
        want = [a for a in range(1 << f.num_variables) if f.evaluate(a)]
        assert enumerate_sat(f) == want


def test_enumerate_budget():
    f = CnfFormula(25, ())
    with pytest.raises(BudgetExceededError):
        enumerate_sat(f)
    with pytest.raises(BudgetExceededError):
        qubo_spectrum(cnf_to_qubo(f))


def test_spectrum_projects_to_original_variables():
    f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 0\n")
    q = cnf_to_qubo(f)
    summary = qubo_spectrum(q)
    assert summary.min_value == 0
    assert summary.satisfying_set == tuple(enumerate_sat(f))
    # every projected assignment fits in the original variables
    assert all(a < (1 << f.num_variables) for a in summary.satisfying_set)


def test_spectrum_histogram_accounts_for_every_assignment():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = random_formula(rng, max_vars=5, max_clauses=6, max_width=4)
        q = cnf_to_qubo(f)
        if q.num_vars > 16:
            continue
        summary = qubo_spectrum(q)
        assert sum(summary.value_histogram.values()) == 1 << q.num_vars
        assert summary.min_count == summary.value_histogram[summary.min_value]
        assert summary.max_value == max(summary.value_histogram)


def test_unsat_formula_has_positive_floor():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    summary = qubo_spectrum(cnf_to_qubo(f))
    assert summary.min_value >= 1
    assert summary.satisfying_set == ()


def test_satisfying_set_is_sorted_and_unique():
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = random_formula(rng, max_vars=6, max_clauses=5)
        summary = qubo_spectrum(cnf_to_qubo(f))
        s = summary.satisfying_set
        assert list(s) == sorted(set(s))
        assert s == tuple(enumerate_sat(f))
