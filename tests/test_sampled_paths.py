"""QSVT and Grover sample from probabilities built per level and per
(marked, unmarked) pair; these tests keep the complex states they used to
build as the bitwise reference, and the dict-based verdict as the reference
for the array one."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qverify.solvers.qsvt as qsvt
from qverify.cnf import Clause, CnfFormula
from qverify.pipeline import build_problem, solve
from qverify.reduction import GapInfo, IsingModel
from qverify.simulator import (
    Statevector,
    grover_probabilities,
    grover_states,
    oracle_signs,
    sample,
    sample_counts,
    sample_probabilities,
)
from qverify.solvers import (
    FilterPolynomial,
    NoSolutionFound,
    choose_degree,
    eval_filter,
    grover_schedule,
    solve_qsvt,
)
from qverify.solvers.qsvt import _levels, _scale_and_delta, joint_probabilities
from qverify.solvers.report import (
    first_verified,
    hamiltonian_from_ising,
    project_candidates,
    verified_sample,
)
from qverify.synthetic import generate_synthetic

from conftest import random_formula

CATALOG = ["unique", "semi-unique", "two-solutions", "two-solutions-overlap",
           "three-solutions", "addition", "flow", "indicator", "or:n=3", "xor:n=3"]


def _catalog_problem(spec):
    name, _, params = spec.partition(":")
    return build_problem(generate_synthetic(name, dict(
        (k, int(v)) for k, v in (p.split("=") for p in params.split(",") if p))))


def _reduced_problems(count=40, max_qubo_vars=12):
    rng = np.random.default_rng(2024)
    problems = []
    while len(problems) < count:
        problem = build_problem(random_formula(rng, max_vars=10, max_clauses=12, max_width=4))
        if problem.qubo.num_vars <= max_qubo_vars:
            problems.append(problem)
    return problems


def _joint_state_reference(ising: IsingModel, poly: FilterPolynomial, scale: int):
    """The 2^(n+1) complex joint state QSVT used to build and sample: its
    probabilities and the post-selection rate."""
    ham = hamiltonian_from_ising(ising)
    filtered = ham.per_level(lambda values: eval_filter(poly, values / scale))
    dim = 1 << ising.n
    amps = np.empty(2 * dim, dtype=np.complex128)
    amps[:dim] = filtered / np.sqrt(dim)
    amps[dim:] = np.sqrt(np.maximum(0.0, 1.0 - filtered**2)) / np.sqrt(dim)
    joint = Statevector(ising.n + 1, amps)
    return joint.probabilities(), float(np.sum(np.abs(amps[:dim]) ** 2))


def _assert_qsvt_distribution_is_the_joint_state(problem):
    scale, delta = _scale_and_delta(problem.gap)
    poly = FilterPolynomial(choose_degree(delta, problem.ising.n), delta)
    want, want_rate = _joint_state_reference(problem.ising, poly, scale)
    for values in (problem.table, problem.ising.energy_table()):
        levels, index = _levels(values)
        assert np.array_equal(levels[index], values)
        assert np.array_equal(joint_probabilities(levels, index, scale, poly), want)
    report = solve_qsvt(problem.ising, problem.formula, problem.gap,
                        table=problem.table, seed=3)
    assert report.rate == want_rate


def test_qsvt_distribution_is_bitwise_the_joint_state_on_reduced_formulas():
    for problem in _reduced_problems():
        _assert_qsvt_distribution_is_the_joint_state(problem)


@pytest.mark.parametrize("spec", CATALOG)
def test_qsvt_distribution_is_bitwise_the_joint_state_on_the_catalog(spec):
    _assert_qsvt_distribution_is_the_joint_state(_catalog_problem(spec))


def test_qsvt_levels_fall_back_to_the_values_for_other_tables():
    poly = FilterPolynomial(3, 0.25)
    for values in ([0.0, 0.5, 1.0, 2.0], [0.0, 9.0, 1.0, 2.0], [0.0, -1.0, 1.0, 2.0]):
        values = np.array(values)
        levels, index = _levels(values)
        assert np.array_equal(levels, values) and index.tolist() == [0, 1, 2, 3]
        ham_probs = joint_probabilities(levels, index, 10, poly)
        amps = eval_filter(poly, values / 10) / 2.0
        assert np.array_equal(ham_probs[:4], np.abs(amps.astype(np.complex128)) ** 2)


def test_problem_table_is_the_energy_table_and_read_only():
    for problem in _reduced_problems(count=10):
        assert problem.table.dtype == np.int64 and not problem.table.flags.writeable
        assert np.array_equal(problem.table.astype(np.float64),
                              problem.ising.energy_table())
        assert problem.table.tobytes() == problem.qubo.objective_table().tobytes()


def test_problem_has_no_table_out_of_budget_or_above_one_block():
    formula = CnfFormula(17, tuple(Clause.of(v, v + 1) for v in range(1, 17)))
    assert build_problem(formula).table is None
    assert build_problem(formula, oracle_budget=16).spectrum is None
    small = CnfFormula(6, (Clause.of(1, 2),))
    assert build_problem(small, oracle_budget=4).table is None


@pytest.mark.parametrize("solver", ["qaoa", "vqe", "qsvt"])
def test_solvers_read_the_problem_table_not_the_energy_table(solver, monkeypatch):
    problem = _catalog_problem("unique")
    want = solve(problem, solver, layers=1, shots=64, seed=4)

    def refuse(self):
        raise AssertionError("the energy table was built again")

    monkeypatch.setattr(IsingModel, "energy_table", refuse)
    assert solve(problem, solver, layers=1, shots=64, seed=4) == want


@pytest.mark.parametrize("solver", ["qaoa", "vqe", "qsvt"])
def test_solvers_give_the_same_report_from_either_diagonal(solver):
    problem = _catalog_problem("three-solutions")
    with_table = solve(problem, solver, layers=1, shots=128, seed=8)
    problem.table = None
    assert solve(problem, solver, layers=1, shots=128, seed=8) == with_table


def test_qsvt_range_check_still_rejects_a_diagonal_above_the_scale():
    problem = _catalog_problem("unique")
    small = GapInfo(bound_M=1, estimated_gap=Fraction(1, 1))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        solve_qsvt(problem.ising, problem.formula, small, table=problem.table)
    wide = problem.table * 1000  # levels above 2^n: the values are the levels
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        solve_qsvt(problem.ising, problem.formula, problem.gap, table=wide)
    negative = problem.table - 1
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        solve_qsvt(problem.ising, problem.formula, problem.gap, table=negative)


def test_qsvt_norm_check_still_rejects_a_filter_above_one(monkeypatch):
    problem = _catalog_problem("unique")
    monkeypatch.setattr(qsvt, "eval_filter", lambda poly, x: np.full_like(x, 2.0))
    with pytest.raises(ValueError, match="norm"):
        solve_qsvt(problem.ising, problem.formula, problem.gap, table=problem.table)


def _assert_grover_points_are_the_states_squared(formula, extra):
    signs = oracle_signs(formula, extra_control=extra)
    iterations = [t for _, t in grover_schedule(formula.num_variables + extra)]
    points = list(grover_probabilities(signs, iterations))
    assert len(points) == len(iterations)
    for probs, state in zip(points, grover_states(signs, iterations)):
        assert np.array_equal(probs, np.abs(state.amplitudes) ** 2)


@pytest.mark.parametrize("extra", [False, True], ids=["plain", "doubled"])
def test_grover_probabilities_are_bitwise_the_states_squared(extra):
    rng = np.random.default_rng(99)
    for _ in range(25):
        _assert_grover_points_are_the_states_squared(random_formula(rng, max_vars=9), extra)
    for formula in (CnfFormula(4, ()),
                    CnfFormula(2, (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2),
                                   Clause.of(-1, -2)))):
        _assert_grover_points_are_the_states_squared(formula, extra)


def test_sample_probabilities_rejects_an_unnormalised_state():
    with pytest.raises(ValueError, match="norm"):
        sample_probabilities(np.array([0.5, 0.6]), 10, 0)
    with pytest.raises(ValueError, match="shots"):
        sample_probabilities(np.array([0.5, 0.5]), 0, 0)


def test_sample_counts_is_the_dict_sample():
    state = Statevector(3, np.full(8, 8 ** -0.5, dtype=np.complex128))
    outcomes, counts = sample_counts(state, 500, 11)
    assert outcomes.dtype == np.int64 and np.all(np.diff(outcomes) > 0)
    assert dict(zip(outcomes.tolist(), counts.tolist())) == sample(state, 500, 11)


@st.composite
def formulas(draw, max_variables=6, max_clauses=6):
    n = draw(st.integers(1, max_variables))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(3, n),
                                  unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables),
                              max_size=len(variables)))
        clauses.append(Clause.of(*(-v if s else v for v, s in zip(variables, signs))))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=300, deadline=None)
@given(formulas(), st.integers(0, 3), st.data())
def test_array_verdict_is_the_dict_verdict(formula, aux_bits, data):
    top = (1 << (formula.num_variables + aux_bits)) - 1
    outcomes = sorted(data.draw(st.sets(st.integers(0, top), max_size=24)))
    counts = data.draw(st.lists(st.integers(1, 3), min_size=len(outcomes),
                                max_size=len(outcomes)))
    want = first_verified(formula, (a for a, _ in project_candidates(
        dict(zip(outcomes, counts)), formula.num_variables)))
    got = verified_sample(formula, np.array(outcomes, dtype=np.int64),
                          np.array(counts, dtype=np.int64))
    assert got == want


def test_qsvt_on_16_unsat_variables_peaks_under_3_mb():
    # variables 1 and 2 carry a four-clause core; a chain reaches the rest
    core = (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2), Clause.of(-1, -2))
    chain = tuple(Clause.of(v, -(v + 1)) for v in range(2, 16))
    problem = build_problem(CnfFormula(16, core + chain))
    assert problem.qubo.num_vars == 16 and problem.table is not None
    solve(problem, "qsvt", seed=1)  # the first call's lazy imports are not the solver's
    choose_degree.cache_clear()
    tracemalloc.start()
    try:
        report = solve(problem, "qsvt", seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(report.verdict, NoSolutionFound)
    assert peak < 3 << 20


def test_building_a_16_variable_problem_counts_its_table_without_a_copy():
    # np.bincount copies a read-only input, so the table is frozen only after
    # the spectrum has counted it: the peak is the table and its zero mask
    core = (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2), Clause.of(-1, -2))
    chain = tuple(Clause.of(v, -(v + 1)) for v in range(2, 16))
    formula = CnfFormula(16, core + chain)
    build_problem(formula)
    tracemalloc.start()
    try:
        problem = build_problem(formula)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.qubo.num_vars == 16 and not problem.table.flags.writeable
    assert peak < problem.table.nbytes * 3 // 2
