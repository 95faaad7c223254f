import numpy as np
import pytest

from qverify.cnf import parse_dimacs
from qverify.pipeline import build_problem
from qverify.simulator import DiagonalHamiltonian
from qverify.solvers import (
    BlockEncoding,
    FilterPolynomial,
    NoSolutionFound,
    Sat,
    build_block_encoding,
    eval_filter,
    solve_qsvt,
)
from qverify.synthetic import generate_synthetic


def _problem(name, params=None):
    return build_problem(generate_synthetic(name, params or {}))


def test_block_encoding_requires_unit_range():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        BlockEncoding(np.array([0.0, 1.5]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        BlockEncoding(np.array([-0.1, 0.5]))


def test_block_encoding_unitary_contains_diagonal():
    diag = np.array([0.0, 0.25, 0.5, 1.0])
    enc = BlockEncoding(diag)
    u = enc.unitary()
    assert u.shape == (8, 8)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    assert np.allclose(np.diag(u)[:4], diag)
    assert np.allclose(u[4:, 4:], -np.diag(diag))


def test_block_encoding_pads_to_power_of_two():
    enc = BlockEncoding(np.array([0.5, 0.5, 0.5]))
    assert enc.dim == 3
    assert enc.padded_dim == 8  # 2 * dim rounded up
    u = enc.unitary()
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_build_block_encoding_scales_by_bound():
    problem = _problem("or", {"n": 3})
    h = DiagonalHamiltonian(problem.ising.n, problem.ising.energy_table())
    enc = build_block_encoding(h, problem.gap)
    assert np.isclose(enc.diagonal.max(), float(h.values.max()) / problem.gap.bound_M)


def test_satisfiable_instance_verdict_and_rate():
    problem = _problem("unique")
    report = solve_qsvt(problem.qubo, problem.formula, problem.gap, seed=0)
    assert report.verdict == Sat(witness=42)
    assert report.config["degree"] % 2 == 0
    # one solution in 2^6: post-selection keeps ~1/64 of the mass, filtered
    assert 0.0 < report.rate < 1.0
    assert abs(report.rate_sampled - report.rate) < 0.05


def test_rate_matches_filter_values_exactly():
    problem = _problem("unique")
    report = solve_qsvt(problem.qubo, problem.formula, problem.gap, seed=0)
    scale = problem.gap.max_value
    delta = float(problem.gap.exact_gap)
    half = report.config["degree"] // 2
    f = FilterPolynomial(half, delta)
    values = problem.qubo.objective_table() / scale
    expected = float(np.mean(eval_filter(f, values) ** 2))
    assert abs(report.rate - expected) < 1e-12


def test_contradiction_never_returns_sat():
    formula = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    problem = build_problem(formula)
    report = solve_qsvt(problem.qubo, problem.formula, problem.gap, seed=5)
    assert isinstance(report.verdict, NoSolutionFound)
    # every eigenvalue sits in the suppression band, so survival is tiny
    delta = report.config["delta"]  # exact gap, clamped below 1
    half = report.config["degree"] // 2
    ceiling = eval_filter(FilterPolynomial(half, delta), delta) ** 2
    assert report.rate <= ceiling + 1e-15


def test_degree_override_is_respected():
    problem = _problem("or", {"n": 3})
    report = solve_qsvt(problem.qubo, problem.formula, problem.gap, degree=4, seed=1)
    assert report.config["degree"] == 8


def test_sampled_rate_tracks_exact_rate():
    problem = _problem("two-solutions-overlap")
    report = solve_qsvt(problem.qubo, problem.formula, problem.gap,
                        shots=20000, seed=7)
    sigma = np.sqrt(report.rate * (1 - report.rate) / 20000)
    assert abs(report.rate_sampled - report.rate) <= 4 * sigma + 1e-12


def test_verified_witnesses_only():
    for name, params in [("xor", {"n": 3}), ("two-solutions-overlap", {}),
                         ("three-solutions", {})]:
        problem = _problem(name, params)
        report = solve_qsvt(problem.qubo, problem.formula, problem.gap, seed=9)
        if isinstance(report.verdict, Sat):
            assert problem.formula.evaluate(report.verdict.witness)
