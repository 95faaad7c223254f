import numpy as np
import pytest

from qverify.cnf import parse_dimacs
from qverify.optimizers import KINDS, OptimizerSpec
from qverify.reduction import cnf_to_qubo, qubo_to_ising
from qverify.simulator import DiagonalHamiltonian, apply_diagonal_phase, apply_rx_all, uniform_superposition
from qverify.solvers import (
    NoSolutionFound,
    Sat,
    first_verified,
    qaoa_energy_gradient,
    qaoa_state,
    solve_qaoa,
    solve_vqe,
    vqe_energy_gradient,
    vqe_state,
)
from qverify.synthetic import generate_synthetic

from reference import project_candidates


def _hamiltonian(dimacs: str) -> tuple:
    formula = parse_dimacs(dimacs)
    qubo = cnf_to_qubo(formula)
    ising = qubo_to_ising(qubo)
    return formula, qubo, DiagonalHamiltonian(ising.n, ising.energy_table())


def _energy(h: DiagonalHamiltonian, state) -> float:
    return float(np.real(np.vdot(state.amplitudes, h.values * state.amplitudes)))


def test_qaoa_state_matches_manual_layers():
    _, _, h = _hamiltonian("p cnf 2 2\n1 2 0\n-1 0\n")
    gammas, betas = [0.3, 0.8], [0.4, 0.1]
    state = qaoa_state(h, gammas, betas)
    manual = uniform_superposition(h.num_qubits)
    for g, b in zip(gammas, betas):
        manual = apply_rx_all(apply_diagonal_phase(manual, h, g), b)
    assert np.allclose(state.amplitudes, manual.amplitudes, atol=1e-14)


def test_qaoa_zero_angles_is_uniform():
    _, _, h = _hamiltonian("p cnf 2 1\n1 2 0\n")
    state = qaoa_state(h, [0.0], [0.0])
    assert np.allclose(state.amplitudes, uniform_superposition(2).amplitudes)


def _central_difference(fn, params, eps=1e-5):
    grad = np.empty(len(params))
    for i in range(len(params)):
        hi = np.array(params, dtype=float)
        lo = hi.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (fn(hi) - fn(lo)) / (2 * eps)
    return grad


def test_qaoa_gradient_matches_finite_differences():
    _, _, h = _hamiltonian("p cnf 3 3\n1 2 0\n-2 3 0\n-1 -3 0\n")
    rng = np.random.default_rng(5)
    layers = 2
    for _ in range(10):
        params = rng.uniform(-np.pi, np.pi, 2 * layers)

        def energy_of(p):
            return _energy(h, qaoa_state(h, p[:layers], p[layers:]))

        grad_g, grad_b = qaoa_energy_gradient(h, params[:layers], params[layers:])
        fd = _central_difference(energy_of, params)
        assert np.allclose(np.concatenate([grad_g, grad_b]), fd, atol=1e-4)


def test_vqe_gradient_matches_finite_differences():
    _, _, h = _hamiltonian("p cnf 3 2\n1 -2 0\n2 3 0\n")
    rng = np.random.default_rng(6)
    layers = 2
    n = h.num_qubits
    for _ in range(10):
        params = rng.uniform(-np.pi, np.pi, n * (layers + 1))

        def energy_of(p):
            return _energy(h, vqe_state(n, layers, p))

        grad = vqe_energy_gradient(h, layers, params)
        fd = _central_difference(energy_of, params)
        assert np.allclose(grad, fd, atol=1e-4)


def test_vqe_state_rejects_bad_parameter_count():
    with pytest.raises(ValueError, match="parameters"):
        vqe_state(3, 2, np.zeros(4))


@pytest.mark.parametrize("kind", KINDS)
def test_qaoa_solves_single_clause(kind):
    formula, qubo, _ = _hamiltonian("p cnf 2 1\n1 2 0\n")
    report = solve_qaoa(
        formula=formula, qubo=qubo,
        optimizer=OptimizerSpec(kind=kind, max_iterations=60), seed=11,
    )
    assert isinstance(report.verdict, Sat)
    assert formula.evaluate(report.verdict.witness)
    assert report.solver == "qaoa"
    assert report.shots_used > 0


def test_vqe_solves_single_clause():
    formula, qubo, _ = _hamiltonian("p cnf 2 1\n1 -2 0\n")
    report = solve_vqe(
        formula=formula, qubo=qubo,
        optimizer=OptimizerSpec(max_iterations=80), seed=3,
    )
    assert isinstance(report.verdict, Sat)
    assert formula.evaluate(report.verdict.witness)


def test_contradiction_reports_no_solution():
    formula, qubo, _ = _hamiltonian("p cnf 1 2\n1 0\n-1 0\n")
    report = solve_qaoa(
        formula=formula, qubo=qubo,
        optimizer=OptimizerSpec(max_iterations=40), seed=0,
    )
    assert isinstance(report.verdict, NoSolutionFound)
    assert report.best_value >= 1 - 1e-9


def test_addition_instance_at_three_layers():
    formula = generate_synthetic("addition", {"bits": 1})
    qubo = cnf_to_qubo(formula)
    report = solve_qaoa(
        formula=formula, qubo=qubo, layers=3,
        optimizer=OptimizerSpec(max_iterations=200), seed=42,
    )
    assert isinstance(report.verdict, Sat)


def test_project_candidates_merges_auxiliary_tails():
    # two outcomes that differ only above bit 1 collapse onto one candidate
    counts = {0b0001: 5, 0b0101: 7, 0b0010: 4}
    merged = project_candidates(counts, num_cnf_vars=2)
    assert merged == [(0b01, 12), (0b10, 4)]


def test_first_verified_skips_falsifying_candidates():
    formula = parse_dimacs("p cnf 2 1\n1 0\n")
    verdict = first_verified(formula, [0b10, 0b01])
    assert isinstance(verdict, Sat) and verdict.witness == 0b01
    assert first_verified(formula, [0b10]) is None
