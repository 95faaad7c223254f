"""Variational solvers over the reduced diagonal Hamiltonian.

The optimization loop scores parameters with the exact expectation value (the
statevector is available, so shot noise would only slow convergence); shots
enter at the end, when the optimized state is measured and every sampled
assignment is projected to the original variables and re-checked against the
formula itself.  A Sat verdict therefore never depends on the energy
arithmetic being right.
"""
from __future__ import annotations

import numpy as np

from ..cnf import CnfFormula
from ..optimizers import OptimizerSpec, minimize
from ..reduction import IsingModel
from ..simulator import (
    DiagonalHamiltonian,
    Statevector,
    apply_ansatz,
    qaoa_state,
    sample_counts,
    spawn_seeds,
    uniform_superposition,
)
# perfbench/spans.py wraps these names here; they stay bound though unused
from ..simulator import apply_diagonal_phase, apply_rx_all, sample  # noqa: F401
from .report import (
    NoSolutionFound,
    SolverReport,
    expectation,
    hamiltonian_from_ising,
    verified_sample,
)
from .report import first_verified  # noqa: F401

VQA_MAX_QUBITS = 20
# amplitudes per circuit batch (1 MB): memory stays a few such arrays
# however many probes an optimizer names at once
BATCH_AMPLITUDES = 1 << 16


def _ground_state(n: int) -> Statevector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector._adopt(n, amps)


def vqe_state(n: int, layers: int, params):
    """The ansatz from |0...0>; a (B, P) ``params`` gives a batch, as
    `apply_ansatz` does."""
    return apply_ansatz(_ground_state(n), layers, params)


def qaoa_energy_gradient(hamiltonian: DiagonalHamiltonian, gammas, betas):
    """Exact d<H>/dgamma_l and d<H>/dbeta_l via generator insertion.

    exp(-i g H) differentiates to -iH times the layer and exp(-i b X_all) to
    -i sum_q X_q times it; each derivative state chi gives 2 Im <psi|H|chi>.
    H commutes with its phase layer and sum_q X_q with its mixer, so chi is
    the forward circuit resumed from the generator applied to the state
    before layer l (gamma) or after it (beta), with the norm carried aside.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    n = hamiltonian.num_qubits
    values = hamiltonian.values
    idx = np.arange(1 << n)

    def resume(amps: np.ndarray, start: int) -> np.ndarray:
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            return amps
        unit = Statevector(n, amps / norm)
        return norm * qaoa_state(hamiltonian, gammas[start:], betas[start:], unit).amplitudes

    prefix = [uniform_superposition(n)]
    for gamma, beta in zip(gammas, betas):
        prefix.append(qaoa_state(hamiltonian, [gamma], [beta], prefix[-1]))
    h_psi = values * prefix[-1].amplitudes
    grad_g, grad_b = np.empty(len(gammas)), np.empty(len(gammas))
    for layer in range(len(gammas)):
        before, after = prefix[layer].amplitudes, prefix[layer + 1].amplitudes
        chi_g = resume(values * before, layer)
        chi_b = resume(sum(after[idx ^ (1 << q)] for q in range(n)), layer + 1)
        grad_g[layer] = 2.0 * np.imag(np.vdot(h_psi, chi_g))
        grad_b[layer] = 2.0 * np.imag(np.vdot(h_psi, chi_b))
    return grad_g, grad_b


def vqe_energy_gradient(hamiltonian: DiagonalHamiltonian, layers: int, params):
    """Exact ansatz-energy gradient; RY(theta) has generator Y/2, so each
    component is Im <psi|H|chi_p> with chi_p the Y-inserted run."""
    params = np.asarray(params, dtype=np.float64)
    n = hamiltonian.num_qubits
    ground = _ground_state(n)
    h_psi = hamiltonian.values * apply_ansatz(ground, layers, params).amplitudes
    grad = np.empty(params.size)
    for pos in range(params.size):
        chi = apply_ansatz(ground, layers, params, insert_y_at=pos).amplitudes
        grad[pos] = np.imag(np.vdot(h_psi, chi))
    return grad


def _solve(solver: str, ising: IsingModel, formula: CnfFormula, circuit,
           x0_range: tuple[float, float], num_params: int, layers: int,
           optimizer: OptimizerSpec | None, shots: int, seed: int,
           table: np.ndarray | None) -> SolverReport:
    """Minimize the energy of circuit(ham, params), then sample the optimized
    state and CNF-check the candidates.  ``circuit`` takes one parameter
    vector or a (B, P) batch of them, as `qaoa_state` and `vqe_state` do.
    The Hamiltonian's diagonal is ``table`` (the Problem's objective table),
    by default built from ``ising``."""
    if ising.n > VQA_MAX_QUBITS:
        raise ValueError(f"{ising.n} qubits exceeds the dense-simulation cap {VQA_MAX_QUBITS}")
    optimizer = optimizer or OptimizerSpec()
    ham = hamiltonian_from_ising(ising) if table is None else DiagonalHamiltonian(ising.n, table)
    init_seed, opt_seed, sample_seed = spawn_seeds(seed, 3)

    rows = max(1, BATCH_AMPLITUDES >> ising.n)

    def energies(points: np.ndarray) -> list[float]:
        # circuit batches of at most `rows` points; each row's energy is the
        # single-state dot product, whatever batch the row ran in
        out = []
        for start in range(0, len(points), rows):
            probabilities = np.abs(circuit(ham, points[start:start + rows])) ** 2
            out += [expectation(row, ham.values) for row in probabilities]
        return out

    x0 = np.random.default_rng(init_seed).uniform(*x0_range, size=num_params)
    result = minimize(None, x0, optimizer, seed=opt_seed, fn_batch=energies)
    outcomes, counts = sample_counts(circuit(ham, result.best_params), shots, sample_seed)
    verdict = verified_sample(formula, outcomes, counts)
    if verdict is None:
        verdict = NoSolutionFound(f"no satisfying sample among {shots} shots")
    config = {"layers": layers, "optimizer": optimizer.kind,
              "max_iterations": optimizer.max_iterations, "shots": shots}
    return SolverReport(solver=solver, verdict=verdict, best_value=result.best_value,
                        convergence_trace=result.trace, shots_used=shots,
                        config=config, seed=seed)


def solve_qaoa(ising: IsingModel, formula: CnfFormula, *, layers: int = 3,
               optimizer: OptimizerSpec | None = None, shots: int = 2048,
               seed: int = 0, table: np.ndarray | None = None) -> SolverReport:
    def circuit(ham: DiagonalHamiltonian, params: np.ndarray):
        return qaoa_state(ham, params[..., :layers], params[..., layers:])

    return _solve("qaoa", ising, formula, circuit, (0.0, np.pi / 4), 2 * layers,
                  layers, optimizer, shots, seed, table)


def solve_vqe(ising: IsingModel, formula: CnfFormula, *, layers: int = 2,
              optimizer: OptimizerSpec | None = None, shots: int = 2048,
              seed: int = 0, table: np.ndarray | None = None) -> SolverReport:
    def circuit(ham: DiagonalHamiltonian, params: np.ndarray):
        return vqe_state(ising.n, layers, params)

    return _solve("vqe", ising, formula, circuit, (-np.pi, np.pi), ising.n * (layers + 1),
                  layers, optimizer, shots, seed, table)
