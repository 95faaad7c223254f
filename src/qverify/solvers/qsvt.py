"""Eigenvalue filtering on a block-encoded diagonal Hamiltonian.

The scaled operator A = H / scale is diagonal with entries in [0, 1], so its
block encoding decomposes into an independent 2x2 rotation per basis state
and the degree-2d filter acts in closed form: one ancilla qubit, amplitude
F(a_x) on ancilla 0 and sqrt(1 - F(a_x)^2) on ancilla 1.  Post-selecting
ancilla 0 concentrates the register on the zero eigenspace — the satisfying
assignments — at the success rate the report carries both exactly and as the
sampled fraction.
"""
from __future__ import annotations

import numpy as np

from ..cnf import CnfFormula
from ..reduction import GapInfo, IsingModel
from ..simulator import DiagonalHamiltonian, Statevector, sample, spawn_seeds
# perfbench/spans.py wraps this name here; it stays bound though unused
from ..simulator import post_select  # noqa: F401
from .filters import FilterPolynomial, choose_degree, eval_filter
from .report import (
    NoSolutionFound,
    SolverReport,
    first_verified,
    hamiltonian_from_ising,
    project_candidates,
)

QSVT_MAX_QUBITS = 16
_MAX_DELTA = 63.0 / 64.0  # keeps delta < 1 when the whole spectrum is one gap
_DENSE_CAP = 1 << 10


def _next_power_of_two(value: int) -> int:
    return 1 << max(1, (value - 1).bit_length())


class BlockEncoding:
    """Unitary containing A as its top-left block.

    For diagonal A the standard completion [[A, B], [B, -A]] with
    B = sqrt(I - A^2) works entrywise; dimensions that are not a power of two
    are padded with an identity block.
    """

    def __init__(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.float64)
        if diagonal.ndim != 1 or diagonal.size == 0:
            raise ValueError("need a non-empty diagonal")
        if diagonal.min() < 0.0 or diagonal.max() > 1.0:
            raise ValueError("block encoding needs entries in [0, 1]; rescale first")
        self.diagonal = diagonal
        self.dim = diagonal.size
        self.padded_dim = _next_power_of_two(2 * self.dim)

    def unitary(self) -> np.ndarray:
        """Dense matrix, for inspection of small encodings only."""
        if self.padded_dim > _DENSE_CAP:
            raise ValueError(f"dense form capped at dimension {_DENSE_CAP}")
        u = np.eye(self.padded_dim)
        m = self.dim
        off = np.sqrt(1.0 - self.diagonal**2)
        u[:m, :m] = np.diag(self.diagonal)
        u[:m, m:2 * m] = np.diag(off)
        u[m:2 * m, :m] = np.diag(off)
        u[m:2 * m, m:2 * m] = np.diag(-self.diagonal)
        return u


def build_block_encoding(hamiltonian: DiagonalHamiltonian, gap: GapInfo,
                         scale: int | None = None) -> BlockEncoding:
    """Encode A = H / scale; the default scale is the gap's bound_M, which
    dominates every objective value by construction."""
    scale = gap.bound_M if scale is None else scale
    return BlockEncoding(hamiltonian.values / scale)


def _scale_and_delta(gap: GapInfo) -> tuple[int, float]:
    # exact gap pairs with the true max value, the 1/M estimate with bound_M;
    # mixing them would leave eigenvalues inside the filter's dead zone
    if gap.exact_gap is not None and gap.max_value:
        return gap.max_value, min(float(gap.exact_gap), _MAX_DELTA)
    return gap.bound_M, min(float(gap.estimated_gap), _MAX_DELTA)


def solve_qsvt(ising: IsingModel, formula: CnfFormula, gap: GapInfo, *,
               degree: int | None = None, shots: int = 1024,
               seed: int = 0) -> SolverReport:
    """Filter, post-select, sample, and CNF-verify the surviving outcomes.

    ``degree`` is the half-degree d of F_{2d, delta}; by default the smallest
    d whose suppression covers the register size.
    """
    n = ising.n
    if n > QSVT_MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the filtering cap {QSVT_MAX_QUBITS}")
    ham = hamiltonian_from_ising(ising)
    scale, delta = _scale_and_delta(gap)
    build_block_encoding(ham, gap, scale=scale)  # checks H / scale lies in [0, 1]
    d = choose_degree(delta, n) if degree is None else degree
    poly = FilterPolynomial(d, delta)

    filtered = ham.per_level(lambda values: eval_filter(poly, values / scale))
    dim = 1 << n
    amps = np.empty(2 * dim, dtype=np.complex128)
    amps[:dim] = filtered / np.sqrt(dim)
    amps[dim:] = np.sqrt(np.maximum(0.0, 1.0 - filtered**2)) / np.sqrt(dim)
    joint = Statevector._adopt(n + 1, amps)
    rate = float(np.sum(np.abs(amps[:dim]) ** 2))  # post-selecting ancilla 0

    sample_seed, = spawn_seeds(seed, 1)
    counts = sample(joint, shots, sample_seed)
    kept = {o: c for o, c in counts.items() if o < dim}
    rate_sampled = sum(kept.values()) / shots
    candidates = project_candidates(kept, formula.num_variables)
    verdict = first_verified(formula, (a for a, _ in candidates))
    if verdict is None:
        verdict = NoSolutionFound(
            f"no verified witness among {sum(kept.values())} post-selected samples"
        )

    observed = ham.values[np.fromiter(counts, dtype=np.int64, count=len(counts)) % dim]
    config = {
        "degree": poly.degree,
        "delta": delta,
        "scale": scale,
        "shots": shots,
    }
    return SolverReport(
        solver="qsvt",
        verdict=verdict,
        best_value=float(observed.min()),
        shots_used=shots,
        config=config,
        seed=seed,
        rate=rate,
        rate_sampled=rate_sampled,
    )
