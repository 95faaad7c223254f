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

import math

import numpy as np

from ..cnf import CnfFormula
from ..reduction import GapInfo, Qubo
from ..simulator import DiagonalHamiltonian, level_index, sample_probabilities, spawn_seeds
# perfbench/spans.py wraps these names here; they stay bound though unused
from ..simulator import post_select, sample  # noqa: F401
from .filters import FilterPolynomial, choose_degree, eval_filter
from .report import NoSolutionFound, SolverReport, verified_sample
from .report import first_verified  # noqa: F401

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


def build_block_encoding(hamiltonian: DiagonalHamiltonian, gap: GapInfo) -> BlockEncoding:
    """Encode A = H / bound_M; the gap's bound_M dominates every objective
    value by construction."""
    return BlockEncoding(hamiltonian.values / gap.bound_M)


def _scale_and_delta(gap: GapInfo) -> tuple[int, float]:
    # exact gap pairs with the true max value, the 1/M estimate with bound_M;
    # mixing them would leave eigenvalues inside the filter's dead zone
    if gap.exact_gap is not None and gap.max_value:
        return gap.max_value, min(float(gap.exact_gap), _MAX_DELTA)
    return gap.bound_M, min(float(gap.estimated_gap), _MAX_DELTA)


def _levels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(levels, index) with values == levels[index]: for small non-negative
    integer values (every reduced QUBO), the levels are 0..max and the index
    is the values themselves (`level_index`); otherwise the levels are the
    values."""
    found = level_index(values)
    if found is not None:
        index, top = found
        return np.arange(top + 1, dtype=np.float64), index
    return values.astype(np.float64, copy=False), np.arange(values.size)


def joint_probabilities(levels: np.ndarray, index: np.ndarray, scale: int,
                        poly: FilterPolynomial) -> np.ndarray:
    """The 2^(n+1) measurement probabilities of the filtered joint state for
    the diagonal levels[index] / scale, ancilla 0 in the first half.

    The filter and both ancilla amplitudes are evaluated once per level and
    then gathered, which gives bitwise np.abs(amplitudes) ** 2 of the joint
    state, since each step is elementwise and a real amplitude's modulus is
    its absolute value.
    """
    dim = index.size
    filtered = eval_filter(poly, levels / scale)
    amplitudes = np.stack([filtered / np.sqrt(dim),
                           np.sqrt(np.maximum(0.0, 1.0 - filtered**2)) / np.sqrt(dim)])
    return np.take(amplitudes**2, index, axis=1).reshape(-1)


def solve_qsvt(qubo: Qubo, formula: CnfFormula, gap: GapInfo, *,
               table: np.ndarray | None = None, degree: int | None = None,
               shots: int = 1024, seed: int = 0) -> SolverReport:
    """Filter, post-select, sample, and CNF-verify the surviving outcomes.

    ``table`` is the diagonal H, the objective of every assignment (the
    Problem's int64 table); by default `Qubo.objective_table`.
    ``degree`` is the half-degree d of F_{2d, delta}; by default the
    smallest d whose suppression covers the register size.

    The block encoding's range check is made on the levels of H, as
    min >= 0 and max / scale <= 1 (division by a positive scale is
    monotone), and the joint state is never built: its probabilities come
    from `joint_probabilities`, and their sum is checked as its norm would be.
    The shots are drawn over the ancilla-0 half only, the rest as one
    discarded category (`sample_probabilities` with ``kept``): the
    post-selected counts are bitwise those of the full draw.  On an UNSAT
    input almost no mass survives post-selection, and the draw is then
    mostly settled without drawing: `sample_probabilities` proves that the
    full draw post-selects no shot, and returns no outcome.  The report's
    ``best_value`` is the least objective among the post-selected outcomes,
    inf when no shot was post-selected.
    """
    n = qubo.num_vars
    if n > QSVT_MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the filtering cap {QSVT_MAX_QUBITS}")
    values = qubo.objective_table() if table is None else table
    scale, delta = _scale_and_delta(gap)
    levels, index = _levels(values)
    if levels.min() < 0.0 or levels.max() / scale > 1.0:
        raise ValueError("block encoding needs entries in [0, 1]; rescale first")
    d = choose_degree(delta, n) if degree is None else degree
    poly = FilterPolynomial(d, delta)

    dim = 1 << n
    probs = joint_probabilities(levels, index, scale, poly)
    rate = float(np.sum(probs[:dim]))  # post-selecting ancilla 0

    sample_seed, = spawn_seeds(seed, 1)
    outcomes, counts = sample_probabilities(probs, shots, sample_seed, kept=dim)
    post_selected = int(counts.sum())
    verdict = verified_sample(formula, outcomes, counts)
    if verdict is None:
        verdict = NoSolutionFound(
            f"no verified witness among {post_selected} post-selected samples"
        )

    config = {
        "degree": poly.degree,
        "delta": delta,
        "scale": scale,
        "shots": shots,
    }
    return SolverReport(
        solver="qsvt",
        verdict=verdict,
        best_value=float(values[outcomes].min()) if outcomes.size else math.inf,
        shots_used=shots,
        config=config,
        seed=seed,
        rate=rate,
        rate_sampled=post_selected / shots,
    )
