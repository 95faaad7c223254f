"""Verdicts and the per-run report shared by every solver."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cnf import CnfFormula, format_assignment


@dataclass(frozen=True)
class Sat:
    """A verified satisfying assignment over the original CNF variables."""

    witness: int


@dataclass(frozen=True)
class NoSolutionFound:
    """The solver's budget ran out without producing a verified witness."""

    reason: str = "budget exhausted"


Verdict = Sat | NoSolutionFound


@dataclass
class SolverReport:
    """One solver run: its verdict and what it measured on the way.

    ``best_value`` is the least objective the solver saw: the spectrum's
    minimum for `brute`, the optimizer's best expectation for `qaoa` and
    `vqe`, 0 or 1 for `grover` (found or not), and for `qsvt` the least
    objective among the post-selected outcomes, inf when no shot was
    post-selected.  ``rate`` and ``rate_sampled`` are QSVT's exact and
    sampled post-selection rates.
    """

    solver: str
    verdict: Verdict
    best_value: float
    convergence_trace: list[tuple[int, float]] = field(default_factory=list)
    shots_used: int = 0
    config: dict = field(default_factory=dict)
    seed: int = 0
    rate: float | None = None
    rate_sampled: float | None = None

    def witness_string(self, formula: CnfFormula) -> str | None:
        if isinstance(self.verdict, Sat):
            return format_assignment(self.verdict.witness, formula.num_variables)
        return None


def first_verified(formula: CnfFormula, candidates) -> Sat | None:
    """CNF-check candidates in order; the verdict never rests on the solver's
    own arithmetic."""
    for assignment in candidates:
        if formula.evaluate(assignment):
            return Sat(assignment)
    return None


def verified_sample(formula: CnfFormula, outcomes: np.ndarray,
                    counts: np.ndarray) -> Sat | None:
    """The verdict of sampled ``outcomes`` (int64) seen ``counts`` times.

    The outcomes are projected onto the original variables and merged,
    ordered by decreasing count and then ascending assignment, and the
    first that satisfies the formula is checked once more by
    `first_verified`.
    """
    keys, merged_at = np.unique(outcomes & ((1 << formula.num_variables) - 1),
                                return_inverse=True)
    merged = np.zeros(keys.size, dtype=np.int64)
    np.add.at(merged, merged_at, counts)
    witness = formula.first_satisfying(keys[np.lexsort((keys, -merged))])
    return None if witness is None else first_verified(formula, [witness])
