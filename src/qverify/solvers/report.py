"""Verdicts and the per-run report shared by every solver."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cnf import CnfFormula, format_assignment
from ..reduction import IsingModel
from ..simulator import DiagonalHamiltonian


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


def hamiltonian_from_ising(ising: IsingModel) -> DiagonalHamiltonian:
    return DiagonalHamiltonian(ising.n, ising.energy_table())


def project_candidates(counts: dict[int, int], num_cnf_vars: int) -> list[tuple[int, int]]:
    """Measurement outcomes as (original-variable assignment, count), merged
    across auxiliary values and sorted by decreasing weight."""
    mask = (1 << num_cnf_vars) - 1
    merged: dict[int, int] = {}
    for outcome, count in counts.items():
        key = outcome & mask
        merged[key] = merged.get(key, 0) + count
    return sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))


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

    As `project_candidates` and `first_verified` do it over a dict, but on
    arrays: the outcomes are projected onto the original variables and
    merged, ordered by decreasing count and then ascending assignment, and
    the first that satisfies the formula is checked once more by
    `CnfFormula.evaluate`.
    """
    keys, merged_at = np.unique(outcomes & ((1 << formula.num_variables) - 1),
                                return_inverse=True)
    merged = np.zeros(keys.size, dtype=np.int64)
    np.add.at(merged, merged_at, counts)
    witness = formula.first_satisfying(keys[np.lexsort((keys, -merged))])
    return None if witness is None else first_verified(formula, [witness])


def expectation(probabilities: np.ndarray, values: np.ndarray) -> float:
    return float(np.dot(probabilities, values))
