"""Exhaustive classical reference for small instances.

Everything here enumerates the full assignment space, so callers must stay
inside an explicit variable budget; exceeding it raises instead of silently
truncating.  The satisfiability route evaluates clauses directly and never
goes through the reduction, which is what makes it usable as a cross-check
on the QUBO side.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cnf import CnfFormula, satisfying_mask
from .reduction import Original, Qubo

DEFAULT_BUDGET = 24


class BudgetExceededError(RuntimeError):
    """Instance is too large for exhaustive enumeration."""


def _check_budget(num_vars: int, budget: int, what: str) -> None:
    if num_vars > budget:
        raise BudgetExceededError(
            f"{what} needs 2^{num_vars} assignments; budget allows 2^{budget}"
        )


def enumerate_sat(formula: CnfFormula, budget: int = DEFAULT_BUDGET) -> list[int]:
    """All satisfying assignments of the formula, ascending."""
    _check_budget(formula.num_variables, budget, "satisfiability enumeration")
    mask = satisfying_mask(formula)
    return [int(a) for a in np.nonzero(mask)[0]]


@dataclass(frozen=True)
class SpectrumSummary:
    """Full-objective statistics of a QUBO.

    satisfying holds the zero-objective assignments projected onto the
    original-variable prefix (deduplicated, ascending) as an int64 array;
    min_value == 0 exactly when it is non-empty.  satisfying_set is the same
    as a tuple of ints, built on first access.
    """

    min_value: int
    min_count: int
    max_value: int
    satisfying: np.ndarray = field(compare=False, repr=False)
    value_histogram: dict[int, int]

    @cached_property
    def satisfying_set(self) -> tuple[int, ...]:
        return tuple(self.satisfying.tolist())


def _histogram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values ascending, their counts).

    Reduced objectives are small non-negative integers, so a bincount is
    enough; anything else (a hand-built QUBO) falls back to sorting.
    """
    if values.min() >= 0 and values.max() < values.size:
        counts = np.bincount(values)
        keys = np.flatnonzero(counts)
        return keys, counts[keys]
    return np.unique(values, return_counts=True)


def qubo_spectrum(qubo: Qubo, budget: int = DEFAULT_BUDGET) -> SpectrumSummary:
    _check_budget(qubo.num_vars, budget, "spectrum enumeration")
    for v in qubo.variable_map[: qubo.num_original]:
        if not isinstance(v, Original):
            raise ValueError("original variables must form the index prefix")
    values = qubo.objective_table()
    keys, counts = _histogram(values)
    histogram = {int(v): int(c) for v, c in zip(keys, counts)}
    min_value = int(keys[0])
    max_value = int(keys[-1])
    satisfying = np.empty(0, dtype=np.int64)
    if min_value == 0:
        zero = values == 0
        del values  # free the table before the projection allocates
        if qubo.num_auxiliary:
            # rows are auxiliary bit patterns, columns original assignments
            zero = zero.reshape(-1, 1 << qubo.num_original).any(axis=0)
        satisfying = np.flatnonzero(zero)
    return SpectrumSummary(
        min_value=min_value,
        min_count=histogram[min_value],
        max_value=max_value,
        satisfying=satisfying,
        value_histogram=histogram,
    )
