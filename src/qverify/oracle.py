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
from .reduction import Original, Qubo, _quadratic_table

DEFAULT_BUDGET = 24


class BudgetExceededError(RuntimeError):
    """Instance is too large for exhaustive enumeration."""


def _check_budget(num_vars: int, budget: int, what: str) -> None:
    if num_vars > budget:
        raise BudgetExceededError(
            f"{what} needs 2^{num_vars} assignments; budget allows 2^{budget}"
        )


def enumerate_sat(formula: CnfFormula) -> list[int]:
    """All satisfying assignments of the formula, ascending, within the
    DEFAULT_BUDGET of variables."""
    _check_budget(formula.num_variables, DEFAULT_BUDGET, "satisfiability enumeration")
    mask = satisfying_mask(formula)
    return [int(a) for a in np.nonzero(mask)[0]]


@dataclass(frozen=True)
class SpectrumSummary:
    """Full-objective statistics of a QUBO.

    satisfying holds the zero-objective assignments projected onto the
    original-variable prefix (deduplicated, ascending) as an int64 array;
    min_value == 0 exactly when it is non-empty.  satisfying_set is the same
    as a tuple of ints, built on first access.  table is the read-only
    `Qubo.objective_table` the spectrum was counted from, or None if walked.
    """

    min_value: int
    min_count: int
    max_value: int
    satisfying: np.ndarray = field(compare=False, repr=False)
    value_histogram: dict[int, int]
    table: np.ndarray | None = field(default=None, compare=False, repr=False)

    @cached_property
    def satisfying_set(self) -> tuple[int, ...]:
        return tuple(self.satisfying.tolist())


# One block (the whole table) up to ONE_BLOCK_VARIABLES, so a 2^16 solver
# table takes a single pass; above that, blocks of 2^BLOCK_BITS int64 values
# (128 KiB) are walked while they sit in cache.
ONE_BLOCK_VARIABLES = 16
BLOCK_BITS = 14


def _blocks(upper: np.ndarray, offset: int, m: int):
    """Yield (h, block): x^T U x + offset over x = h * 2^m + lo, for the
    upper-triangular U = ``upper``.

    The low m bits form the block, built once by `_quadratic_table`.  Setting
    high bit b adds the linear column sum_j lo_j U[j, m + b] over the low
    bits, plus a scalar read from the quadratic table of the high bits alone;
    h walks in Gray-code order, so each next block is one column and one
    scalar away from the last.  The block is updated in place.
    """
    n = upper.shape[0]
    block = _quadratic_table(upper[:m, :m], offset)
    yield 0, block
    high = _quadratic_table(upper[m:, m:], 0)
    # columns[b][lo] = sum_j lo_j U[j, m + b], all doubled up one low bit at a time
    columns = np.zeros((n - m, 1 << m), dtype=np.int64)
    for j in range(m):
        np.add(columns[:, :1 << j], upper[j, m:, None], out=columns[:, 1 << j:2 << j])
    h = 0
    for g in range(1, 1 << (n - m)):
        b = (g & -g).bit_length() - 1
        nxt = h ^ (1 << b)
        if nxt > h:
            block += columns[b]
        else:
            block -= columns[b]
        block += high[nxt] - high[h]
        h = nxt
        yield h, block


def _merge(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Sum (keys, counts) pairs into one pair with distinct ascending keys."""
    keys, inverse = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    counts = np.zeros(keys.size, dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in parts]))
    return keys, counts


def _stream(qubo: Qubo):
    """(distinct values, their counts, zero mask or None, table or None).

    Values are walked shifted by -lower, the sum of the offset and every
    negative coefficient, so they lie in 0..span-1.  A span no wider
    than a block is bincounted; a wider one (some hand-built QUBOs) is
    reduced per block by `np.unique`, and the pending blocks are merged once
    they hold as many keys as the merged part.  Where a block holds objective
    0, its zero positions are ORed into a mask over the original-variable
    assignments.

    Up to ONE_BLOCK_VARIABLES the one block is the whole `Qubo.objective_table`,
    returned too: counted unshifted when no value is negative (as in every
    reduced QUBO), and through a shifted copy otherwise.
    """
    n = qubo.num_vars
    table = qubo.objective_table() if n <= ONE_BLOCK_VARIABLES else None
    m = n if table is not None else BLOCK_BITS
    lower = qubo.offset + sum(min(c, 0) for c in qubo.coeffs.values())
    if table is not None and table.min() >= 0:
        lower = 0
    span = qubo.offset + sum(max(c, 0) for c in qubo.coeffs.values()) - lower + 1
    if table is None:
        blocks = _blocks(qubo.dense(), qubo.offset - lower, m)
    else:
        blocks = [(0, table - lower if lower else table)]
    bins = np.zeros(span, dtype=np.int64) if span <= 1 << m else None
    merged = (np.empty(0, dtype=np.int64),) * 2
    pending: list = []
    zero = -lower
    mask = None
    for h, block in blocks:
        if bins is not None:
            counts = np.bincount(block, minlength=span)
            bins += counts
            zeros = counts[zero] if 0 <= zero < span else 0
        else:
            keys, counts = np.unique(block, return_counts=True)
            pending.append((keys, counts))
            if sum(k.size for k, _ in pending) >= merged[0].size:
                merged, pending = _merge([merged, *pending]), []
            zeros = zero in keys
        if zeros:
            if mask is None:
                mask = np.zeros(1 << qubo.num_original, dtype=bool)
            hit = block == zero
            if hit.size > mask.size:
                # rows are auxiliary bit patterns, columns original assignments
                hit = hit.reshape(-1, mask.size).any(axis=0)
            start = (h << m) & (mask.size - 1)
            mask[start:start + hit.size] |= hit
    if bins is None:
        keys, counts = _merge([merged, *pending])
    else:
        keys = np.flatnonzero(bins)
        counts = bins[keys]
    return keys + lower, counts, mask, table


def qubo_spectrum(qubo: Qubo, budget: int = DEFAULT_BUDGET) -> SpectrumSummary:
    """Histogram, extremes and satisfying set of the objective over all 2^n
    assignments: up to ONE_BLOCK_VARIABLES, counted from the objective table,
    which is kept read-only as ``table``; above, streamed in blocks.
    """
    _check_budget(qubo.num_vars, budget, "spectrum enumeration")
    for v in qubo.variable_map[: qubo.num_original]:
        if not isinstance(v, Original):
            raise ValueError("original variables must form the index prefix")
    keys, counts, mask, table = _stream(qubo)
    if table is not None:
        # only after counting: np.bincount copies a read-only input
        table.setflags(write=False)
    histogram = {int(v): int(c) for v, c in zip(keys, counts)}
    min_value = int(keys[0])
    max_value = int(keys[-1])
    satisfying = np.empty(0, dtype=np.int64)
    if min_value == 0:
        satisfying = np.flatnonzero(mask)
    return SpectrumSummary(
        min_value=min_value,
        min_count=histogram[min_value],
        max_value=max_value,
        satisfying=satisfying,
        value_histogram=histogram,
        table=table,
    )
