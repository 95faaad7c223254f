"""Exhaustive classical reference for small instances.

Everything here is exact over the full assignment space, so callers must
stay inside an explicit variable budget; exceeding it raises instead of
silently truncating.

The QUBO's spectrum takes one of three routes: up to ONE_BLOCK_VARIABLES the
objective table, counted whole; from ELIMINATION_VARIABLES, bucket
elimination, which counts it at a cost exponential in the elimination width
rather than in n, wherever its buckets fit a walk block; otherwise a walk
over all 2^n assignments in blocks of 2^BLOCK_BITS.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .reduction import Original, Qubo, _quadratic_table, _subset_sums

DEFAULT_BUDGET = 24


class BudgetExceededError(RuntimeError):
    """Instance is too large for exhaustive enumeration."""


def _check_budget(num_vars: int, budget: int, what: str) -> None:
    if num_vars > budget:
        raise BudgetExceededError(
            f"{what} needs 2^{num_vars} assignments; budget allows 2^{budget}"
        )


@dataclass(frozen=True)
class SpectrumSummary:
    """Full-objective statistics of a QUBO.

    satisfying holds the zero-objective assignments projected onto the
    original-variable prefix (deduplicated, ascending) as an int64 array;
    min_value == 0 exactly when it is non-empty.  satisfying_set is the same
    as a tuple of ints, built on first access.  table is the read-only
    `Qubo.objective_table` the spectrum was counted from, up to
    ONE_BLOCK_VARIABLES variables; above, no table is built (the spectrum is
    eliminated or walked) and it is None.
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


def _blocks(upper: np.ndarray, offset: int):
    """Yield (h, block): x^T U x + offset over x = h * 2^m + lo, for the
    upper-triangular U = ``upper`` and m = BLOCK_BITS.

    The low m bits form the block, built once by `_quadratic_table`.  Setting
    high bit b adds the linear column sum_j lo_j U[j, m + b] over the low
    bits, plus a scalar read from the quadratic table of the high bits alone;
    h walks in Gray-code order, so each next block is one column and one
    scalar away from the last.  The block is updated in place.
    """
    n, m = upper.shape[0], BLOCK_BITS
    block = _quadratic_table(upper[:m, :m], offset)
    yield 0, block
    high = _quadratic_table(upper[m:, m:], 0)
    # columns[b][lo] = sum_j lo_j U[j, m + b], all doubled up one low bit at a time
    columns = np.zeros((n - m, 1 << m), dtype=np.int64)
    _subset_sums(upper[:m, m:], columns.T)
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
        blocks = _blocks(qubo.dense(), qubo.offset - lower)
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


# From ELIMINATION_VARIABLES on (and above ONE_BLOCK_VARIABLES), the
# spectrum is counted by bucket elimination wherever every bucket fits in a
# walk block.  Below 20 variables, elimination's Python overhead costs about
# as much as the walk or more.  At 20 it is already faster (2.06-2.99 ms
# against 3.55-3.59 ms for the walk on a Xeon core), but 20-variable QUBOs
# stay on the walk while the benchmark worker keeps every request's row:
# routing its 20-variable oracle class here raises the oracle throughput by a
# third, and with it peak_rss_mb past its 10% bound.
ELIMINATION_VARIABLES = 21


def _bits(word: int):
    """Indices of the set bits of ``word``, lowest first."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _fill(v: int, adj: list[int]) -> int:
    """Edges missing among the neighbours of v; ``adj`` holds bitmasks."""
    missing = 0
    rest = adj[v]
    while rest:
        low = rest & -rest
        rest ^= low
        missing += (rest & ~adj[low.bit_length() - 1]).bit_count()
    return missing


def _plan(qubo: Qubo):
    """Buckets of a greedy min-fill elimination order over the graph of
    nonzero pair coefficients, or None as soon as one bucket would hold more
    than a walk block, 2^BLOCK_BITS entries.  Pure Python, so a refused QUBO
    has allocated no array.

    Returns the buckets in elimination order as tuples (v, scope bitmask,
    linear coefficient, {u: coefficient of x_u x_v}, children).  Bucket v
    holds the terms and the messages (children, by bucket index) whose
    first eliminated variable is v; its scope is the variables eliminated
    after v that its table depends on.  Over v and k scope variables the
    table has 2^(k+1) rows of at most spread + 1 values, spread being the
    sum of |coefficient| over its terms and those of every bucket whose
    message it reads, directly or through others.
    """
    n = qubo.num_vars
    linear = [0] * n
    pairs: dict[tuple[int, int], int] = {}
    for (i, j), c in qubo.coeffs.items():
        if i == j:
            linear[i] += c
        else:
            key = (min(i, j), max(i, j))
            pairs[key] = pairs.get(key, 0) + c
    limit = 1 << BLOCK_BITS
    if 1 + sum(map(abs, linear)) + sum(map(abs, pairs.values())) > limit:
        return None
    weights: list[dict[int, int]] = [{} for _ in range(n)]
    adj = [0] * n
    for (i, j), c in pairs.items():
        if c:
            weights[i][j] = weights[j][i] = c
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    # fill, degree and index of every variable not yet eliminated
    score = {v: (_fill(v, adj), adj[v].bit_count(), v) for v in range(n)}
    pending: list[tuple[int, int, int]] = []   # (bucket, scope, spread) of unread messages
    buckets = []
    for _ in range(n):
        v = min(score.values())[2]
        del score[v]
        scope = adj[v]
        terms = {u: c for u, c in weights[v].items() if u in score}
        read = [p for p in pending if p[1] >> v & 1]
        spread = (abs(linear[v]) + sum(map(abs, terms.values()))
                  + sum(s for _, _, s in read))
        if (2 << scope.bit_count()) * (spread + 1) > limit:
            return None
        pending = [p for p in pending if not p[1] >> v & 1]
        pending.append((len(buckets), scope, spread))
        buckets.append((v, scope, linear[v], terms, [b for b, _, _ in read]))
        touched = scope
        for u in _bits(scope):
            joined = scope & ~adj[u] & ~(1 << u)
            adj[u] = (adj[u] | scope) & ~(1 << u | 1 << v)
            if joined:
                # new edges change the fill of every common neighbour
                touched |= adj[u]
        for u in _bits(touched):
            score[u] = (_fill(u, adj), adj[u].bit_count(), u)
    return buckets


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of count polynomials along the last axis, the other axes
    broadcast: exact in int64, as no count exceeds 2^n."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    width = b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (a.shape[-1] + width - 1,), dtype=np.int64)
    for j in range(a.shape[-1]):
        out[..., j:j + width] += a[..., j:j + 1] * b
    return out


def _eliminate(qubo: Qubo):
    """(distinct values, their counts, minimizers) by sum-product bucket
    elimination over the generating polynomial sum_x t^f(x), or None where
    `_plan` refuses the QUBO.

    Eliminating v multiplies the bucket's incoming messages by convolution
    along the value axis, shifts the product by the bucket's terms,
    t^(x_v (c_v + sum_u c_uv x_u)), and sums over x_v.  A message over k
    later variables is an int64 count array of shape (2,)*k + (L,), axes in
    elimination order, whose index j counts the value base + j; its value
    axis is trimmed to the values it counts.  No count exceeds 2^n, so every
    step is exact.

    minimizers() returns a bool mask over the original-variable assignments:
    the minimizing assignments projected onto that prefix.  The lowest value
    a message counts is its min-plus value, and an assignment is minimal
    exactly when every x_v attains its bucket's minimum given the variables
    eliminated after v.  So the minimizers are enumerated backward in
    elimination order, vectorised over rows, at a cost of about n times
    their number.
    """
    buckets = _plan(qubo)
    if buckets is None:
        return None
    position = {b[0]: i for i, b in enumerate(buckets)}
    scopes = [sorted(_bits(b[1]), key=position.__getitem__) for b in buckets]
    messages = []   # (counts, base): counts[..., j] is how many reach value base + j
    costs = []
    histogram, lowest = np.ones(1, dtype=np.int64), qubo.offset
    for (v, _, linear, terms, children), scope in zip(buckets, scopes):
        k = len(scope)
        axes = [v, *scope]
        factors = [messages[c][0].reshape([2 if u in scopes[c] else 1 for u in axes] + [-1])
                   for c in children]
        product = reduce(_convolve, factors) if factors else np.ones(1, dtype=np.int64)
        size = product.shape[-1]
        product = np.broadcast_to(product, (2,) * (k + 1) + (size,)).reshape(2, 1 << k, size)
        # cost[x_v] moves the product up, over the scope assignments in index
        # order (the last scope variable is bit 0): by -low where x_v = 0, and
        # by x_v's terms - low where x_v = 1, low being their negative part
        low = min(linear, 0) + sum(min(c, 0) for c in terms.values())
        cost = np.empty((2, 1 << k), dtype=np.int64)
        cost[0] = -low
        cost[1, 0] = linear - low
        _subset_sums([terms.get(u, 0) for u in reversed(scope)], cost[1])
        costs.append(cost)
        out = np.zeros((1 << k, size + abs(linear) + sum(map(abs, terms.values()))),
                       dtype=np.int64)
        out[:, -low:size - low] = product[0]
        index = (cost[1] + np.arange(0, out.size, out.shape[1]))[:, None] + np.arange(size)
        out.reshape(-1)[index] += product[1]
        used = np.flatnonzero(out.any(axis=0))
        out = out[:, used[0]:used[-1] + 1]
        base = sum(messages[c][1] for c in children) + low + int(used[0])
        messages.append((out.reshape((2,) * k + out.shape[-1:]), base))
        if not k:
            histogram, lowest = _convolve(histogram, out[0]), lowest + base
    keys = np.flatnonzero(histogram)

    def minimizers() -> np.ndarray:
        floors = [(m != 0).argmax(axis=-1) for m, _ in messages]
        # the minimizing assignments of the variables eliminated so far
        rows = np.zeros(1, dtype=np.int64)
        for b in reversed(range(len(buckets))):
            v, children = buckets[b][0], buckets[b][4]
            scope = scopes[b]
            k = len(scope)
            cost = costs[b]
            if children:
                axes = [v, *scope]
                floor = sum(floors[c].reshape([2 if u in scopes[c] else 1 for u in axes])
                            for c in children)
                cost = cost + np.broadcast_to(floor, (2,) * (k + 1)).reshape(2, 1 << k)
            at = np.zeros(rows.size, dtype=np.int64)
            for a, u in enumerate(reversed(scope)):
                at |= (rows >> u & 1) << a
            keep = (cost == cost.min(axis=0))[:, at]
            rows = np.concatenate([rows[keep[0]], rows[keep[1]] | 1 << v])
        mask = np.zeros(1 << qubo.num_original, dtype=bool)
        mask[rows & mask.size - 1] = True
        return mask

    return keys + lowest, histogram[keys], minimizers


def _spectrum(qubo: Qubo):
    """(distinct values, their counts, zero mask or None, table or None) by
    elimination where it takes the QUBO, else by `_stream`.

    Elimination's minimizers cost about n steps each, so where objective 0
    is the minimum of more than 2^(n-6) assignments the walk finds them.
    """
    n = qubo.num_vars
    if n >= ELIMINATION_VARIABLES:
        eliminated = _eliminate(qubo)
        if eliminated is not None:
            keys, counts, minimizers = eliminated
            if keys[0] != 0:
                return keys, counts, None, None
            if counts[0] <= 1 << (n - 6):
                return keys, counts, minimizers(), None
    return _stream(qubo)


def qubo_spectrum(qubo: Qubo, budget: int = DEFAULT_BUDGET) -> SpectrumSummary:
    """Histogram, extremes and satisfying set of the objective over all 2^n
    assignments: up to ONE_BLOCK_VARIABLES, counted from the objective table,
    which is kept read-only as ``table``; from ELIMINATION_VARIABLES, by
    bucket elimination where `_eliminate` takes the QUBO; otherwise streamed
    in blocks.  Every route gives the same summary.
    """
    _check_budget(qubo.num_vars, budget, "spectrum enumeration")
    for v in qubo.variable_map[: qubo.num_original]:
        if not isinstance(v, Original):
            raise ValueError("original variables must form the index prefix")
    keys, counts, mask, table = _spectrum(qubo)
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
