"""CNF -> QUBO -> Ising reduction with an integer gap guarantee.

A clause of width <= 2 becomes the penalty 1 - a - b + ab (zero iff the clause
holds); wider clauses are folded left through fresh auxiliaries r with the
gadget (1 - 2a - 2b)r + a + b + ab, which is 0 exactly when r = a OR b and at
least 1 otherwise (3 at a = b = 1, r = 0).  Negated literals substitute
x -> 1 - x before accumulation.  Every coefficient stays an integer, the
objective is a sum of non-negative terms, and its zero-level set projected to
the original variables is exactly the satisfying set of the formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import index

import numpy as np

from .cnf import MAX_MASK_VARIABLES, CnfFormula


@dataclass(frozen=True)
class Original:
    """QUBO variable carrying CNF variable ``variable`` (1-indexed)."""

    variable: int


@dataclass(frozen=True)
class Auxiliary:
    """Fresh variable from reduction step ``step`` of clause ``clause_index``."""

    clause_index: int
    step: int


def _subset_sums(weights, out: np.ndarray) -> None:
    """Fill out[x] = out[0] + sum of weights[j] over the set bits j of x,
    along axis 0, for x < 2^len(weights): each bit j doubles the filled
    prefix out[:2^j] into out[2^j:2^(j+1)], adding weights[j].  int64 sums
    wrap exactly, so the result is the direct sum's, bit for bit."""
    for j in range(len(weights)):
        np.add(out[:1 << j], weights[j], out=out[1 << j:2 << j])


def _quadratic_table(q: np.ndarray, offset: int) -> np.ndarray:
    """x^T q x + offset for all 2^n binary x (int64), assignment index order.

    Built by doubling: for x < 2^k, setting bit k adds
    row_k[x] = U_kk + sum_{j<k} U_jk x_j, where U folds q onto its upper
    triangle.  The first 2^8 entries of every row are doubled up at once, as
    the columns of one (2^8, n) side table, one whole-table add per low bit;
    a longer row is doubled up from there one higher bit at a time (both by
    `_subset_sums`).  Row k is built in place in out[2^k:2^(k+1)], then the
    lower half is added onto it: O(2^n) time, and no memory beyond the table
    and the side table (36 KiB at 18 variables).  int64 sums wrap exactly,
    so any order of the adds gives the same bits.
    """
    n = q.shape[0]
    if n > MAX_MASK_VARIABLES:
        raise ValueError(f"table over {n} variables exceeds the "
                         f"{MAX_MASK_VARIABLES}-variable cap")
    upper = np.triu(q) + np.tril(q, -1).T
    m = min(n, 8)
    low = np.empty((1 << m, n), dtype=np.int64)  # low[x, k] = row_k[x], x < 2^m
    low[0] = np.diagonal(upper)
    _subset_sums(upper[:m], low)
    out = np.empty(1 << n, dtype=np.int64)
    out[0] = offset
    for k in range(n):
        half = 1 << k
        row = out[half:2 * half]
        if k <= m:
            np.add(out[:half], low[:half, k], out=row)
            continue
        row[:1 << m] = low[:, k]
        _subset_sums(upper[m:k, k], row.reshape(-1, 1 << m))
        row += out[:half]
    return out


@dataclass
class Qubo:
    """x^T Q x + c over binary x; coefficients stored upper-triangular.

    ``coeffs`` maps (i, j) with i <= j to the full integer coefficient of
    x_i x_j (linear terms on the diagonal), so the symmetric-matrix reading
    splits each off-diagonal entry across Q[i][j] + Q[j][i].
    """

    num_vars: int
    coeffs: dict[tuple[int, int], int]
    offset: int
    variable_map: tuple
    clause_terms: int = 0
    gadget_terms: int = 0

    @property
    def num_original(self) -> int:
        return sum(isinstance(v, Original) for v in self.variable_map)

    @property
    def num_auxiliary(self) -> int:
        return self.num_vars - self.num_original

    def objective(self, assignment: int) -> int:
        total = self.offset
        for (i, j), coeff in self.coeffs.items():
            if (assignment >> i) & 1 and (assignment >> j) & 1:
                total += coeff
        return total

    def dense(self) -> np.ndarray:
        """Upper-triangular int64 matrix of the coefficients; a key (j, i)
        with j > i lands on (i, j), which leaves x^T Q x unchanged.  The
        entries are summed in Python by flat index and put in one call."""
        n = self.num_vars
        flat: dict[int, int] = {}
        for (i, j), coeff in self.coeffs.items():
            key = i * n + j if i <= j else j * n + i
            flat[key] = flat.get(key, 0) + coeff
        q = np.zeros(n * n, dtype=np.int64)
        q.put(list(flat), list(flat.values()))
        return q.reshape(n, n)

    def objective_table(self) -> np.ndarray:
        """Objective for all 2^n assignments (int64), assignment index order."""
        return _quadratic_table(self.dense(), self.offset)

    def to_json_dict(self) -> dict:
        entries = [[i, j, c] for (i, j), c in sorted(self.coeffs.items())]
        var_map = []
        for v in self.variable_map:
            if isinstance(v, Original):
                var_map.append({"kind": "original", "variable": v.variable})
            else:
                var_map.append({"kind": "auxiliary", "clause": v.clause_index, "step": v.step})
        return {
            "num_vars": self.num_vars,
            "entries": entries,
            "offset": self.offset,
            "variable_map": var_map,
            "clause_terms": self.clause_terms,
            "gadget_terms": self.gadget_terms,
        }


@lru_cache(maxsize=32)
def _originals(n: int) -> tuple[Original, ...]:
    """The first n entries of every variable map of n CNF variables, shared:
    a frozen dataclass takes about 0.6 us to build."""
    return tuple(Original(v) for v in range(1, n + 1))


def cnf_to_qubo(formula: CnfFormula) -> Qubo:
    """Reduce, fold-left per clause: r1 = L1 v L2, r2 = r1 v L3, ...

    Auxiliary count is sum over clauses of max(0, width - 2); original
    variables occupy QUBO indices 0..n-1 in CNF order.

    One pass over the clause codes sums the terms as integers: the linear
    ones in a list, the quadratic ones in a dict keyed by i * size + j.  A
    literal on index i reads c + s * x_i, with (c, s) = (0, 1), or (1, -1)
    where negated.  A clause never repeats a variable and every auxiliary
    is fresh, so a quadratic term has i != j.
    """
    n = formula.num_variables
    codes = formula.codes
    size = n + sum(len(clause) - 2 for clause in codes if len(clause) > 2)
    variable_map = list(_originals(n))
    linear = [0] * size
    pairs: dict[int, int] = {}
    get = pairs.get
    offset = 0
    for ci, clause in enumerate(codes):
        i = abs(clause[0]) - 1
        ca, sa = (1, -1) if clause[0] < 0 else (0, 1)
        if len(clause) == 1:
            # penalty 1 - a
            linear[i] -= sa
            offset += 1 - ca
            continue
        if len(clause) > 2:
            for step, code in enumerate(clause[1:-1]):
                # gadget (1 - 2a - 2b) r + a + b + ab, 0 exactly when r = a OR b;
                # r is fresh, so its terms are new
                j = abs(code) - 1
                cb, sb = (1, -1) if code < 0 else (0, 1)
                r = len(variable_map)
                variable_map.append(Auxiliary(ci, step))
                linear[r] = 1 - 2 * ca - 2 * cb
                linear[i] += sa * (1 + cb)
                linear[j] += sb * (1 + ca)
                pairs[i * size + r] = -2 * sa
                pairs[j * size + r] = -2 * sb
                key = i * size + j if i < j else j * size + i
                pairs[key] = get(key, 0) + sa * sb
                offset += ca + cb + ca * cb
                i, ca, sa = r, 0, 1
        # penalty (1 - a)(1 - b)
        j = abs(clause[-1]) - 1
        cb, sb = (1, -1) if clause[-1] < 0 else (0, 1)
        linear[i] -= sa * (1 - cb)
        linear[j] -= sb * (1 - ca)
        key = i * size + j if i < j else j * size + i
        pairs[key] = get(key, 0) + sa * sb
        offset += (1 - ca) * (1 - cb)

    coeffs = {(i, i): coeff for i, coeff in enumerate(linear) if coeff}
    for key, coeff in pairs.items():
        if coeff:
            coeffs[divmod(key, size)] = coeff
    return Qubo(
        num_vars=size,
        coeffs=coeffs,
        offset=offset,
        variable_map=tuple(variable_map),
        clause_terms=len(codes),
        gadget_terms=size - n,
    )


def extend_assignment(formula: CnfFormula, assignment: int) -> int:
    """Extend a CNF assignment with the forced auxiliary values.

    Mirrors the fold-left allocation order of cnf_to_qubo; the result is the
    unique zero-gadget extension, whose objective equals the number of
    unsatisfied clauses.
    """
    full = assignment
    nxt = formula.num_variables
    for clause in formula.codes:
        if len(clause) <= 2:
            continue
        acc = _holds(clause[0], assignment)
        for code in clause[1:-1]:
            acc = acc or _holds(code, assignment)
            if acc:
                full |= 1 << nxt
            nxt += 1
    return full


def _holds(code: int, assignment: int) -> bool:
    return (assignment >> (abs(code) - 1) & 1) == (code > 0)


@dataclass(frozen=True)
class IsingModel:
    """Spin model h.z + sum J_ij z_i z_j + offset with exact rational terms."""

    h: tuple[Fraction, ...]
    couplings: dict[tuple[int, int], Fraction]
    offset: Fraction

    @property
    def n(self) -> int:
        return len(self.h)

    def energy(self, spins) -> Fraction:
        """Energy of a +-1 spin configuration."""
        total = self.offset
        for i, hi in enumerate(self.h):
            total += hi * spins[i]
        for (i, j), jij in self.couplings.items():
            total += jij * spins[i] * spins[j]
        return total

    def energy_of_assignment(self, assignment: int) -> Fraction:
        spins = [1 - 2 * ((assignment >> i) & 1) for i in range(self.n)]
        return self.energy(spins)

    def scaled_integer_form(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """(h, J, offset) numerators over a common denominator, as int64."""
        denoms = [f.denominator for f in self.h] + [self.offset.denominator]
        denoms.extend(f.denominator for f in self.couplings.values())
        scale = lcm(*denoms) if denoms else 1
        h = np.array([int(f * scale) for f in self.h], dtype=np.int64)
        j = np.zeros((self.n, self.n), dtype=np.int64)
        for (a, b), f in self.couplings.items():
            j[a, b] = int(f * scale)
        return h, j, int(self.offset * scale), scale

    def energy_table(self) -> np.ndarray:
        """Energy for all 2^n assignments (float64), assignment index order.

        The scaled spin form is rewritten in the x basis (z = 1 - 2x), so the
        table is built in exact integers and divided by the scale once.
        """
        h, j, off, scale = self.scaled_integer_form()
        q = 4 * j - 2 * np.diag(h + j.sum(axis=0) + j.sum(axis=1))
        return _quadratic_table(q, off + int(h.sum()) + int(j.sum())) / scale


def qubo_to_ising(qubo: Qubo) -> IsingModel:
    """Substitute x_i = (1 - z_i)/2; energies match objectives exactly.

    Every term is a multiple of 1/4, so the sums build up as integers in
    quarters and each becomes a Fraction once.
    """
    h4 = [0] * qubo.num_vars
    couplings4: dict[tuple[int, int], int] = {}
    offset4 = 4 * index(qubo.offset)
    for (i, j), coeff in qubo.coeffs.items():
        c = index(coeff)
        if i == j:
            offset4 += 2 * c
            h4[i] -= 2 * c
        else:
            offset4 += c
            h4[i] -= c
            h4[j] -= c
            couplings4[(i, j)] = couplings4.get((i, j), 0) + c
    return IsingModel(
        h=tuple(Fraction(v, 4) for v in h4),
        couplings={k: Fraction(v, 4) for k, v in couplings4.items() if v != 0},
        offset=Fraction(offset4, 4),
    )


@dataclass(frozen=True)
class GapInfo:
    """Spectral-gap data for a reduced QUBO.

    bound_M counts one per width-<=2 penalty term and three per gadget, so it
    dominates the largest objective value; estimated_gap = 1/bound_M.  Given
    the exhaustive spectrum, exact_gap is the least non-zero objective value
    over max_value, the largest.
    """

    bound_M: int
    estimated_gap: Fraction
    exact_gap: Fraction | None = None
    max_value: int | None = None

    def __post_init__(self):
        if self.bound_M < 1:
            raise ValueError("bound_M must be a positive integer")
        if self.exact_gap is not None and self.exact_gap < self.estimated_gap:
            raise ValueError("exact gap cannot undercut the estimate")


def compute_gap(qubo: Qubo, spectrum=None) -> GapInfo:
    """Gap bound from term counts, sharpened by ``spectrum`` (the oracle's
    `SpectrumSummary` of ``qubo``) when one is given.

    A constant-zero objective (empty formula) has no spectral gap; bound_M is
    floored at 1 so the 1/bound_M estimate stays defined.
    """
    bound = max(1, qubo.clause_terms + 3 * qubo.gadget_terms)
    info = GapInfo(bound_M=bound, estimated_gap=Fraction(1, bound))
    if spectrum is None:
        return info
    nonzero = [v for v in spectrum.value_histogram if v != 0]
    if not nonzero or spectrum.max_value <= 0:
        return info
    return GapInfo(
        bound_M=bound,
        estimated_gap=Fraction(1, bound),
        exact_gap=Fraction(min(nonzero), spectrum.max_value),
        max_value=spectrum.max_value,
    )
