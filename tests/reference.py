"""Reference implementations that no program path runs, kept for the tests.

The term-by-term reduction helpers (`clause_penalty`, `reduction_gadget`,
`eval_poly` and the `_affine`/`_add_term` accumulation they share), and the
parser and reduction that built `Literal`/`Clause` objects and a sorted-key
polynomial: `reference_parse_dimacs` and `reference_cnf_to_qubo` are what
`parse_dimacs` and `cnf_to_qubo` computed before they read and wrote
signed-int clause codes, and the property tests compare the two.

The rest are forms that no program path needs: the general k-qubit
`apply_matrix` and the per-state `grover_states`, which the kernels are
checked against; the dict-based `project_candidates`; the clause-by-clause
`unsatisfied_count`; `enumerate_sat`, the satisfying set read off the CNF
without the reduction, which makes it a cross-check on the QUBO side;
`expectation`, one state's energy as the variational solvers compute it;
`qubo_from_json_dict`, the inverse of `Qubo.to_json_dict`; and
`filter_quality_mu`.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from qverify.cnf import Clause, CnfError, CnfFormula, satisfying_mask
from qverify.oracle import DEFAULT_BUDGET, _check_budget
from qverify.reduction import Auxiliary, Original, Qubo
from qverify.simulator import Statevector, grover_amplitudes
from qverify.solvers.filters import FilterPolynomial, filter_quality_log2_mu

_UNITARY_TOL = 1e-8

# polynomial terms: {} -> constant, {i} -> linear, {i, j} -> quadratic
QuadPoly = dict[tuple[int, ...], int]


def _affine(negated: bool) -> tuple[int, int]:
    # literal value as const + sign * x
    return (1, -1) if negated else (0, 1)


def _add_term(poly: QuadPoly, key: tuple[int, ...], coeff: int) -> None:
    if coeff:
        key = tuple(sorted(key))
        poly[key] = poly.get(key, 0) + coeff
        if poly[key] == 0:
            del poly[key]


def _penalty_terms(poly: QuadPoly, lits: list[tuple[int, bool]]) -> None:
    if len(lits) == 1:
        (i, neg), = lits
        ca, sa = _affine(neg)
        _add_term(poly, (), 1 - ca)
        _add_term(poly, (i,), -sa)
        return
    (i, na), (j, nb) = lits
    ca, sa = _affine(na)
    cb, sb = _affine(nb)
    _add_term(poly, (), 1 - ca - cb + ca * cb)
    _add_term(poly, (i,), -sa + sa * cb)
    _add_term(poly, (j,), -sb + ca * sb)
    _add_term(poly, (i, j), sa * sb)


def _gadget_terms(poly: QuadPoly, a: tuple[int, bool], b: tuple[int, bool], r: int) -> None:
    (i, na), (j, nb) = a, b
    ca, sa = _affine(na)
    cb, sb = _affine(nb)
    _add_term(poly, (r,), 1 - 2 * ca - 2 * cb)
    _add_term(poly, (i, r), -2 * sa)
    _add_term(poly, (j, r), -2 * sb)
    _add_term(poly, (), ca + cb + ca * cb)
    _add_term(poly, (i,), sa + sa * cb)
    _add_term(poly, (j,), sb + ca * sb)
    _add_term(poly, (i, j), sa * sb)


def clause_penalty(clause: Clause) -> QuadPoly:
    """Penalty polynomial of a width-<=2 clause over 0-based QUBO indices."""
    if clause.width > 2:
        raise ValueError("clause_penalty handles widths 1 and 2; reduce wider clauses first")
    poly: QuadPoly = {}
    _penalty_terms(poly, [(lit.variable - 1, lit.negated) for lit in clause.literals])
    return poly


def reduction_gadget(a: tuple[int, bool], b: tuple[int, bool], r: int) -> QuadPoly:
    """Gadget tying fresh index ``r`` to the OR of literals ``a`` and ``b``.

    Literals are (0-based index, negated) pairs; the polynomial is 0 exactly
    when r = a OR b and >= 1 (max 3) otherwise.
    """
    poly: QuadPoly = {}
    _gadget_terms(poly, a, b, r)
    return poly


def eval_poly(poly: QuadPoly, assignment: int) -> int:
    total = 0
    for key, coeff in poly.items():
        term = coeff
        for idx in key:
            term *= (assignment >> idx) & 1
        total += term
    return total


def reference_cnf_to_qubo(formula: CnfFormula) -> Qubo:
    """Reduce, fold-left per clause: r1 = L1 v L2, r2 = r1 v L3, ..., each
    term accumulated through `_add_term` from the `Literal` views."""
    poly: QuadPoly = {}
    variable_map: list = [Original(v) for v in range(1, formula.num_variables + 1)]
    gadgets = 0
    for ci, clause in enumerate(formula.clauses):
        lits = [(lit.variable - 1, lit.negated) for lit in clause.literals]
        step = 0
        while len(lits) > 2:
            r = len(variable_map)
            variable_map.append(Auxiliary(ci, step))
            _gadget_terms(poly, lits[0], lits[1], r)
            lits = [(r, False)] + lits[2:]
            step += 1
            gadgets += 1
        _penalty_terms(poly, lits)

    offset = poly.pop((), 0)
    # a clause never repeats a variable, so every quadratic key has i < j and
    # the diagonal (i, i) holds the linear term alone
    coeffs = {(key[0], key[-1]): coeff for key, coeff in poly.items()}
    return Qubo(
        num_vars=len(variable_map),
        coeffs=coeffs,
        offset=offset,
        variable_map=tuple(variable_map),
        clause_terms=len(formula.clauses),
        gadget_terms=gadgets,
    )


def reference_parse_dimacs(text: str, provenance: str = "dimacs-file") -> CnfFormula:
    """Parse DIMACS CNF text in two passes: the lines into one token list,
    then the tokens into `Clause` objects (see `parse_dimacs` for the
    rules)."""
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    closed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%") and header is not None and closed >= header[1] \
                and (not tokens or tokens[-1] == 0):
            break
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise CnfError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise CnfError(f"line {lineno}: malformed header {line!r}") from None
            continue
        if header is None:
            raise CnfError(f"line {lineno}: clause before 'p cnf' header")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise CnfError(f"line {lineno}: non-integer token in {line!r}") from None
        tokens.extend(row)
        closed += row.count(0)
    if header is None:
        raise CnfError("missing 'p cnf' header")

    num_vars, num_clauses = header
    clauses: list[Clause] = []
    current: list[int] = []
    for code in tokens:
        if code == 0:
            if not current:
                raise CnfError("empty clause in DIMACS input")
            deduped: list[int] = []
            for c in current:
                if -c in current:
                    raise CnfError(f"tautological clause {current} rejected")
                if c not in deduped:
                    deduped.append(c)
            clauses.append(Clause.of(*deduped))
            current = []
        else:
            if abs(code) > num_vars:
                raise CnfError(f"literal {code} out of declared range 1..{num_vars}")
            current.append(code)
    if current:
        raise CnfError("unterminated clause (missing trailing 0)")
    if len(clauses) != num_clauses:
        raise CnfError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses), provenance=provenance)


def qubo_from_json_dict(data: dict) -> Qubo:
    coeffs = {(int(i), int(j)): int(c) for i, j, c in data["entries"]}
    var_map = []
    for v in data["variable_map"]:
        if v["kind"] == "original":
            var_map.append(Original(v["variable"]))
        else:
            var_map.append(Auxiliary(v["clause"], v["step"]))
    return Qubo(
        num_vars=int(data["num_vars"]),
        coeffs=coeffs,
        offset=int(data["offset"]),
        variable_map=tuple(var_map),
        clause_terms=int(data["clause_terms"]),
        gadget_terms=int(data["gadget_terms"]),
    )


def unsatisfied_count(formula: CnfFormula, assignment: int) -> int:
    return sum(not cl.is_satisfied_by(assignment) for cl in formula.clauses)


def enumerate_sat(formula: CnfFormula) -> list[int]:
    """All satisfying assignments of the formula, ascending, within the
    DEFAULT_BUDGET of variables."""
    _check_budget(formula.num_variables, DEFAULT_BUDGET, "satisfiability enumeration")
    mask = satisfying_mask(formula)
    return [int(a) for a in np.nonzero(mask)[0]]


def filter_quality_mu(poly: FilterPolynomial) -> float:
    """Suppression factor mu: squared filter values on [delta, 1] are bounded
    by 1/mu, so filtered probability mass drops by mu."""
    return float(2.0 ** filter_quality_log2_mu(poly))


def project_candidates(counts: dict[int, int], num_cnf_vars: int) -> list[tuple[int, int]]:
    """Measurement outcomes as (original-variable assignment, count), merged
    across auxiliary values and sorted by decreasing weight."""
    mask = (1 << num_cnf_vars) - 1
    merged: dict[int, int] = {}
    for outcome, count in counts.items():
        key = outcome & mask
        merged[key] = merged.get(key, 0) + count
    return sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))


def expectation(probabilities: np.ndarray, values: np.ndarray) -> float:
    return float(np.dot(probabilities, values))


def grover_states(signs: np.ndarray, iterations: Sequence[int]) -> Iterator[Statevector]:
    """(D O)^t |s> for each t in ``iterations``, in order: each state rebuilt
    from its `grover_amplitudes` pair, and norm-checked, when the caller
    draws it."""
    num_qubits = signs.size.bit_length() - 1
    flipped = signs < 0
    for pair in grover_amplitudes(signs, iterations):
        yield Statevector(num_qubits, np.where(flipped, *pair))


def apply_matrix(state: Statevector, matrix: np.ndarray, qubits) -> Statevector:
    """Apply a k-qubit unitary; matrix index bit i addresses qubits[i]."""
    qubits = list(qubits)
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError("target qubits must be distinct")
    if any(q < 0 or q >= state.num_qubits for q in qubits):
        raise ValueError("target qubit out of range")
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError("matrix dimension does not match the qubit count")
    if not np.allclose(matrix @ matrix.conj().T, np.eye(1 << k), atol=_UNITARY_TOL):
        raise ValueError("matrix is not unitary")
    n = state.num_qubits
    mat = matrix.reshape([2] * (2 * k))
    tensor = state.amplitudes.reshape([2] * n)
    col_axes = [2 * k - 1 - i for i in range(k)]
    state_axes = [n - 1 - q for q in qubits]
    out = np.tensordot(mat, tensor, axes=(col_axes, state_axes))
    # tensordot leaves row-bit axes first (bit k-1 .. 0), survivors after
    survivors = [ax for ax in range(n) if ax not in state_axes]
    perm = [0] * n
    for i, q in enumerate(qubits):
        perm[n - 1 - q] = k - 1 - i
    for rank, ax in enumerate(survivors):
        perm[ax] = k + rank
    return Statevector(n, np.transpose(out, perm).reshape(-1))
