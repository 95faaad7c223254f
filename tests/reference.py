"""Reference implementations that no program path runs, kept for the tests.

The term-by-term reduction helpers (`clause_penalty`, `reduction_gadget`,
`eval_poly` and the `_affine`/`_add_term` accumulation they share), and the
parser and reduction that built `Literal`/`Clause` objects and a sorted-key
polynomial: `reference_parse_dimacs` and `reference_cnf_to_qubo` are what
`parse_dimacs` and `cnf_to_qubo` computed before they read and wrote
signed-int clause codes, and the property tests compare the two.
"""
from __future__ import annotations

from qverify.cnf import Clause, CnfError, CnfFormula
from qverify.reduction import Auxiliary, Original, Qubo

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
