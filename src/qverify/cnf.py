"""CNF formulas and DIMACS interchange.

Variables are 1-indexed. An assignment is an integer bitmask where bit
``v - 1`` holds the value of variable ``v``; rendered as a bitstring it reads
most-significant variable first, so the assignment of six variables encoding
the number 42 prints as ``101010``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class CnfError(ValueError):
    """Malformed formula or DIMACS input."""


MAX_ARRAY_VARIABLES = 62  # variable bits 0..61 of an int64 assignment array


@dataclass(frozen=True)
class Literal:
    variable: int
    negated: bool = False

    def __post_init__(self):
        if self.variable < 1:
            raise CnfError(f"variable index must be >= 1, got {self.variable}")

    @staticmethod
    def from_int(code: int) -> "Literal":
        """Build from a DIMACS signed integer (non-zero)."""
        if code == 0:
            raise CnfError("literal code 0 is reserved as the clause terminator")
        return Literal(abs(code), negated=code < 0)

    def to_int(self) -> int:
        return -self.variable if self.negated else self.variable

    def holds(self, assignment: int) -> bool:
        bit = (assignment >> (self.variable - 1)) & 1
        return bit == (0 if self.negated else 1)


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; no variable may appear twice."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise CnfError("empty clause")
        seen = set()
        for lit in self.literals:
            if lit.variable in seen:
                raise CnfError(f"variable {lit.variable} appears twice in clause")
            seen.add(lit.variable)

    @staticmethod
    def of(*codes: int) -> "Clause":
        return Clause(tuple(Literal.from_int(c) for c in codes))

    @property
    def width(self) -> int:
        return len(self.literals)

    def is_satisfied_by(self, assignment: int) -> bool:
        return any(lit.holds(assignment) for lit in self.literals)


@dataclass(frozen=True, init=False)
class CnfFormula:
    """A CNF formula; an empty clause list is trivially satisfiable.

    The clauses are held as ``codes``, one tuple of DIMACS signed-int
    literals per clause; `clauses` builds their `Clause`/`Literal` views on
    first read.  Equality compares the variable count, the codes and the
    provenance.
    """

    num_variables: int
    codes: tuple[tuple[int, ...], ...]
    provenance: str = "dimacs-file"

    def __init__(self, num_variables: int, clauses, provenance: str = "dimacs-file"):
        clauses = tuple(clauses)
        codes = tuple(tuple(lit.to_int() for lit in cl.literals) for cl in clauses)
        _check_range(num_variables, codes)
        self._set(num_variables, codes, provenance)
        self.__dict__["clauses"] = clauses

    def _set(self, num_variables: int, codes, provenance: str) -> None:
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "provenance", provenance)

    @classmethod
    def _trusted(cls, num_variables: int, codes, provenance: str) -> "CnfFormula":
        """From codes already checked as `from_codes` checks them."""
        formula = object.__new__(cls)
        formula._set(num_variables, codes, provenance)
        return formula

    @classmethod
    def from_codes(cls, num_variables: int, codes, provenance: str = "dimacs-file") -> "CnfFormula":
        """From clause codes, each rejected as `Clause.of` would reject it."""
        codes = tuple(map(tuple, codes))
        for clause in codes:
            if not clause or 0 in clause or len({abs(c) for c in clause}) < len(clause):
                Clause.of(*clause)  # raises the clause's own error
        _check_range(num_variables, codes)
        return cls._trusted(num_variables, codes, provenance)

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        return tuple(Clause.of(*clause) for clause in self.codes)

    @cached_property
    def _clause_masks(self) -> tuple[tuple[int, int], ...]:
        """(positive, negated) variable bitmasks per clause, in assignment bit order."""
        masks = []
        for clause in self.codes:
            pos = neg = 0
            for c in clause:
                if c > 0:
                    pos |= 1 << (c - 1)
                else:
                    neg |= 1 << (-c - 1)
            masks.append((pos, neg))
        return tuple(masks)

    def evaluate(self, assignment: int) -> bool:
        """True when every clause has a set positive or an unset negated variable."""
        unset = ~assignment
        for pos, neg in self._clause_masks:
            if not (assignment & pos or unset & neg):
                return False
        return True

    def first_satisfying(self, assignments: np.ndarray) -> int | None:
        """The first of ``assignments`` (int64) that satisfies the formula, or None.

        Filters the survivors clause by clause with the same bitmasks as
        `evaluate`; boolean filtering keeps their order.  Assignments must fit
        an int64, so at most 62 variables.
        """
        if self.num_variables > MAX_ARRAY_VARIABLES:
            raise CnfError(f"{self.num_variables} variables exceed the "
                           f"{MAX_ARRAY_VARIABLES}-bit int64 assignment cap")
        survivors = np.asarray(assignments, dtype=np.int64)
        for pos, neg in self._clause_masks:
            if not survivors.size:
                return None
            survivors = survivors[((survivors & pos) != 0) | ((~survivors & neg) != 0)]
        return int(survivors[0]) if survivors.size else None


def _check_range(num_variables: int, codes) -> None:
    if num_variables < 0:
        raise CnfError("negative variable count")
    for clause in codes:
        for c in clause:
            if abs(c) > num_variables:
                raise CnfError(f"variable {abs(c)} exceeds declared count {num_variables}")


def _read_clauses(row: list[int], current: list[int], clauses: list, num_vars: int) -> str | None:
    """Add the literals of ``row`` to the open clause ``current``, closing it
    into ``clauses`` at each 0; the first clause-data error, or None."""
    for code in row:
        if code:
            if abs(code) > num_vars:
                return f"literal {code} out of declared range 1..{num_vars}"
            current.append(code)
            continue
        if not current:
            return "empty clause in DIMACS input"
        unique = dict.fromkeys(current)  # first occurrence kept
        if any(-c in unique for c in unique):
            return f"tautological clause {current} rejected"
        clauses.append(tuple(unique))
        current.clear()
    return None


def parse_dimacs(text: str, provenance: str = "dimacs-file") -> CnfFormula:
    """Parse DIMACS CNF text.

    Duplicate literals within a clause are deduplicated (first occurrence
    kept); a clause containing a variable in both polarities is rejected, as
    are out-of-range variables and a clause count that disagrees with the
    header.  A "%" line is a comment, except once every declared clause is
    complete: there it ends the clause data, as in the SATLIB files, which
    close with a "%" line and a lone "0".

    One pass over the lines builds the clause codes.  An error in a line
    itself (header, order, tokens) is raised at once; the first error in the
    clause data is raised only once every line has passed those checks.
    """
    header: tuple[int, int] | None = None
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    closed = 0          # clause terminators read
    ended = True        # no token read yet, or the last one was a 0
    error = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == "%" and header is not None and closed >= header[1] and ended:
            break
        if first == "c" or first == "%":
            continue
        if first == "p":
            if header is not None:
                raise CnfError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise CnfError(f"line {lineno}: malformed header {line!r}") from None
            num_vars = header[0]
            continue
        if header is None:
            raise CnfError(f"line {lineno}: clause before 'p cnf' header")
        try:
            row = list(map(int, line.split()))
        except ValueError:
            raise CnfError(f"line {lineno}: non-integer token in {line!r}") from None
        zeros = row.count(0)
        closed += zeros
        ended = row[-1] == 0
        if error is not None:
            continue
        if zeros == 1 and ended and not current and len(row) > 1 \
                and len(variables := set(map(abs, row))) == len(row) \
                and max(variables) <= num_vars:
            # the common line: one whole clause of distinct in-range variables
            clauses.append(tuple(row[:-1]))
            continue
        error = _read_clauses(row, current, clauses, num_vars)
    if header is None:
        raise CnfError("missing 'p cnf' header")
    if error is not None:
        raise CnfError(error)
    if current:
        raise CnfError("unterminated clause (missing trailing 0)")
    if len(clauses) != header[1]:
        raise CnfError(f"header declares {header[1]} clauses, found {len(clauses)}")
    if num_vars < 0:
        raise CnfError("negative variable count")
    return CnfFormula._trusted(num_vars, tuple(clauses), provenance)


def emit_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_variables} {len(formula.codes)}"]
    for clause in formula.codes:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


MAX_MASK_VARIABLES = 24


def satisfying_mask(formula: CnfFormula, chunk: int = 1 << 20) -> np.ndarray:
    """Boolean array over all 2^n assignments, True where the formula holds.

    A clause is false exactly on the sub-cube where each of its literals
    takes its falsifying value, so every clause clears one strided slice.
    The array is walked in aligned chunks of the largest power of two up to
    ``chunk`` entries: a chunk's high bits decide which clauses touch it, and
    their low literals index the slice within it.  Requires n <= 24.
    """
    n = formula.num_variables
    if n > MAX_MASK_VARIABLES:
        raise CnfError(f"mask over {n} variables exceeds the {MAX_MASK_VARIABLES}-bit cap")
    if chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    k = min(n, chunk.bit_length() - 1)
    out = np.ones(1 << n, dtype=bool)
    # axis 0 is the chunk; axis 1 + i is bit k - 1 - i of the assignment
    cube = out.reshape((-1,) + (2,) * k)
    cuts = []
    for clause in formula.codes:
        high = falsified = 0
        index = [slice(None)] * k
        for c in clause:
            bit = abs(c) - 1
            if bit >= k:
                high |= 1 << (bit - k)
                falsified |= (c < 0) << (bit - k)
            else:
                index[k - 1 - bit] = int(c < 0)
        cuts.append((high, falsified, tuple(index)))
    for h in range(cube.shape[0]):
        for high, falsified, index in cuts:
            if h & high == falsified:
                cube[(h, *index)] = False
    return out


def format_assignment(assignment: int, num_variables: int) -> str:
    """Render as a bitstring, most-significant variable first."""
    return format(assignment, f"0{num_variables}b") if num_variables else ""
