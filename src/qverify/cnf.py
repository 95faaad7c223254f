"""CNF formulas and DIMACS interchange.

Variables are 1-indexed. An assignment is an integer bitmask where bit
``v - 1`` holds the value of variable ``v``; rendered as a bitstring it reads
most-significant variable first, so the assignment of six variables encoding
the number 42 prints as ``101010``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula; an empty clause list is trivially satisfiable."""

    num_variables: int
    clauses: tuple[Clause, ...]
    provenance: str = "dimacs-file"

    def __post_init__(self):
        if self.num_variables < 0:
            raise CnfError("negative variable count")
        for cl in self.clauses:
            for lit in cl.literals:
                if lit.variable > self.num_variables:
                    raise CnfError(
                        f"variable {lit.variable} exceeds declared count {self.num_variables}"
                    )

    @cached_property
    def _clause_masks(self) -> tuple[tuple[int, int], ...]:
        """(positive, negated) variable bitmasks per clause, in assignment bit order."""
        masks = []
        for cl in self.clauses:
            pos = neg = 0
            for lit in cl.literals:
                if lit.negated:
                    neg |= 1 << (lit.variable - 1)
                else:
                    pos |= 1 << (lit.variable - 1)
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

    def unsatisfied_count(self, assignment: int) -> int:
        return sum(not cl.is_satisfied_by(assignment) for cl in self.clauses)


def parse_dimacs(text: str, provenance: str = "dimacs-file") -> CnfFormula:
    """Parse DIMACS CNF text.

    Duplicate literals within a clause are deduplicated (first occurrence
    kept); a clause containing a variable in both polarities is rejected, as
    are out-of-range variables and a clause count that disagrees with the
    header.
    """
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
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
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise CnfError(f"line {lineno}: non-integer token in {line!r}") from None
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


def emit_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_variables} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(str(lit.to_int()) for lit in cl.literals) + " 0")
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
    for cl in formula.clauses:
        high = falsified = 0
        index = [slice(None)] * k
        for lit in cl.literals:
            bit = lit.variable - 1
            if bit >= k:
                high |= 1 << (bit - k)
                falsified |= lit.negated << (bit - k)
            else:
                index[k - 1 - bit] = int(lit.negated)
        cuts.append((high, falsified, tuple(index)))
    for h in range(cube.shape[0]):
        for high, falsified, index in cuts:
            if h & high == falsified:
                cube[(h, *index)] = False
    return out


def format_assignment(assignment: int, num_variables: int) -> str:
    """Render as a bitstring, most-significant variable first."""
    return format(assignment, f"0{num_variables}b") if num_variables else ""
