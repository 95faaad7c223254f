"""Seeded CNF inputs and a pure-Python DIMACS evaluator.

Nothing here imports qverify: the inputs the program receives and the checks
applied to its answers are built from first principles, so a defect in the
program cannot hide itself by also shaping the test data.

Clause generation uses `random.Random`, so a seed gives the same DIMACS
bytes on every platform and numpy version.  QUBO size is counted as the
reduction defines it: one variable per CNF variable plus one auxiliary per
literal beyond the second in each clause.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# Two variables a, b with (a|b)(a|-b)(-a|b)(-a|-b): every assignment breaks
# exactly one of the four, so a formula containing them is unsatisfiable.
_CORE_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class Cnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    satisfiable: bool
    kind: str

    @property
    def qubo_vars(self) -> int:
        return self.num_vars + sum(max(0, len(c) - 2) for c in self.clauses)

    def dimacs(self) -> str:
        lines = [f"c {self.kind}", f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, c)) + " 0" for c in self.clauses)
        return "\n".join(lines) + "\n"


def evaluate(clauses, assignment: int) -> bool:
    """True when every clause has a literal that holds; bit v-1 is variable v."""
    for clause in clauses:
        for lit in clause:
            if ((assignment >> (abs(lit) - 1)) & 1) == (lit > 0):
                break
        else:
            return False
    return True


def _clause(rng: random.Random, num_vars: int, width: int,
            hidden: int | None) -> tuple[int, ...]:
    variables = rng.sample(range(1, num_vars + 1), width)
    lits = [v if rng.random() < 0.5 else -v for v in variables]
    if hidden is not None and not evaluate([lits], hidden):
        i = rng.randrange(width)
        lits[i] = -lits[i]
    return tuple(lits)


def _clauses(rng, num_vars, n2, n3, hidden):
    return [_clause(rng, num_vars, w, hidden) for w in [2] * n2 + [3] * n3]


def planted_sat(rng: random.Random, num_vars: int, n2: int, n3: int) -> Cnf:
    """Random 2/3-CNF that a hidden assignment satisfies by construction."""
    hidden = rng.getrandbits(num_vars)
    clauses = _clauses(rng, num_vars, n2, n3, hidden)
    rng.shuffle(clauses)
    return Cnf(num_vars, tuple(clauses), True, "planted-sat")


def unsat_core(rng: random.Random, num_vars: int, n2: int, n3: int) -> Cnf:
    """Random 2/3-CNF plus the four-clause core over two random variables,
    which no assignment satisfies.  n2 counts the core's clauses."""
    a, b = rng.sample(range(1, num_vars + 1), 2)
    clauses = _clauses(rng, num_vars, max(0, n2 - 4), n3, None)
    clauses += [(sa * a, sb * b) for sa, sb in _CORE_SIGNS]
    rng.shuffle(clauses)
    return Cnf(num_vars, tuple(clauses), False, "unsat-core")


def sized(rng: random.Random, qubo_vars: int, satisfiable: bool) -> Cnf:
    """A formula of exactly ``qubo_vars`` QUBO variables.

    A quarter of the QUBO variables are 3-clause auxiliaries and the rest
    are CNF variables, with 1.6 clauses per CNF variable.
    """
    n3 = round(qubo_vars / 4)
    num_vars = qubo_vars - n3
    n2 = max(4, round(num_vars * 1.6) - n3)
    build = planted_sat if satisfiable else unsat_core
    return build(rng, num_vars, n2, n3)
