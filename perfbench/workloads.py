"""The two workloads: seeded request lists for `qverify verify`.

A workload is a *round* of requests with a fixed composition; only the
inputs and per-request seeds change with the workload seed.  A run repeats
rounds until the measuring time is used up, always finishing the round it is
in, so every run measures whole rounds and a metric's mix of request kinds
never depends on where the clock stopped.

Every request carries what the benchmark knows about its input from the way
it was built (satisfiable or not, and the clauses or catalog predicate), so
the answers can be checked without trusting the program.
"""
from __future__ import annotations

import random
import stat
from dataclasses import dataclass
from pathlib import Path

import gen

# Catalog predicates over the value variables (first `bits` CNF variables,
# least significant first), restated from the catalog's definitions.
CATALOG = {
    "unique": (6, lambda v: v == 42),
    "semi-unique": (8, lambda v: v in (42, 69)),
    "two-solutions": (14, lambda v: v in (15, 240)),
    "two-solutions-overlap": (8, lambda v: v in (85, 204)),
    "three-solutions": (8, lambda v: v in (42, 101, 205)),
    "addition": (4, lambda v: (v & 1) + (v >> 1 & 1) == 2 * (v >> 2 & 1) + (v >> 3 & 1)),
    "flow": (6, lambda v: (v & 1) == (v >> 1 & 1) == (v >> 2 & 1)
             and (v >> 3 & 1) + (v >> 4 & 1) + (v >> 5 & 1) > 1),
    "indicator": (4, lambda v: 2 * (v & 1) + (v >> 1 & 1) > 2 * (v >> 2 & 1) + (v >> 3 & 1)),
}

# Stands in for a CBMC-compatible checker: chatter around the DIMACS block
# that sits next to the source file, as a real checker's --dimacs output.
CHECKER_STUB = """#!/bin/sh
echo "FAKE-CHECK version 0.0 (benchmark stub)"
echo "Parsing $1"
echo "Generating SAT formula"
cat "${1%.c}.cnf"
echo "Runtime decision procedure: 0.00s"
exit 0
"""


@dataclass
class Request:
    argv: list[str]
    kind: str
    satisfiable: bool
    num_vars: int | None = None
    clauses: tuple | None = None
    catalog: str | None = None


class Builder:
    """Writes inputs into ``work`` and collects one round of requests."""

    def __init__(self, work: Path, rng: random.Random):
        self.work = work
        self.rng = rng
        self.requests: list[Request] = []

    def seed(self) -> str:
        return str(self.rng.randrange(1 << 31))

    def dimacs(self, cnf: gen.Cnf, solver: str | None, via_checker: bool = False) -> None:
        stem = self.work / f"in{len(self.requests):04d}"
        stem.with_suffix(".cnf").write_text(cnf.dimacs())
        if via_checker:
            stem.with_suffix(".c").write_text("int main(void) { return 0; }\n")
            argv = ["verify", "--source", str(stem.with_suffix(".c")),
                    "--check", "div-by-zero"]
        else:
            argv = ["verify", "--dimacs", str(stem.with_suffix(".cnf"))]
        if solver is not None:
            argv += ["--solver", solver, "--seed", self.seed()]
        kind = f"{solver or 'brute'}/{'checker' if via_checker else 'dimacs'}/" \
               f"n{cnf.num_vars}q{cnf.qubo_vars}/{'sat' if cnf.satisfiable else 'unsat'}"
        self.requests.append(Request(argv, kind, cnf.satisfiable, cnf.num_vars, cnf.clauses))

    def catalog(self, name: str, solver: str, optimizer: str | None = None) -> None:
        argv = ["verify", "--synthetic", name, "--solver", solver, "--seed", self.seed()]
        kind = f"{solver}/{name}"
        if optimizer is not None:
            argv += ["--optimizer", optimizer, "--max-iterations", VARIATIONAL_ITERATIONS]
            kind += f"/{optimizer}"
        self.requests.append(Request(argv, kind, True, catalog=name))


def _oracle(b: Builder) -> None:
    # Few large tables, many small ones.  Each class is uniform in size,
    # frontend and satisfiability, and the counts fix the ranks: the median
    # falls in the middle of the 17-variable class (all through the checker
    # frontend), and with the three to eight rounds a run makes, the
    # 11th-largest latency falls inside the 20-variable class, below the one
    # 22-variable request of each round.
    for q, count, satisfiable, via_checker in [(16, 12, True, False), (17, 12, False, True),
                                               (18, 4, True, False), (19, 4, True, False),
                                               (20, 4, False, False), (22, 1, False, False)]:
        for _ in range(count):
            b.dimacs(gen.sized(b.rng, q, satisfiable), None, via_checker)


VARIATIONAL_INSTANCES = ("indicator", "unique", "flow", "addition", "semi-unique",
                         "two-solutions-overlap", "three-solutions")
# Trust-region probes every parameter on every iteration.  It runs only where
# one such request stays below the 13-variable Grover class, so that nothing
# but the 14-variable Grover request ranks above the latency tail's class.
TRUST_REGION = {"qaoa": VARIATIONAL_INSTANCES[:-1], "vqe": ("indicator", "unique", "flow")}
VARIATIONAL_ITERATIONS = "25"


def _variational(b: Builder) -> None:
    for name in VARIATIONAL_INSTANCES:
        for solver in ("qaoa", "vqe"):
            b.catalog(name, solver, "simultaneous-perturbation")
            if name in TRUST_REGION[solver]:
                b.catalog(name, solver, "trust-region")


def _search_cnf(rng, n: int, satisfiable: bool) -> gen.Cnf:
    build = gen.planted_sat if satisfiable else gen.unsat_core
    return build(rng, n, int(1.5 * n), 0)


def _search(b: Builder) -> None:
    # Grover: the UNSAT inputs run the whole schedule on both registers.  The
    # six at 13 variables per round hold the latency tail's rank.
    for n in [10, 10, 11, 11, 12, 12, 12, 12, 13, 13, 13, 13, 13, 13, 14]:
        b.dimacs(_search_cnf(b.rng, n, False), "grover")
    for n in [10, 12]:
        b.dimacs(_search_cnf(b.rng, n, True), "grover")
    b.catalog("three-solutions", "grover")
    # QSVT: one energy table each, then filter, post-select and sample.  The
    # median falls in the middle of the 24 requests on 16-variable UNSAT
    # inputs: about 30 faster requests (QSVT below 16 variables, small Grover
    # and variational ones) balance about 30 slower ones.  Of the classes
    # tried, these 2^16-entry tables drifted least with the host's speed.
    for n in range(10, 16):
        for satisfiable in (False, True):
            b.dimacs(_search_cnf(b.rng, n, satisfiable), "qsvt")
    for satisfiable in [False] * 24 + [True]:
        b.dimacs(_search_cnf(b.rng, 16, satisfiable), "qsvt")
    for name in ("unique", "semi-unique", "two-solutions-overlap", "three-solutions",
                 "two-solutions"):
        b.catalog(name, "qsvt")


def _solvers(b: Builder) -> None:
    _variational(b)
    _search(b)


BUILDERS = {"oracle": _oracle, "solvers": _solvers}

# One small request per workload, run before the clock starts.
WARMUP = {
    "oracle": ["verify", "--synthetic", "unique"],
    "solvers": ["verify", "--synthetic", "indicator", "--solver", "qaoa",
                "--max-iterations", "5"],
}


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build_round(workload: str, rng: random.Random, work: Path, index: int) -> list[Request]:
    """One round of the workload with fresh inputs drawn from ``rng``."""
    round_dir = work / f"round{index:03d}"
    round_dir.mkdir(parents=True, exist_ok=True)
    b = Builder(round_dir, rng)
    BUILDERS[workload](b)
    # spread each kind of request over the whole round, so that a class's
    # latencies sample the machine over the round rather than one moment
    rng.shuffle(b.requests)
    return b.requests


def write_checker_stub(work: Path) -> Path:
    path = work / "checker-stub.sh"
    path.write_text(CHECKER_STUB)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path
