"""Reachability checking through gap-guaranteed QUBO reductions.

A CNF description of an error condition — written by hand, generated from
the synthetic catalog, or produced by a bounded model checker — is reduced to
a QUBO whose zero set matches the satisfying assignments, handed to a
simulated quantum solver, and every claimed witness is re-verified against
the formula before it is reported.

Only the entry points below are exported here; everything else is imported
from its own module (`qverify.cnf`, `qverify.solvers`, ...).
"""
from .cnf import parse_dimacs
from .oracle import qubo_spectrum
from .pipeline import build_problem, solve
from .reduction import cnf_to_qubo, compute_gap, qubo_to_ising
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "build_problem",
    "cnf_to_qubo",
    "compute_gap",
    "generate_synthetic",
    "parse_dimacs",
    "qubo_spectrum",
    "qubo_to_ising",
    "solve",
]
