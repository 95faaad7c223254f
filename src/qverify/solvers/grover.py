"""Grover search with an unknown solution count.

The iteration count is right only near the true count s, so the schedule
sweeps guessed counts 2^k for k = 0..n-1, keeping sampled outcomes whose
frequency reaches 2/3 of the 1/s an exact guess would concentrate on each
solution.  When s is close to half the space the rotation angle makes every
point of the schedule miss; one rerun on a register doubled by an extra
control qubit halves the solution fraction and restores the sweep's coverage.
"""
from __future__ import annotations

import math

import numpy as np

from ..cnf import CnfFormula
from ..simulator import grover_probabilities, oracle_signs, sample_probabilities, spawn_seeds
# perfbench/spans.py wraps these names here; they stay bound though unused
from ..simulator import grover_diffusion, phase_oracle, sample  # noqa: F401
from .report import NoSolutionFound, Sat, SolverReport, first_verified

GROVER_MAX_QUBITS = 19  # the doubled register still has to fit the simulator


def grover_iterations(num_qubits: int, guessed_count: int) -> int:
    """floor(pi/4 * sqrt(2^n / s)) rotations for a guessed solution count."""
    if guessed_count < 1:
        raise ValueError("guessed count must be positive")
    return int(math.floor(math.pi / 4 * math.sqrt((1 << num_qubits) / guessed_count)))


def grover_schedule(num_qubits: int) -> list[tuple[int, int]]:
    """(k, iterations) pairs for guessed counts 2^k, k ascending."""
    return [(k, grover_iterations(num_qubits, 1 << k)) for k in range(num_qubits)]


def solve_grover(formula: CnfFormula, *, shots: int = 1024, seed: int = 0) -> SolverReport:
    n = formula.num_variables
    if n > GROVER_MAX_QUBITS:
        raise ValueError(f"{n} variables exceeds the Grover cap {GROVER_MAX_QUBITS}")
    config = {"shots_per_point": shots}
    if not formula.codes:
        return SolverReport(
            solver="grover", verdict=Sat(0), best_value=0.0, shots_used=0,
            config=config, seed=seed,
        )

    proj_mask = (1 << n) - 1
    trace: list[tuple[int, float]] = []
    shots_used = 0
    point = 0
    # enough child seeds for both passes
    seeds = spawn_seeds(seed, 2 * (n + 1))
    for extra in (False, True):
        schedule = grover_schedule(n + 1 if extra else n)
        points = grover_probabilities(oracle_signs(formula, extra_control=extra),
                                      [iterations for _, iterations in schedule])
        for (k, _), probs in zip(schedule, points):
            outcomes, counts = sample_probabilities(probs, shots, seeds[point])
            shots_used += shots
            keep = counts / shots >= (2.0 / 3.0) / (1 << k)
            outcomes, counts = outcomes[keep], counts[keep]
            order = np.lexsort((outcomes, -counts))  # most frequent first, ties ascending
            outcomes, counts = outcomes[order], counts[order]
            trace.append((point, int(counts[0]) / shots if counts.size else 0.0))
            point += 1
            witness = formula.first_satisfying(outcomes & proj_mask)
            verdict = None if witness is None else first_verified(formula, [witness])
            if verdict is not None:
                return SolverReport(
                    solver="grover", verdict=verdict, best_value=0.0,
                    convergence_trace=trace, shots_used=shots_used,
                    config=config | {"doubled": extra, "guessed_k": k},
                    seed=seed,
                )
    return SolverReport(
        solver="grover",
        verdict=NoSolutionFound("schedule exhausted, including the doubled register"),
        best_value=1.0,
        convergence_trace=trace,
        shots_used=shots_used,
        config=config,
        seed=seed,
    )
