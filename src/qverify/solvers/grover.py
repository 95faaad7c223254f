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
import time

from ..cnf import CnfFormula
from ..simulator import (
    grover_diffusion,
    oracle_signs,
    phase_oracle,
    sample,
    spawn_seeds,
    uniform_superposition,
)
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
    started = time.perf_counter()
    n = formula.num_variables
    if n > GROVER_MAX_QUBITS:
        raise ValueError(f"{n} variables exceeds the Grover cap {GROVER_MAX_QUBITS}")
    config = {"shots_per_point": shots}
    if not formula.clauses:
        return SolverReport(
            solver="grover", verdict=Sat(0), best_value=0.0, shots_used=0,
            wall_time_s=time.perf_counter() - started, config=config, seed=seed,
        )

    proj_mask = (1 << n) - 1
    trace: list[tuple[int, float]] = []
    shots_used = 0
    point = 0
    # enough child seeds for both passes
    seeds = spawn_seeds(seed, 2 * (n + 1))
    for extra in (False, True):
        num_qubits = n + 1 if extra else n
        prepared = uniform_superposition(num_qubits)
        signs = oracle_signs(formula, extra_control=extra)
        for k, iterations in grover_schedule(num_qubits):
            state = prepared
            for _ in range(iterations):
                state = phase_oracle(state, formula, extra_control=extra, signs=signs)
                state = grover_diffusion(state)
            counts = sample(state, shots, seeds[point])
            shots_used += shots
            threshold = (2.0 / 3.0) / (1 << k)
            kept = [(outcome, c) for outcome, c in counts.items()
                    if c / shots >= threshold]
            kept.sort(key=lambda kv: (-kv[1], kv[0]))
            trace.append((point, kept[0][1] / shots if kept else 0.0))
            point += 1
            verdict = first_verified(formula, (o & proj_mask for o, _ in kept))
            if verdict is not None:
                return SolverReport(
                    solver="grover", verdict=verdict, best_value=0.0,
                    convergence_trace=trace, shots_used=shots_used,
                    wall_time_s=time.perf_counter() - started,
                    config=config | {"doubled": extra, "guessed_k": k},
                    seed=seed,
                )
    return SolverReport(
        solver="grover",
        verdict=NoSolutionFound("schedule exhausted, including the doubled register"),
        best_value=1.0,
        convergence_trace=trace,
        shots_used=shots_used,
        wall_time_s=time.perf_counter() - started,
        config=config,
        seed=seed,
    )
