"""End-to-end flow: formula -> reduction -> gap -> solver -> report.

The oracle runs whenever the reduced instance fits its budget, which both
sharpens the gap (exact instead of 1/bound_M) and records the ground truth
the quantum verdict can be audited against.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .cnf import CnfFormula, format_assignment
from .oracle import DEFAULT_BUDGET, SpectrumSummary, qubo_spectrum
from .reduction import (
    GapInfo,
    IsingModel,
    Qubo,
    cnf_to_qubo,
    compute_gap,
    qubo_to_ising,
)
from .solvers import (
    NoSolutionFound,
    Sat,
    SolverReport,
    solve_grover,
    solve_qaoa,
    solve_qsvt,
    solve_vqe,
)
from .solvers.report import first_verified

SOLVERS = ("brute", "qaoa", "vqe", "grover", "qsvt")


@dataclass
class Problem:
    """A formula with its reduction, gap and, in budget, its spectrum.

    ``table`` is the spectrum's objective table (`SpectrumSummary.table`),
    so it is set for reductions of at most 16 variables that fit the oracle
    budget; `qaoa`, `vqe` and `qsvt` read it as their Hamiltonian's diagonal.
    """

    formula: CnfFormula
    qubo: Qubo
    gap: GapInfo
    spectrum: SpectrumSummary | None
    table: np.ndarray | None = field(default=None, compare=False, repr=False)

    @cached_property
    def ising(self) -> IsingModel:
        """The spin form of the QUBO, built on first access (no solver reads
        it)."""
        return qubo_to_ising(self.qubo)


def build_problem(formula: CnfFormula, oracle_budget: int = DEFAULT_BUDGET) -> Problem:
    qubo = cnf_to_qubo(formula)
    spectrum = qubo_spectrum(qubo, oracle_budget) if qubo.num_vars <= oracle_budget else None
    table = None if spectrum is None else spectrum.table
    gap = compute_gap(qubo, spectrum=spectrum)
    return Problem(formula=formula, qubo=qubo, gap=gap, spectrum=spectrum, table=table)


def _solve_brute(problem: Problem, seed: int) -> SolverReport:
    if problem.spectrum is None:
        raise ValueError("instance exceeds the oracle budget; pick a quantum solver")
    spectrum = problem.spectrum
    verdict = first_verified(problem.formula, map(int, spectrum.satisfying))
    if verdict is None:
        verdict = NoSolutionFound("exhaustive enumeration found no solution")
    return SolverReport(
        solver="brute",
        verdict=verdict,
        best_value=float(spectrum.min_value),
        config={"assignments": 1 << problem.qubo.num_vars},
        seed=seed,
    )


def solve(problem: Problem, solver: str, *, optimizer=None, layers: int | None = None,
          degree: int | None = None, shots: int = 2048, seed: int = 0) -> SolverReport:
    if solver == "brute":
        return _solve_brute(problem, seed)
    if solver in ("qaoa", "vqe"):
        solve_vqa = solve_qaoa if solver == "qaoa" else solve_vqe
        given = {} if layers is None else {"layers": layers}  # else the solver's default
        return solve_vqa(problem.qubo, problem.formula, optimizer=optimizer, shots=shots,
                         seed=seed, table=problem.table, **given)
    if solver == "grover":
        return solve_grover(problem.formula, shots=shots, seed=seed)
    if solver == "qsvt":
        return solve_qsvt(problem.qubo, problem.formula, problem.gap, table=problem.table,
                          degree=degree, shots=shots, seed=seed)
    raise ValueError(f"unknown solver {solver!r}; pick one of {SOLVERS}")


def report_dict(problem: Problem, report: SolverReport, instance: str,
                duration_ms: float, trace_file: str | None = None) -> dict:
    """Flat JSON-ready run summary; deterministic except duration_ms."""
    gap: dict = {"M": problem.gap.bound_M, "estimated": float(problem.gap.estimated_gap)}
    if problem.gap.exact_gap is not None:
        gap["exact"] = float(problem.gap.exact_gap)
    out: dict = {
        "instance": instance,
        "provenance": problem.formula.provenance,
        "n_cnf_vars": problem.formula.num_variables,
        "n_qubo_vars": problem.qubo.num_vars,
        "n_aux": problem.qubo.num_auxiliary,
        "gap": gap,
        "solver": report.solver,
        "config": report.config,
        "verdict": "sat" if isinstance(report.verdict, Sat) else "none",
        "seed": report.seed,
        "duration_ms": duration_ms,
    }
    if isinstance(report.verdict, Sat):
        out["witness"] = format_assignment(report.verdict.witness,
                                           problem.formula.num_variables)
    else:
        out["reason"] = report.verdict.reason
    if report.rate is not None:
        out["rate"] = report.rate
        out["rate_sampled"] = report.rate_sampled
    if trace_file is not None:
        out["trace_file"] = trace_file
    return out


def write_text_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so partial output never
    lands under the final name."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
