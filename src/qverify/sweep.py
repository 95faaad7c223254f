"""Parameter sweeps emitting the CSV studies behind the figures.

Output is byte-identical for a fixed master seed: the work grid is enumerated
in a fixed order, per-cell seeds derive from the grid position, and worker
results are re-sorted before writing, so --jobs changes wall time only.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .optimizers import KINDS, OptimizerSpec
from .oracle import DEFAULT_BUDGET
from .pipeline import build_problem, solve, write_text_atomic
from .solvers import Sat
from .solvers.filters import FilterPolynomial, filter_quality_log2_mu
from .synthetic import generate_synthetic, value_bit_count

CONVERGENCE_HEADER = "instance,solver,optimizer,seed,iteration,normalized_value"
RATES_HEADER = "instance,n_qubits,gap_estimated,gap_exact,degree,rate,verdict"
HEATMAP_HEADER = "d,delta,value"

DEFAULT_CONVERGENCE_INSTANCES = ("addition",)
DEFAULT_RATE_INSTANCES = (
    "or:n=3", "or:n=4", "xor:n=2", "xor:n=3", "unique", "semi-unique",
    "two-solutions-overlap", "three-solutions", "addition", "flow", "indicator",
)


def parse_instance_spec(text: str) -> tuple[str, str, dict[str, int]]:
    """'name' or 'name:key=val,key=val' -> (label, name, params).

    The parameters are validated here, before any worker starts or any
    formula is built, and so is the size: a formula with more value
    variables than the largest solver takes would only be built to be
    rejected.
    """
    name, _, tail = text.partition(":")
    params: dict[str, int] = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed instance parameter {item!r} in {text!r}")
            params[key.strip()] = int(value)
    bits = value_bit_count(name, params)
    if bits > DEFAULT_BUDGET:
        raise ValueError(f"{text}: {bits} value variables exceed {DEFAULT_BUDGET}, "
                         "the most any solver takes")
    return text, name, params


def normalize_trace(trace, optimum: float) -> list[float]:
    """Distance to the optimum, rescaled so iteration 0 sits at 1.

    An optimizer that starts at the optimum produces the all-zero curve.
    """
    if not trace:
        return []
    start = trace[0][1]
    span = start - optimum
    if span <= 1e-12:
        return [0.0 for _ in trace]
    return [min(1.0, max(0.0, (value - optimum) / span)) for _, value in trace]


def _convergence_cell(cell) -> tuple[int, list[str]]:
    index, label, name, params, solver, optimizer_kind, seed, max_iterations = cell
    problem = build_problem(generate_synthetic(name, params))
    if problem.spectrum is None:
        raise ValueError(f"{label} exceeds the oracle budget; no optimum to normalize by")
    spec = OptimizerSpec(kind=optimizer_kind, max_iterations=max_iterations)
    report = solve(problem, solver, optimizer=spec, seed=seed)
    curve = normalize_trace(report.convergence_trace, float(problem.spectrum.min_value))
    rows = [
        f"{label},{solver},{optimizer_kind},{seed},{i},{value!r}"
        for i, value in enumerate(curve)
    ]
    return index, rows


def _run_grid(cells, worker, jobs: int) -> list[str]:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, cells))
    else:
        results = [worker(cell) for cell in cells]
    rows: list[str] = []
    for _, cell_rows in sorted(results, key=lambda r: r[0]):
        rows.extend(cell_rows)
    return rows


def sweep_convergence(out_dir: Path, instances=DEFAULT_CONVERGENCE_INSTANCES, *,
                      runs: int = 5, seed: int = 42, max_iterations: int = 200,
                      jobs: int = 1) -> Path:
    cells = []
    index = 0
    for text in instances:
        label, name, params = parse_instance_spec(text)
        for solver in ("qaoa", "vqe"):
            for kind in KINDS:
                for run in range(runs):
                    cells.append((index, label, name, params, solver, kind,
                                  seed + run, max_iterations))
                    index += 1
    rows = _run_grid(cells, _convergence_cell, jobs)
    path = Path(out_dir) / "convergence.csv"
    write_text_atomic(path, "\n".join([CONVERGENCE_HEADER, *rows]) + "\n")
    return path


def _rate_cell(cell) -> tuple[int, list[str]]:
    index, label, name, params, seed, shots = cell
    problem = build_problem(generate_synthetic(name, params))
    report = solve(problem, "qsvt", shots=shots, seed=seed)
    exact = "" if problem.gap.exact_gap is None else repr(float(problem.gap.exact_gap))
    verdict = "sat" if isinstance(report.verdict, Sat) else "none"
    row = (
        f"{label},{problem.qubo.num_vars},{float(problem.gap.estimated_gap)!r},"
        f"{exact},{report.config['degree']},{report.rate_sampled!r},{verdict}"
    )
    return index, [row]


def sweep_rates(out_dir: Path, instances=DEFAULT_RATE_INSTANCES, *,
                seed: int = 42, shots: int = 100_000, jobs: int = 1) -> Path:
    cells = []
    for index, text in enumerate(instances):
        label, name, params = parse_instance_spec(text)
        cells.append((index, label, name, params, seed + index, shots))
    rows = _run_grid(cells, _rate_cell, jobs)
    path = Path(out_dir) / "rates.csv"
    write_text_atomic(path, "\n".join([RATES_HEADER, *rows]) + "\n")
    return path


def heatmap_value(half_degree: int, delta: float) -> float:
    """arctan(1 + log2 mu) — compresses the doubly exponential quality range
    into something plottable."""
    return math.atan(1.0 + filter_quality_log2_mu(FilterPolynomial(half_degree, delta)))


def sweep_heatmap(out_dir: Path, *, max_half_degree: int = 60,
                  max_inverse_gap: int = 20) -> Path:
    rows = []
    for d in range(1, max_half_degree + 1):
        for k in range(2, max_inverse_gap + 1):
            delta = 1.0 / k
            rows.append(f"{d},{delta!r},{heatmap_value(d, delta)!r}")
    path = Path(out_dir) / "heatmap.csv"
    write_text_atomic(path, "\n".join([HEATMAP_HEADER, *rows]) + "\n")
    return path
