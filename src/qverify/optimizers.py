"""Derivative-free minimizers for the variational loop.

Both optimizers are deterministic given (x0, spec, seed) and record one trace
entry per iteration, which the sweep layer later normalizes into convergence
curves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("simultaneous-perturbation", "trust-region")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "trust-region"
    max_iterations: int = 200

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; pick one of {KINDS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    trace: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0


def minimize(fn, x0, spec: OptimizerSpec, seed: int = 0, *,
             fn_batch=None) -> OptimizationResult:
    """Minimize ``fn`` from ``x0``.

    ``fn_batch(points)``, if given, returns the objective's value for each
    row of the 2-D array ``points`` and is called instead of ``fn``, which
    may then be None.  Both loops hand it every point they can name before
    needing a value: SPSA its calibration probes with its first step's, then
    each update's new point with the next step's probes; trust-region its
    coordinate probes.  The points, their order and the arithmetic on the
    values are those of evaluating one point at a time, so the result is
    bitwise the same as with ``fn`` alone, and ``fn`` alone is called on the
    points in that order.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if fn_batch is None:
        def fn_batch(points):
            return [fn(point) for point in points]
    if spec.kind == "simultaneous-perturbation":
        return _spsa(fn_batch, x0, spec, seed)
    return _trust_region(fn_batch, x0, spec)


def _spsa(fn_batch, x0, spec: OptimizerSpec, seed: int) -> OptimizationResult:
    # gain schedules a_k = a / (k+1+A)^0.602, c_k = c / (k+1)^0.101
    rng = np.random.default_rng(seed)
    dim = x0.size
    big_a = 0.1 * spec.max_iterations
    c = 0.2
    target_step = 0.1

    def probes(x, k):
        """Step k's perturbation, its size and the two probes around x."""
        ck = c / (k + 1) ** 0.101
        delta = rng.integers(0, 2, size=dim) * 2 - 1
        return delta, ck, [x + ck * delta, x - ck * delta]

    # calibrate a so the first update moves roughly target_step per parameter;
    # no objective draws from rng, so drawing all ten deltas first, then step
    # 0's, keeps the stream
    deltas = [rng.integers(0, 2, size=dim) * 2 - 1 for _ in range(10)]
    calibration = [p for delta in deltas for p in (x0 + c * delta, x0 - c * delta)]
    delta, ck, pair = probes(x0, 0)
    values = fn_batch(np.array([*calibration, x0, *pair]))
    magnitudes = [abs(values[i] - values[i + 1]) / (2 * c) for i in range(0, 20, 2)]
    a = target_step * (big_a + 1) ** 0.602 / max(float(np.mean(magnitudes)), 1e-10)
    best_value, plus, minus = values[20:]
    evals = len(values)

    x = x0.copy()
    best_x = x0.copy()
    trace: list[tuple[int, float]] = []
    for k in range(spec.max_iterations):
        grad = (plus - minus) / (2 * ck) * delta
        ak = a / (k + 1 + big_a) ** 0.602
        x = x - ak * grad
        points = [x]
        if k + 1 < spec.max_iterations:
            delta, ck, pair = probes(x, k + 1)
            points += pair
        value, *rest = fn_batch(np.array(points))
        evals += len(points)
        if rest:
            plus, minus = rest
        trace.append((k, float(value)))
        if value < best_value:
            best_value = float(value)
            best_x = x.copy()
    return OptimizationResult(best_x, float(best_value), trace, evals)


def _trust_region(fn_batch, x0, spec: OptimizerSpec) -> OptimizationResult:
    # linear model from coordinate offsets; shrink the radius on rejection
    radius = 0.5
    min_radius = 1e-4
    x = x0.copy()
    current, = fn_batch(x[None])
    evals = 1
    trace: list[tuple[int, float]] = []
    for k in range(spec.max_iterations):
        if radius < min_radius:
            break
        probes = np.tile(x, (x.size, 1))
        probes[np.diag_indices(x.size)] += radius
        grad = (np.asarray(fn_batch(probes), dtype=np.float64) - current) / radius
        evals += x.size
        norm = float(np.linalg.norm(grad))
        if norm < 1e-12:
            radius *= 0.5
            trace.append((k, float(current)))
            continue
        trial = x - radius * grad / norm
        trial_value, = fn_batch(trial[None])
        evals += 1
        if trial_value < current:
            x = trial
            current = trial_value
        else:
            radius *= 0.5
        trace.append((k, float(current)))
    return OptimizationResult(x, float(current), trace, evals)
