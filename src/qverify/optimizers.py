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


def minimize(fn, x0, spec: OptimizerSpec, seed: int = 0) -> OptimizationResult:
    x0 = np.asarray(x0, dtype=np.float64)
    if spec.kind == "simultaneous-perturbation":
        return _spsa(fn, x0, spec, seed)
    return _trust_region(fn, x0, spec)


def _spsa(fn, x0, spec: OptimizerSpec, seed: int) -> OptimizationResult:
    # gain schedules a_k = a / (k+1+A)^0.602, c_k = c / (k+1)^0.101
    rng = np.random.default_rng(seed)
    dim = x0.size
    big_a = 0.1 * spec.max_iterations
    c = 0.2
    target_step = 0.1

    # calibrate a so the first update moves roughly target_step per parameter
    evals = 0
    magnitudes = []
    for _ in range(10):
        delta = rng.integers(0, 2, size=dim) * 2 - 1
        diff = fn(x0 + c * delta) - fn(x0 - c * delta)
        evals += 2
        magnitudes.append(abs(diff) / (2 * c))
    a = target_step * (big_a + 1) ** 0.602 / max(float(np.mean(magnitudes)), 1e-10)

    x = x0.copy()
    best_x = x0.copy()
    best_value = fn(x0)
    evals += 1
    trace: list[tuple[int, float]] = []
    for k in range(spec.max_iterations):
        ck = c / (k + 1) ** 0.101
        delta = rng.integers(0, 2, size=dim) * 2 - 1
        diff = fn(x + ck * delta) - fn(x - ck * delta)
        grad = diff / (2 * ck) * delta
        ak = a / (k + 1 + big_a) ** 0.602
        x = x - ak * grad
        value = fn(x)
        evals += 3
        trace.append((k, float(value)))
        if value < best_value:
            best_value = float(value)
            best_x = x.copy()
    return OptimizationResult(best_x, float(best_value), trace, evals)


def _trust_region(fn, x0, spec: OptimizerSpec) -> OptimizationResult:
    # linear model from coordinate offsets; shrink the radius on rejection
    radius = 0.5
    min_radius = 1e-4
    x = x0.copy()
    current = fn(x)
    evals = 1
    trace: list[tuple[int, float]] = []
    for k in range(spec.max_iterations):
        if radius < min_radius:
            break
        grad = np.empty_like(x)
        for i in range(x.size):
            probe = x.copy()
            probe[i] += radius
            grad[i] = (fn(probe) - current) / radius
            evals += 1
        norm = float(np.linalg.norm(grad))
        if norm < 1e-12:
            radius *= 0.5
            trace.append((k, float(current)))
            continue
        trial = x - radius * grad / norm
        trial_value = fn(trial)
        evals += 1
        if trial_value < current:
            x = trial
            current = trial_value
        else:
            radius *= 0.5
        trace.append((k, float(current)))
    return OptimizationResult(x, float(current), trace, evals)
