"""Chebyshev eigenvalue filter separating 0 from the spectrum above a gap.

F(x) = T_d(y(x)) / T_d(y(0)) with y(x) = 2(x^2 - delta^2)/(1 - delta^2) - 1,
an even polynomial of degree 2d that is exactly 1 at x = 0 and bounded by
1/|T_d(y(0))| on [delta, 1].  T_d grows like exp(d * arccosh|y|) outside
[-1, 1], far past float range for the degrees the qubit-count rule asks for,
so evaluation runs in signed-log form throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEGREE_CAP = 200


class DegreeCapError(RuntimeError):
    """No half-degree within the cap reaches the requested quality."""


@dataclass(frozen=True)
class FilterPolynomial:
    """F_{2d, delta}; ``half_degree`` is the Chebyshev index d."""

    half_degree: int
    delta: float

    def __post_init__(self):
        if self.half_degree < 1:
            raise ValueError("half_degree must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")

    @property
    def degree(self) -> int:
        return 2 * self.half_degree


def _cheb_signed_log(d: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|T_d(y)|) elementwise; exact branches inside and outside [-1, 1]."""
    y = np.asarray(y, dtype=np.float64)
    inside = np.abs(y) <= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.cos(d * np.arccos(np.clip(y, -1.0, 1.0)))
        sign_in = np.sign(v)
        log_in = np.where(v == 0.0, -np.inf, np.log(np.abs(v)))
        # T_d(y) = cosh(d arccosh|y|) * sign(y)^d for |y| > 1
        t = np.arccosh(np.maximum(np.abs(y), 1.0))
        log_out = d * t + np.log1p(np.exp(-2.0 * d * t)) - np.log(2.0)
        sign_out = np.where(y > 0, 1.0, (-1.0) ** d)
    return np.where(inside, sign_in, sign_out), np.where(inside, log_in, log_out)


def _argument(x: np.ndarray, delta: float) -> np.ndarray:
    return 2.0 * (x * x - delta * delta) / (1.0 - delta * delta) - 1.0


def eval_filter(poly: FilterPolynomial, x):
    """F(x) for a scalar or array; F(0) is bitwise 1.0 because numerator and
    denominator run through the identical argument computation."""
    x_arr = np.asarray(x, dtype=np.float64)
    sign_n, log_n = _cheb_signed_log(poly.half_degree, _argument(x_arr, poly.delta))
    sign_0, log_0 = _cheb_signed_log(
        poly.half_degree, _argument(np.float64(0.0), poly.delta))
    out = sign_n * sign_0 * np.exp(log_n - log_0)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def filter_quality_log2_mu(poly: FilterPolynomial, delta: float | None = None) -> float:
    """log2 of mu = T_d(y(0))^2 evaluated for gap ``delta`` (default: the
    filter's own); stays finite where mu itself overflows."""
    gap = poly.delta if delta is None else delta
    if not 0.0 < gap < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    _, log_0 = _cheb_signed_log(poly.half_degree, _argument(np.float64(0.0), gap))
    return 2.0 * float(log_0) / np.log(2.0)


def filter_quality_mu(poly: FilterPolynomial, delta: float | None = None) -> float:
    """Suppression factor mu: squared filter values on [delta, 1] are bounded
    by 1/mu, so filtered probability mass drops by mu."""
    return float(2.0 ** filter_quality_log2_mu(poly, delta))


@lru_cache(maxsize=256)
def choose_degree(delta: float, num_qubits: int) -> int:
    """Smallest half-degree whose mu reaches 2^num_qubits.

    That makes the filtered mass of even an exponentially large non-solution
    subspace comparable to a single solution's.  Every d up to the cap is
    scored in one vectorized `_cheb_signed_log` call; the answer, a pure
    function of its arguments, is cached.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    degrees = np.arange(1, DEGREE_CAP + 1)
    _, log_0 = _cheb_signed_log(degrees, _argument(np.float64(0.0), delta))
    reached = np.flatnonzero(2.0 * log_0 / np.log(2.0) >= num_qubits)
    if reached.size:
        return int(degrees[reached[0]])
    raise DegreeCapError(
        f"no half-degree <= {DEGREE_CAP} reaches mu >= 2^{num_qubits} at delta {delta}"
    )
