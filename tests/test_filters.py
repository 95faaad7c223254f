"""Chebyshev threshold filter: exact pinning at 0, suppression on [delta, 1]."""

import numpy as np
import pytest

from qverify.solvers import (
    DegreeCapError,
    FilterPolynomial,
    choose_degree,
    eval_filter,
    filter_quality_log2_mu,
)

from reference import filter_quality_mu


def test_filter_validation():
    with pytest.raises(ValueError):
        FilterPolynomial(half_degree=0, delta=0.5)
    with pytest.raises(ValueError):
        FilterPolynomial(half_degree=3, delta=1.0)
    assert FilterPolynomial(half_degree=3, delta=0.5).degree == 6


def test_value_at_zero_is_exactly_one():
    for d in range(1, 61):
        for k in range(2, 21):
            f = FilterPolynomial(half_degree=d, delta=1.0 / k)
            assert eval_filter(f, 0.0) == 1.0


def test_hand_checked_degree_two_values():
    # 2d = 2, delta = 1/2: F(x) = T_1(y(x)) / T_1(y(0)) with y affine in x^2,
    # so F(1/2) = y(1/2)/y(0) = (-1)/(-5/3) = 3/5 and F(1) = 1/(-5/3) = -3/5
    f = FilterPolynomial(half_degree=1, delta=0.5)
    assert abs(eval_filter(f, 0.5) - 0.6) < 1e-12
    assert abs(eval_filter(f, 1.0) + 0.6) < 1e-12


def test_frozen_float_values():
    f = FilterPolynomial(half_degree=1, delta=0.5)
    assert repr(eval_filter(f, 0.5)) == "0.6000000000000001"
    assert repr(eval_filter(f, 1.0)) == "-0.6000000000000001"
    assert repr(eval_filter(FilterPolynomial(26, 1 / 6), 1 / 6)) == "0.000317468804885352"
    assert repr(eval_filter(FilterPolynomial(15, 1 / 6), 1 / 6)) == "0.012855575280437315"


def test_bounded_by_one_on_suppression_band():
    rng = np.random.default_rng(0)
    for d in (1, 3, 10, 40):
        for delta in (0.5, 0.25, 1 / 7, 0.05):
            f = FilterPolynomial(half_degree=d, delta=delta)
            xs = rng.uniform(delta, 1.0, 200)
            assert np.all(np.abs(eval_filter(f, xs)) <= 1 + 1e-9)


def test_equal_ripple_peak_sits_at_delta():
    # inside the band the filter oscillates with amplitude 1/T_d(y(0)); the
    # first extremum is at x = delta itself
    f = FilterPolynomial(half_degree=9, delta=1 / 6)
    xs = np.linspace(1 / 6, 1.0, 2000)
    band = np.max(np.abs(eval_filter(f, xs)))
    at_delta = abs(eval_filter(f, 1 / 6))
    assert at_delta >= band - 1e-12


def test_vectorized_matches_scalar():
    f = FilterPolynomial(half_degree=5, delta=0.2)
    xs = np.linspace(0.0, 1.0, 37)
    vec = eval_filter(f, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == eval_filter(f, float(x))


def test_quality_factor_hand_value():
    # d = 1, delta = 1/2: T_1(y(0)) = -5/3, mu = 25/9
    f = FilterPolynomial(half_degree=1, delta=0.5)
    assert abs(filter_quality_mu(f) - 25 / 9) < 1e-14
    assert abs(filter_quality_log2_mu(f) - np.log2(25 / 9)) < 1e-12


def test_quality_grows_exponentially_in_degree():
    log2 = [
        filter_quality_log2_mu(FilterPolynomial(d, 1 / 6)) for d in range(1, 30)
    ]
    assert all(b > a for a, b in zip(log2, log2[1:]))
    # asymptotic rate 2 log2(e) * d * delta-ish; just pin super-linearity
    assert log2[-1] > 4 * log2[4]


@pytest.mark.parametrize(
    "delta,n,want",
    [(1 / 4, 4, 5), (63 / 64, 2, 1), (1 / 6, 6, 9), (1 / 9, 9, 18)],
)
def test_choose_degree_frozen_table(delta, n, want):
    d = choose_degree(delta, n)
    assert d == want
    assert filter_quality_log2_mu(FilterPolynomial(d, delta)) >= n
    if want > 1:
        assert filter_quality_log2_mu(FilterPolynomial(want - 1, delta)) < n


def test_choose_degree_cap():
    with pytest.raises(DegreeCapError):
        choose_degree(1 / 100, 20)
