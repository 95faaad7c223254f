"""Property tests for the 2^n diagonal tables and the spectrum histogram."""
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import oracle
from qverify.cnf import Clause, CnfFormula
from qverify.oracle import enumerate_sat, qubo_spectrum
from qverify.reduction import (
    Auxiliary,
    Original,
    Qubo,
    _quadratic_table,
    cnf_to_qubo,
    qubo_to_ising,
)
from qverify.synthetic import generate_synthetic

from conftest import random_formula


@st.composite
def upper_qubos(draw, max_vars=7):
    n = draw(st.integers(0, max_vars))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    coeffs = {}
    for key in pairs:
        c = draw(st.integers(-50, 50))
        if c:
            coeffs[key] = c
    offset = draw(st.integers(-100, 100))
    return Qubo(num_vars=n, coeffs=coeffs, offset=offset,
                variable_map=tuple(Original(v + 1) for v in range(n)))


@st.composite
def formulas(draw, max_vars=6, max_clauses=6):
    n = draw(st.integers(1, max_vars))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(4, n),
                                  unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables),
                              max_size=len(variables)))
        clauses.append(Clause.of(*(-v if s else v for v, s in zip(variables, signs))))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=150, deadline=None)
@given(upper_qubos())
def test_objective_table_equals_scalar_objective(qubo):
    table = qubo.objective_table()
    assert table.dtype == np.int64
    assert table.shape == (1 << qubo.num_vars,)
    assert table.tolist() == [qubo.objective(a) for a in range(1 << qubo.num_vars)]


def test_objective_table_small_cases():
    empty = Qubo(num_vars=0, coeffs={}, offset=-7, variable_map=())
    assert empty.objective_table().tolist() == [-7]
    single = Qubo(num_vars=1, coeffs={(0, 0): -3}, offset=2, variable_map=(Original(1),))
    assert single.objective_table().tolist() == [2, -1]


def test_objective_table_refuses_more_than_24_variables():
    with pytest.raises(ValueError):
        Qubo(num_vars=25, coeffs={}, offset=0,
             variable_map=tuple(Original(v + 1) for v in range(25))).objective_table()


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_energy_table_is_objective_table_as_float(formula):
    qubo = cnf_to_qubo(formula)
    energies = qubo_to_ising(qubo).energy_table()
    expected = qubo.objective_table().astype(np.float64)
    assert energies.dtype == np.float64
    assert energies.tobytes() == expected.tobytes()


def _solver_fallback_qubos():
    """Reductions above the one-block table, where a solver with no Problem
    table builds `Qubo.objective_table` itself: `or` at 17 and 20 variables,
    and ten random formulas of 17-20 QUBO variables with auxiliaries."""
    qubos = [cnf_to_qubo(generate_synthetic("or", {"n": n})) for n in (17, 20)]
    rng = np.random.default_rng(17)
    while len(qubos) < 12:
        qubo = cnf_to_qubo(random_formula(rng, max_vars=14, max_clauses=8, max_width=5))
        if 17 <= qubo.num_vars <= 20 and qubo.num_auxiliary:
            qubos.append(qubo)
    return qubos


def test_energy_table_is_objective_table_as_float_above_the_one_block_table():
    for qubo in _solver_fallback_qubos():
        energies = qubo_to_ising(qubo).energy_table()
        assert energies.tobytes() == qubo.objective_table().astype(np.float64).tobytes()


def _assert_histogram_matches_scalar(qubo):
    summary = qubo_spectrum(qubo)
    want = Counter(qubo.objective(a) for a in range(1 << qubo.num_vars))
    assert summary.value_histogram == dict(want)
    assert list(summary.value_histogram) == sorted(want)
    assert summary.min_value == min(want) and summary.max_value == max(want)
    assert summary.min_count == want[summary.min_value]


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_spectrum_histogram_counts_scalar_objectives(formula):
    _assert_histogram_matches_scalar(cnf_to_qubo(formula))


@settings(max_examples=100, deadline=None)
@given(upper_qubos(max_vars=5))
def test_spectrum_histogram_of_arbitrary_qubo(qubo):
    _assert_histogram_matches_scalar(qubo)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_satisfying_assignments_are_an_int64_array(formula):
    summary = qubo_spectrum(cnf_to_qubo(formula))
    assert summary.satisfying.dtype == np.int64
    assert summary.satisfying_set == tuple(summary.satisfying.tolist())
    assert summary.satisfying_set == tuple(enumerate_sat(formula))


def test_table_build_allocates_only_the_table():
    n = 18
    q = np.random.default_rng(5).integers(-9, 10, size=(n, n))
    tracemalloc.start()
    try:
        table = _quadratic_table(q, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 << n
    assert peak <= (8 << n) + (64 << 10)


def _ising_reference(qubo):
    """The substitution x = (1 - z)/2 term by term in Fractions."""
    h = [Fraction(0)] * qubo.num_vars
    couplings = {}
    offset = Fraction(qubo.offset)
    for (i, j), coeff in qubo.coeffs.items():
        c = Fraction(coeff)
        if i == j:
            offset += c / 2
            h[i] -= c / 2
        else:
            offset += c / 4
            h[i] -= c / 4
            h[j] -= c / 4
            couplings[(i, j)] = couplings.get((i, j), Fraction(0)) + c / 4
    return tuple(h), {k: v for k, v in couplings.items() if v != 0}, offset


@st.composite
def qubos_with_zero_terms(draw, max_vars=7):
    n = draw(st.integers(0, max_vars))
    keys = draw(st.permutations([(i, j) for i in range(n) for j in range(i, n)]))
    coeffs = {key: draw(st.integers(-50, 50)) for key in keys[:draw(st.integers(0, len(keys)))]}
    return Qubo(num_vars=n, coeffs=coeffs, offset=draw(st.integers(-100, 100)),
                variable_map=tuple(Original(v + 1) for v in range(n)))


@settings(max_examples=200, deadline=None)
@given(qubos_with_zero_terms())
def test_qubo_to_ising_in_quarters_equals_fraction_reference(qubo):
    ising = qubo_to_ising(qubo)
    h, couplings, offset = _ising_reference(qubo)
    assert ising.h == h
    assert list(ising.couplings.items()) == list(couplings.items())
    assert ising.offset == offset
    assert all(isinstance(v, Fraction) for v in (*ising.h, *ising.couplings.values()))


def _full_table_spectrum(qubo):
    """Histogram and satisfying set read off the whole 2^n table."""
    table = _quadratic_table(qubo.dense(), qubo.offset)
    keys, counts = np.unique(table, return_counts=True)
    satisfying = np.empty(0, dtype=np.int64)
    if keys[0] == 0:
        zero = (table == 0).reshape(-1, 1 << qubo.num_original).any(axis=0)
        satisfying = np.flatnonzero(zero)
    return dict(zip(keys.tolist(), counts.tolist())), satisfying


def _assert_streamed_matches_full_table(qubo):
    summary = qubo_spectrum(qubo)
    histogram, satisfying = _full_table_spectrum(qubo)
    assert list(summary.value_histogram.items()) == list(histogram.items())
    assert summary.min_value == min(histogram)
    assert summary.max_value == max(histogram)
    assert summary.min_count == histogram[summary.min_value]
    assert summary.satisfying.dtype == np.int64
    assert np.array_equal(summary.satisfying, satisfying)


@st.composite
def prefixed_qubos(draw, max_vars=8):
    """QUBOs whose first num_original variables are original, the rest
    auxiliary; coefficients narrow (bincounted) or wide (merged uniques),
    some of them keyed (j, i) with j > i."""
    n = draw(st.integers(0, max_vars))
    num_original = draw(st.integers(0, n))
    bound = draw(st.sampled_from([3, 50, 10 ** 6]))
    coeffs = {}
    for i, j in [(i, j) for i in range(n) for j in range(i, n)]:
        c = draw(st.integers(-bound, bound))
        if c:
            coeffs[(j, i) if draw(st.booleans()) else (i, j)] = c
    variable_map = (tuple(Original(v + 1) for v in range(num_original))
                    + tuple(Auxiliary(0, s) for s in range(n - num_original)))
    return Qubo(num_vars=n, coeffs=coeffs, offset=draw(st.integers(-bound, bound)),
                variable_map=variable_map)


def _assert_with_small_blocks(qubo):
    # one block up to 3 variables, 8-entry blocks above: n below, at and
    # above the block, num_original on either side of it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "ONE_BLOCK_VARIABLES", 3)
        patch.setattr(oracle, "BLOCK_BITS", 3)
        _assert_streamed_matches_full_table(qubo)


@settings(max_examples=200, deadline=None)
@given(prefixed_qubos())
def test_streamed_spectrum_equals_full_table_for_hand_built_qubos(qubo):
    _assert_with_small_blocks(qubo)
    _assert_streamed_matches_full_table(qubo)


@settings(max_examples=150, deadline=None)
@given(formulas(max_vars=7, max_clauses=5))
def test_streamed_spectrum_equals_full_table_for_reduced_formulas(formula):
    _assert_with_small_blocks(cnf_to_qubo(formula))


@pytest.mark.parametrize("blocks", [(16, 14), (3, 3)])
def test_negative_minimum_beside_a_zero_has_no_satisfying_set(monkeypatch, blocks):
    # x1 gives -1 and x5 gives +1, so the objective is 0 where both or
    # neither are set: a zero in every 8-entry block of the small-block walk
    monkeypatch.setattr(oracle, "ONE_BLOCK_VARIABLES", blocks[0])
    monkeypatch.setattr(oracle, "BLOCK_BITS", blocks[1])
    qubo = Qubo(num_vars=5, coeffs={(0, 0): -1, (4, 4): 1}, offset=0,
                variable_map=tuple(Original(v + 1) for v in range(5)))
    summary = qubo_spectrum(qubo)
    assert summary.min_value == -1
    assert summary.value_histogram == {-1: 8, 0: 16, 1: 8}
    assert summary.satisfying.size == 0 and summary.satisfying_set == ()
    _assert_streamed_matches_full_table(qubo)


def test_streamed_spectrum_over_several_default_blocks():
    formula = CnfFormula(12, tuple(Clause.of(*c) for c in [
        (1, -2, 3, 4), (-1, 5, -6), (2, 6, 7, -8), (-3, 9, 10), (11, -12, 4, 5)]))
    qubo = cnf_to_qubo(formula)
    assert qubo.num_vars > oracle.ONE_BLOCK_VARIABLES
    _assert_streamed_matches_full_table(qubo)
    assert qubo_spectrum(qubo).satisfying_set == tuple(enumerate_sat(formula))


def test_spectrum_of_24_unsat_variables_stays_under_2_mb():
    rng = np.random.default_rng(8)
    clauses = [Clause.of(1), Clause.of(-1)]
    for _ in range(30):
        a, b = rng.choice(24, size=2, replace=False) + 1
        clauses.append(Clause.of(int(a) * int(rng.choice([-1, 1])), int(b)))
    qubo = cnf_to_qubo(CnfFormula(24, tuple(clauses)))
    assert qubo.num_vars == 24
    tracemalloc.start()
    try:
        summary = qubo_spectrum(qubo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.min_value >= 1 and summary.satisfying.size == 0
    assert sum(summary.value_histogram.values()) == 1 << 24
    assert peak < 2 << 20


def _assert_spectrum_keeps_the_objective_table(qubo):
    table = qubo_spectrum(qubo).table
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tobytes() == qubo.objective_table().tobytes()


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_spectrum_keeps_the_objective_table_of_reduced_formulas(formula):
    _assert_spectrum_keeps_the_objective_table(cnf_to_qubo(formula))


@settings(max_examples=100, deadline=None)
@given(prefixed_qubos())
def test_spectrum_keeps_the_objective_table_of_hand_built_qubos(qubo):
    _assert_spectrum_keeps_the_objective_table(qubo)


def test_spectrum_keeps_the_unshifted_table_of_a_negative_minimum():
    qubo = Qubo(num_vars=5, coeffs={(0, 0): -1, (4, 4): 1}, offset=0,
                variable_map=tuple(Original(v + 1) for v in range(5)))
    _assert_spectrum_keeps_the_objective_table(qubo)
    assert qubo_spectrum(qubo).table.min() == -1


@pytest.mark.parametrize("blocks", [(16, 14), (3, 3)])
def test_walked_spectrum_keeps_no_table(monkeypatch, blocks):
    monkeypatch.setattr(oracle, "ONE_BLOCK_VARIABLES", blocks[0])
    monkeypatch.setattr(oracle, "BLOCK_BITS", blocks[1])
    formula = CnfFormula(12, tuple(Clause.of(*c) for c in [
        (1, -2, 3, 4), (-1, 5, -6), (2, 6, 7, -8), (-3, 9, 10), (11, -12, 4, 5)]))
    qubos = [cnf_to_qubo(formula),
             Qubo(num_vars=5, coeffs={(0, 0): -1, (4, 4): 1}, offset=0,
                  variable_map=tuple(Original(v + 1) for v in range(5)))]
    for qubo in qubos:
        walked = qubo.num_vars > blocks[0]
        assert (qubo_spectrum(qubo).table is None) == walked
