"""Property tests for the 2^n diagonal tables and the spectrum histogram."""
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qverify import oracle
from qverify.cnf import Clause, CnfFormula
from qverify.oracle import qubo_spectrum
from qverify.reduction import (
    Auxiliary,
    Original,
    Qubo,
    _quadratic_table,
    _subset_sums,
    cnf_to_qubo,
    qubo_to_ising,
)
from qverify.synthetic import generate_synthetic

from conftest import random_formula
from reference import enumerate_sat


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
    # 11 variables: rows above the 8 low bits double up past the side table
    n = 11
    coeffs = {(i, j): (-1) ** (i + j) * (7 * i + 3 * j + 1)
              for i in range(n) for j in range(i, n) if (i * j + i) % 3}
    coeffs[(4, 4)] = -13
    coeffs[(10, 2)] = -40  # a lower-triangle key folds onto (2, 10)
    hand = Qubo(num_vars=n, coeffs=coeffs, offset=-5,
                variable_map=tuple(Original(v + 1) for v in range(n)))
    assert hand.objective_table().tolist() == [hand.objective(a) for a in range(1 << n)]


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


def _wrapped(value: int) -> int:
    """A Python int as int64 arithmetic leaves it: modulo 2^64, signed."""
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 6), st.sampled_from([(), (1,), (3,)]), st.booleans())
def test_subset_sums_are_the_sums_over_set_bits(data, bits, tail, transposed):
    # 1-D weights as for the elimination's cost rows, 2-D as for the side
    # table, and a transposed output as for the walk's columns; the weights
    # span all of int64, so the sums wrap
    weights = data.draw(arrays(np.int64, (bits, *tail)))
    shape = (1 << bits, *tail)
    out = np.empty(shape[::-1], dtype=np.int64).T if transposed else np.empty(shape, np.int64)
    out[0] = data.draw(arrays(np.int64, tail))
    _subset_sums(weights, out)
    width = int(np.prod(tail))
    rows = weights.reshape(bits, width).tolist()
    base = out[0].reshape(width).tolist()
    for x in range(1 << bits):
        direct = [b + sum(rows[j][c] for j in range(bits) if x >> j & 1)
                  for c, b in enumerate(base)]
        assert out[x].reshape(width).tolist() == [_wrapped(v) for v in direct]


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
def prefixed_qubos(draw, max_vars=8, bounds=(3, 50, 10 ** 6)):
    """QUBOs whose first num_original variables are original, the rest
    auxiliary; coefficients narrow (bincounted) or wide (merged uniques),
    some of them keyed (j, i) with j > i."""
    n = draw(st.integers(0, max_vars))
    num_original = draw(st.integers(0, n))
    bound = draw(st.sampled_from(bounds))
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
    if qubo.num_vars > oracle.ONE_BLOCK_VARIABLES:
        # walked or eliminated in blocks: no whole table is built to keep
        assert table is None
        return
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tobytes() == qubo.objective_table().tobytes()


@settings(max_examples=100, deadline=None)
@given(formulas())
# five 4-literal clauses add two auxiliaries each: 17 QUBO variables
@example(CnfFormula(6, tuple(Clause.of(*c) for c in [(1, 2, 3)] + [(1, 2, 3, 4)] * 5)))
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


def _route_spectrum(route, qubo):
    """(keys, counts, satisfying) as `qubo_spectrum` reads them off one
    route, called directly: the walk, or elimination with its minimizers."""
    if route == "walk":
        keys, counts, mask, _ = oracle._stream(qubo)
    else:
        keys, counts, minimizers = oracle._eliminate(qubo)
        mask = minimizers() if keys[0] == 0 else None
    satisfying = np.flatnonzero(mask) if keys[0] == 0 else np.empty(0, dtype=np.int64)
    return keys, counts, satisfying


def _assert_route_matches_full_table(route, qubo):
    keys, counts, satisfying = _route_spectrum(route, qubo)
    histogram, want = _full_table_spectrum(qubo)
    assert list(zip(keys.tolist(), counts.tolist())) == list(histogram.items())
    assert keys[0] == min(histogram) and keys[-1] == max(histogram)
    assert counts[0] == histogram[min(histogram)]
    assert satisfying.dtype == np.int64
    assert satisfying.tobytes() == want.tobytes()


def _assert_minimizers_match_full_table(qubo):
    # the minimizers of any minimum, not only of 0, projected onto the prefix
    keys, _, minimizers = oracle._eliminate(qubo)
    table = _quadratic_table(qubo.dense(), qubo.offset)
    want = (table == table.min()).reshape(-1, 1 << qubo.num_original).any(axis=0)
    assert keys[0] == table.min()
    assert np.array_equal(minimizers(), want)


def _assert_both_routes_match_full_table(qubo):
    # blocks wide enough that elimination takes every QUBO of at most 8
    # variables, then 8-entry blocks, so that above 3 variables the walk
    # walks rather than counting the one-block table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "BLOCK_BITS", 20)
        _assert_route_matches_full_table("eliminate", qubo)
        _assert_minimizers_match_full_table(qubo)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "ONE_BLOCK_VARIABLES", 3)
        patch.setattr(oracle, "BLOCK_BITS", 3)
        _assert_route_matches_full_table("walk", qubo)


@settings(max_examples=200, deadline=None)
@given(prefixed_qubos(bounds=(3, 50)))
def test_both_routes_equal_full_table_for_hand_built_qubos(qubo):
    _assert_both_routes_match_full_table(qubo)


@settings(max_examples=150, deadline=None)
@given(formulas(max_vars=7, max_clauses=5))
def test_both_routes_equal_full_table_for_reduced_formulas(formula):
    _assert_both_routes_match_full_table(cnf_to_qubo(formula))


def _prefixed(n, num_original, coeffs, offset=0):
    return Qubo(num_vars=n, coeffs=coeffs, offset=offset,
                variable_map=tuple(Original(v + 1) for v in range(num_original))
                + tuple(Auxiliary(0, s) for s in range(n - num_original)))


@pytest.mark.parametrize("qubo", [
    _prefixed(0, 0, {}),
    _prefixed(0, 0, {}, offset=4),
    _prefixed(0, 0, {}, offset=-3),
    _prefixed(3, 0, {(0, 0): 1, (0, 1): -1, (1, 2): 2}),
    _prefixed(3, 0, {(0, 0): 2, (1, 1): 1}, offset=1),
    _prefixed(5, 5, {(0, 0): -1, (4, 4): 1}),
    _prefixed(6, 3, {(0, 0): 1, (0, 5): -1, (3, 3): 2}),
    _prefixed(4, 2, {}),
    _prefixed(4, 4, {(1, 1): 0, (2, 0): 0}),
], ids=["n=0", "n=0, offset 4", "n=0, offset -3", "no original, zero",
        "no original, no zero", "negative minimum beside a zero", "isolated variables",
        "all-zero objective", "all-zero coefficients"])
def test_both_routes_on_named_cases(qubo):
    _assert_both_routes_match_full_table(qubo)
    assert oracle._eliminate(qubo) is not None


def _sized_formula(seed, qubo_vars, satisfiable):
    """A 2/3-CNF of exactly ``qubo_vars`` QUBO variables: a quarter of them
    3-clause auxiliaries, 1.6 clauses per CNF variable.  A satisfiable one
    keeps a hidden assignment; an unsatisfiable one holds the four 2-clauses
    over two variables."""
    rng = np.random.default_rng(seed)
    n3 = round(qubo_vars / 4)
    n = qubo_vars - n3
    n2 = max(4, round(n * 1.6) - n3) - (0 if satisfiable else 4)
    hidden = rng.integers(0, 2, size=n)
    clauses = []
    for width in [2] * n2 + [3] * n3:
        variables = rng.choice(n, size=width, replace=False)
        negated = rng.integers(0, 2, size=width)
        if satisfiable and (hidden[variables] == negated).all():
            negated[0] ^= 1
        clauses.append(Clause.of(*(int(-(v + 1) if s else v + 1)
                                   for v, s in zip(variables, negated))))
    if not satisfiable:
        a, b = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        clauses += [Clause.of(sa * a, sb * b) for sa in (1, -1) for sb in (1, -1)]
    return CnfFormula(n, tuple(clauses))


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("qubo_vars", [20, 22, 24])
@pytest.mark.parametrize("satisfiable", [True, False])
def test_narrow_reductions_of_20_to_24_variables_are_eliminated(monkeypatch, qubo_vars,
                                                                satisfiable, seed):
    formula = _sized_formula(100 * seed + qubo_vars, qubo_vars, satisfiable)
    qubo = cnf_to_qubo(formula)
    assert qubo.num_vars == qubo_vars and qubo.num_auxiliary
    keys, counts, mask, _ = oracle._stream(qubo)
    monkeypatch.setattr(oracle, "ELIMINATION_VARIABLES", 20)
    monkeypatch.setattr(oracle, "_stream", _refuse("_stream"))
    summary = qubo_spectrum(qubo)
    assert summary.value_histogram == dict(zip(keys.tolist(), counts.tolist()))
    assert (summary.min_value == 0) == satisfiable
    if satisfiable:
        assert summary.satisfying.tobytes() == np.flatnonzero(mask).tobytes()
        assert summary.satisfying_set == tuple(enumerate_sat(formula))
    assert summary.table is None


@pytest.mark.parametrize("qubo_vars", [17, 18, 19, 20, 21, 22, 24])
def test_reductions_walk_below_elimination_variables_and_are_eliminated_from_it(
        monkeypatch, qubo_vars):
    eliminated = qubo_vars >= oracle.ELIMINATION_VARIABLES
    refused = "_stream" if eliminated else "_eliminate"
    monkeypatch.setattr(oracle, refused, _refuse(refused))
    for satisfiable in (True, False):
        formula = _sized_formula(qubo_vars, qubo_vars, satisfiable)
        summary = qubo_spectrum(cnf_to_qubo(formula))
        assert summary.satisfying_set == tuple(enumerate_sat(formula))
        assert summary.table is None


def test_a_dense_qubo_walks_without_allocating_a_bucket(monkeypatch):
    n = 22
    rng = np.random.default_rng(22)
    coeffs = {(i, j): int(rng.choice([-2, -1, 1, 2])) for i in range(n) for j in range(i, n)}
    qubo = _prefixed(n, 12, coeffs, offset=5)
    tracemalloc.start()
    try:
        assert oracle._eliminate(qubo) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a bucket of the first eliminated variable would hold 2^22 rows
    assert peak < 64 << 10
    keys, counts, _, _ = oracle._stream(qubo)
    eliminate, refusals = oracle._eliminate, []

    def refused(qubo):
        refusals.append(eliminate(qubo))
        return refusals[-1]

    monkeypatch.setattr(oracle, "_eliminate", refused)
    summary = qubo_spectrum(qubo)
    assert refusals == [None]
    assert summary.value_histogram == dict(zip(keys.tolist(), counts.tolist()))


def test_many_zeros_take_their_mask_from_the_walk(monkeypatch):
    # all 2^21 assignments of p cnf 21 0 are zeros, past 2^(21 - 6)
    eliminate, walk = oracle._eliminate, oracle._stream
    walked = []

    def counts_only(qubo):
        keys, counts, _ = eliminate(qubo)
        return keys, counts, _refuse("minimizers")

    def stream(qubo):
        walked.append(qubo.num_vars)
        return walk(qubo)

    monkeypatch.setattr(oracle, "ELIMINATION_VARIABLES", 21)
    monkeypatch.setattr(oracle, "_eliminate", counts_only)
    monkeypatch.setattr(oracle, "_stream", stream)
    summary = qubo_spectrum(cnf_to_qubo(CnfFormula(21, ())))
    assert walked == [21]
    assert summary.value_histogram == {0: 1 << 21}
    assert summary.satisfying.tobytes() == np.arange(1 << 21, dtype=np.int64).tobytes()


def test_24_satisfiable_variables_are_eliminated_under_2_mb(monkeypatch):
    formula = _sized_formula(7, 24, True)
    qubo = cnf_to_qubo(formula)
    assert qubo.num_vars == 24 and qubo.num_auxiliary == 6
    monkeypatch.setattr(oracle, "_stream", _refuse("_stream"))
    tracemalloc.start()
    try:
        summary = qubo_spectrum(qubo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.min_value == 0 and summary.satisfying.size
    assert summary.satisfying_set == tuple(enumerate_sat(formula))
    assert sum(summary.value_histogram.values()) == 1 << 24
    assert peak < 2 << 20

