"""QSVT and Grover sample from probabilities built per level and per
(marked, unmarked) pair; these tests keep the complex states they used to
build as the bitwise reference, and the dict-based verdict as the reference
for the array one."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qverify.simulator as simulator
import qverify.solvers.qsvt as qsvt
from qverify.cnf import Clause, CnfFormula
from qverify.optimizers import OptimizerSpec
from qverify.oracle import DEFAULT_BUDGET
from qverify.pipeline import build_problem, solve
from qverify.reduction import GapInfo, IsingModel, Qubo
from qverify.simulator import (
    DiagonalHamiltonian,
    Statevector,
    grover_probabilities,
    level_index,
    oracle_signs,
    sample,
    sample_counts,
    sample_probabilities,
    spawn_seeds,
)
from qverify.solvers import (
    FilterPolynomial,
    NoSolutionFound,
    choose_degree,
    eval_filter,
    grover_schedule,
    solve_qsvt,
)
from qverify.solvers.qsvt import _levels, _scale_and_delta, joint_probabilities
from qverify.solvers.report import first_verified, verified_sample
from qverify.synthetic import generate_synthetic

from conftest import random_formula
from reference import grover_states, project_candidates

CATALOG = ["unique", "semi-unique", "two-solutions", "two-solutions-overlap",
           "three-solutions", "addition", "flow", "indicator", "or:n=3", "xor:n=3"]


def _catalog_problem(spec, oracle_budget=DEFAULT_BUDGET):
    name, _, params = spec.partition(":")
    return build_problem(generate_synthetic(name, dict(
        (k, int(v)) for k, v in (p.split("=") for p in params.split(",") if p))),
        oracle_budget)


def _reduced_problems(count=40, max_qubo_vars=12):
    rng = np.random.default_rng(2024)
    problems = []
    while len(problems) < count:
        problem = build_problem(random_formula(rng, max_vars=10, max_clauses=12, max_width=4))
        if problem.qubo.num_vars <= max_qubo_vars:
            problems.append(problem)
    return problems


def _joint_state_reference(ising: IsingModel, poly: FilterPolynomial, scale: int):
    """The 2^(n+1) complex joint state QSVT used to build and sample: its
    probabilities and the post-selection rate."""
    ham = DiagonalHamiltonian(ising.n, ising.energy_table())
    filtered = ham.per_level(lambda values: eval_filter(poly, values / scale))
    dim = 1 << ising.n
    amps = np.empty(2 * dim, dtype=np.complex128)
    amps[:dim] = filtered / np.sqrt(dim)
    amps[dim:] = np.sqrt(np.maximum(0.0, 1.0 - filtered**2)) / np.sqrt(dim)
    joint = Statevector(ising.n + 1, amps)
    return joint.probabilities(), float(np.sum(np.abs(amps[:dim]) ** 2))


def _assert_qsvt_distribution_is_the_joint_state(problem):
    scale, delta = _scale_and_delta(problem.gap)
    poly = FilterPolynomial(choose_degree(delta, problem.ising.n), delta)
    want, want_rate = _joint_state_reference(problem.ising, poly, scale)
    for values in (problem.table, problem.ising.energy_table()):
        levels, index = _levels(values)
        assert np.array_equal(levels[index], values)
        assert np.array_equal(joint_probabilities(levels, index, scale, poly), want)
    report = solve_qsvt(problem.qubo, problem.formula, problem.gap,
                        table=problem.table, seed=3)
    assert report.rate == want_rate


def test_qsvt_distribution_is_bitwise_the_joint_state_on_reduced_formulas():
    for problem in _reduced_problems():
        _assert_qsvt_distribution_is_the_joint_state(problem)


@pytest.mark.parametrize("spec", CATALOG)
def test_qsvt_distribution_is_bitwise_the_joint_state_on_the_catalog(spec):
    _assert_qsvt_distribution_is_the_joint_state(_catalog_problem(spec))


def test_qsvt_levels_fall_back_to_the_values_for_other_tables():
    poly = FilterPolynomial(3, 0.25)
    for values in ([0.0, 0.5, 1.0, 2.0], [0.0, 9.0, 1.0, 2.0], [0.0, -1.0, 1.0, 2.0]):
        values = np.array(values)
        levels, index = _levels(values)
        assert np.array_equal(levels, values) and index.tolist() == [0, 1, 2, 3]
        ham_probs = joint_probabilities(levels, index, 10, poly)
        amps = eval_filter(poly, values / 10) / 2.0
        assert np.array_equal(ham_probs[:4], np.abs(amps.astype(np.complex128)) ** 2)


def test_level_index_reads_an_int64_table_in_place_for_both_callers():
    indexed = 0
    for problem in _reduced_problems(count=10):
        table = problem.table
        ham = DiagonalHamiltonian(problem.qubo.num_vars, table)
        found = level_index(table)
        if found is None:  # more levels than assignments
            assert table.max() >= table.size and ham._levels is None
            continue
        indexed += 1
        index, top = found
        assert index is table and top == table.max()
        ham_index, ham_top = ham._levels
        assert ham_index.dtype == np.int64 and np.array_equal(ham_index, table)
        assert ham_top == top
        levels, qsvt_index = _levels(table)
        assert qsvt_index is table and np.array_equal(levels, np.arange(top + 1))
    assert indexed >= 5


def test_per_level_is_fn_of_the_values_from_every_kind_of_table():
    # an int64 table indexes its own levels (a writable one through a copy),
    # and a float table keeps the equality check; per_level stays bitwise
    # fn(values) either way
    rng = np.random.default_rng(20)
    gammas = np.array([0.3, -1.7, 2.5])
    fns = [lambda v: np.exp(-1j * 0.7 * v), lambda v: np.exp(-1j * gammas[:, None] * v),
           lambda v: np.cos(v / 3.0)]
    for n in (1, 4, 10):
        table = rng.integers(0, 1 << n, size=1 << n)
        frozen = table.copy()
        frozen.setflags(write=False)
        for values, indexed in ((table, True), (frozen, True),
                                (table.astype(np.float64), True), (table + 0.5, False)):
            ham = DiagonalHamiltonian(n, values)
            for fn in fns:
                assert ham.per_level(fn).tobytes() == fn(ham.values).tobytes()
            assert (ham._levels is not None) == indexed
        assert DiagonalHamiltonian(n, frozen)._levels[0] is frozen
        ham = DiagonalHamiltonian(n, table)
        want = ham.per_level(fns[0])
        table += 1  # the caller's writable table may change; the Hamiltonian may not
        assert ham.per_level(fns[0]).tobytes() == want.tobytes()


def test_problem_table_is_the_energy_table_and_read_only():
    for problem in _reduced_problems(count=10):
        assert problem.table.dtype == np.int64 and not problem.table.flags.writeable
        assert np.array_equal(problem.table.astype(np.float64),
                              problem.ising.energy_table())
        assert problem.table.tobytes() == problem.qubo.objective_table().tobytes()


def test_problem_has_no_table_out_of_budget_or_above_one_block():
    formula = CnfFormula(17, tuple(Clause.of(v, v + 1) for v in range(1, 17)))
    assert build_problem(formula).table is None
    assert build_problem(formula, oracle_budget=16).spectrum is None
    small = CnfFormula(6, (Clause.of(1, 2),))
    assert build_problem(small, oracle_budget=4).table is None


def test_build_problem_builds_the_objective_table_once(monkeypatch):
    calls = []
    build = Qubo.objective_table

    def counted(qubo):
        calls.append(qubo.num_vars)
        return build(qubo)

    monkeypatch.setattr(Qubo, "objective_table", counted)
    rng = np.random.default_rng(14)
    formulas = [random_formula(rng, max_vars=10, max_clauses=12, max_width=4)
                for _ in range(20)]
    formulas.append(generate_synthetic("two-solutions", {}))
    formulas.append(CnfFormula(17, tuple(Clause.of(v, v + 1) for v in range(1, 17))))
    sizes = set()
    for formula in formulas:
        calls.clear()
        problem = build_problem(formula)
        n = problem.qubo.num_vars
        sizes.add(n)
        if n <= 16:
            assert calls == [n]
            assert problem.table is problem.spectrum.table
        else:
            assert calls == [] and problem.table is None
    assert 16 in sizes and min(sizes) < 16 < max(sizes)


@pytest.mark.parametrize("spec, budget, solver", [
    *(("unique", DEFAULT_BUDGET, solver) for solver in ("qaoa", "vqe", "qsvt")),
    # no table: out of the oracle budget, or above the one-block table
    *((spec, 0, solver) for spec in ("unique", "three-solutions")
      for solver in ("qaoa", "vqe", "qsvt")),
    *(("or:n=17", DEFAULT_BUDGET, solver) for solver in ("qaoa", "vqe")),
])
def test_solvers_read_the_problem_table_not_the_energy_table(spec, budget, solver,
                                                             monkeypatch):
    import qverify.pipeline as pipeline

    problem = _catalog_problem(spec, budget)
    assert (problem.table is None) == (budget == 0 or problem.qubo.num_vars > 16)
    optimizer = OptimizerSpec(max_iterations=1)
    want = solve(problem, solver, optimizer=optimizer, layers=1, shots=64, seed=4)

    def refuse(*args):
        raise AssertionError("the Ising model or its energy table was built")

    monkeypatch.setattr(IsingModel, "energy_table", refuse)
    monkeypatch.setattr(pipeline, "qubo_to_ising", refuse)
    fresh = _catalog_problem(spec, budget)  # no cached Problem.ising to hide a build
    assert solve(fresh, solver, optimizer=optimizer, layers=1, shots=64, seed=4) == want


@pytest.mark.parametrize("solver", ["qaoa", "vqe", "qsvt"])
def test_solvers_give_the_same_report_from_either_diagonal(solver):
    problem = _catalog_problem("three-solutions")
    with_table = solve(problem, solver, layers=1, shots=128, seed=8)
    problem.table = None
    assert solve(problem, solver, layers=1, shots=128, seed=8) == with_table


def test_qsvt_range_check_still_rejects_a_diagonal_above_the_scale():
    problem = _catalog_problem("unique")
    small = GapInfo(bound_M=1, estimated_gap=Fraction(1, 1))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        solve_qsvt(problem.qubo, problem.formula, small, table=problem.table)
    wide = problem.table * 1000  # levels above 2^n: the values are the levels
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        solve_qsvt(problem.qubo, problem.formula, problem.gap, table=wide)
    negative = problem.table - 1
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        solve_qsvt(problem.qubo, problem.formula, problem.gap, table=negative)


def test_qsvt_norm_check_still_rejects_a_filter_above_one(monkeypatch):
    problem = _catalog_problem("unique")
    monkeypatch.setattr(qsvt, "eval_filter", lambda poly, x: np.full_like(x, 2.0))
    with pytest.raises(ValueError, match="norm"):
        solve_qsvt(problem.qubo, problem.formula, problem.gap, table=problem.table)


def _assert_grover_points_are_the_states_squared(formula, extra):
    signs = oracle_signs(formula, extra_control=extra)
    iterations = [t for _, t in grover_schedule(formula.num_variables + extra)]
    points = list(grover_probabilities(signs, iterations))
    assert len(points) == len(iterations)
    for probs, state in zip(points, grover_states(signs, iterations)):
        assert np.array_equal(probs, np.abs(state.amplitudes) ** 2)


@pytest.mark.parametrize("extra", [False, True], ids=["plain", "doubled"])
def test_grover_probabilities_are_bitwise_the_states_squared(extra):
    rng = np.random.default_rng(99)
    for _ in range(25):
        _assert_grover_points_are_the_states_squared(random_formula(rng, max_vars=9), extra)
    for formula in (CnfFormula(4, ()),
                    CnfFormula(2, (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2),
                                   Clause.of(-1, -2)))):
        _assert_grover_points_are_the_states_squared(formula, extra)


def test_sample_probabilities_rejects_an_unnormalised_state():
    with pytest.raises(ValueError, match="norm"):
        sample_probabilities(np.array([0.5, 0.6]), 10, 0)
    with pytest.raises(ValueError, match="shots"):
        sample_probabilities(np.array([0.5, 0.5]), 0, 0)


def test_sample_counts_is_the_dict_sample():
    state = Statevector(3, np.full(8, 8 ** -0.5, dtype=np.complex128))
    outcomes, counts = sample_counts(state, 500, 11)
    assert outcomes.dtype == np.int64 and np.all(np.diff(outcomes) > 0)
    assert dict(zip(outcomes.tolist(), counts.tolist())) == sample(state, 500, 11)


@st.composite
def formulas(draw, max_variables=6, max_clauses=6):
    n = draw(st.integers(1, max_variables))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(3, n),
                                  unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables),
                              max_size=len(variables)))
        clauses.append(Clause.of(*(-v if s else v for v, s in zip(variables, signs))))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=300, deadline=None)
@given(formulas(), st.integers(0, 3), st.data())
def test_array_verdict_is_the_dict_verdict(formula, aux_bits, data):
    top = (1 << (formula.num_variables + aux_bits)) - 1
    outcomes = sorted(data.draw(st.sets(st.integers(0, top), max_size=24)))
    counts = data.draw(st.lists(st.integers(1, 3), min_size=len(outcomes),
                                max_size=len(outcomes)))
    want = first_verified(formula, (a for a, _ in project_candidates(
        dict(zip(outcomes, counts)), formula.num_variables)))
    got = verified_sample(formula, np.array(outcomes, dtype=np.int64),
                          np.array(counts, dtype=np.int64))
    assert got == want


def test_qsvt_on_16_unsat_variables_peaks_under_3_mb():
    # variables 1 and 2 carry a four-clause core; a chain reaches the rest
    core = (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2), Clause.of(-1, -2))
    chain = tuple(Clause.of(v, -(v + 1)) for v in range(2, 16))
    problem = build_problem(CnfFormula(16, core + chain))
    assert problem.qubo.num_vars == 16 and problem.table is not None
    solve(problem, "qsvt", seed=1)  # the first call's lazy imports are not the solver's
    choose_degree.cache_clear()
    tracemalloc.start()
    try:
        report = solve(problem, "qsvt", seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(report.verdict, NoSolutionFound)
    assert peak < 3 << 20


def test_building_a_16_variable_problem_counts_its_table_without_a_copy():
    # np.bincount copies a read-only input, so the table is frozen only after
    # the spectrum has counted it: the peak is the table and its zero mask
    core = (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2), Clause.of(-1, -2))
    chain = tuple(Clause.of(v, -(v + 1)) for v in range(2, 16))
    formula = CnfFormula(16, core + chain)
    build_problem(formula)
    tracemalloc.start()
    try:
        problem = build_problem(formula)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.qubo.num_vars == 16 and not problem.table.flags.writeable
    assert peak < problem.table.nbytes * 3 // 2


@st.composite
def probability_vectors(draw):
    """Normalised vectors of 2 to 2^12 entries, some zero, whose mass may
    sit wholly before or wholly after a split point."""
    size = draw(st.integers(2, 1 << 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(size)
    weights[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    split = draw(st.integers(1, size - 1))
    shape = draw(st.sampled_from(["spread", "head-holds-all", "head-holds-none"]))
    if shape == "head-holds-all":
        weights[split:] = 0.0
    elif shape == "head-holds-none":
        weights[:split] = 0.0
    if not weights.any():
        weights[size - 1 if shape == "head-holds-none" else 0] = 1.0
    return weights / weights.sum()


@settings(max_examples=100, deadline=None)
@given(probability_vectors(), st.sampled_from([1, 7, 2048, 100_000]),
       st.integers(0, 2**63 - 1))
def test_drawing_below_kept_gives_the_full_draws_counts(probs, shots, seed):
    # numpy's multinomial draws categories in index order; if a numpy
    # upgrade changes that order, this is the test that fails
    full_outcomes, full_counts = sample_probabilities(probs.copy(), shots, seed)
    for kept in range(1, probs.size + 1):
        outcomes, counts = sample_probabilities(probs.copy(), shots, seed, kept=kept)
        below = np.searchsorted(full_outcomes, kept)
        assert outcomes.dtype == np.int64
        assert np.array_equal(outcomes, full_outcomes[:below])
        assert np.array_equal(counts, full_counts[:below])


def test_sample_probabilities_checks_the_whole_vector_and_kept():
    with pytest.raises(ValueError, match="norm"):
        sample_probabilities(np.array([0.5, 0.6]), 10, 0, kept=1)
    for kept in (0, 3):
        with pytest.raises(ValueError, match="kept"):
            sample_probabilities(np.array([0.5, 0.5]), 10, 0, kept=kept)


def _qsvt_full_draw_reference(problem, shots, seed):
    """What solve_qsvt did before its draw stopped at the post-selected half:
    the draw over all 2^(n+1) joint outcomes, cut at 2^n.  Returns the
    verdict, the post-selected count and the least post-selected objective."""
    values = problem.table if problem.table is not None else problem.ising.energy_table()
    scale, delta = _scale_and_delta(problem.gap)
    poly = FilterPolynomial(choose_degree(delta, problem.ising.n), delta)
    probs = joint_probabilities(*_levels(values), scale, poly)
    sample_seed, = spawn_seeds(seed, 1)
    outcomes, counts = sample_probabilities(probs, shots, sample_seed)
    kept = np.searchsorted(outcomes, 1 << problem.ising.n)
    post_selected = int(counts[:kept].sum())
    verdict = verified_sample(problem.formula, outcomes[:kept], counts[:kept])
    if verdict is None:
        verdict = NoSolutionFound(
            f"no verified witness among {post_selected} post-selected samples")
    best = float(values[outcomes[:kept]].min()) if kept else math.inf
    return verdict, post_selected, best


def _assert_qsvt_matches_the_full_draw(problem):
    for shots in (1, 64, 2048):
        for seed in (0, 1, 5, 2024):
            report = solve_qsvt(problem.qubo, problem.formula, problem.gap,
                                table=problem.table, shots=shots, seed=seed)
            verdict, post_selected, best = _qsvt_full_draw_reference(problem, shots, seed)
            assert report.verdict == verdict  # a NoSolutionFound compares its reason
            assert report.rate_sampled == post_selected / shots
            assert report.best_value == best


def test_qsvt_post_selected_draw_matches_the_full_draw_on_reduced_formulas():
    for problem in _reduced_problems(count=20):
        _assert_qsvt_matches_the_full_draw(problem)


@pytest.mark.parametrize("spec", CATALOG)
def test_qsvt_post_selected_draw_matches_the_full_draw_on_the_catalog(spec):
    _assert_qsvt_matches_the_full_draw(_catalog_problem(spec))


def _sixteen_variable_unsat_problem():
    # variables 1 and 2 carry a four-clause core; a chain reaches the rest
    core = (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2), Clause.of(-1, -2))
    chain = tuple(Clause.of(v, -(v + 1)) for v in range(2, 16))
    problem = build_problem(CnfFormula(16, core + chain))
    assert problem.qubo.num_vars == 16 and problem.table is not None
    return problem


def test_qsvt_best_value_is_inf_when_no_shot_is_post_selected():
    report = solve(_sixteen_variable_unsat_problem(), "qsvt", shots=1, seed=1)
    assert isinstance(report.verdict, NoSolutionFound)
    assert report.rate_sampled == 0.0
    assert report.best_value == math.inf


def test_qsvt_on_16_unsat_variables_peaks_under_1_8_mb():
    # the draw's counts cover the 2^16 post-selected outcomes and one more,
    # not all 2^17 joint ones
    problem = _sixteen_variable_unsat_problem()
    solve(problem, "qsvt", seed=1)  # the first call's lazy imports are not the solver's
    choose_degree.cache_clear()
    tracemalloc.start()
    try:
        report = solve(problem, "qsvt", seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(report.verdict, NoSolutionFound)
    assert peak < 1.8 * (1 << 20)


def _near_empty_probs(size, kept, mass, zeros, seed):
    """A normalised vector of ``size`` entries whose first ``kept`` hold
    ``mass``, with a share ``zeros`` of all entries exactly 0."""
    rng = np.random.default_rng([seed, 1])  # not the stream the draw reads
    probs = rng.random(size)
    probs[rng.random(size) < zeros] = 0.0
    head, tail = probs[:kept], probs[kept:]
    if head.any():
        head *= mass / head.sum()
    tail[-1] += 1.0
    tail *= max(1.0 - head.sum(), 0.0) / tail.sum()
    return probs


class _CountingRng:
    """A numpy Generator that counts its multinomial draws."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def multinomial(self, *args):
        self._draws.append(args[0])
        return self._rng.multinomial(*args)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_draws(monkeypatch) -> list:
    """The shots of every multinomial draw `simulator` makes from now on."""
    draws, make = [], simulator.np.random.default_rng
    monkeypatch.setattr(simulator.np.random, "default_rng",
                        lambda seed: _CountingRng(make(seed), draws))
    return draws


# (size, cut, shots, share, zeros, seed) of `test_a_near_empty_kept_draw_is_the_full_draws`
_EXACT_NOT_HIT = (1000, 700, 2048, 1.0, 0.5, 2)
_KEPT_HIT = (1000, 700, 2048, 1.0, 0.5, 0)
_ALL_MASS_ONE_SHOT = (64, 9, 1, 1.0, 0.0, 3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 64, 1000, (1 << 13) + 7, (1 << 14) + 1]), st.integers(0, 2**32),
       st.sampled_from([1, 7, 64, 2048, 100_000]),
       st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0]),
       st.sampled_from([0.0, 0.5, 0.95]), st.integers(0, 2**63 - 1))
@example(*_EXACT_NOT_HIT)
@example(*_KEPT_HIT)
@example(*_ALL_MASS_ONE_SHOT)
def test_a_near_empty_kept_draw_is_the_full_draws(size, cut, shots, share, zeros, seed):
    # kept masses from 0 to 1/shots: the screen settles most of these draws
    # without numpy, and its counts must be numpy's all the same
    kept = 1 + cut % (size - 1)
    probs = _near_empty_probs(size, kept, share / shots, zeros, seed)
    full_outcomes, full_counts = sample_probabilities(probs.copy(), shots, seed)
    outcomes, counts = sample_probabilities(probs.copy(), shots, seed, kept=kept)
    below = np.searchsorted(full_outcomes, kept)
    assert outcomes.dtype == counts.dtype == np.int64
    assert np.array_equal(outcomes, full_outcomes[:below])
    assert np.array_equal(counts, full_counts[:below])


@pytest.mark.parametrize("case, exact_checks, draws", [
    (_EXACT_NOT_HIT, True, False),
    (_KEPT_HIT, True, True),
    (_ALL_MASS_ONE_SHOT, False, True),
], ids=["exact-not-a-hit", "kept-hit", "all-mass-one-shot"])
def test_the_pinned_draws_take_the_screens_three_branches(case, exact_checks, draws,
                                                          monkeypatch):
    size, cut, shots, share, zeros, seed = case
    kept = 1 + cut % (size - 1)
    probs = _near_empty_probs(size, kept, share / shots, zeros, seed)
    checked = []

    def exp(x):
        checked.append(x)
        return math.exp(x)

    monkeypatch.setattr(simulator, "math", type("Math", (), {"exp": exp, "log": math.log}))
    made = _count_draws(monkeypatch)
    outcomes, _ = sample_probabilities(probs, shots, seed, kept=kept)
    assert bool(checked) == exact_checks
    assert made == ([shots] if draws else [])
    assert bool(outcomes.size) == draws  # a kept hit is a shot below kept


@pytest.mark.parametrize("bad", [np.nan, -1e-13], ids=["nan", "negative"])
def test_a_bad_kept_entry_still_raises_numpys_error(bad):
    probs = np.array([bad, 0.5, 0.5 - (0.0 if np.isnan(bad) else bad)])
    with pytest.raises(ValueError, match="pvals"):
        sample_probabilities(probs, 1, 0, kept=1)


def test_a_16_variable_unsat_qsvt_solve_draws_no_multinomial(monkeypatch):
    # at seed 0 no shot is post-selected (at seed 1 one is, and numpy draws)
    problem = _sixteen_variable_unsat_problem()
    want = solve(problem, "qsvt", seed=0)
    made = _count_draws(monkeypatch)
    assert solve(problem, "qsvt", seed=0) == want
    assert made == []
    assert want.rate_sampled == 0.0
