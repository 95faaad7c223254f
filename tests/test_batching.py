"""Batched evaluation: the optimizers' batch protocol, the batch axis of the
circuit kernels and the adopt path, each against the one-at-a-time code it
replaces, bit for bit; and golden variational reports recorded before the
batching existed."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qverify.optimizers import KINDS, OptimizationResult, OptimizerSpec, minimize
from qverify.pipeline import build_problem
from qverify.simulator import (
    DiagonalHamiltonian,
    Statevector,
    _checked,
    _gate_layer,
    _rx_matrix,
    _ry_matrices,
    apply_ansatz,
    post_select,
    qaoa_state,
    uniform_superposition,
)
from qverify.solvers.filters import (
    DEGREE_CAP,
    DegreeCapError,
    FilterPolynomial,
    choose_degree,
    filter_quality_log2_mu,
)
from qverify.solvers.report import Sat
from qverify.solvers import vqa
from qverify.solvers.vqa import solve_qaoa, solve_vqe, vqe_state
from qverify.synthetic import generate_synthetic

from reference import expectation

GOLDEN = Path(__file__).parent / "data" / "vqa_golden.json"
angles = st.floats(-np.pi, np.pi, allow_nan=False)
batch_sizes = st.sampled_from([1, 2, 3, 20])


# The loops below are the optimizers as they were before batching, one
# objective call per point; the batched ones must reproduce them exactly.

def _spsa_reference(fn, x0, spec, seed):
    rng = np.random.default_rng(seed)
    dim = x0.size
    big_a = 0.1 * spec.max_iterations
    c = 0.2
    target_step = 0.1
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
    trace = []
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


def _trust_region_reference(fn, x0, spec):
    radius = 0.5
    min_radius = 1e-4
    x = x0.copy()
    current = fn(x)
    evals = 1
    trace = []
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


def _reference(fn, x0, spec, seed):
    x0 = np.asarray(x0, dtype=np.float64)
    if spec.kind == "simultaneous-perturbation":
        return _spsa_reference(fn, x0, spec, seed)
    return _trust_region_reference(fn, x0, spec)


def _assert_same_run(got, want):
    assert got.trace == want.trace
    assert got.evaluations == want.evaluations
    assert got.best_params.tobytes() == want.best_params.tobytes()
    assert np.float64(got.best_value).tobytes() == np.float64(want.best_value).tobytes()


def _landscape(weights):
    """A bumpy objective with one minimum near the origin."""
    def fn(x):
        return float(np.sum(weights[:x.size] * np.cos(3.0 * x)) + np.dot(x, x))
    return fn


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 6), st.sampled_from([1, 2, 7, 30]),
       st.integers(0, 2**32 - 1), st.lists(angles, min_size=6, max_size=6))
def test_batched_minimize_is_bitwise_the_sequential_loops(kind, dim, iterations, seed,
                                                          weights):
    spec = OptimizerSpec(kind=kind, max_iterations=iterations)
    fn = _landscape(np.array(weights))
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)
    seen_reference, seen_scalar, seen_batched = [], [], []
    batches = []

    def recording(seen):
        def call(x):
            seen.append(np.array(x).tobytes())
            return fn(x)
        return call

    def batched(points):
        batches.append(len(points))
        return [recording(seen_batched)(p) for p in points]

    want = _reference(recording(seen_reference), x0, spec, seed)
    _assert_same_run(minimize(recording(seen_scalar), x0, spec, seed=seed), want)
    _assert_same_run(minimize(None, x0, spec, seed=seed, fn_batch=batched), want)
    # the same points in the same order, so even a stateful objective agrees
    assert seen_scalar == seen_reference
    assert seen_batched == seen_reference
    if kind == "simultaneous-perturbation":
        assert batches == [23] + [3] * (iterations - 1) + [1]
    else:
        assert batches[0] == 1 and set(batches[1:]) <= {1, dim}


def _golden_problem(name):
    return build_problem(generate_synthetic(name))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", ["qaoa", "vqe"])
def test_vqa_batch_objective_is_bitwise_the_single_state_one(kind, solver):
    problem = _golden_problem("indicator")
    ham = DiagonalHamiltonian(problem.ising.n, problem.ising.energy_table())
    n, layers = ham.num_qubits, 2

    def state(params):
        if solver == "qaoa":
            return qaoa_state(ham, params[..., :layers], params[..., layers:])
        return vqe_state(n, layers, params)

    def single(params):
        return expectation(state(params).probabilities(), ham.values)

    def batch(points):
        return [expectation(row, ham.values) for row in np.abs(state(points)) ** 2]

    size = 2 * layers if solver == "qaoa" else n * (layers + 1)
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=size)
    spec = OptimizerSpec(kind=kind, max_iterations=8)
    _assert_same_run(minimize(single, x0, spec, seed=9, fn_batch=batch),
                     _reference(single, x0, spec, 9))


@pytest.mark.parametrize("solver", [solve_qaoa, solve_vqe])
@pytest.mark.parametrize("kind", KINDS)
def test_batch_cap_leaves_the_report_unchanged(monkeypatch, solver, kind):
    problem = _golden_problem("unique")
    spec = OptimizerSpec(kind=kind, max_iterations=6)

    def run(cap):
        monkeypatch.setattr(vqa, "BATCH_AMPLITUDES", cap)
        report = solver(problem.qubo, problem.formula, layers=2, optimizer=spec,
                        shots=64, seed=3)
        return report.verdict, report.best_value.hex(), report.convergence_trace

    # one row per batch, a few rows, and every probe in one batch
    n = problem.ising.n
    assert run(1) == run(3 << n) == run(1 << 40)


def test_vqe_peak_memory_stays_a_few_batches_at_14_qubits():
    import tracemalloc

    problem = build_problem(generate_synthetic("or", {"n": 14}))
    assert problem.ising.n == 14
    spec = OptimizerSpec(kind="trust-region", max_iterations=1)
    tracemalloc.start()
    try:
        solve_vqe(problem.qubo, problem.formula, optimizer=spec, shots=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 42 coordinate probes of 256 KB states, in 1 MB batches: a single
    # 42-row batch array alone would take 10.5 MB
    assert peak < 8 << 20


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), batch_sizes, st.integers(0, 2**32 - 1))
def test_batched_gate_layer_rows_are_the_single_state_layers(n, batch, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
    matrices = rng.normal(size=(n, batch, 2, 2)) + 1j * rng.normal(size=(n, batch, 2, 2))
    out = _gate_layer(rows, matrices)
    for b in range(batch):
        # the single-state layer as it was written before the batch axis
        want = rows[b]
        for matrix in matrices[:, b]:
            want = np.dot(matrix, want.reshape(-1, 2).T).reshape(-1)
        assert _gate_layer(rows[b], matrices[:, b]).tobytes() == want.tobytes()
        assert out[b].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), batch_sizes, st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(n=10, batch=20, layers=2, seed=0)  # a 320 KB phase table, past numpy's elision size
def test_batched_qaoa_rows_are_the_single_states(n, batch, layers, seed):
    rng = np.random.default_rng(seed)
    ham = DiagonalHamiltonian(n, rng.integers(0, 9, size=1 << n).astype(np.float64))
    gammas = rng.uniform(-np.pi, np.pi, size=(batch, layers))
    betas = rng.uniform(-np.pi, np.pi, size=(batch, layers))
    gammas[0, :1] = 0.0  # a zero angle makes signed zeros
    rows = qaoa_state(ham, gammas, betas)
    assert rows.shape == (batch, 1 << n) and not rows.flags.writeable
    for b in range(batch):
        want = qaoa_state(ham, gammas[b], betas[b]).amplitudes
        assert rows[b].tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), batch_sizes, st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_batched_ansatz_rows_are_the_single_states(n, batch, layers, seed):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, size=(batch, n * (layers + 1)))
    start = uniform_superposition(n)
    rows = apply_ansatz(start, layers, params)
    assert rows.shape == (batch, 1 << n) and not rows.flags.writeable
    for b in range(batch):
        assert rows[b].tobytes() == apply_ansatz(start, layers, params[b]).amplitudes.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.lists(angles, min_size=1, max_size=5))
def test_stacked_gate_matrices_are_the_single_ones(values):
    stacked = np.array([*values, -0.0])
    for i, angle in enumerate(stacked):
        # the RX matrix as it was built before it took arrays
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        want = np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
        assert _rx_matrix(angle).tobytes() == want.tobytes()
        assert _rx_matrix(stacked)[i].tobytes() == want.tobytes()
        assert _ry_matrices(stacked)[i].tobytes() == _ry_matrices(stacked[i:i + 1])[0].tobytes()


def test_adopt_freezes_the_array_itself_after_checking_it():
    amps = np.full(4, 0.5, dtype=np.complex128)
    state = Statevector._adopt(2, amps)
    assert state.amplitudes is amps and not amps.flags.writeable
    with pytest.raises(ValueError, match="deviates from 1"):
        Statevector._adopt(2, np.ones(4, dtype=np.complex128))
    for bad in (np.full(8, 8 ** -0.5, dtype=np.complex128),    # wrong length
                np.full(4, 0.5),                                # wrong dtype
                np.full((1, 4), 0.5, dtype=np.complex128)):     # a batch
        with pytest.raises(ValueError, match="2\\^num_qubits"):
            Statevector._adopt(2, bad)
    # public construction still copies
    owned = np.full(4, 0.5, dtype=np.complex128)
    assert Statevector(2, owned).amplitudes is not owned and owned.flags.writeable


def test_batch_check_rejects_any_bad_row_and_freezes_the_batch():
    rows = np.full((3, 4), 0.5, dtype=np.complex128)
    assert _checked(2, rows, batch=True) is rows and not rows.flags.writeable
    bad = np.full((3, 4), 0.5, dtype=np.complex128)
    bad[2, 0] = 0.6
    with pytest.raises(ValueError, match="deviates from 1"):
        _checked(2, bad, batch=True)
    with pytest.raises(ValueError, match="2\\^num_qubits"):
        _checked(2, np.full(4, 0.5, dtype=np.complex128), batch=True)


def test_post_select_output_is_checked_and_read_only():
    state, prob = post_select(uniform_superposition(3), [2], [1])
    assert prob == pytest.approx(0.5)
    assert state.num_qubits == 2 and not state.amplitudes.flags.writeable


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 0.999), st.integers(0, 40))
def test_choose_degree_is_the_first_degree_reaching_the_register(delta, n):
    want = next((d for d in range(1, DEGREE_CAP + 1)
                 if filter_quality_log2_mu(FilterPolynomial(d, delta)) >= n), None)
    if want is None:
        with pytest.raises(DegreeCapError):
            choose_degree(delta, n)
    else:
        assert choose_degree(delta, n) == want


def _golden_cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: "-".join(
    str(c[k]) for k in ("instance", "solver", "optimizer", "seed", "max_iterations")))
def test_variational_reports_match_the_golden_ones(case):
    problem = _golden_problem(case["instance"])
    solve = solve_qaoa if case["solver"] == "qaoa" else solve_vqe
    spec = OptimizerSpec(kind=case["optimizer"], max_iterations=case["max_iterations"])
    report = solve(problem.qubo, problem.formula, layers=2, optimizer=spec, shots=256,
                   seed=case["seed"])
    verdict = case["verdict"]
    if "sat" in verdict:
        assert report.verdict == Sat(verdict["sat"])
    else:
        assert report.verdict.reason == verdict["none"]
    assert report.best_value.hex() == case["best_value"]
    assert [[k, v.hex()] for k, v in report.convergence_trace] == case["trace"]
    assert report.config == case["config"]
