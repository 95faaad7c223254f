"""Property tests for the simulator's layer kernels, Grover's one-pass
schedule, the per-level evaluation behind the QAOA phase and the QSVT filter,
and the bitmask CNF checks, each against a slower reference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify.cnf import Clause, CnfError, CnfFormula
from qverify.simulator import (
    DiagonalHamiltonian,
    Statevector,
    _cnot_ring,
    _gate_layer,
    _rx_matrix,
    apply_ansatz,
    apply_diagonal_phase,
    apply_rx_all,
    grover_diffusion,
    oracle_signs,
    phase_oracle,
    uniform_superposition,
)
from qverify.solvers.grover import grover_schedule
from qverify.solvers.filters import FilterPolynomial, eval_filter
from qverify.solvers.vqa import vqe_state

from reference import apply_matrix, grover_states

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=np.complex128)
angles = st.floats(-np.pi, np.pi, allow_nan=False)


def _unitary(alpha, beta, gamma, delta) -> np.ndarray:
    """exp(i alpha) RZ(beta) RY(gamma) RZ(delta): every 2x2 unitary has this form."""
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    c, s = np.cos(gamma / 2), np.sin(gamma / 2)
    return np.exp(1j * alpha) * rz(beta) @ np.array([[c, -s], [s, c]]) @ rz(delta)


@st.composite
def states(draw, min_qubits=1, max_qubits=8):
    n = draw(st.integers(min_qubits, max_qubits))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, raw / np.linalg.norm(raw))


def _ground(n: int) -> Statevector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n, amps)


@settings(max_examples=60, deadline=None)
@given(states(), st.data())
def test_gate_layer_matches_per_qubit_apply_matrix(state, data):
    n = state.num_qubits
    matrices = [_unitary(*data.draw(st.tuples(angles, angles, angles, angles)))
                for _ in range(n)]
    slow = state
    for q, matrix in enumerate(matrices):
        slow = apply_matrix(slow, matrix, [q])
    fast = _gate_layer(state.amplitudes, matrices)
    assert np.allclose(fast, slow.amplitudes, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(states(min_qubits=3), angles)
def test_rx_layer_is_bitwise_the_elementwise_formula(state, beta):
    # every RX entry is purely real or purely imaginary, so each complex
    # product is one rounded real product and the layer reproduces
    # m00*a0 + m01*a1 exactly; at n = 2 the 2x2 product takes a BLAS path
    # that rounds the sum differently in the last bit
    (m00, m01), (m10, m11) = _rx_matrix(2.0 * beta)
    amps = state.amplitudes
    for q in range(state.num_qubits):
        pairs = amps.reshape(-1, 2, 1 << q)
        a0, a1 = pairs[:, 0, :], pairs[:, 1, :]
        out = np.empty_like(pairs)
        out[:, 0, :] = m00 * a0 + m01 * a1
        out[:, 1, :] = m10 * a0 + m11 * a1
        amps = out.reshape(-1)
    assert np.array_equal(apply_rx_all(state, beta).amplitudes, amps)


@settings(max_examples=30, deadline=None)
@given(states(min_qubits=2))
def test_cnot_ring_matches_sequential_cnots(state):
    n = state.num_qubits
    slow = state
    for q in range(n):
        # matrix bit 1 is the control, bit 0 the target
        slow = apply_matrix(slow, _CNOT, [(q + 1) % n, q])
    assert np.array_equal(state.amplitudes[_cnot_ring(n)], slow.amplitudes)


def test_cnot_ring_is_cached_and_read_only():
    ring = _cnot_ring(5)
    assert _cnot_ring(5) is ring
    assert not ring.flags.writeable
    assert sorted(ring.tolist()) == list(range(32))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.data())
def test_ansatz_matches_vqe_state_and_gate_reference(n, layers, data):
    params = np.array(data.draw(st.lists(angles, min_size=n * (layers + 1),
                                         max_size=n * (layers + 1))))
    state = apply_ansatz(_ground(n), layers, params)
    assert np.array_equal(state.amplitudes, vqe_state(n, layers, params).amplitudes)
    slow = _ground(n)
    for layer in range(layers + 1):
        for q in range(n):
            slow = apply_matrix(slow, _unitary(0.0, 0.0, params[layer * n + q], 0.0), [q])
        if layer < layers and n >= 2:
            for q in range(n):
                slow = apply_matrix(slow, _CNOT, [(q + 1) % n, q])
    assert np.allclose(state.amplitudes, slow.amplitudes, rtol=0, atol=1e-12)


@st.composite
def wide_formulas(draw, max_variables=130, max_clauses=8):
    n = draw(st.integers(1, max_variables))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        variables = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(5, n),
                                  unique=True))
        signs = draw(st.lists(st.booleans(), min_size=len(variables),
                              max_size=len(variables)))
        clauses.append(Clause.of(*(-v if s else v for v, s in zip(variables, signs))))
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=200, deadline=None)
@given(wide_formulas(), st.data())
def test_bitmask_evaluate_matches_clause_by_clause(formula, data):
    top = (1 << formula.num_variables) - 1
    for assignment in data.draw(st.lists(st.integers(0, top), min_size=1, max_size=8)):
        want = all(cl.is_satisfied_by(assignment) for cl in formula.clauses)
        assert formula.evaluate(assignment) is want


def test_bitmask_evaluate_above_bit_63():
    formula = CnfFormula(100, (Clause.of(70, -99), Clause.of(-64)))
    assert formula.evaluate(1 << 69)
    assert not formula.evaluate((1 << 69) | (1 << 63))
    assert not formula.evaluate(1 << 98)
    assert formula.evaluate(0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 20),
       st.integers(1, 60), st.floats(0.01, 0.98), st.data())
def test_filter_gather_is_bitwise_the_full_evaluation(n, top, extra, half_degree,
                                                      delta, data):
    levels = data.draw(st.lists(st.integers(0, top), min_size=1 << n, max_size=1 << n))
    ham = DiagonalHamiltonian(n, np.array(levels, dtype=np.float64))
    scale = top + extra + 1
    poly = FilterPolynomial(half_degree, delta)
    full = eval_filter(poly, ham.values / scale)
    assert np.array_equal(ham.per_level(lambda v: eval_filter(poly, v / scale)), full)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(0, 40), angles, st.data())
def test_phase_gather_is_bitwise_the_full_evaluation(n, top, gamma, data):
    levels = data.draw(st.lists(st.integers(0, top), min_size=1 << n, max_size=1 << n))
    ham = DiagonalHamiltonian(n, np.array(levels, dtype=np.float64))
    state = uniform_superposition(n)
    want = state.amplitudes * np.exp(-1j * gamma * ham.values)
    assert np.array_equal(apply_diagonal_phase(state, ham, gamma).amplitudes, want)


def test_per_level_falls_back_on_non_integer_or_wide_tables():
    for values in ([0.0, 0.5, 1.0, 2.0], [0.0, 9.0, 1.0, 2.0], [0.0, -1.0, 1.0, 2.0]):
        ham = DiagonalHamiltonian(2, np.array(values))
        assert ham._levels is None
        assert np.array_equal(ham.per_level(np.cos), np.cos(ham.values))
    ham = DiagonalHamiltonian(2, np.array([3.0, 0.0, 1.0, 1.0]))
    levels, top = ham._levels
    assert levels.tolist() == [3, 0, 1, 1] and top == 3


def _grover_reference(formula: CnfFormula, extra: bool, iterations: int) -> Statevector:
    n = formula.num_variables + (1 if extra else 0)
    state = uniform_superposition(n)
    for _ in range(iterations):
        state = grover_diffusion(phase_oracle(state, formula, extra_control=extra))
    return state


def _assert_grover_points_bitwise(formula: CnfFormula, extra: bool, iterations) -> None:
    signs = oracle_signs(formula, extra_control=extra)
    states = list(grover_states(signs, iterations))
    assert len(states) == len(iterations)
    for t, state in zip(iterations, states):
        # tobytes also tells -0.0 from 0.0, which array_equal would not
        want = _grover_reference(formula, extra, t).amplitudes
        assert state.amplitudes.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(wide_formulas(max_variables=7, max_clauses=10), st.booleans())
def test_grover_schedule_points_are_bitwise_the_step_by_step_loop(formula, extra):
    num_qubits = formula.num_variables + (1 if extra else 0)
    _assert_grover_points_bitwise(formula, extra,
                                  [t for _, t in grover_schedule(num_qubits)])


@settings(max_examples=40, deadline=None)
@given(wide_formulas(max_variables=5), st.booleans(),
       st.lists(st.integers(0, 12), min_size=1, max_size=6))
def test_grover_states_take_counts_in_any_order(formula, extra, iterations):
    _assert_grover_points_bitwise(formula, extra, iterations)


@pytest.mark.parametrize("extra", [False, True], ids=["plain", "doubled"])
@pytest.mark.parametrize("formula", [
    CnfFormula(4, ()),                                                     # all marked
    CnfFormula(3, (Clause.of(1, 2), Clause.of(1, -2), Clause.of(-1, 2),
                   Clause.of(-1, -2))),                                    # none marked
    CnfFormula(5, (Clause.of(1), Clause.of(-2), Clause.of(3, 4, 5))),
], ids=["all-marked", "none-marked", "seven-marked"])
def test_grover_schedule_points_at_the_marking_extremes(formula, extra):
    num_qubits = formula.num_variables + (1 if extra else 0)
    _assert_grover_points_bitwise(formula, extra,
                                  [t for _, t in grover_schedule(num_qubits)])


@settings(max_examples=200, deadline=None)
@given(wide_formulas(max_variables=62), st.data())
def test_first_satisfying_is_the_first_evaluate_hit(formula, data):
    top = (1 << formula.num_variables) - 1
    assignments = data.draw(st.lists(st.integers(0, top), max_size=24))
    want = next((a for a in assignments if formula.evaluate(a)), None)
    assert formula.first_satisfying(np.array(assignments, dtype=np.int64)) == want


def test_first_satisfying_edges():
    formula = CnfFormula(62, (Clause.of(62, -1), Clause.of(-61)))
    empty = np.array([], dtype=np.int64)
    assert formula.first_satisfying(empty) is None
    assert formula.first_satisfying(np.array([0, 1 << 61, (1 << 61) | 1])) == 0
    assert formula.first_satisfying(np.array([1, 1 << 60, (1 << 61) | 1])) == (1 << 61) | 1
    assert formula.first_satisfying(np.array([1, 1 << 60])) is None
    no_clauses = CnfFormula(3, ())
    assert no_clauses.first_satisfying(np.array([5, 2])) == 5
    assert no_clauses.first_satisfying(empty) is None
    with pytest.raises(CnfError):
        CnfFormula(63, ()).first_satisfying(empty)
