import numpy as np
import pytest

from qverify.cnf import parse_dimacs
from qverify.simulator import (
    DiagonalHamiltonian,
    Statevector,
    apply_ansatz,
    apply_diagonal_phase,
    apply_rx_all,
    grover_diffusion,
    phase_oracle,
    post_select,
    sample,
    spawn_seeds,
    uniform_superposition,
)

from reference import apply_matrix

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_statevector_validates_norm():
    with pytest.raises(ValueError, match="deviates from 1"):
        Statevector(num_qubits=1, amplitudes=np.array([1.0, 1.0], dtype=complex))


def test_statevector_is_read_only():
    state = uniform_superposition(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_uniform_superposition():
    state = uniform_superposition(3)
    assert np.allclose(state.amplitudes, np.full(8, 1 / np.sqrt(8)))


def test_apply_matrix_single_qubit_matches_kron():
    # qubit 0 is the least significant bit: H on qubit 0 of |00> acts on
    # the fast axis, i.e. kron(I, H) in the usual big-endian kron order
    amps = np.zeros(4, dtype=complex)
    amps[0b10] = 1.0
    state = Statevector(2, amps)
    out = apply_matrix(state, _H, [0])
    want = np.kron(np.eye(2), _H) @ amps
    assert np.allclose(out.amplitudes, want)
    out = apply_matrix(state, _H, [1])
    want = np.kron(_H, np.eye(2)) @ amps
    assert np.allclose(out.amplitudes, want)


def test_apply_matrix_two_qubit_ordering():
    # CNOT with control = qubit index qubits[1], target = qubits[0]
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    amps = np.zeros(8, dtype=complex)
    amps[0b010] = 1.0  # qubit 1 set
    state = Statevector(3, amps)
    out = apply_matrix(state, cnot, [0, 1])  # control qubit 1 flips target qubit 0
    assert np.isclose(abs(out.amplitudes[0b011]), 1.0)
    out = apply_matrix(state, cnot, [2, 1])  # control qubit 1 flips target qubit 2
    assert np.isclose(abs(out.amplitudes[0b110]), 1.0)


def test_apply_matrix_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        apply_matrix(uniform_superposition(1), np.array([[1, 0], [0, 2.0]]), [0])


def test_diagonal_phase():
    values = np.array([0.0, 1.0, 2.0, 3.0])
    h = DiagonalHamiltonian(num_qubits=2, values=values)
    state = uniform_superposition(2)
    out = apply_diagonal_phase(state, h, gamma=0.5)
    assert np.allclose(out.amplitudes, state.amplitudes * np.exp(-0.5j * values))


def test_rx_all_agrees_with_matrix_route():
    beta = 0.37
    theta = 2 * beta
    rx = np.array(
        [
            [np.cos(theta / 2), -1j * np.sin(theta / 2)],
            [-1j * np.sin(theta / 2), np.cos(theta / 2)],
        ]
    )
    state = uniform_superposition(3)
    state = apply_diagonal_phase(
        state, DiagonalHamiltonian(3, np.arange(8.0)), gamma=0.2
    )
    fast = apply_rx_all(state, beta)
    slow = state
    for q in range(3):
        slow = apply_matrix(slow, rx, [q])
    assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-12)


def _ground(n: int) -> Statevector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return Statevector(n, amps)


def test_ansatz_parameter_count():
    with pytest.raises(ValueError, match="parameters"):
        apply_ansatz(_ground(3), layers=2, params=np.zeros(5))
    state = apply_ansatz(_ground(3), layers=2, params=np.zeros(9))
    # all-zero angles leave |000>
    assert np.isclose(abs(state.amplitudes[0]), 1.0)


def test_ansatz_entangles():
    rng = np.random.default_rng(0)
    state = apply_ansatz(_ground(2), layers=1, params=rng.uniform(-1, 1, 4))
    amps = state.amplitudes.reshape(2, 2)
    # generic angles give a non-product state: singular values both nonzero
    s = np.linalg.svd(amps, compute_uv=False)
    assert s[1] > 1e-3


def test_phase_oracle_flips_satisfying_assignments():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n")
    state = uniform_superposition(2)
    out = phase_oracle(state, f)
    signs = np.real(out.amplitudes / state.amplitudes)
    assert np.allclose(signs, [1, -1, -1, -1])


def test_phase_oracle_extra_control():
    f = parse_dimacs("p cnf 1 1\n1 0\n")
    state = uniform_superposition(2)  # qubit 1 is the control register
    out = phase_oracle(state, f, extra_control=True)
    signs = np.real(out.amplitudes / state.amplitudes)
    # only outcomes with control bit 0 and x satisfying get the flip
    assert np.allclose(signs, [1, -1, 1, 1])


def test_diffusion_is_involution():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = Statevector(3, raw / np.linalg.norm(raw))
    twice = grover_diffusion(grover_diffusion(state))
    assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


def test_diffusion_fixes_uniform_state():
    state = uniform_superposition(4)
    out = grover_diffusion(state)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_sample_distribution():
    # chi-square against the uniform law; dof = 15, p = 0.001 cutoff 37.697
    state = uniform_superposition(4)
    counts = sample(state, shots=16000, seed=123)
    assert sum(counts.values()) == 16000
    expected = 1000.0
    chi2 = sum((counts.get(k, 0) - expected) ** 2 / expected for k in range(16))
    assert chi2 < 37.697


def test_sample_is_reproducible():
    state = uniform_superposition(3)
    assert sample(state, 500, seed=9) == sample(state, 500, seed=9)


def test_post_select_bell():
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = amps[0b11] = 1 / np.sqrt(2)
    state = Statevector(2, amps)
    remaining, prob = post_select(state, qubits=[1], values=[0])
    assert np.isclose(prob, 0.5)
    assert remaining.num_qubits == 1
    assert np.isclose(abs(remaining.amplitudes[0]), 1.0)


def test_post_select_zero_probability():
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = 1.0
    remaining, prob = post_select(Statevector(2, amps), qubits=[0], values=[1])
    assert remaining is None and prob == 0.0


def test_spawn_seeds_are_distinct_and_stable():
    seeds = spawn_seeds(42, 4)
    assert seeds == spawn_seeds(42, 4)
    assert len(set(seeds)) == 4
    assert all(isinstance(s, int) for s in seeds)


def test_diagonal_hamiltonian_leaves_the_callers_array_writable():
    values = np.arange(4.0)
    ham = DiagonalHamiltonian(2, values)
    values[0] = 5.0
    assert ham.values[0] == 0.0
    with pytest.raises(ValueError):
        ham.values[0] = 1.0
