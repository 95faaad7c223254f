"""Dense statevector simulator.

Qubit 0 is the least significant bit of the basis index, so basis state
|b_{n-1} ... b_1 b_0> sits at index sum b_k 2^k.  Every operation returns a
fresh Statevector; construction validates unit norm to 1e-10, which keeps the
invariant checked after each step for free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula, satisfying_mask

MAX_QUBITS = 24
_NORM_TOL = 1e-10
_UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 0 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [0, {MAX_QUBITS}]")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude length must be 2^num_qubits")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DiagonalHamiltonian:
    """Diagonal operator given by its value per basis state."""

    num_qubits: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << self.num_qubits,):
            raise ValueError("value table length must be 2^num_qubits")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive independent child seeds; stable across runs for a fixed seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def uniform_superposition(num_qubits: int) -> Statevector:
    dim = 1 << num_qubits
    return Statevector(num_qubits, np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))


def apply_diagonal_phase(state: Statevector, hamiltonian: DiagonalHamiltonian,
                         gamma: float) -> Statevector:
    if hamiltonian.num_qubits != state.num_qubits:
        raise ValueError("hamiltonian size does not match the state")
    return Statevector(state.num_qubits,
                       state.amplitudes * np.exp(-1j * gamma * hamiltonian.values))


def _rx_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def apply_rx_all(state: Statevector, beta: float) -> Statevector:
    """RX(2*beta) on every qubit — the transverse-field mixing layer."""
    amps = state.amplitudes
    for q in range(state.num_qubits):
        amps = _apply_single(amps, state.num_qubits, _rx_matrix(2.0 * beta), q)
    return Statevector(state.num_qubits, amps)


def _apply_single(amps: np.ndarray, n: int, matrix: np.ndarray, qubit: int) -> np.ndarray:
    reshaped = amps.reshape([2] * n)
    axis = n - 1 - qubit
    moved = np.moveaxis(reshaped, axis, 0)
    out = np.tensordot(matrix, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis).reshape(-1)


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(amps.size)
    flipped = np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)
    return amps[flipped]


def apply_ansatz(state: Statevector, layers: int, params: np.ndarray) -> Statevector:
    """Hardware-efficient ansatz: per layer RY on each qubit then a CNOT ring,
    closed by a final RY layer.  Expects n * (layers + 1) parameters."""
    n = state.num_qubits
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (n * (layers + 1),):
        raise ValueError(f"expected {n * (layers + 1)} parameters, got {params.size}")
    amps = state.amplitudes
    pos = 0
    for layer in range(layers + 1):
        for q in range(n):
            amps = _apply_single(amps, n, _ry_matrix(params[pos]), q)
            pos += 1
        if layer < layers and n >= 2:
            for q in range(n):
                amps = _apply_cnot(amps, n, q, (q + 1) % n)
    return Statevector(n, amps)


def oracle_signs(formula: CnfFormula, extra_control: bool = False) -> np.ndarray:
    """The phase oracle's diagonal: -1 on satisfying assignments, else +1.

    With extra_control the register carries one extra (most significant)
    qubit and the flip applies only where that qubit is 0, which halves the
    solution fraction of the doubled space.
    """
    signs = np.where(satisfying_mask(formula), -1.0, 1.0)
    if extra_control:
        signs = np.concatenate([signs, np.ones_like(signs)])
    return signs


def phase_oracle(state: Statevector, formula: CnfFormula,
                 extra_control: bool = False, signs: np.ndarray | None = None) -> Statevector:
    """Flip the sign of amplitudes on satisfying assignments.

    ``signs`` is ``oracle_signs(formula, extra_control)``; a caller applying
    the oracle repeatedly passes it in so the CNF mask is built once.
    """
    n = formula.num_variables
    expected = n + 1 if extra_control else n
    if state.num_qubits != expected:
        raise ValueError(f"oracle expects {expected} qubits, state has {state.num_qubits}")
    if signs is None:
        signs = oracle_signs(formula, extra_control)
    return Statevector(state.num_qubits, state.amplitudes * signs)


def grover_diffusion(state: Statevector) -> Statevector:
    """Inversion about the mean: 2|s><s| - I applied to the state."""
    amps = state.amplitudes
    return Statevector(state.num_qubits, 2.0 * amps.mean() - amps)


def apply_matrix(state: Statevector, matrix: np.ndarray, qubits) -> Statevector:
    """Apply a k-qubit unitary; matrix index bit i addresses qubits[i]."""
    qubits = list(qubits)
    k = len(qubits)
    if len(set(qubits)) != k:
        raise ValueError("target qubits must be distinct")
    if any(q < 0 or q >= state.num_qubits for q in qubits):
        raise ValueError("target qubit out of range")
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError("matrix dimension does not match the qubit count")
    if not np.allclose(matrix @ matrix.conj().T, np.eye(1 << k), atol=_UNITARY_TOL):
        raise ValueError("matrix is not unitary")
    n = state.num_qubits
    mat = matrix.reshape([2] * (2 * k))
    tensor = state.amplitudes.reshape([2] * n)
    col_axes = [2 * k - 1 - i for i in range(k)]
    state_axes = [n - 1 - q for q in qubits]
    out = np.tensordot(mat, tensor, axes=(col_axes, state_axes))
    # tensordot leaves row-bit axes first (bit k-1 .. 0), survivors after
    survivors = [ax for ax in range(n) if ax not in state_axes]
    perm = [0] * n
    for i, q in enumerate(qubits):
        perm[n - 1 - q] = k - 1 - i
    for rank, ax in enumerate(survivors):
        perm[ax] = k + rank
    return Statevector(n, np.transpose(out, perm).reshape(-1))


def sample(state: Statevector, shots: int, seed: int) -> dict[int, int]:
    """Measurement histogram {basis index: count} over ``shots`` shots."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    hits = np.flatnonzero(counts)
    return dict(zip(hits.tolist(), counts[hits].tolist()))


def post_select(state: Statevector, qubits, values) -> tuple[Statevector | None, float]:
    """Project onto the given qubit values; returns (state, probability).

    The surviving qubits keep their relative order.  Probability-zero
    selections return (None, 0.0).
    """
    qubits = list(qubits)
    values = list(values)
    if len(qubits) != len(values):
        raise ValueError("one value per selected qubit")
    if len(set(qubits)) != len(qubits):
        raise ValueError("selected qubits must be distinct")
    n = state.num_qubits
    index: list = [slice(None)] * n
    for q, v in zip(qubits, values):
        if v not in (0, 1):
            raise ValueError("selection values must be bits")
        index[n - 1 - q] = v
    sub = state.amplitudes.reshape([2] * n)[tuple(index)].reshape(-1)
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= 0.0:
        return None, 0.0
    return Statevector(n - len(qubits), sub / np.sqrt(prob)), prob
