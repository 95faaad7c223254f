"""Dense statevector simulator.

Qubit 0 is the least significant bit of the basis index, so basis state
|b_{n-1} ... b_1 b_0> sits at index sum b_k 2^k.  Every operation returns a
fresh Statevector; construction validates unit norm to 1e-10, which keeps the
invariant checked after each step for free.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        norm = float(np.sqrt(np.vdot(amps, amps).real))
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
        vals = np.array(self.values, dtype=np.float64)  # freeze a copy, not the caller's array
        if vals.shape != (1 << self.num_qubits,):
            raise ValueError("value table length must be 2^num_qubits")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, int] | None:
        levels = self.values.astype(np.int64)
        top = int(levels.max())
        if levels.min() >= 0 and top < levels.size and np.array_equal(levels, self.values):
            return levels, top
        return None

    def per_level(self, fn) -> np.ndarray:
        """fn(values) for an elementwise fn, evaluated once per distinct value.

        Reduced energies are small non-negative integers, so fn runs on
        0..max and the result is gathered, bit for bit fn(values); any other
        table (a hand-built one) gets fn(values) directly.
        """
        if self._levels is None:
            return fn(self.values)
        levels, top = self._levels
        return fn(np.arange(top + 1, dtype=np.float64))[levels]


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
    phases = hamiltonian.per_level(lambda values: np.exp(-1j * gamma * values))
    return Statevector(state.num_qubits, state.amplitudes * phases)


def _rx_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry_matrices(angles: np.ndarray) -> np.ndarray:
    """RY(angle) for each angle, stacked into shape (len(angles), 2, 2)."""
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    return np.stack([c, -s, s, c], axis=-1).astype(np.complex128).reshape(-1, 2, 2)


_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)


def _gate_layer(amps: np.ndarray, matrices) -> np.ndarray:
    """Apply matrices[q] to qubit q for q = 0..n-1, n = len(matrices).

    Each step views the least significant qubit as the columns of a
    reshape(-1, 2) and multiplies by the 2x2 matrix, so the new bit-0 and
    bit-1 amplitudes land in the two contiguous halves of the result: the
    qubit just updated becomes the most significant one.  After n steps every
    qubit is back in place.  The product is one BLAS call per qubit, which
    rounds exactly as a per-qubit tensordot does.
    """
    for matrix in matrices:
        amps = np.dot(matrix, amps.reshape(-1, 2).T).reshape(-1)
    return amps


@lru_cache(maxsize=8)
def _cnot_ring(n: int) -> np.ndarray:
    """Gather indices for CNOT(q, q+1 mod n) applied for q = 0..n-1; read-only,
    as every caller shares it."""
    idx = np.arange(1 << n)
    perm = idx
    for q in range(n):
        perm = perm[np.where((idx >> q) & 1 == 1, idx ^ (1 << ((q + 1) % n)), idx)]
    perm.setflags(write=False)
    return perm


def apply_rx_all(state: Statevector, beta: float) -> Statevector:
    """RX(2*beta) on every qubit — the transverse-field mixing layer."""
    rx = _rx_matrix(2.0 * beta)
    return Statevector(state.num_qubits, _gate_layer(state.amplitudes, [rx] * state.num_qubits))


def apply_ansatz(state: Statevector, layers: int, params: np.ndarray,
                 insert_y_at: int | None = None) -> Statevector:
    """Hardware-efficient ansatz: per layer RY on each qubit then a CNOT ring,
    closed by a final RY layer.  Expects n * (layers + 1) parameters.

    ``insert_y_at`` turns the RY of that parameter into Y RY(theta), the
    generator insertion behind the exact gradient.
    """
    n = state.num_qubits
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (n * (layers + 1),):
        raise ValueError(f"expected {n * (layers + 1)} parameters, got {params.size}")
    gates = _ry_matrices(params)
    if insert_y_at is not None:
        gates[insert_y_at] = _Y @ gates[insert_y_at]
    amps = state.amplitudes
    for layer in range(layers + 1):
        amps = _gate_layer(amps, gates[layer * n:(layer + 1) * n])
        if layer < layers and n >= 2:
            amps = amps[_cnot_ring(n)]
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
