"""Dense statevector simulator.

Qubit 0 is the least significant bit of the basis index, so basis state
|b_{n-1} ... b_1 b_0> sits at index sum b_k 2^k.  Statevector construction
validates unit norm to 1e-10.  The public operations return a fresh
Statevector, so the norm is checked after each of them; the inner kernels
(`_gate_layer`, the CNOT ring, Grover's in-place pass) work on bare arrays,
and their result is checked once, where it becomes a Statevector to be
sampled, post-selected or returned, or where its probabilities are sampled.

The circuit kernels also take a leading batch axis: a (B, 2^n) array holds B
states, one per row, each with its own gates.  Every row is bitwise the state
the same kernel gives for that row alone, and every row's norm is checked
where the batch is returned.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
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
        amps = np.array(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", _checked(self.num_qubits, amps, batch=False))

    @classmethod
    def _adopt(cls, num_qubits: int, amps: np.ndarray) -> Statevector:
        """A Statevector around ``amps`` itself, checked and frozen in place
        instead of copied; for arrays a kernel has just allocated.  Used
        where the copy showed in paired benchmark runs: the start states,
        built once per circuit batch."""
        state = object.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        object.__setattr__(state, "amplitudes", _checked(num_qubits, amps, batch=False))
        return state

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _checked(num_qubits: int, amps: np.ndarray, batch: bool) -> np.ndarray:
    """``amps`` made read-only, after checking that it holds one state
    (batch=False) or a (B, 2^n) batch of them, each of unit norm."""
    if not 0 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [0, {MAX_QUBITS}]")
    if amps.dtype != np.complex128 or amps.shape[-1:] != (1 << num_qubits,) \
            or amps.ndim != (2 if batch else 1):
        raise ValueError("amplitude length must be 2^num_qubits")
    for row in amps.reshape(-1, amps.shape[-1]):
        norm = float(np.sqrt(np.vdot(row, row).real))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
    amps.setflags(write=False)
    return amps


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
        return fn(np.arange(top + 1, dtype=np.float64))[..., levels]

    def phases(self, gammas) -> np.ndarray:
        """exp(-i gamma H) for a scalar gamma, or one row per entry of a 1-D
        array of gammas."""
        factors = -1j * np.asarray(gammas, dtype=np.float64)[..., None]
        return self.per_level(lambda values: np.exp(factors * values))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive independent child seeds; stable across runs for a fixed seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def uniform_superposition(num_qubits: int) -> Statevector:
    dim = 1 << num_qubits
    return Statevector._adopt(num_qubits, np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))


def apply_diagonal_phase(state: Statevector, hamiltonian: DiagonalHamiltonian,
                         gamma: float) -> Statevector:
    if hamiltonian.num_qubits != state.num_qubits:
        raise ValueError("hamiltonian size does not match the state")
    return Statevector(state.num_qubits, state.amplitudes * hamiltonian.phases(gamma))


def _rx_matrix(angle) -> np.ndarray:
    """RX(angle); for an array of angles, the matrices stacked into shape
    angle.shape + (2, 2)."""
    angle = np.asarray(angle, dtype=np.float64)
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    out = np.zeros(angle.shape + (2, 2), dtype=np.complex128)
    out.real[..., 0, 0] = out.real[..., 1, 1] = c
    out.imag[..., 0, 1] = out.imag[..., 1, 0] = -s
    return out


def _ry_matrices(angles: np.ndarray) -> np.ndarray:
    """RY(angle) for each angle, stacked into shape angles.shape + (2, 2)."""
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    return np.stack([c, -s, s, c], axis=-1).astype(np.complex128).reshape(*angles.shape, 2, 2)


_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)


def _gate_layer(amps: np.ndarray, matrices) -> np.ndarray:
    """Apply matrices[q] to qubit q for q = 0..n-1, n = len(matrices).

    Each step views the least significant qubit as the columns of a
    reshape(-1, 2) and multiplies by the 2x2 matrix, so the new bit-0 and
    bit-1 amplitudes land in the two contiguous halves of the result: the
    qubit just updated becomes the most significant one.  After n steps every
    qubit is back in place.  The product is one BLAS call per qubit, which
    rounds exactly as a per-qubit tensordot does.

    A (B, 2^n) ``amps`` is a batch of B states, and each matrices[q] is then
    a (B, 2, 2) stack; np.matmul makes the same BLAS product once per row,
    so every row is bitwise what its state and matrices give alone.
    """
    lead = amps.shape[:-1]
    for matrix in matrices:
        amps = np.matmul(matrix, amps.reshape(*lead, -1, 2).swapaxes(-1, -2)).reshape(*lead, -1)
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


def qaoa_state(hamiltonian: DiagonalHamiltonian, gammas, betas,
               state: Statevector | None = None):
    """Alternate phase separation and transverse-field mixing, one pair per
    layer, starting from ``state`` (default: the uniform superposition).

    gammas and betas of shape (p,) give a Statevector.  Of shape (B, p) they
    give B circuits at once: a read-only (B, 2^n) array whose row b is,
    bitwise, the state for gammas[b] and betas[b].
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if gammas.shape != betas.shape or gammas.ndim not in (1, 2):
        raise ValueError("need one beta per gamma")
    n = hamiltonian.num_qubits
    state = uniform_superposition(n) if state is None else state
    if state.num_qubits != n:
        raise ValueError("hamiltonian size does not match the state")
    amps = np.broadcast_to(state.amplitudes, gammas.shape[:-1] + state.amplitudes.shape)
    for gamma, beta in zip(gammas.T, betas.T):
        amps = amps * hamiltonian.phases(gamma)
        amps = _gate_layer(amps, [_rx_matrix(2.0 * beta)] * n)
    return Statevector(n, amps) if amps.ndim == 1 else _checked(n, amps, batch=True)


def apply_ansatz(state: Statevector, layers: int, params: np.ndarray,
                 insert_y_at: int | None = None):
    """Hardware-efficient ansatz: per layer RY on each qubit then a CNOT ring,
    closed by a final RY layer.  Expects n * (layers + 1) parameters.

    A (B, n * (layers + 1)) ``params`` gives B circuits at once: a read-only
    (B, 2^n) array whose row b is, bitwise, the state for params[b].
    ``insert_y_at`` turns the RY of that parameter into Y RY(theta), the
    generator insertion behind the exact gradient.
    """
    n = state.num_qubits
    count = n * (layers + 1)
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != count:
        raise ValueError(f"expected {count} parameters per circuit, got shape {params.shape}")
    gates = _ry_matrices(params)
    if insert_y_at is not None:
        gates[..., insert_y_at, :, :] = _Y @ gates[..., insert_y_at, :, :]
    amps = np.broadcast_to(state.amplitudes, params.shape[:-1] + state.amplitudes.shape)
    for layer in range(layers + 1):
        amps = _gate_layer(amps, np.moveaxis(gates[..., layer * n:(layer + 1) * n, :, :], -3, 0))
        if layer < layers and n >= 2:
            amps = amps[..., _cnot_ring(n)]
    return Statevector(n, amps) if amps.ndim == 1 else _checked(n, amps, batch=True)


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
                 extra_control: bool = False) -> Statevector:
    """Flip the sign of amplitudes on satisfying assignments."""
    n = formula.num_variables
    expected = n + 1 if extra_control else n
    if state.num_qubits != expected:
        raise ValueError(f"oracle expects {expected} qubits, state has {state.num_qubits}")
    return Statevector(state.num_qubits, state.amplitudes * oracle_signs(formula, extra_control))


def grover_diffusion(state: Statevector) -> Statevector:
    """Inversion about the mean: 2|s><s| - I applied to the state."""
    amps = state.amplitudes
    return Statevector(state.num_qubits, 2.0 * amps.mean() - amps)


def grover_amplitudes(signs: np.ndarray,
                      iterations: Sequence[int]) -> list[tuple[complex, complex]]:
    """The (marked, unmarked) amplitude pair of (D O)^t |s> for each t in
    ``iterations``, in order, with O the oracle diagonal ``signs`` and D the
    diffusion, all from one in-place pass.

    The pass runs the largest t once on one buffer, recording the pair at
    every t asked for.  Entry x of the state at t is the marked amplitude
    where signs[x] < 0 and the unmarked one elsewhere, bitwise equal to the
    step-by-step ``grover_diffusion(phase_oracle(...))`` loop, not an
    approximation.  The buffer goes through exactly the elementwise
    operations that loop applies (a complex multiply by the +-1 signs, then
    2 * mean - amps), so it holds the loop's values at every step.  Those
    values take only two bit patterns: the start is uniform, the multiply by
    +-1 is exact, and the mean is one scalar shared by every entry, so two
    entries with equal values and equal signs stay equal after every step.
    Every marked entry is thus bitwise equal to every other marked entry,
    and likewise for the unmarked ones, and one entry of each kind carries
    the whole state.
    """
    num_qubits = signs.size.bit_length() - 1
    amps = uniform_superposition(num_qubits).amplitudes.copy()
    marked, unmarked = int(np.argmin(signs)), int(np.argmax(signs))
    wanted = set(iterations)
    pairs = {}
    for t in range(max(wanted, default=0) + 1):
        if t:
            amps *= signs
            np.subtract(2.0 * amps.mean(), amps, out=amps)
        if t in wanted:
            pairs[t] = (amps[marked], amps[unmarked])
    return [pairs[t] for t in iterations]


def grover_states(signs: np.ndarray, iterations: Sequence[int]) -> Iterator[Statevector]:
    """(D O)^t |s> for each t in ``iterations``, in order: each state rebuilt
    from its `grover_amplitudes` pair, and norm-checked, when the caller
    draws it."""
    num_qubits = signs.size.bit_length() - 1
    flipped = signs < 0
    for pair in grover_amplitudes(signs, iterations):
        yield Statevector(num_qubits, np.where(flipped, *pair))


def grover_probabilities(signs: np.ndarray, iterations: Sequence[int]) -> Iterator[np.ndarray]:
    """The squared amplitudes of each `grover_states` state, spread from the
    squares of its (marked, unmarked) pair without building the state;
    bitwise np.abs(state.amplitudes) ** 2, as every entry is one of the two
    amplitudes and both steps are elementwise."""
    flipped = signs < 0
    for pair in grover_amplitudes(signs, iterations):
        marked, unmarked = np.abs(np.array(pair)) ** 2
        yield np.where(flipped, marked, unmarked)


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


def sample_probabilities(probs: np.ndarray, shots: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``shots`` times a state given by its squared amplitudes: the
    outcomes seen (ascending basis indices, int64) and how often each came
    up.

    ``probs`` must sum to 1 within the norm tolerance, the check a
    `Statevector` makes on its amplitudes.  It is normalised in place, so
    callers pass an array of their own that they no longer read.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    total = probs.sum()
    norm = float(np.sqrt(total))
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {_NORM_TOL}")
    np.divide(probs, total, out=probs)
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    hits = np.nonzero(counts != 0)[0]
    return hits, counts[hits]


def sample_counts(state: Statevector, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`sample_probabilities` of a Statevector."""
    return sample_probabilities(state.probabilities(), shots, seed)


def sample(state: Statevector, shots: int, seed: int) -> dict[int, int]:
    """Measurement histogram {basis index: count} over ``shots`` shots."""
    outcomes, counts = sample_counts(state, shots, seed)
    return dict(zip(outcomes.tolist(), counts.tolist()))


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
