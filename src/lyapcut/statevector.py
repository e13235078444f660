"""Dense statevector kernels: exact gates, Pauli-sum expectations, feedback observable.

Convention: qubit j is bit j of the basis index, least-significant bit first.
All gates act in place on the amplitude buffer and preserve the norm exactly
up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

STATE_CAP_DEFAULT = 24

# Z on one qubit, broadcast over the (high, bit, low) view of its halves.
_Z_SIGNS = np.array([[1.0], [-1.0]])
_Z_SIGNS.flags.writeable = False


class StateError(ValueError):
    """Bad qubit index, dimension mismatch, or cap violation."""


@dataclass
class StateVector:
    """2^n complex amplitudes over the computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def to_json_list(self) -> list[list[float]]:
        """Debug dump: index-ordered [re, im] pairs."""
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


@dataclass(frozen=True)
class PauliTerm:
    """One real-weighted Pauli string; ops maps qubit -> 'X' | 'Y' | 'Z'."""

    coefficient: float
    ops: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        qubits = [q for q, _ in self.ops]
        if len(set(qubits)) != len(qubits):
            raise StateError(f"repeated qubit in Pauli term {self.ops}")
        for q, p in self.ops:
            if q < 0 or p not in ("X", "Y", "Z"):
                raise StateError(f"bad Pauli op ({q}, {p})")


@dataclass(frozen=True)
class ObservableTerms:
    """Hermitian observable as a real-coefficient sum of Pauli strings."""

    terms: tuple[PauliTerm, ...]

    @classmethod
    def from_pairs(cls, pairs) -> "ObservableTerms":
        terms = tuple(
            PauliTerm(float(c), tuple(sorted(ops.items()))) if isinstance(ops, dict)
            else PauliTerm(float(c), tuple(ops))
            for c, ops in pairs
        )
        return cls(terms=terms)

    def max_qubit(self) -> int:
        return max((q for t in self.terms for q, _ in t.ops), default=-1)

    @cached_property
    def _single_flips(self) -> dict[tuple[int, str], list[tuple[float, tuple[int, ...]]]]:
        """Terms that flip one qubit j, grouped by (j, letter), for feedback_observable.

        Each entry holds the coefficient and the Z qubits as bits of the pair
        index, which is the basis index with bit j removed. Pure-Z terms are
        left out. A term that flips two or more qubits raises StateError.
        """
        groups: dict[tuple[int, str], list[tuple[float, tuple[int, ...]]]] = {}
        for term in self.terms:
            flips = [(q, p) for q, p in term.ops if p != "Z"]
            if len(flips) > 1:
                raise StateError(f"mixer term {term.ops} flips more than one qubit")
            if flips:
                (j, letter), = flips
                z_bits = tuple(q - (q > j) for q, p in term.ops if p == "Z")
                groups.setdefault((j, letter), []).append((term.coefficient, z_bits))
        return groups


def sum_x(n: int) -> ObservableTerms:
    """The transverse-field generator: sum of X_j over all qubits."""
    return ObservableTerms.from_pairs([(1.0, {j: "X"}) for j in range(n)])


def sum_yz(oriented_edges) -> ObservableTerms:
    """Sum of Y_j Z_k over oriented edges (j, k); Y sits on the first vertex."""
    return ObservableTerms.from_pairs([(1.0, {j: "Y", k: "Z"}) for j, k in oriented_edges])


def init_plus(n: int, cap: int = STATE_CAP_DEFAULT) -> StateVector:
    """Uniform superposition: every amplitude equals 2^(-n/2)."""
    if not 1 <= n <= cap:
        raise StateError(f"need 1 <= n <= {cap}, got n={n}")
    amp = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    return StateVector(n_qubits=n, amplitudes=amp)


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise StateError(f"qubit {q} out of range for n={state.n_qubits}")


def _halves(amps: np.ndarray, q: int):
    view = amps.reshape(-1, 2, 1 << q)
    return view[:, 0, :], view[:, 1, :]


def apply_rx(state: StateVector, qubit: int, theta: float) -> StateVector:
    """exp(-i theta X) on one qubit, i.e. [[cos, -i sin], [-i sin, cos]]."""
    _check_qubit(state, qubit)
    c, s = math.cos(theta), math.sin(theta)
    a0, a1 = _halves(state.amplitudes, qubit)
    t0 = c * a0 - 1j * s * a1
    a1 *= c
    a1 -= 1j * s * a0
    a0[...] = t0
    return state


def apply_rzz(state: StateVector, q1: int, q2: int, theta: float) -> StateVector:
    """exp(-i theta Z Z): equal bits pick up e^{-i theta}, unequal e^{+i theta}."""
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    if q1 == q2:
        raise StateError("rzz needs two distinct qubits")
    hi, lo = max(q1, q2), min(q1, q2)
    view = state.amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    eq = complex(math.cos(theta), -math.sin(theta))
    ne = complex(math.cos(theta), math.sin(theta))
    view[:, 0, :, 0, :] *= eq
    view[:, 1, :, 1, :] *= eq
    view[:, 0, :, 1, :] *= ne
    view[:, 1, :, 0, :] *= ne
    return state


def apply_ryz(state: StateVector, qy: int, qz: int, theta: float) -> StateVector:
    """exp(-i theta Y Z) with Y on qy and Z on qz."""
    _check_qubit(state, qy)
    _check_qubit(state, qz)
    if qy == qz:
        raise StateError("ryz needs two distinct qubits")
    c, s = math.cos(theta), math.sin(theta)
    hi, lo = max(qy, qz), min(qy, qz)
    view = state.amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    for bz in (0, 1):
        sign = 1.0 - 2.0 * bz
        if qy == hi:
            a0, a1 = view[:, 0, :, bz, :], view[:, 1, :, bz, :]
        else:
            a0, a1 = view[:, bz, :, 0, :], view[:, bz, :, 1, :]
        t0 = c * a0 - (s * sign) * a1
        a1 *= c
        a1 += (s * sign) * a0
        a0[...] = t0
    return state


def apply_diagonal_phase(state: StateVector, diag: np.ndarray, gamma: float) -> StateVector:
    """Multiply amplitude[x] by e^{-i gamma diag[x]}; exact for diagonal evolution.

    Integer-valued tables go through a phase lookup so the per-step cost is one
    gather instead of a full complex exponential sweep.
    """
    diag = np.asarray(diag)
    if diag.shape != state.amplitudes.shape:
        raise StateError(f"diag length {diag.size} != 2^{state.n_qubits}")
    if np.issubdtype(diag.dtype, np.integer):
        table = np.exp(-1j * gamma * np.arange(int(diag.max()) + 1))
        state.amplitudes *= table[diag]
    else:
        state.amplitudes *= np.exp(-1j * gamma * diag)
    return state


def expectation_diagonal(state: StateVector, diag: np.ndarray) -> float:
    diag = np.asarray(diag)
    if diag.shape != state.amplitudes.shape:
        raise StateError(f"diag length {diag.size} != 2^{state.n_qubits}")
    a = state.amplitudes
    probs = a.real * a.real + a.imag * a.imag
    return float(probs @ diag)


def apply_observable(amps: np.ndarray, n: int, obs: ObservableTerms) -> np.ndarray:
    """Return (sum of Pauli terms) applied to an amplitude vector.

    Each letter acts on the two halves of its qubit: X swaps them, Z negates
    the bit-1 half, and Y = i X Z.
    """
    out = np.zeros_like(amps)
    for term in obs.terms:
        weight = term.coefficient
        vec = amps
        for q, p in term.ops:
            if q >= n:
                raise StateError(f"term touches qubit {q} but n={n}")
            view = vec.reshape(-1, 2, 1 << q)
            if p != "X":
                view = view * _Z_SIGNS
            if p != "Z":
                view = view[:, ::-1, :]
            if p == "Y":
                weight *= 1j
            vec = view.reshape(-1)
        out += weight * vec
    return out


def expectation_pauli(state: StateVector, obs: ObservableTerms) -> float:
    if obs.max_qubit() >= state.n_qubits:
        raise StateError("observable touches qubits outside the state")
    applied = apply_observable(state.amplitudes, state.n_qubits, obs)
    return float(np.vdot(state.amplitudes, applied).real)


def _signed_sum(values: np.ndarray, bits) -> float:
    """Sum of values[x] * prod over k in bits of (-1)^(bit k of x), one halving per bit."""
    for k in sorted(bits, reverse=True):
        view = values.reshape(-1, 2, 1 << k)
        values = view[:, 0, :] - view[:, 1, :]
    return float(values.sum())


def feedback_observable(state: StateVector, mixer: ObservableTerms, diag: np.ndarray) -> float:
    """Expectation of i[A, H_f] for Hermitian mixer A and diagonal H_f = D.

    O = -2 Im <psi| A (D psi)>, evaluated in closed form per kind of term:

    - c X_j Z_S and c Y_j Z_S (S may be empty): over the amplitude pairs
      (a0, a1) that differ in bit j, with Delta_j = D|bit j=1 - D|bit j=0 and
      s_S the sign of Z_S, a Y term gives +2c sum s_S Re(conj(a0) a1) Delta_j
      and an X term gives -2c sum s_S Im(conj(a0) a1) Delta_j.
    - Pure-Z terms commute with D and give 0.

    A term that flips two or more qubits raises StateError.
    """
    diag = np.asarray(diag)
    amps, n = state.amplitudes, state.n_qubits
    if diag.shape != amps.shape:
        raise StateError(f"diag length {diag.size} != 2^{n}")
    groups = mixer._single_flips
    top = mixer.max_qubit()
    if top >= n:
        raise StateError(f"mixer touches qubit {top} but n={n}")
    total = 0.0
    # d1 - d0 can be negative, so an unsigned cut table needs a signed difference.
    signed = np.result_type(diag.dtype, np.int8)
    for (j, letter), group in groups.items():
        a0, a1 = _halves(amps, j)
        d0, d1 = _halves(diag, j)
        w = a0.conj()
        w *= a1
        weighted = (w.real if letter == "Y" else w.imag) * np.subtract(d1, d0, dtype=signed)
        scale = 2.0 if letter == "Y" else -2.0
        for c, z_bits in group:
            total += scale * c * _signed_sum(weighted, z_bits)
    return float(total + 0.0)
