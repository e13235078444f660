"""Dense statevector kernels: exact gates, Pauli-sum expectations, feedback observable.

Convention: qubit j is bit j of the basis index, least-significant bit first.
All gates act in place on the amplitude buffer and preserve the norm exactly
up to float rounding.

Mirrored states. A state fixed by the global flip X^n, psi(x) = psi(~x), is
stored as its half h = psi[:2^(n-1)], the amplitudes with bit n-1 = 0; the
other half is h[::-1]. The cut Hamiltonian, every X_j and every Y_j Z_k
commute with X^n and |+> is fixed by it, so both feedback loops evolve only
h. On a mirrored state:

- gates and terms on qubits below n-1 run the full-state code on h as an
  (n-1)-qubit array, and feedback and <H_f> are doubled for the mirror half;
- a Z on qubit n-1 is +1 on h;
- a flip of qubit n-1 maps x to 2^(n-1)-1-x inside h, because
  psi(x + 2^(n-1)) = h[2^(n-1)-1-x]. RX, RYZ and pure X_j feedback terms read
  every partner from h[::-1]; feedback terms with a Z string, and their weight
  tables, pair the lower quarter of h with the upper quarter reversed, each
  pair once; feedback on qubit n-1 is doubled like the other qubits';
- a diagonal table is still passed as the full 2^n table and must be
  complement-symmetric, diag == diag[::-1]; the kernels read diag[:2^(n-1)].
  Every cut table is, because a cut does not change when all sides swap;
- a mixer term that anticommutes with X^n (an odd number of Y and Z
  letters) and apply_rzz raise StateError; expectation_pauli works on the
  rebuilt full state.

Feedback. feedback_observable takes the pure X_j terms of a mixer from one
e = -i D psi per call, and every other term from a weight table per flipped
qubit and letter, P = Delta_j * sum c s_S over the pairs of amplitudes that
differ in bit j. feedback_tables builds the tables once for a run; a table
then costs one product conj(a0) a1 and one contraction per call, and no
BLAS call.
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
    """2^n complex amplitudes over the computational basis, or, when mirrored,
    the 2^(n-1) amplitudes with bit n-1 = 0 of a flip-symmetric state."""

    n_qubits: int
    amplitudes: np.ndarray
    mirrored: bool = False

    def __post_init__(self) -> None:
        if self.n_qubits < 1 + self.mirrored:
            raise StateError(f"need n >= {1 + self.mirrored}, got n={self.n_qubits}")
        size = 1 << (self.n_qubits - self.mirrored)
        if self.amplitudes.shape != (size,):
            raise StateError(f"need {size} amplitudes for n={self.n_qubits}, got shape {self.amplitudes.shape}")

    def norm(self) -> float:
        scale = math.sqrt(2.0) if self.mirrored else 1.0
        return scale * float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy(), self.mirrored)

    def full(self) -> np.ndarray:
        """All 2^n amplitudes, as a new array."""
        h = self.amplitudes
        return np.concatenate((h, h[::-1])) if self.mirrored else h.copy()

    def to_json_list(self) -> list[list[float]]:
        """Debug dump: index-ordered [re, im] pairs."""
        return [[float(a.real), float(a.imag)] for a in self.full()]


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
    def flip_symmetric(self) -> bool:
        """True when every term commutes with the global flip X^n, i.e. has an
        even number of Y and Z letters."""
        return all(sum(p != "X" for _, p in t.ops) % 2 == 0 for t in self.terms)

    @cached_property
    def _single_flips(self) -> dict[tuple[int, str], list[tuple[float, tuple[int, ...]]]]:
        """Terms that flip one qubit j, grouped by (j, letter), for feedback_observable.

        Each entry holds the coefficient and the Z qubits as bits of the pair
        index, which is the basis index with bit j removed, in ascending
        order. Pure-Z terms are left out. A term that flips two or more qubits
        raises StateError.
        """
        groups: dict[tuple[int, str], list[tuple[float, tuple[int, ...]]]] = {}
        for term in self.terms:
            flips = [(q, p) for q, p in term.ops if p != "Z"]
            if len(flips) > 1:
                raise StateError(f"mixer term {term.ops} flips more than one qubit")
            if flips:
                (j, letter), = flips
                z_bits = tuple(sorted(q - (q > j) for q, p in term.ops if p == "Z"))
                groups.setdefault((j, letter), []).append((term.coefficient, z_bits))
        return groups


def sum_x(n: int) -> ObservableTerms:
    """The transverse-field generator: sum of X_j over all qubits."""
    return ObservableTerms.from_pairs([(1.0, {j: "X"}) for j in range(n)])


def sum_yz(oriented_edges) -> ObservableTerms:
    """Sum of Y_j Z_k over oriented edges (j, k); Y sits on the first vertex."""
    return ObservableTerms.from_pairs([(1.0, {j: "Y", k: "Z"}) for j, k in oriented_edges])


def init_plus(n: int, cap: int = STATE_CAP_DEFAULT, mirrored: bool = False) -> StateVector:
    """Uniform superposition: every amplitude equals 2^(-n/2)."""
    if not 1 + mirrored <= n <= cap:
        raise StateError(f"need {1 + mirrored} <= n <= {cap}, got n={n}")
    amp = np.full(1 << (n - mirrored), 2.0 ** (-n / 2), dtype=np.complex128)
    return StateVector(n_qubits=n, amplitudes=amp, mirrored=mirrored)


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise StateError(f"qubit {q} out of range for n={state.n_qubits}")


def _halves(amps: np.ndarray, q: int):
    view = amps.reshape(-1, 2, 1 << q)
    return view[:, 0, :], view[:, 1, :]


def _mirror_top(state: StateVector) -> int:
    """Qubit n-1 of a mirrored state, whose flip maps the stored half onto its mirror; -1 for a full state."""
    return state.n_qubits - 1 if state.mirrored else -1


def _pairs(values: np.ndarray, j: int, top: int):
    """The entries that a flip of qubit j pairs, as two equal-length views.

    Qubit top is n-1 of a mirrored state: its flip maps x to 2^(n-1)-1-x, so
    the lower quarter pairs with the upper quarter reversed, each pair once.
    """
    if j == top:
        quarter = values.size // 2
        return values[:quarter], values[quarter:][::-1]
    return _halves(values, j)


def _diag_for(diag, n: int, mirrored: bool) -> np.ndarray:
    """The part of a full 2^n table that lines up with the amplitudes stored for n qubits."""
    diag = np.asarray(diag)
    if diag.shape != (1 << n,):
        raise StateError(f"diag length {diag.size} != 2^{n}")
    return diag[: 1 << (n - mirrored)]


def _partner(amps: np.ndarray, q: int, top: int) -> np.ndarray:
    """X_q applied to the stored amplitudes, as a view: entry x is the amplitude of x with bit q flipped.

    The (-1, 2, 2^q) view of the bit-q halves with the halves swapped; flat and
    reversed for qubit top, n-1 of a mirrored state, whose flip maps x to 2^(n-1)-1-x.
    """
    if q == top:
        return amps[::-1]
    return amps.reshape(-1, 2, 1 << q)[:, ::-1, :]


def apply_rx(state: StateVector, qubit: int, theta: float) -> StateVector:
    """exp(-i theta X) on one qubit, i.e. [[cos, -i sin], [-i sin, cos]]."""
    _check_qubit(state, qubit)
    c, s = math.cos(theta), math.sin(theta)
    h = state.amplitudes
    p = _partner(h, qubit, _mirror_top(state)) * (-1j * s)
    h *= c
    h += p.reshape(-1)
    return state


def apply_rzz(state: StateVector, q1: int, q2: int, theta: float) -> StateVector:
    """exp(-i theta Z Z): equal bits pick up e^{-i theta}, unequal e^{+i theta}."""
    if state.mirrored:
        raise StateError("apply_rzz needs a full state")
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
    """exp(-i theta Y Z) with Y on qy and Z on qz: a <- c a + s y z a', with a' the
    amplitude at bit qy flipped, y = -1 / +1 on bit qy = 0 / 1 and z = (-1)^(bit qz).

    The sign table is complex so that the multiply needs no cast. Bit n-1 of a
    mirrored state is 0, so y = -1 when qy = n-1 and z = +1 when qz = n-1: only
    the other bit carries a sign, and y z is [-1, 1] over it either way.
    """
    _check_qubit(state, qy)
    _check_qubit(state, qz)
    if qy == qz:
        raise StateError("ryz needs two distinct qubits")
    c, s = math.cos(theta), math.sin(theta)
    h, top = state.amplitudes, _mirror_top(state)
    if top in (qy, qz):
        shape = (-1, 2, 1 << (qz if qy == top else qy))
        table = np.array([[-s], [s]], dtype=np.complex128)
    else:
        hi, lo = max(qy, qz), min(qy, qz)
        shape = (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        table = np.array([-s, s, s, -s], dtype=np.complex128).reshape(2, 1, 2, 1)
    p = _partner(h, qy, top).reshape(shape) * table
    h *= c
    h += p.reshape(-1)
    return state


def apply_diagonal_phase(state: StateVector, diag: np.ndarray, gamma: float) -> StateVector:
    """Multiply amplitude[x] by e^{-i gamma diag[x]}; exact for diagonal evolution.

    Integer-valued tables go through a phase lookup so the per-step cost is one
    gather instead of a full complex exponential sweep.
    """
    diag = _diag_for(diag, state.n_qubits, state.mirrored)
    if np.issubdtype(diag.dtype, np.integer):
        table = np.exp(-1j * gamma * np.arange(int(diag.max()) + 1))
        state.amplitudes *= table[diag]
    else:
        state.amplitudes *= np.exp(-1j * gamma * diag)
    return state


def expectation_diagonal(state: StateVector, diag: np.ndarray) -> float:
    diag = _diag_for(diag, state.n_qubits, state.mirrored)
    a = state.amplitudes
    probs = a.real * a.real + a.imag * a.imag
    value = float(probs @ diag)
    return 2.0 * value if state.mirrored else value


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
    amps = state.full() if state.mirrored else state.amplitudes
    applied = apply_observable(amps, state.n_qubits, obs)
    return float(np.einsum("i,i->", amps.conj(), applied).real)


def _partner_overlap(amps: np.ndarray, e: np.ndarray, j: int, top: int) -> float:
    """Re sum_y conj((X_j amps)[y]) e[y], one einsum over float views. Qubit top
    reads amps reversed; runs of 2-4 floats (qubits 0, 1 and top) are walked
    transposed, so the long axis is innermost."""
    shape = (1, -1, 2) if j == top else (-1, 2, 2 << j)
    p, w = amps.view(np.float64).reshape(shape)[:, ::-1, :], e.view(np.float64).reshape(shape)
    if shape[-1] <= 4:
        p, w = p.T, w.T
    return float(np.einsum("ijk,ijk->", p, w, order="C"))


def _walk(view: np.ndarray, j: int) -> np.ndarray:
    """A (high, low) pair view of qubit j in the order the feedback walks it: transposed
    below qubit 3, whose runs of 1-4 entries numpy walks slowly, so that the long axis
    is innermost. A flat view (qubit n-1 of a mirrored state) is its own transpose."""
    return view.T if j < 3 else view


def _weighted_overlap(amps: np.ndarray, j: int, top: int, letter: str, table: np.ndarray) -> float:
    """Sum over the pairs (a0, a1) that differ in bit j of table times Re (letter Y) or Im (letter X) of conj(a0) a1."""
    a0, a1 = _pairs(amps, j, top)
    w = np.conjugate(_walk(a0, j), order="C")
    w *= _walk(a1, j)
    return float(((w.real if letter == "Y" else w.imag) * table).sum())


def _add_z_string(values: np.ndarray, c, z_bits: tuple[int, ...]) -> None:
    """values[y] += c * prod over k in z_bits (ascending) of (-1)^(bit k of y), in place.

    values is viewed with one axis of length 2 per bit in z_bits, and a 2 x .. x 2
    sign table broadcasts over the rest, so nothing of the values' size is allocated.
    """
    shape, signs, low = (), np.array(c), 0
    for k in z_bits:
        shape = (2, 1 << (k - low)) + shape
        signs = np.multiply.outer(_Z_SIGNS.astype(signs.dtype), signs)
        low = k + 1
    view = values.reshape((-1,) + shape)
    view += signs


def _weight_table(half: np.ndarray, j: int, top: int, terms) -> np.ndarray:
    """P = Delta_j * sum over terms of c * s_S, read-only, over the pair index of a flip of qubit j.

    half is the diagonal over the stored amplitudes, Delta_j = D|bit j=1 - D|bit j=0
    and s_S the sign of the term's Z string. The table is laid out in the order
    _weighted_overlap walks the pairs. It is exact and as narrow as its range
    allows (int8 where |P| <= 127) when D and every coefficient are integers, and
    float64 otherwise.
    """
    d0, d1 = _pairs(half, j, top)
    exact = np.issubdtype(half.dtype, np.integer) and all(float(c).is_integer() for c, _ in terms)
    kind = np.int64 if exact else np.float64
    table = np.subtract(d1, d0, dtype=kind)
    weights = np.zeros(table.size, dtype=kind)
    for c, z_bits in terms:
        _add_z_string(weights, int(c) if exact else c, z_bits)
    table *= weights.reshape(table.shape)
    if exact:
        bound = max(int(table.max()), -int(table.min()))
        kind = next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    table = np.ascontiguousarray(_walk(table, j), dtype=kind)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class FeedbackTables:
    """What feedback_observable reads of one mixer and one diagonal on states of one layout.

    pure holds (j, c) for the X_j terms without a Z string, summed per qubit;
    weighted holds (j, letter, table) per flipped qubit and letter of every
    other term (see feedback_tables). mixer and diag are the objects the tables
    were built from.
    """

    mixer: ObservableTerms
    diag: np.ndarray
    n_qubits: int
    mirrored: bool
    pure: tuple[tuple[int, float], ...]
    weighted: tuple[tuple[int, str, np.ndarray], ...]


def _split(mixer: ObservableTerms, diag, n: int, mirrored: bool):
    """Check mixer and diag against the layout; return the diagonal over the stored
    amplitudes, the pure X_j sums, and a generator of the weight tables, built one
    at a time.

    Bit n-2 of a mirrored pair index is qubit n-1 for j < n-1, and qubit n-2 on
    the lower quarter for j = n-1: a Z there is +1 either way, so it is dropped.
    """
    half = _diag_for(diag, n, mirrored)
    highest = mixer.max_qubit()
    if highest >= n:
        raise StateError(f"mixer touches qubit {highest} but n={n}")
    if mirrored and not mixer.flip_symmetric:
        raise StateError("mixer has a term that anticommutes with the global flip; needs a full state")
    top, z_plus = (n - 1, n - 2) if mirrored else (-1, None)
    pure, groups = [], []
    for (j, letter), group in mixer._single_flips.items():
        paired, c_pure = [], 0.0
        for c, z_bits in group:
            if z_bits and z_bits[-1] == z_plus:
                z_bits = z_bits[:-1]
            if z_bits or letter == "Y":
                paired.append((c, z_bits))
            else:
                c_pure += c
        if c_pure:
            pure.append((j, c_pure))
        if paired:
            groups.append((j, letter, paired))
    return half, tuple(pure), ((j, letter, _weight_table(half, j, top, terms)) for j, letter, terms in groups)


def feedback_tables(mixer: ObservableTerms, diag: np.ndarray, n_qubits: int, mirrored: bool) -> FeedbackTables:
    """The tables feedback_observable needs for mixer and diagonal diag on n-qubit states, mirrored or full.

    For each flipped qubit j and letter of the terms with a Z string (and every
    Y term), one table over the pair index y of the amplitude pairs that differ
    in bit j: P(y) = Delta_j(y) * sum_t c_t s_t(y), with Delta_j = D|bit j=1 -
    D|bit j=0 and s_t the sign of term t's Z string. A table is int8 where
    |P| <= 127 and the next wider integer above that; it is float64 when D or a
    coefficient is not an integer. Build them once per run and pass them to
    every call.
    """
    _, pure, weighted = _split(mixer, diag, n_qubits, mirrored)
    return FeedbackTables(mixer, diag, n_qubits, mirrored, pure, tuple(weighted))


def feedback_observable(state: StateVector, mixer: ObservableTerms, diag: np.ndarray,
                        tables: FeedbackTables | None = None) -> float:
    """Expectation of i[A, H_f] for Hermitian mixer A and diagonal H_f = D.

    O = -2 Im <psi| A (D psi)>, evaluated in closed form per kind of term:

    - c X_j with no Z string: <psi| X_j D |psi> = sum_y conj(psi(y ^ 2^j)) (D psi)(y),
      so the term gives -2c sum_y Re(conj(psi(y ^ 2^j)) e(y)), e = -i D psi:
      one buffer of the stored size per call, then one contraction per qubit.
    - every other term flips one qubit j: over the amplitude pairs (a0, a1)
      that differ in bit j, the Y terms on j give +2 sum P Re(conj(a0) a1) and
      the X terms -2 sum P Im(conj(a0) a1), with P the weight table of j and
      the letter (see feedback_tables). Per table that is one product of
      half the stored size and one contraction with the table.
    - Pure-Z terms commute with D and give 0.

    tables are feedback_tables(mixer, diag, n, mirrored) of this state's
    layout; without them the call builds them for itself, one at a time.
    A term that flips two or more qubits raises StateError, and so does, on a
    mirrored state, a term that anticommutes with the global flip.
    On a mirrored state every sum counts twice, for the mirror image, and a Z
    on qubit n-1 is +1.
    """
    amps, n, top = state.amplitudes, state.n_qubits, _mirror_top(state)
    if tables is None:
        half, pure, weighted = _split(mixer, diag, n, state.mirrored)
    elif tables.mixer is mixer and tables.diag is diag and (tables.n_qubits, tables.mirrored) == (n, state.mirrored):
        half, pure, weighted = diag[: amps.size], tables.pure, tables.weighted
    else:
        raise StateError("feedback tables were built for another mixer, diagonal or state layout")
    mirror_scale = 2.0 if state.mirrored else 1.0
    total = 0.0
    if pure:
        e = np.multiply(amps, half)
        e *= -1j
        for j, c in pure:
            total -= 2.0 * mirror_scale * c * _partner_overlap(amps, e, j, top)
    for j, letter, table in weighted:
        total += (2.0 if letter == "Y" else -2.0) * mirror_scale * _weighted_overlap(amps, j, top, letter, table)
    return float(total + 0.0)
