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
- apply_yz_layer may store, inside one call, the half with another qubit at
  0 instead, when a head sits on the qubit left out; it restores the h layout
  before it returns;
- a mixer term that anticommutes with X^n (an odd number of Y and Z
  letters) and apply_rzz raise StateError; expectation_pauli works on the
  rebuilt full state.

Feedback. feedback_observable takes the pure X_j terms of a mixer from one
e = -i D psi per call, and every other term from a weight table per flipped
qubit and letter, P = Delta_j * sum c s_S over the pairs of amplitudes that
differ in bit j. A run's Workspace holds the tables; a table then costs one
product conj(a0) a1 and one contraction per call, and no BLAS call. Below
RX_BLOCKS_FROM_N each pure term is one BLAS-free np.einsum of the partner
amplitudes with e; from it on, the terms of qubits 0 and 1 and of up to three
blocks of three qubits at the top are read off 8 x 8 Gram matrices of the
float views of psi and e, one np.matmul each (_pure_plan), and only the
qubits between them and the mirrored top one keep their einsum.

Workspace. A run's kernels rebuild nothing per call: Workspace.build(state,
mixer, diag) makes, once per run, the feedback's weight tables, the strided
views every gate and feedback term walks on the state's buffer, the
light-cone layer's per-head copies and rotations, the phase level table, and
one scratch buffer of the stored size that RX's partner products (the partner
times -i sin theta, or times -i tan theta for the transverse-field row, whose
cos^n theta the phase layer's level table carries), the RX row's block
products, the light-cone layer, e = -i D psi, the pair products, the phases and the probabilities of <H_f>
share in turn. That buffer and the state from init_plus start on a 64-byte
boundary, so a run's speed does not hang on where the heap put them. Every
kernel but the single gates apply_ryz and apply_rzz takes it as the optional
keyword workspace; without one a call builds what it needs and runs the same
code, so both give the same bits. A workspace of another buffer, layout,
diagonal or mixer raises StateError. A numpy ufunc over a strided view that
it cannot walk as one axis takes an iteration buffer of up to 8192 entries,
so RX on every qubit but 0, 1 and the top one of a mirrored state copies its
partner before it multiplies, and the light-cone layer moves each head's bits
to the top with one assignment copy into the other buffer, after which every
ufunc walks contiguous blocks. The feedback's pair products still take one such buffer
(128 KiB) per call: copying their operands as well costs extra passes over
the state.

The RX row. apply_rx_blocks applies RX to every stored qubit below the
mirrored top one as a few blocks of 3-5 qubits: each block is one np.matmul
with the 2^k x 2^k matrix RX^(tensor k), whose entry (a, b) is
cos^(k-w) (-i sin)^w, w = popcount(a ^ b), or (-i tan)^w for the unit-diagonal
row, and the products alternate between the state's buffer and the scratch
buffer. This kernel and the feedback's Gram blocks pin OpenBLAS to one thread
around their matmuls (_one_blas_thread): with two threads a product waits for
a core that another process may hold.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The largest n of a state, and of the cut tables that the Hamiltonian and the oracle build.
STATE_CAP_DEFAULT = 24
# From this n on, the transverse-field kernels run as single-thread BLAS products:
# dynamics.Mixer applies RX on qubits 0..n-2 as one apply_rx_blocks call, and
# feedback_observable reads most pure X_j terms off Gram blocks (_pure_plan). Below it
# both keep the per-qubit code, so runs up to n = 12 keep their bytes. Placed by timing
# whole rounds at n = 12, 13 and 14.
RX_BLOCKS_FROM_N = 13

# Z on one qubit, broadcast over the (high, bit, low) view of its halves.
_Z_SIGNS = np.array([[1.0], [-1.0]])
_Z_SIGNS.flags.writeable = False


class StateError(ValueError):
    """Bad qubit index, dimension mismatch, or cap violation."""


def cap_message(n: int, cap: int) -> str:
    """The one wording of every error for a size above its cap."""
    return f"n={n} is above state cap {cap}"


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


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised complex128 buffer of size entries whose data starts on a 64-byte boundary."""
    raw = np.empty(16 * size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + 16 * size].view(np.complex128)


def init_plus(n: int, cap: int = STATE_CAP_DEFAULT, mirrored: bool = False) -> StateVector:
    """Uniform superposition: every amplitude equals 2^(-n/2), in a 64-byte aligned buffer."""
    if n > cap:
        raise StateError(cap_message(n, cap))
    if n < 1 + mirrored:
        raise StateError(f"need n >= {1 + mirrored}, got n={n}")
    amp = _aligned_empty(1 << (n - mirrored))
    amp[...] = 2.0 ** (-n / 2)
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


def _rx_views(amps: np.ndarray, q: int, top: int, scratch: np.ndarray):
    """(partner, product, scratch, walk) of RX on qubit q: product is a view of scratch in
    the partner's shape, which the call fills with partner * (-i sin), or (-i tan) for a
    unit-diagonal gate, before it adds scratch to amps.

    walk is True where the call multiplies partner into product in C order: for
    qubit top, whose partner is flat, and below qubit 2, whose halves are runs of
    1-2 entries that numpy walks slowly, so both views are stored transposed, long
    axis innermost. On every other qubit a strided multiply would take numpy's
    iteration buffers, so the call copies partner into product and multiplies
    scratch in place instead.
    """
    if q == top:
        return amps[::-1], scratch, scratch, True
    partner, product = _partner(amps, q, top), scratch.reshape(-1, 2, 1 << q)
    if q < 2:
        return partner.T, product.T, scratch, True
    return partner, product, scratch, False


def apply_rx(state: StateVector, qubit: int, theta: float, *, workspace: Workspace | None = None,
             unit_diagonal: bool = False) -> StateVector:
    """exp(-i theta X) on one qubit, i.e. [[cos, -i sin], [-i sin, cos]].

    With unit_diagonal the call applies that gate divided by cos theta,
    [[1, -i tan], [-i tan, 1]], and skips the pass that multiplies the state by
    cos: a row of n such gates is the row of RX gates divided by cos^n theta, a
    scalar that the caller applies elsewhere (the transverse-field Mixer puts it
    in its phase layer). It is meant for |tan theta| <= 1.

    workspace is a Workspace of this state; without one the call builds its views
    and a scratch buffer of the stored size for itself.
    """
    _check_qubit(state, qubit)
    h = state.amplitudes
    if workspace is None:
        partner, product, scratch, walk = _rx_views(h, qubit, _mirror_top(state), np.empty_like(h))
    else:
        partner, product, scratch, walk = _gate(workspace, state, workspace.rx, qubit)
    c, s = math.cos(theta), math.sin(theta)
    off = -1j * (s / c if unit_diagonal else s)
    if walk:
        np.multiply(partner, off, out=product, order="C")
    else:
        product[...] = partner
        scratch *= off
    if not unit_diagonal:
        h *= c
    h += scratch
    return state


def _block_sizes(stored: int) -> list[int]:
    """The qubit counts of the RX row's blocks, from qubit 0 up: ceil(stored / 4) blocks,
    as equal as they go and larger first, so 3-5 qubits each from 6 stored qubits on; one
    block of them all below that."""
    count = -(-stored // 4) if stored > 5 else 1
    size, extra = divmod(stored, count)
    return [size + (b < extra) for b in range(count)]


def _rx_row(amps: np.ndarray, scratch: np.ndarray):
    """The views of apply_rx_blocks on amps and scratch: (tables, products, copy).

    tables holds per block size k the read-only table w(a, b) = popcount(a ^ b) and the
    2^k x 2^k matrix buffer that the call fills from it. products holds per block of
    qubits lo..lo+k-1 (matrix, source, destination, low), with source and destination
    views from amps to scratch and back in turn: the block at qubit 0 is a (rows, 2^k)
    view that the matrix multiplies from the right (low is True), every other block a
    (rows, 2^k, 2^lo) view that it multiplies from the left; the matrix is symmetric. copy
    is (amps, scratch) when an odd count of blocks leaves the row in scratch, else None.
    """
    stored = amps.size.bit_length() - 1
    sizes = _block_sizes(stored)
    tables = {}
    for k in sorted(set(sizes)):
        index = np.arange(1 << k)
        weights = np.zeros((1 << k, 1 << k), dtype=np.intp)
        for bit in range(k):
            weights += ((index[:, None] ^ index) >> bit) & 1
        weights.flags.writeable = False
        tables[k] = (k, weights, np.empty(weights.shape, dtype=np.complex128))
    products, buffers, lo = [], (amps, scratch), 0
    for i, k in enumerate(sizes):
        shape = (-1, 1 << k) if lo == 0 else (-1, 1 << k, 1 << lo)
        products.append((tables[k][2], buffers[i % 2].reshape(shape), buffers[1 - i % 2].reshape(shape), lo == 0))
        lo += k
    return tuple(tables.values()), tuple(products), (amps, scratch) if len(sizes) % 2 else None


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy calls, or None where
    numpy's extension module resolves no such symbol (another BLAS, or a build that hides it)."""
    try:
        from numpy._core import _multiarray_umath as extension
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as extension
    try:
        lib = ctypes.CDLL(extension.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
        get, set_ = (getattr(lib, name % verb, None) for verb in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread(blas):
    """Runs its body with OpenBLAS on one thread and restores the previous count after it,
    also when the body raises. blas is _openblas_threads()'s (get, set); None leaves the
    library's own count."""
    previous = 1 if blas is None else blas[0]()
    if previous != 1:
        blas[1](1)
    try:
        yield
    finally:
        if previous != 1:
            blas[1](previous)


def apply_rx_blocks(state: StateVector, theta: float, *, workspace: Workspace | None = None,
                    unit_diagonal: bool = False) -> StateVector:
    """exp(-i theta X) on every stored qubit below the mirrored top one: qubits 0..n-2 of a
    mirrored state, whose qubit n-1 takes apply_rx, and every qubit of a full state.

    The qubits go in blocks of 3-5 (_block_sizes; one block below 6 stored qubits), and
    each block is one np.matmul with RX^(tensor k), whose entry (a, b) is
    cos^(k-w) (-i sin)^w with w = popcount(a ^ b); with unit_diagonal, as in apply_rx,
    it is (-i tan)^w, the gates divided by cos theta. The products go from the state's
    buffer to the scratch buffer and back in turn, and an odd count of blocks ends with
    one copy back. OpenBLAS runs them on one thread: the call sets the count to 1 and
    restores the previous count when the products end, also when one raises; where numpy
    exposes no OpenBLAS thread control, the products run with the library's own count.
    The result agrees with the gates one at a time up to rounding.

    workspace is a Workspace of this state whose mixer has an X term on every such qubit;
    it holds the block views, the popcount tables, one matrix buffer per block size and
    the thread control. Without one the call builds them and a scratch buffer of the
    stored size for itself.
    """
    h = state.amplitudes
    if workspace is None:
        (tables, products, copy), blas = _rx_row(h, np.empty_like(h)), _openblas_threads()
    else:
        _bound(workspace, state)
        if workspace.rx_row is None:
            raise StateError("workspace has no RX row; its mixer lacks an X term on a stored qubit")
        (tables, products, copy), blas = workspace.rx_row, workspace.blas
    c, s = math.cos(theta), math.sin(theta)
    for k, weights, matrix in tables:
        w = np.arange(k + 1)
        powers = (-1j * (s / c)) ** w if unit_diagonal else c ** (k - w) * (-1j * s) ** w
        powers.take(weights, out=matrix, mode="clip")
    with _one_blas_thread(blas):
        for matrix, source, destination, low in products:
            if low:
                np.matmul(source, matrix, out=destination)
            else:
                np.matmul(matrix, source, out=destination)
    if copy is not None:
        copy[0][...] = copy[1]
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


# y z over the bits that carry a sign in apply_ryz: the other bit when one of the
# pair is qubit n-1 of a mirrored state, else (bit hi, bit lo).
_YZ_SIGNS_TOP = np.array([[-1.0], [1.0]])
_YZ_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0]).reshape(2, 1, 2, 1)
_YZ_SIGNS_TOP.flags.writeable = _YZ_SIGNS.flags.writeable = False


def _ryz_views(amps: np.ndarray, qy: int, qz: int, top: int, scratch: np.ndarray):
    """(partner, product, signs, table, scratch) of RYZ on (qy, qz): the call copies partner
    into product, a view of scratch in the partner's shape, multiplies it by the
    complex table whose real part it sets to signs * sin, then adds scratch to
    amps. The copy spares the multiply one of numpy's iteration buffers.

    The partner is the amplitude at bit qy flipped, in a shape with one axis per bit
    that carries a sign.
    """
    if top in (qy, qz):
        shape, signs = (-1, 2, 1 << (qz if qy == top else qy)), _YZ_SIGNS_TOP
        partner = _partner(amps, qy, top).reshape(shape)
    else:
        hi, lo = max(qy, qz), min(qy, qz)
        shape, signs = (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo), _YZ_SIGNS
        flip = (slice(None), slice(None, None, -1)) if qy == hi else (slice(None),) * 3 + (slice(None, None, -1),)
        partner = amps.reshape(shape)[flip]
    return partner, scratch.reshape(shape), signs, np.zeros(signs.shape, dtype=np.complex128), scratch


def _check_pair(state: StateVector, qy: int, qz: int) -> None:
    _check_qubit(state, qy)
    _check_qubit(state, qz)
    if qy == qz:
        raise StateError("ryz needs two distinct qubits")


def apply_ryz(state: StateVector, qy: int, qz: int, theta: float) -> StateVector:
    """exp(-i theta Y Z) with Y on qy and Z on qz: a <- c a + s y z a', with a' the
    amplitude at bit qy flipped, y = -1 / +1 on bit qy = 0 / 1 and z = (-1)^(bit qz).

    The sign table is complex so that the multiply needs no cast. Bit n-1 of a
    mirrored state is 0, so y = -1 when qy = n-1 and z = +1 when qz = n-1: only
    the other bit carries a sign, and y z is [-1, 1] over it either way. The call
    builds its views and a scratch buffer of the stored size; a run's light-cone
    layer goes through apply_yz_layer instead.
    """
    _check_pair(state, qy, qz)
    h = state.amplitudes
    partner, product, signs, table, scratch = _ryz_views(h, qy, qz, _mirror_top(state), np.empty_like(h))
    c, s = math.cos(theta), math.sin(theta)
    product[...] = partner
    np.multiply(signs, s, out=table.real)
    product *= table
    h *= c
    h += scratch
    return state


def _head_runs(edges) -> list[tuple[int, list[int]]]:
    """The oriented edges (j, k) as runs of consecutive edges with one head j, in order."""
    runs: list[tuple[int, list[int]]] = []
    for j, k in edges:
        if runs and runs[-1][0] == j:
            runs[-1][1].append(k)
        else:
            runs.append((j, [k]))
    return runs


def _relayout(src: np.ndarray, src_layout, dst: np.ndarray, dst_layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """(destination, source) view pairs whose assignment copies src, stored in src_layout,
    into dst, stored in dst_layout.

    A layout (mirror, order) stores the amplitudes psi(x) with bit mirror = 0 (None for
    a full state), indexed by the bits of order, most significant first. Bits that
    are adjacent and in the same order in both layouts share one axis. A copy that
    moves the mirror bit from m to m2 splits on them: psi(m2=0, m=1, y) = psi(m2=1,
    m=0, ~y), so the m=1 half reads the m2=1 half with every axis reversed.
    """
    (m, order), (m2, order2) = src_layout, dst_layout
    # The source axis of each destination bit; m in the destination is m2 in the source.
    pos = [order.index(m2 if b == m else b) for b in order2]
    split = order2.index(m) if m != m2 else None
    groups: list[list[int]] = []
    for i, p in enumerate(pos):
        if groups and p == pos[i - 1] + 1 and split not in (i - 1, i):
            groups[-1].append(i)
        else:
            groups.append([i])
    by_source = sorted(range(len(groups)), key=lambda g: pos[groups[g][0]])
    d = dst.reshape([1 << len(group) for group in groups])
    s = src.reshape([1 << len(groups[g]) for g in by_source]).transpose(np.argsort(by_source))
    if split is None:
        return [(d, s)]
    axis = groups.index([split])
    pairs = []
    for bit in (0, 1):
        index = (slice(None),) * axis + (slice(bit, bit + 1),)
        part = s[index]
        if bit:
            part = part[(slice(None, None, -1),) * part.ndim]
        pairs.append((d[index], part))
    return pairs


def _yz_layer(amps: np.ndarray, scratch: np.ndarray, edges, n: int, mirrored: bool):
    """The views of apply_yz_layer on amps and scratch: (edges, heads, final).

    heads holds per run of one head j with tails K: the copies of amps into scratch in
    a layout with the bits of K, then j, most significant; the tail weight W of each
    tail pattern, as a column; buffers for cos and sin of theta W; and float views of
    the bit-j = 0 and 1 blocks in scratch, then in amps. final holds the copies back
    to amps in the canonical layout.
    """
    layout = canonical = (n - 1 if mirrored else None, tuple(range(n - 1 - mirrored, -1, -1)))
    heads, shared = [], {}
    for j, tails in _head_runs(edges):
        m, order = layout
        # A head on the mirror bit hands that role to one of its tails.
        m2 = tails[0] if j == m else m
        keys = [b for b in order if b in tails and b != m2]
        order2 = tuple(keys + [j] + [b for b in order if b not in keys and b not in (j, m2)])
        copies = tuple(_relayout(amps, layout, scratch, (m2, order2)))
        layout = (m2, order2)
        # z = +1 on the mirror bit, which is 0 in every stored amplitude.
        p = np.arange(1 << len(keys))[:, None]
        weight = np.full(p.shape, float(tails.count(m2)))
        for shift, k in enumerate(reversed(keys)):
            weight += tails.count(k) * (1.0 - 2.0 * ((p >> shift) & 1))
        # Heads run one at a time, so heads with as many patterns share the block
        # views and the cos and sin columns.
        if p.size not in shared:
            a, b = (x.view(np.float64).reshape(p.size, 2, -1) for x in (amps, scratch))
            shared[p.size] = (np.empty(p.shape), np.empty(p.shape), b[:, 0], b[:, 1], a[:, 0], a[:, 1])
        heads.append((copies, weight, *shared[p.size]))
    final = tuple(_relayout(scratch, layout, amps, canonical)) if heads else ()
    return tuple(map(tuple, edges)), tuple(heads), final


def apply_yz_layer(state: StateVector, edges, theta: float, *, workspace: Workspace | None = None) -> StateVector:
    """exp(-i theta Y_j Z_k) for every oriented edge (j, k) of edges, in order.

    Gates that share a head j commute, so a run of consecutive edges with head j and
    tails K is one rotation of each bit-j pair by theta W, with W = sum over K of
    z_k: (a0, a1) <- (c a0 - s a1, s a0 + c a1). Per run, one assignment copies the
    state into the other buffer with the bits of K, then j, most significant, and six
    contiguous ufunc calls rotate the two bit-j blocks of every tail pattern by its
    angle and write them back into the state's buffer; the last run rotates in place,
    with the state's buffer as temporaries, and one more copy restores the canonical
    layout. On a mirrored state the mirror bit is the one left out of the stored
    amplitudes, at first qubit n-1: a tail on it adds +1 to W, and a head on it hands
    the role to one of its tails, which the copies do by reading one half reversed.
    The result agrees with the gates one at a time (apply_ryz) up to rounding.

    workspace is a Workspace of this state whose mixer's YZ terms are these edges;
    its scratch buffer is the other buffer. Without one the call builds its views and
    a scratch buffer of the stored size for itself.
    """
    if workspace is None:
        for qy, qz in edges:
            _check_pair(state, qy, qz)
        h = state.amplitudes
        layer = _yz_layer(h, np.empty_like(h), edges, state.n_qubits, state.mirrored)
    else:
        layer = _bound(workspace, state).yz
        if layer is None or layer[0] != tuple(map(tuple, edges)):
            raise StateError("workspace has no layer on these edges; its mixer has other YZ terms")
    _, heads, final = layer
    for i, (copies, weight, c, s, u0, u1, v0, v1) in enumerate(heads):
        for dst, src in copies:
            dst[...] = src
        np.multiply(weight, theta, out=c)
        np.sin(c, out=s)
        np.cos(c, out=c)
        if i == len(heads) - 1:
            np.multiply(u0, s, out=v0)
            np.multiply(u1, s, out=v1)
            u0 *= c
            u1 *= c
            u0 -= v1
            u1 += v0
        else:
            np.multiply(u0, c, out=v0)
            np.multiply(u1, c, out=v1)
            u0 *= s
            u1 *= s
            v0 -= u1
            v1 += u0
    for dst, src in final:
        dst[...] = src
    return state


def _levels(half: np.ndarray) -> np.ndarray | None:
    """The phase levels 0..max of a nonnegative integer diagonal, None for any other."""
    if np.issubdtype(half.dtype, np.integer) and half.min() >= 0:
        return np.arange(int(half.max()) + 1)
    return None


def _gather_plan(amps: np.ndarray, half: np.ndarray, scratch: np.ndarray):
    """The two halves of a phase gather, as (indices, phases, diagonal part, amplitude part).

    Each half's phases go into one half of scratch while its indices, as intp, sit
    in the other, so np.take needs no index conversion and the gather allocates
    nothing.
    """
    q = amps.size // 2
    lower, upper = scratch[:q], scratch[q:]
    return ((upper.view(np.intp)[:q], lower, half[:q], amps[:q]),
            (lower.view(np.intp)[: amps.size - q], upper, half[q:], amps[q:]))


def apply_diagonal_phase(state: StateVector, diag: np.ndarray, gamma: float, *,
                         workspace: Workspace | None = None, scale: float = 1.0) -> StateVector:
    """Multiply amplitude[x] by scale * e^{-i gamma diag[x]}; exact for diagonal evolution.

    Nonnegative integer tables go through a phase lookup so the per-step cost is
    one gather instead of a full complex exponential sweep; scale then multiplies
    the lookup table, one entry per level, and costs no pass over the state. Any
    other table takes one more pass when scale is not 1. The transverse-field
    Mixer passes the cos^n theta that its RX row leaves out (see apply_rx).
    workspace is a Workspace of this state and diagonal, which holds the level
    table and the gather's views; without one the call builds them for itself.
    """
    half = _diag_for(diag, state.n_qubits, state.mirrored)
    amps = state.amplitudes
    if workspace is None:
        levels, scratch = _levels(half), np.empty_like(amps)
        plan = _gather_plan(amps, half, scratch)
    else:
        _bound(workspace, state, diag)
        levels, scratch, plan = workspace.levels, workspace.scratch, workspace.gather
    if levels is None:
        np.multiply(-1j * gamma, half, out=scratch)
        np.exp(scratch, out=scratch)
        amps *= scratch
        if scale != 1.0:
            amps *= scale
    else:
        table = np.exp(-1j * gamma * levels)
        if scale != 1.0:
            table *= scale
        for indices, phases, part, target in plan:
            indices[...] = part
            table.take(indices, out=phases, mode="clip")
            target *= phases
    return state


def expectation_diagonal(state: StateVector, diag: np.ndarray, *, workspace: Workspace | None = None) -> float:
    """<psi| D |psi> for a diagonal D; the probabilities and D as floats go into one
    scratch buffer of the stored size, the workspace's or one built for the call."""
    half = _diag_for(diag, state.n_qubits, state.mirrored)
    a = state.amplitudes
    scratch = np.empty_like(a) if workspace is None else _bound(workspace, state, diag).scratch
    probs, weights = scratch.view(np.float64).reshape(2, -1)
    np.multiply(a.real, a.real, out=probs)
    np.multiply(a.imag, a.imag, out=weights)
    probs += weights
    weights[...] = half
    value = float(probs @ weights)
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


def _pure_views(amps: np.ndarray, scratch: np.ndarray, j: int, top: int):
    """(partner, e) float views of a pure X_j term: Re sum_y conj((X_j amps)[y]) e[y] is
    their einsum, with e = -i D psi in scratch. Qubit top reads amps reversed; runs of
    2-4 floats (qubits 0, 1 and top) are stored transposed, so the long axis is innermost."""
    shape = (1, -1, 2) if j == top else (-1, 2, 2 << j)
    p, w = amps.view(np.float64).reshape(shape)[:, ::-1, :], scratch.view(np.float64).reshape(shape)
    return (p.T, w.T) if shape[-1] <= 4 else (p, w)


def _pure_plan(amps: np.ndarray, scratch: np.ndarray, pure, top: int, blocked: bool):
    """(gram, rest) for the pure X_j sums pure, (j, c) per qubit, with e = -i D psi in scratch.

    With P and E the float64 views of amps and e, float bit 0 is the real or imaginary
    part, so qubit j's sum Re sum_y conj(psi(y ^ 2^j)) e(y) is sum_f P[f ^ 2^(j+1)] E[f].
    When blocked, most qubits' sums are read off 8 x 8 Gram matrices of views whose
    block axis holds three float bits, G[a, b] = sum P[.., a, ..] E[.., b, ..], as the
    sum of G * W; the weight table W holds c_j where a ^ b is qubit j's block bit. gram
    holds (left, right, out, W) per block, and np.matmul(left, right, out=out) makes G:
    - qubits 0 and 1, float bits 1 and 2 of the (-1, 8) views: G = P.T @ E;
    - blocks of qubits lo..lo+2 from the highest stored qubit down: the (R, 8, 2^(lo+1))
      views, with G_r = P_r @ E_r.T for each of their R rows, while lo >= 2 and
      R <= 64. The blocks share one (64, 8, 8) output buffer.
    Blocks without a term are left out. rest holds (c, partner, e) per qubit that no
    block covers, the mirrored top one among them, for one einsum each (_pure_views);
    all of them when not blocked. At n = 16 on a 2 vCPU Xeon, one BLAS thread, a block
    took 19-27 us against 76-124 us for the einsums it replaces, but a block of R = 512
    rows, one dgemm each, took 114 us against 101 us, and a 16 x 16 Gram matrix of qubits
    0-2, or of four top qubits, about 115 us.
    """
    coefficients, gram, covered = dict(pure), [], set()
    if blocked and pure:
        stored = amps.size.bit_length() - 1
        p, e = amps.view(np.float64), scratch.view(np.float64)
        # (qubits, their block bits, left, right) per block.
        blocks = [((0, 1), (1, 2), p.reshape(1, -1, 8).transpose(0, 2, 1), e.reshape(1, -1, 8))] if stored >= 2 else []
        for lo in range(stored - 3, 1, -3)[:3]:
            shape = (1 << (stored - 3 - lo), 8, 2 << lo)
            blocks.append(((lo, lo + 1, lo + 2), (0, 1, 2), p.reshape(shape), e.reshape(shape).transpose(0, 2, 1)))
        out = np.empty((64, 8, 8))
        flips = np.arange(8)[:, None] ^ np.arange(8)
        for qubits, bits, left, right in blocks:
            if not coefficients.keys() & set(qubits):
                continue
            weights = sum(coefficients.get(q, 0.0) * (flips == 1 << t) for q, t in zip(qubits, bits))
            weights.flags.writeable = False
            gram.append((left, right, out[: left.shape[0]], weights))
            covered.update(qubits)
    rest = tuple((c, *_pure_views(amps, scratch, j, top)) for j, c in pure if j not in covered)
    return tuple(gram), rest


def _walk(view: np.ndarray, j: int) -> np.ndarray:
    """A (high, low) pair view of qubit j in the order the feedback walks it: transposed
    below qubit 3, whose runs of 1-4 entries numpy walks slowly, so that the long axis
    is innermost. A flat view (qubit n-1 of a mirrored state) is its own transpose."""
    return view.T if j < 3 else view


def _pair_views(amps: np.ndarray, scratch: np.ndarray, j: int, top: int):
    """(a0, a1, product, weighted) views of the amplitude pairs that differ in bit j: a0
    and a1 in walk order, then C-ordered views of scratch for conj(a0) a1 and for its
    real or imaginary part times the weight table. scratch needs 3/4 of the stored size."""
    a0, a1 = (_walk(view, j) for view in _pairs(amps, j, top))
    count = a0.size
    return a0, a1, scratch[:count].reshape(a0.shape), scratch[count:].view(np.float64)[:count].reshape(a0.shape)


def _minus_i_d_psi(amps: np.ndarray, half: np.ndarray, e: np.ndarray) -> None:
    """e = -i D psi in place. D goes in as the real part first, so no cast buffer is allocated."""
    e.real[...] = half
    e.imag[...] = 0.0
    e *= amps
    e *= -1j


@dataclass(frozen=True, eq=False)
class Workspace:
    """What the kernels reuse across the rounds of one run of one mixer and one
    diagonal on one state buffer.

    mixer and diag are the objects it was built for, and mirrored is the state
    layout. scratch is one buffer of the stored size. The gates write their
    partner product there, feedback_observable its e = -i D psi or its pair
    products, the phase layer its phases and expectation_diagonal its
    probabilities, and apply_yz_layer and apply_rx_blocks use it as their
    second buffer; no two calls overlap in time, so one buffer serves them
    all; it starts on a 64-byte boundary. rx, rx_row, yz, gram, pure, weighted and gather hold the views
    each kernel walks, built on amplitudes and scratch: an RX view per X_j term
    of the mixer, apply_rx_blocks' block views, popcount tables and matrix
    buffers (None unless the mixer has an X term on every stored qubit below
    the mirrored top one), apply_yz_layer's per-head copies and rotations over
    its Y_j Z_k terms in order (None when it has none), the feedback's views
    per term kind, and the phase gather's. blas is the (get, set) pair of
    OpenBLAS's thread count that apply_rx_blocks and the Gram blocks pin,
    looked up once when either exists; None without them or where numpy
    exposes none. gram holds the Gram blocks of the X_j terms without a Z
    string, with their weight tables and output buffer (empty below
    RX_BLOCKS_FROM_N), and pure (c, views) per qubit j of those terms that no
    block covers, with c their summed coefficient (see _pure_plan); weighted holds (j, letter, table, views)
    per flipped qubit j and letter of every other term, with table its weight
    table (see feedback_observable). levels is the phase level table of the
    diagonal, None when it is not a nonnegative integer table.

    A kernel given a workspace of another buffer, layout, diagonal or mixer
    raises StateError. Build one with Workspace.build once per run.
    """

    amplitudes: np.ndarray
    mirrored: bool
    mixer: ObservableTerms
    diag: np.ndarray
    scratch: np.ndarray
    levels: np.ndarray | None
    gather: tuple
    rx: dict
    rx_row: tuple | None
    blas: tuple | None
    yz: tuple | None
    gram: tuple
    pure: tuple
    weighted: tuple

    @classmethod
    def build(cls, state: StateVector, mixer: ObservableTerms, diag: np.ndarray) -> "Workspace":
        """The workspace of the kernels on state's buffer, for mixer and diagonal diag.

        The weight tables are built one at a time in one work buffer; the mixer
        and diag are checked against the state's layout as feedback_observable
        checks them.
        """
        amps, top = state.amplitudes, _mirror_top(state)
        half, pure, weighted = _split(mixer, diag, state.n_qubits, state.mirrored)
        # The tables first, so that their work buffer is freed before the scratch buffer is
        # allocated; the other order raised the peak RSS of an n=16 run by 0.1-0.3 MiB.
        weighted = tuple(weighted)
        scratch = _aligned_empty(amps.size)
        rx, edges = {}, []
        for term in mixer.terms:
            qubit_of = {p: q for q, p in term.ops}
            if len(term.ops) == 1 and "X" in qubit_of:
                rx[qubit_of["X"]] = _rx_views(amps, qubit_of["X"], top, scratch)
            elif len(term.ops) == 2 and qubit_of.keys() == {"Y", "Z"}:
                edges.append((qubit_of["Y"], qubit_of["Z"]))
        row = _rx_row(amps, scratch) if rx.keys() >= set(range(state.n_qubits - state.mirrored)) else None
        gram, pure = _pure_plan(amps, scratch, pure, top, state.n_qubits >= RX_BLOCKS_FROM_N)
        return cls(
            amplitudes=amps,
            mirrored=state.mirrored,
            mixer=mixer,
            diag=diag,
            scratch=scratch,
            levels=_levels(half),
            gather=_gather_plan(amps, half, scratch),
            rx=rx,
            rx_row=row,
            blas=None if row is None and not gram else _openblas_threads(),
            yz=_yz_layer(amps, scratch, edges, state.n_qubits, state.mirrored) if edges else None,
            gram=gram,
            pure=pure,
            weighted=tuple((j, letter, table, *_pair_views(amps, scratch, j, top)) for j, letter, table in weighted),
        )


def _bound(workspace: Workspace, state: StateVector, diag=None, mixer=None) -> Workspace:
    """workspace, after checking that it was built on state's buffer and layout (and diag and mixer, if given)."""
    # One buffer holds one size, so with the same buffer and mirroring the qubit count agrees too.
    if (workspace.amplitudes is not state.amplitudes or workspace.mirrored != state.mirrored
            or (diag is not None and diag is not workspace.diag)
            or (mixer is not None and mixer is not workspace.mixer)):
        raise StateError("workspace was built for another state buffer, layout, diagonal or mixer")
    return workspace


def _gate(workspace: Workspace, state: StateVector, views: dict, key):
    """The prebuilt views of one gate of the workspace's mixer."""
    _bound(workspace, state)
    gate = views.get(key)
    if gate is None:
        raise StateError(f"workspace has no gate on qubits {key}; its mixer has no such term")
    return gate


def _add_z_string(values: np.ndarray, c, z_bits: tuple[int, ...]) -> None:
    """values[y] += c * prod over k in z_bits (ascending) of (-1)^(bit k of y), in place.

    values is viewed with one axis of length 2 per bit in z_bits, and a 2 x .. x 2
    sign table of values' dtype broadcasts over the rest, so nothing of the
    values' size is allocated.
    """
    shape, signs, low = (), np.array(c, dtype=values.dtype), 0
    for k in z_bits:
        shape = (2, 1 << (k - low)) + shape
        signs = np.multiply.outer(_Z_SIGNS.astype(signs.dtype), signs)
        low = k + 1
    view = values.reshape((-1,) + shape)
    view += signs


def _narrowest(bound: int):
    """The narrowest signed integer type that holds every value in [-bound, bound]."""
    return next((t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max), np.int64)


def _weight_table(half: np.ndarray, j: int, top: int, terms, work: np.ndarray, kind) -> np.ndarray:
    """P = Delta_j * sum over terms of c * s_S, read-only, over the pair index of a flip of qubit j.

    half is the diagonal over the stored amplitudes, Delta_j = D|bit j=1 - D|bit j=0
    and s_S the sign of the term's Z string. The table is laid out in the order
    _pair_views walks the pairs. It is exact and as narrow as its range
    allows (int8 where |P| <= 127) when D and every coefficient are integers, and
    float64 otherwise. It is built in kind (see _weight_tables) in two rows of
    work, then narrowed; the diagonal halves go in by assignment, which casts
    without numpy's iteration buffers.
    """
    d0, d1 = _pairs(half, j, top)
    table, weights = (row[: d0.size * np.dtype(kind).itemsize].view(kind) for row in work)
    table, low = table.reshape(d0.shape), weights.reshape(d0.shape)
    table[...] = d1
    low[...] = d0
    table -= low
    weights[...] = 0
    for c, z_bits in terms:
        _add_z_string(weights, c, z_bits)
    table *= low
    if kind != np.float64:
        kind = _narrowest(max(int(table.max()), -int(table.min())))
    table = np.array(_walk(table, j), dtype=kind, order="C")
    table.flags.writeable = False
    return table


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
    return half, tuple(pure), _weight_tables(half, top, groups)


def _weight_tables(half: np.ndarray, top: int, groups):
    """(j, letter, table) per group, built one at a time in one work buffer of two rows.

    A group whose diagonal and coefficients are integers is built in the narrowest
    integer type that holds max |D| and spread(D) * sum |c|, bounds on every value it
    takes, and any other group in float64; a row holds the pair count in the widest
    of them.
    """
    exact = np.issubdtype(half.dtype, np.integer)
    lo, hi = (int(half.min()), int(half.max())) if exact else (0, 0)
    kinds = [_narrowest(max(-lo, hi, (hi - lo) * sum(abs(int(c)) for c, _ in terms)))
             if exact and all(float(c).is_integer() for c, _ in terms) else np.float64
             for _, _, terms in groups]
    width = max((np.dtype(kind).itemsize for kind in kinds), default=0)
    work = np.empty((2, width * (half.size // 2)), dtype=np.uint8)
    for (j, letter, terms), kind in zip(groups, kinds):
        yield j, letter, _weight_table(half, j, top, terms, work, kind)


def feedback_observable(state: StateVector, mixer: ObservableTerms, diag: np.ndarray, *,
                        workspace: Workspace | None = None) -> float:
    """Expectation of i[A, H_f] for Hermitian mixer A and diagonal H_f = D.

    O = -2 Im <psi| A (D psi)>, evaluated in closed form per kind of term:

    - c X_j with no Z string: <psi| X_j D |psi> = sum_y conj(psi(y ^ 2^j)) (D psi)(y),
      so the term gives -2c sum_y Re(conj(psi(y ^ 2^j)) e(y)), e = -i D psi:
      one buffer of the stored size per call, then one BLAS-free np.einsum per
      qubit below RX_BLOCKS_FROM_N. From it on, qubits 0 and 1 and up to three
      blocks of three qubits from the highest stored one down are read off 8 x 8
      Gram matrices of the float views of psi and e, one np.matmul each, run on
      one OpenBLAS thread as in apply_rx_blocks; the qubits between them and
      the mirrored top one keep their einsum (_pure_plan). The sum then runs
      in another order and agrees with the einsums to about 1e-13 relative.
    - every other term flips one qubit j: over the amplitude pairs (a0, a1)
      that differ in bit j, the Y terms on j give +2 sum P Re(conj(a0) a1) and
      the X terms -2 sum P Im(conj(a0) a1), with P the weight table of j and
      the letter. Per table that is one product of half the stored size and
      one contraction with the table.
    - Pure-Z terms commute with D and give 0.

    A weight table holds, over the pair index y, P(y) = Delta_j(y) * sum_t c_t s_t(y),
    with Delta_j = D|bit j=1 - D|bit j=0 and s_t the sign of term t's Z string. It is
    int8 where |P| <= 127 and the next wider integer above that, and float64 when D or
    a coefficient is not an integer.

    workspace is a Workspace of this state, mixer and diag, whose tables, views and
    scratch buffer the call uses. Without one, the call builds the tables for itself,
    one at a time, and its views and a scratch buffer.
    A term that flips two or more qubits raises StateError, and so does, on a
    mirrored state, a term that anticommutes with the global flip.
    On a mirrored state every sum counts twice, for the mirror image, and a Z
    on qubit n-1 is +1.
    """
    amps, top = state.amplitudes, _mirror_top(state)
    if workspace is None:
        half, pure, weighted = _split(mixer, diag, state.n_qubits, state.mirrored)
        scratch = np.empty(amps.size if pure else amps.size - amps.size // 4, dtype=np.complex128)
        gram, pure = _pure_plan(amps, scratch, pure, top, state.n_qubits >= RX_BLOCKS_FROM_N)
        blas = _openblas_threads() if gram else None
        weighted = ((j, letter, table, *_pair_views(amps, scratch, j, top)) for j, letter, table in weighted)
    else:
        _bound(workspace, state, diag, mixer)
        half, scratch, weighted = diag[: amps.size], workspace.scratch, workspace.weighted
        gram, pure, blas = workspace.gram, workspace.pure, workspace.blas
    mirror_scale = 2.0 if state.mirrored else 1.0
    total = 0.0
    if gram or pure:
        _minus_i_d_psi(amps, half, scratch)
    if gram:
        with _one_blas_thread(blas):
            for left, right, out, weights in gram:
                np.matmul(left, right, out=out)
                total -= 2.0 * mirror_scale * float(np.einsum("rab,ab->", out, weights))
    for c, p, e in pure:
        total -= 2.0 * mirror_scale * c * float(np.einsum("ijk,ijk->", p, e, order="C"))
    for _, letter, table, a0, a1, product, part in weighted:
        np.conjugate(a0, out=product, order="C")
        product *= a1
        part[...] = table
        part *= product.real if letter == "Y" else product.imag
        total += (2.0 if letter == "Y" else -2.0) * mirror_scale * float(part.sum())
    return float(total + 0.0)
