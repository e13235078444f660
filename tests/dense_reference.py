"""Independent dense-matrix reference path for the fast statevector kernels.

Everything here is built from explicit 2^n x 2^n Kronecker products so it
shares no code with the package under test. Qubit j is bit j of the basis
index (least-significant first), matching the package convention: in the
Kronecker chain the last factor acts on qubit 0.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def op_on(n, ops):
    """Dense matrix for a Pauli string given as {qubit: letter}."""
    mat = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        mat = np.kron(mat, PAULI[ops[q]] if q in ops else I2)
    return mat


def dense_observable(n, pairs):
    """Sum of coefficient * Pauli string, pairs = [(c, {q: letter}), ...]."""
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for c, ops in pairs:
        total += c * op_on(n, ops)
    return total


def dense_maxcut(n, edges):
    """Sum over edges of (I - Z_u Z_v) / 2, assembled from Kronecker factors."""
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    for u, v in edges:
        total += 0.5 * (np.eye(dim) - op_on(n, {u: "Z", v: "Z"}))
    return total


def pauli_rotation(n, ops, theta):
    """exp(-i theta P) for an involutory Pauli string P: cos I - i sin P."""
    dim = 1 << n
    return np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * op_on(n, ops)


def dense_rx(n, q, theta):
    return pauli_rotation(n, {q: "X"}, theta)


def dense_rx_row(n, count, theta):
    """RX(theta) on each of qubits 0..count-1 and the identity above, as one Kronecker product."""
    gate = np.cos(theta) * I2 - 1j * np.sin(theta) * PAULI["X"]
    mat = np.eye(1 << (n - count), dtype=complex)
    for _ in range(count):
        mat = np.kron(mat, gate)
    return mat


def dense_rzz(n, q1, q2, theta):
    return pauli_rotation(n, {q1: "Z", q2: "Z"}, theta)


def dense_ryz(n, qy, qz, theta):
    return pauli_rotation(n, {qy: "Y", qz: "Z"}, theta)


def dense_diag_phase(diag, gamma):
    return np.diag(np.exp(-1j * gamma * np.asarray(diag, dtype=float)))


def commutator_expectation(vec, a_mat, h_mat):
    """<psi| i (A H - H A) |psi> as a real number."""
    val = 1j * (vec.conj() @ (a_mat @ (h_mat @ vec)) - vec.conj() @ (h_mat @ (a_mat @ vec)))
    return float(val.real)


def random_state(n, rng):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)
