"""Correctness checks that feed the benchmark's failure count.

The gate checks every recorded step of every instance against the paper's
central claim. The dense spot check re-evolves a small instance with
explicit 2^n x 2^n Kronecker-product matrices, sharing no kernel code with
the package, and compares the feedback observable and <H_f> per round.
"""

from __future__ import annotations

import math

import numpy as np

BOUND_TOL = 1e-9
ORACLE_TOL = 1e-12
DENSE_TOL = 1e-10
NUMERIC_FIELDS = ("t", "beta", "O", "alpha", "hf_exp", "hf_over_m", "lambda_lb", "two_param_lb", "true_ratio")


def csv_row(row: dict) -> dict:
    """Rename the trace CSV's energy column to the StepTrace field name."""
    out = dict(row)
    out["hf_exp"] = out.pop("exp_hf")
    return out


def gate(rows, optimum=None) -> tuple[int, int]:
    """Return (steps checked, steps failed) for one instance's trace rows.

    A step fails if a value is missing or not finite, if either certified
    bound exceeds the true ratio, if the true ratio exceeds 1, or, before the
    first step flagged as a violation, if the two-parameter bound falls below
    the one-parameter bound. Given the oracle optimum, a step also fails when
    its true ratio is not <H_f> / optimum.
    """
    attempted = failed = 0
    flagged = False
    for row in rows:
        attempted += 1
        flagged = flagged or bool(row["violation"])
        values = [row[key] for key in NUMERIC_FIELDS]
        if any(v is None or not math.isfinite(v) for v in values):
            failed += 1
            continue
        ratio, one, two = row["true_ratio"], row["lambda_lb"], row["two_param_lb"]
        bad = one > ratio + BOUND_TOL or two > ratio + BOUND_TOL or ratio > 1.0 + BOUND_TOL
        bad = bad or (not flagged and two < one - BOUND_TOL)
        if optimum is not None:
            bad = bad or abs(row["hf_exp"] / optimum - ratio) > ORACLE_TOL
        failed += bad
    return attempted, failed


# --- dense reference ----------------------------------------------------------

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(n: int, ops: dict) -> np.ndarray:
    """Dense Pauli string; qubit j is bit j of the basis index, so the last
    Kronecker factor acts on qubit 0."""
    mat = np.ones((1, 1), dtype=complex)
    for q in range(n - 1, -1, -1):
        mat = np.kron(mat, _PAULI[ops[q]] if q in ops else np.eye(2))
    return mat


def bfs_oriented_edges(n: int, edges) -> list[tuple[int, int]]:
    """Edges oriented from the earlier BFS-discovered endpoint (root 0,
    neighbours ascending), sorted by (head, tail) discovery order."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seq = {0: 0}
    queue = [0]
    for v in queue:
        for w in sorted(adjacency[v]):
            if w not in seq:
                seq[w] = len(queue)
                queue.append(w)
    oriented = [(u, v) if seq[u] < seq[v] else (v, u) for u, v in edges]
    return sorted(oriented, key=lambda e: (seq[e[0]], seq[e[1]]))


def dense_run(n: int, edges, ansatz: str, rounds: int, dt: float, beta) -> list[tuple[float, float]]:
    """Per-round (O before the step, <H_f> after it) from dense matrices."""
    dim = 1 << n
    h = sum(0.5 * (np.eye(dim) - pauli_matrix(n, {u: "Z", v: "Z"})) for u, v in edges)
    if ansatz == "qaoa_feedback":
        units = [{j: "X"} for j in range(n)]
    else:
        units = [{j: "Y", k: "Z"} for j, k in bfs_oriented_edges(n, edges)]
    mats = [pauli_matrix(n, ops) for ops in units]
    a = sum(mats)
    commutator = 1j * (a @ h - h @ a)
    phase = np.exp(-1j * dt / len(edges) * np.diag(h).real)
    psi = np.full(dim, dim ** -0.5, dtype=complex)
    horizon = rounds * dt
    out = []
    for p in range(1, rounds + 1):
        o = float(np.vdot(psi, commutator @ psi).real)
        decay = 1.0 - math.exp(-(beta.rate / rounds) * (horizon - (p - 1) * dt))
        theta = beta.c * (beta.floor * decay + 1.0 - beta.floor) * o * dt
        if ansatz == "qaoa_feedback":
            psi = phase * psi
        for mat in mats:
            # exp(-i theta P) = cos(theta) I - i sin(theta) P for a Pauli string P
            psi = math.cos(theta) * psi - 1j * math.sin(theta) * (mat @ psi)
        out.append((o, float(np.vdot(psi, h @ psi).real)))
    return out


def dense_spot_check(lyapcut, g, rounds: int = 5, dt: float = 0.2) -> tuple[int, int, float]:
    """Evolve g with both ansaetze through the package and compare O and <H_f>
    per round with the dense path. Returns (checks, failures, worst error)."""
    h = lyapcut.build_maxcut(g)
    oracle = lyapcut.brute_force_max_cut(g)
    attempted = failed = 0
    worst = 0.0
    for ansatz, runner in (("qaoa_feedback", lyapcut.run_qaoa_feedback), ("light_cone", lyapcut.run_light_cone)):
        cfg = lyapcut.RunConfig(ansatz=ansatz, rounds=rounds, dt=dt)
        traces = runner(g, h, cfg, oracle)
        reference = dense_run(g.n, g.edges, ansatz, rounds, dt, cfg.beta)
        attempted += rounds
        failed += max(rounds - len(traces), 0)
        for tr, (o, hf) in zip(traces, reference):
            err = max(abs(tr.O - o), abs(tr.hf_exp - hf))
            worst = max(worst, err)
            failed += not err <= DENSE_TOL
    return attempted, failed, worst
