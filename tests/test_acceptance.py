"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The bound-validity suite (criterion 3) runs at 2,000 rounds, the
documented fast setting with the identical pass condition.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from lyapcut.certificates import potential_value
from lyapcut.dynamics import RunConfig, beta_schedule, run_light_cone, run_qaoa_feedback
from lyapcut.experiments import SuiteSpec, convergence_experiment, fit_loglog, suite_instances
from lyapcut.graphs import (
    Graph,
    bfs_order,
    brute_force_max_cut,
    edge_coloring,
    enumerate_cubic,
    gen_bipartite,
    gen_erdos_renyi,
    gen_random_regular,
)
from lyapcut.hamiltonian import build_maxcut, commutator_terms
from lyapcut.statevector import (
    ObservableTerms,
    StateVector,
    apply_diagonal_phase,
    apply_rx,
    apply_ryz,
    apply_rzz,
    expectation_diagonal,
    expectation_pauli,
    feedback_observable,
    init_plus,
    sum_x,
    sum_yz,
)

import dense_reference as dense
from conftest import PETERSEN_EDGES

# Frozen oracle values (direct evaluation of the respective formulas).
BETA_AT_ZERO = 0.022957124220675775  # schedule at t=0, R=10000, dt=0.08
O_SINGLE_EDGE = 2 * math.sin(0.08)   # closed-form feedback value, 0.1598293879383454


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL: {name}", flush=True)
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {name}", flush=True)


def small_instances(max_n=6):
    """Generated instances from all three families with n <= max_n."""
    out = []
    for seed in (0, 1):
        out.append((f"cubic4_s{seed}", gen_random_regular(4, 3, seed=seed)))
        out.append((f"cubic6_s{seed}", gen_random_regular(6, 3, seed=seed)))
        out.append((f"er5_s{seed}", gen_erdos_renyi(5, 0.6, seed=seed)))
        out.append((f"er6_s{seed}", gen_erdos_renyi(6, 0.5, seed=seed)))
        out.append((f"bip5_s{seed}", gen_bipartite(3, 2, 0.7, seed=seed)))
        out.append((f"bip6_s{seed}", gen_bipartite(3, 3, 0.6, seed=seed)))
    out.append(("single_edge", Graph.from_edges(2, [(0, 1)])))
    return [(gid, g) for gid, g in out if g.n <= max_n]


def test_criterion_1_dense_oracle_equivalence():
    with criterion(1, "dense-oracle equivalence on 200 randomized cases (n <= 6)"):
        rng = np.random.default_rng(2024)
        for case in range(200):
            n = int(rng.integers(2, 7))
            g = gen_erdos_renyi(n, 0.6, seed=case) if n > 2 else Graph.from_edges(2, [(0, 1)])
            h = build_maxcut(g)
            order = bfs_order(g)

            state = init_plus(n)
            vec = state.amplitudes.copy()

            for _ in range(int(rng.integers(3, 8))):
                op = rng.integers(0, 5)
                theta = float(rng.uniform(-1.2, 1.2))
                if op == 0:
                    q = int(rng.integers(0, n))
                    apply_rx(state, q, theta)
                    vec = dense.dense_rx(n, q, theta) @ vec
                elif op == 1:
                    q1, q2 = (int(v) for v in rng.choice(n, 2, replace=False))
                    apply_rzz(state, q1, q2, theta)
                    vec = dense.dense_rzz(n, q1, q2, theta) @ vec
                elif op == 2:
                    q1, q2 = (int(v) for v in rng.choice(n, 2, replace=False))
                    apply_ryz(state, q1, q2, theta)
                    vec = dense.dense_ryz(n, q1, q2, theta) @ vec
                elif op == 3:
                    # transverse-field ansatz layer: diagonal phase then RX row
                    apply_diagonal_phase(state, h.diag, theta / h.m)
                    vec = dense.dense_diag_phase(h.diag, theta / h.m) @ vec
                    for j in range(n):
                        apply_rx(state, j, theta)
                        vec = dense.dense_rx(n, j, theta) @ vec
                else:
                    # light-cone ansatz layer: sequential YZ along the BFS orientation
                    for j, k in order.oriented_edges:
                        apply_ryz(state, j, k, theta)
                        vec = dense.dense_ryz(n, j, k, theta) @ vec

                assert np.max(np.abs(state.amplitudes - vec)) < 1e-10

            # random Pauli observable, 1..3 terms
            pairs = []
            for _ in range(int(rng.integers(1, 4))):
                qubits = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
                ops = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
                pairs.append((float(rng.uniform(-2, 2)), ops))
            got = expectation_pauli(state, ObservableTerms.from_pairs(pairs))
            want = float((vec.conj() @ dense.dense_observable(n, pairs) @ vec).real)
            assert abs(got - want) < 1e-10

            want_diag = float((vec.conj() @ dense.dense_maxcut(n, g.edges) @ vec).real)
            assert abs(expectation_diagonal(state, h.diag) - want_diag) < 1e-10


def test_criterion_2_commutator_correctness():
    with criterion(2, "feedback observable equals symbolic and dense commutators"):
        rng = np.random.default_rng(7)
        for gid, g in small_instances(max_n=6):
            h = build_maxcut(g)
            h_mat = dense.dense_maxcut(g.n, g.edges)
            mixers = [(sum_x(g.n), [(1.0, {j: "X"}) for j in range(g.n)])]
            oriented = bfs_order(g).oriented_edges
            mixers.append((sum_yz(oriented), [(1.0, {j: "Y", k: "Z"}) for j, k in oriented]))
            for mixer, pairs in mixers:
                expansion = commutator_terms(mixer, h)
                a_mat = dense.dense_observable(g.n, pairs)
                for _ in range(3):
                    s = StateVector(g.n, dense.random_state(g.n, rng))
                    fast = feedback_observable(s, mixer, h.diag)
                    symbolic = expectation_pauli(s, expansion)
                    exact = dense.commutator_expectation(s.amplitudes, a_mat, h_mat)
                    assert abs(fast - symbolic) < 1e-10, gid
                    assert abs(fast - exact) < 1e-10, gid

        # closed-form check on the single-edge instance
        g = Graph.from_edges(2, [(0, 1)])
        h = build_maxcut(g)
        s = init_plus(2)
        apply_diagonal_phase(s, h.diag, 0.08)
        val = feedback_observable(s, sum_x(2), h.diag)
        assert abs(val - O_SINGLE_EDGE) < 1e-10
        a_mat = dense.dense_observable(2, [(1.0, {0: "X"}), (1.0, {1: "X"})])
        assert abs(val - dense.commutator_expectation(s.amplitudes, a_mat, dense.dense_maxcut(2, g.edges))) < 1e-10


@pytest.fixture(scope="module")
def bound_suite():
    """63 instances (3 families x n in {8,10,12} x 7), 2000 rounds each."""
    cfg = RunConfig(rounds=2000)
    runs = []
    for family in ("regular3", "erdos_renyi", "bipartite"):
        spec = SuiteSpec(family=family, n_list=(8, 10, 12), instances_per_n=7, config=cfg)
        for gid, g in suite_instances(spec):
            oracle = brute_force_max_cut(g)
            h = build_maxcut(g)
            traces = run_qaoa_feedback(g, h, cfg, oracle)
            runs.append((gid, g, traces))
    return runs


def test_criterion_3_certified_bounds_below_true_ratio(bound_suite):
    with criterion(3, "certified bounds stay below the true ratio on 63 instances"):
        assert len(bound_suite) >= 60
        for gid, g, traces in bound_suite:
            assert len(traces) == 2000
            for tr in traces:
                assert tr.lambda_lb <= tr.true_ratio + 1e-9, gid
                assert tr.two_param_lb <= tr.true_ratio + 1e-9, gid
                assert tr.two_param_lb >= tr.lambda_lb - 1e-9, gid


def test_criterion_4_two_parameter_dominance(bound_suite):
    with criterion(4, "final two-parameter bound dominates the one-parameter bound"):
        for gid, _, traces in bound_suite:
            assert traces[-1].two_param_lb >= traces[-1].lambda_lb - 1e-9, gid


def test_criterion_5_bipartite_exactness():
    with criterion(5, "bipartite true ratio equals hf/m at every step (20 instances)"):
        cfg = RunConfig(rounds=1500)
        count = 0
        for n in (8, 10, 12, 14):
            for k in range(5):
                g = gen_bipartite((n + 1) // 2, n // 2, 0.5, seed=cfg.seed ^ (n * 100 + k))
                oracle = brute_force_max_cut(g)
                assert oracle.optimum == g.m
                traces = run_qaoa_feedback(g, build_maxcut(g), cfg, oracle)
                for tr in traces:
                    assert abs(tr.true_ratio - tr.hf_over_m) <= 1e-9
                count += 1
        assert count == 20


def test_criterion_6_convergence_reproduction():
    with criterion(6, "cubic instances reach 0.878 and the log-log slope is in [2.0, 3.5]"):
        # every connected cubic graph with n in {4, 6, 8, 10}
        total = 0
        for n in (4, 6, 8, 10):
            for g in enumerate_cubic(n):
                oracle = brute_force_max_cut(g)
                traces = run_qaoa_feedback(
                    g, build_maxcut(g), RunConfig(rounds=10_000), oracle, stop_at_true_ratio=0.878
                )
                assert traces[-1].true_ratio >= 0.878, f"cubic n={n} missed target"
                assert traces[-1].step <= 10_000
                total += 1
        assert total == 1 + 2 + 5 + 19

        # desk-scale slope fit over random cubic suites
        spec = SuiteSpec(
            family="regular3", n_list=(8, 10, 12, 14), instances_per_n=10,
            config=RunConfig(rounds=10_000),
        )
        records = convergence_experiment(spec, targets=[0.878])
        assert all(r.rounds_to_target is not None for r in records)
        fit = fit_loglog(records)
        assert 2.0 <= fit.slope <= 3.5, f"slope {fit.slope}"


def test_criterion_7_adaptive_error_budget_potentials():
    with criterion(7, "adaptive steps keep both potential drops above -1e-3"):
        instances = [gen_random_regular(6, 3, seed=s) for s in (0, 1)]
        instances += [gen_random_regular(8, 3, seed=s) for s in (2, 3)]
        instances += [gen_random_regular(10, 3, seed=s) for s in (4, 5)]
        instances += [gen_erdos_renyi(8, 0.5, seed=s) for s in (6, 7)]
        instances += [gen_bipartite(5, 5, 0.5, seed=8), gen_bipartite(4, 4, 0.6, seed=9)]
        assert len(instances) == 10
        cfg = RunConfig(rounds=250, adaptive_dt=True, epsilon=1e-3)
        for g in instances:
            oracle = brute_force_max_cut(g)
            opt = float(oracle.optimum)
            pots = {"one": [], "two": []}

            def watch(step, hf, one, two):
                pots["one"].append(potential_value(hf, opt, one))
                pots["two"].append(potential_value(hf, opt, two))

            run_qaoa_feedback(g, build_maxcut(g), cfg, oracle, observer=watch)
            for series in pots.values():
                for a, b in zip(series, series[1:]):
                    assert b - a >= -1e-3


def test_criterion_8_light_cone_regime():
    with criterion(8, "light-cone mean true ratio at p=20 is at least 0.75 (n=12 cubic)"):
        cfg = RunConfig(ansatz="light_cone", rounds=30)
        ratios_at_20 = []
        for seed in range(6):
            g = gen_random_regular(12, 3, seed=seed)
            oracle = brute_force_max_cut(g)
            traces = run_light_cone(g, build_maxcut(g), cfg, oracle)
            assert len(traces) == 30
            ratios_at_20.append(traces[19].true_ratio)
            for tr in traces:
                assert tr.lambda_lb <= tr.true_ratio + 1e-9
                assert tr.two_param_lb <= tr.true_ratio + 1e-9
        mean_ratio = sum(ratios_at_20) / len(ratios_at_20)
        assert mean_ratio >= 0.75, f"mean ratio at p=20 was {mean_ratio}"


def test_criterion_9_beta_schedule_values():
    with criterion(9, "schedule endpoints: beta(T) = 0.02 exactly, beta(0) matches direct evaluation"):
        assert beta_schedule(800.0, rounds=10_000, dt=0.08) == 0.02
        assert abs(beta_schedule(0.0, rounds=10_000, dt=0.08) - BETA_AT_ZERO) <= 1e-7


def test_criterion_10_edge_coloring_validity():
    with criterion(10, "edge colorings proper everywhere; Petersen within 4 layers"):
        petersen = Graph.from_edges(10, PETERSEN_EDGES)
        col = edge_coloring(petersen)
        assert col.num_colors <= 4
        battery = [petersen]
        battery += [gen_random_regular(10, 3, seed=s) for s in range(3)]
        battery += [gen_erdos_renyi(9, 0.5, seed=s) for s in range(3)]
        battery += [gen_bipartite(4, 5, 0.6, seed=s) for s in range(3)]
        for g in battery:
            coloring = edge_coloring(g)
            assert coloring.num_colors <= max(g.degrees) + 1
            seen = set()
            for layer in coloring.layers:
                touched = set()
                for u, v in layer:
                    assert u not in touched and v not in touched
                    touched.update((u, v))
                    seen.add((u, v))
            assert seen == set(g.edges)
