import math

import numpy as np
import pytest

from lyapcut.certificates import potential_value, trapezoidal_bounds
from lyapcut.graphs import (
    Graph,
    GraphError,
    brute_force_max_cut,
    gen_bipartite,
    gen_erdos_renyi,
    gen_random_regular,
)
from lyapcut.hamiltonian import build_maxcut
from lyapcut.dynamics import (
    BetaParams,
    RunConfig,
    beta_schedule,
    bfs_order,
    run_light_cone,
    run_qaoa_feedback,
)
from lyapcut import dynamics
from lyapcut.statevector import StateError, feedback_observable, init_plus, sum_yz

import dense_reference as dense

# Frozen from direct evaluation of the schedule formula at R=10000, dt=0.08.
BETA_AT_ZERO = 0.022957124220675775


class TestBetaSchedule:
    def test_endpoint_value_exact(self):
        assert beta_schedule(800.0, rounds=10_000, dt=0.08) == 0.02

    def test_start_value_frozen(self):
        assert abs(beta_schedule(0.0, rounds=10_000, dt=0.08) - BETA_AT_ZERO) < 1e-15

    def test_monotone_non_increasing(self):
        ts = np.linspace(0, 800, 500)
        vals = [beta_schedule(float(t), 10_000, 0.08) for t in ts]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
        assert all(v > 0 for v in vals)

    def test_custom_params(self):
        p = BetaParams(c=0.1, floor=0.25, rate=1.0)
        assert beta_schedule(80.0, rounds=1000, dt=0.08, params=p) == pytest.approx(0.1 * 0.75)


class TestBfsOrder:
    def test_path(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        order = bfs_order(g, root=0)
        assert order.seq == (0, 1, 2)
        assert order.oriented_edges == ((0, 1), (1, 2))

    def test_star_orients_outward(self):
        g = Graph.from_edges(5, [(0, j) for j in range(1, 5)])
        order = bfs_order(g)
        assert all(e[0] == 0 for e in order.oriented_edges)

    def test_petersen_orientation_respects_seq(self, petersen):
        order = bfs_order(petersen)
        assert sorted(order.seq) == list(range(10))
        for j, k in order.oriented_edges:
            assert order.seq[j] < order.seq[k]
        keys = [(order.seq[j], order.seq[k]) for j, k in order.oriented_edges]
        assert keys == sorted(keys)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            bfs_order(Graph.from_edges(4, [(0, 1), (2, 3)]))


@pytest.fixture(scope="module")
def cubic10():
    g = gen_random_regular(10, 3, seed=7)
    return g, build_maxcut(g), brute_force_max_cut(g)


class TestQaoaFeedback:
    def test_first_round_keeps_half_m(self, cubic10):
        g, h, oracle = cubic10
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=1), oracle)
        assert len(traces) == 1
        assert traces[0].O == 0.0
        assert traces[0].hf_exp == pytest.approx(h.m / 2, abs=1e-12)

    def test_single_edge_second_round_feedback(self, single_edge):
        h = build_maxcut(single_edge)
        traces = run_qaoa_feedback(single_edge, h, RunConfig(rounds=2), brute_force_max_cut(single_edge))
        assert traces[1].O == pytest.approx(2 * math.sin(0.08), abs=1e-12)

    def test_trace_grid_and_length(self, cubic10):
        g, h, oracle = cubic10
        cfg = RunConfig(rounds=50)
        traces = run_qaoa_feedback(g, h, cfg, oracle)
        assert len(traces) == 50
        assert all(tr.t == tr.step * cfg.dt for tr in traces)
        assert all(0.0 <= tr.hf_over_m <= 1.0 for tr in traces)

    def test_deterministic_bit_identical(self, cubic10):
        g, h, oracle = cubic10
        cfg = RunConfig(rounds=80)
        t1 = run_qaoa_feedback(g, h, cfg, oracle)
        t2 = run_qaoa_feedback(g, h, cfg, oracle)
        assert t1 == t2

    def test_energy_monotone_and_bounds_valid(self, cubic10):
        g, h, oracle = cubic10
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=500), oracle)
        for prev, cur in zip(traces, traces[1:]):
            assert cur.hf_exp >= prev.hf_exp - 1e-6
        for tr in traces:
            assert tr.lambda_lb <= tr.true_ratio + 1e-9
            assert tr.two_param_lb <= tr.true_ratio + 1e-9
            assert tr.two_param_lb >= tr.lambda_lb - 1e-9

    @pytest.mark.parametrize("n,seed", [(8, 0), (10, 3), (12, 5)])
    def test_energy_monotone_across_cubic_sizes(self, n, seed):
        g = gen_random_regular(n, 3, seed=seed)
        h = build_maxcut(g)
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=300))
        for prev, cur in zip(traces, traces[1:]):
            assert cur.hf_exp >= prev.hf_exp - 1e-6

    def test_without_oracle_true_ratio_missing(self, cubic10):
        g, h, _ = cubic10
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=5))
        assert all(tr.true_ratio is None for tr in traces)

    def test_bipartite_ratio_equals_hf_over_m(self):
        g = gen_bipartite(4, 4, 0.5, seed=2)
        h = build_maxcut(g)
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=400), brute_force_max_cut(g))
        for tr in traces:
            assert abs(tr.true_ratio - tr.hf_over_m) <= 1e-9

    def test_early_stop(self, cubic10):
        g, h, oracle = cubic10
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=10_000), oracle, stop_at_true_ratio=0.8)
        assert traces[-1].true_ratio >= 0.8
        assert len(traces) < 10_000
        assert all(tr.true_ratio < 0.8 for tr in traces[:-1])

    def test_feedback_stays_on_under_a_light_cone_config(self):
        g = gen_random_regular(8, 3, seed=2)
        h = build_maxcut(g)
        cfg = RunConfig(ansatz="light_cone", rounds=30, lightcone_feedback=False)
        traces = run_qaoa_feedback(g, h, cfg, brute_force_max_cut(g))
        assert traces == run_qaoa_feedback(g, h, RunConfig(rounds=30), brute_force_max_cut(g))
        assert all(tr.alpha == tr.beta * tr.O for tr in traces)
        assert any(tr.alpha != tr.beta for tr in traces)

    def test_certificates_match_plain_tracker_replay(self, cubic10):
        # Replaying the recorded (beta, O) stream through the raw update rules
        # must land on the same certified bounds.
        from lyapcut.certificates import OneParamTracker, one_param_step

        g, h, oracle = cubic10
        cfg = RunConfig(rounds=60)
        traces = run_qaoa_feedback(g, h, cfg, oracle)
        tr = OneParamTracker()
        for row in traces:
            one_param_step(tr, [row.alpha], [row.O], cfg.dt, q_exp=float(h.m))
        assert tr.lower_bound == traces[-1].lambda_lb


class TestLightCone:
    def test_zero_schedule_freezes_state(self, cubic10):
        g, h, oracle = cubic10
        cfg = RunConfig(ansatz="light_cone", rounds=10, beta=BetaParams(c=0.0))
        traces = run_light_cone(g, h, cfg, oracle)
        assert all(tr.hf_exp == pytest.approx(h.m / 2, abs=1e-12) for tr in traces)

    def test_single_edge_first_observable_and_motion(self, single_edge):
        h = build_maxcut(single_edge)
        order_edges = ((0, 1),)
        state = init_plus(2)
        o_first = feedback_observable(state, sum_yz(order_edges), h.diag)
        a_mat = dense.dense_observable(2, [(1.0, {0: "Y", 1: "Z"})])
        h_mat = dense.dense_maxcut(2, [(0, 1)])
        assert abs(o_first - dense.commutator_expectation(state.amplitudes, a_mat, h_mat)) < 1e-12
        assert o_first == pytest.approx(1.0)  # equals m on the plus state

        traces = run_light_cone(single_edge, h, RunConfig(ansatz="light_cone", rounds=1),
                                brute_force_max_cut(single_edge))
        assert traces[0].O == pytest.approx(1.0)
        assert traces[0].hf_exp > h.m / 2 + 1e-4  # one feedback layer already moves the energy

    def test_regime_reaches_high_ratio_fast(self):
        g = gen_random_regular(12, 3, seed=1)
        h = build_maxcut(g)
        traces = run_light_cone(g, h, RunConfig(ansatz="light_cone", rounds=30), brute_force_max_cut(g))
        assert len(traces) == 30
        assert traces[19].true_ratio > 0.7
        for tr in traces:
            assert tr.lambda_lb <= tr.true_ratio + 1e-9
            assert tr.two_param_lb <= tr.true_ratio + 1e-9

    @pytest.mark.parametrize("ansatz", ["light_cone", "qaoa_feedback"])
    def test_literal_beta_mode_is_sound(self, ansatz):
        # The runner, not cfg.ansatz, decides whether the feedback rule applies.
        g = gen_random_regular(8, 3, seed=2)
        h = build_maxcut(g)
        cfg = RunConfig(ansatz=ansatz, rounds=30, lightcone_feedback=False)
        traces = run_light_cone(g, h, cfg, brute_force_max_cut(g))
        for tr in traces:
            assert tr.alpha == tr.beta
            assert tr.lambda_lb <= tr.true_ratio + 1e-9
            assert tr.two_param_lb <= tr.true_ratio + 1e-9

    def test_deterministic(self):
        g = gen_random_regular(8, 3, seed=4)
        h = build_maxcut(g)
        cfg = RunConfig(ansatz="light_cone", rounds=15)
        assert run_light_cone(g, h, cfg) == run_light_cone(g, h, cfg)


class TestRefinementConsistency:
    def test_half_step_first_order_convergence(self):
        g = gen_random_regular(8, 3, seed=5)
        h = build_maxcut(g)
        oracle = brute_force_max_cut(g)
        finals = {}
        trap_gaps = {}
        # rate scales with rounds so beta stays the same function of t
        for dt, rounds, rate in [(0.16, 200, 1.0), (0.08, 400, 2.0), (0.04, 800, 4.0)]:
            cfg = RunConfig(dt=dt, rounds=rounds, beta=BetaParams(rate=rate))
            traces = run_qaoa_feedback(g, h, cfg, oracle)
            lam_tr, two_tr = trapezoidal_bounds(traces, h.m, dt)
            finals[dt] = (traces[-1].lambda_lb, traces[-1].two_param_lb)
            trap_gaps[dt] = (abs(traces[-1].lambda_lb - lam_tr), abs(traces[-1].two_param_lb - two_tr))
        for idx in (0, 1):
            ratio = abs(finals[0.16][idx] - finals[0.08][idx]) / abs(finals[0.08][idx] - finals[0.04][idx])
            assert 1.5 <= ratio <= 2.5
            gap_ratio = trap_gaps[0.16][idx] / trap_gaps[0.08][idx]
            assert 1.5 <= gap_ratio <= 2.5


class TestAdaptiveMode:
    def test_potentials_never_drop_beyond_budget(self):
        g = gen_random_regular(8, 3, seed=3)
        h = build_maxcut(g)
        oracle = brute_force_max_cut(g)
        opt = float(oracle.optimum)
        pots = {"one": [], "two": []}

        def obs(p, hf, one, two):
            pots["one"].append(potential_value(hf, opt, one))
            pots["two"].append(potential_value(hf, opt, two))

        cfg = RunConfig(rounds=200, adaptive_dt=True, epsilon=1e-3)
        traces = run_qaoa_feedback(g, h, cfg, oracle, observer=obs)
        for series in pots.values():
            assert len(series) == 201
            for a, b in zip(series, series[1:]):
                assert b - a >= -1e-3
        ts = [0.0] + [tr.t for tr in traces]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_light_cone_adaptive_runs(self):
        g = gen_random_regular(6, 3, seed=1)
        h = build_maxcut(g)
        cfg = RunConfig(ansatz="light_cone", rounds=5, adaptive_dt=True, epsilon=1e-3)
        traces = run_light_cone(g, h, cfg, brute_force_max_cut(g))
        assert len(traces) == 5
        assert all(0 < tr.t <= 5 * cfg.dt for tr in traces)


class TestFreezePath:
    """The two-parameter denominator collapses on K2 with a large beta: the
    tracker freezes, that round alone is flagged, the two-parameter bound is
    held from then on, and every round still runs."""

    K2 = gen_erdos_renyi(2, 1.0, seed=0)
    # Fixed dt, where no admissibility check applies: lambda_lb reaches 2.89 by round 12.
    CFG = dict(dt=0.1, rounds=12, beta=BetaParams(c=20))

    def run(self, runner, ansatz):
        h = build_maxcut(self.K2)
        frozen = []
        traces = runner(self.K2, h, RunConfig(ansatz=ansatz, **self.CFG), brute_force_max_cut(self.K2),
                        observer=lambda p, hf, one, two: frozen.append(two.frozen))
        assert [tr.step for tr in traces] == list(range(1, 13))
        return traces, frozen

    def test_qaoa_freezes_at_round_8(self):
        traces, frozen = self.run(run_qaoa_feedback, "qaoa_feedback")
        assert [tr.step for tr in traces if tr.violation] == [8]
        assert frozen == [False] * 8 + [True] * 5
        held = traces[6].two_param_lb
        assert held == pytest.approx(0.913502, abs=1e-6)
        assert all(tr.two_param_lb == held for tr in traces[6:])

    def test_light_cone_freezes_at_round_1(self):
        traces, frozen = self.run(run_light_cone, "light_cone")
        assert [tr.step for tr in traces if tr.violation] == [1]
        assert frozen == [False] + [True] * 12
        assert all(tr.two_param_lb == 0.0 for tr in traces)


def counting(monkeypatch, name):
    """Count calls of a kernel through the binding the round loop uses."""
    calls = []
    original = getattr(dynamics, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, wrapper)
    return calls


class TestRoundLoopKernels:
    @pytest.mark.parametrize("adaptive_dt", [False, True], ids=["fixed_dt", "adaptive_dt"])
    @pytest.mark.parametrize("runner, mixer_kernel", [(run_qaoa_feedback, "apply_rx"), (run_light_cone, "apply_ryz")])
    def test_kernel_calls_per_round(self, monkeypatch, cubic10, runner, mixer_kernel, adaptive_dt):
        # The benchmark times these kernels through the names the round loop calls.
        g, h, oracle = cubic10
        energies = counting(monkeypatch, "expectation_diagonal")
        feedbacks = counting(monkeypatch, "feedback_observable")
        gates = counting(monkeypatch, mixer_kernel)
        norm_bounds = counting(monkeypatch, "error_constants")
        seen = []
        traces = runner(g, h, RunConfig(rounds=7, adaptive_dt=adaptive_dt), oracle,
                        observer=lambda p, hf, one, two: seen.append(hf))
        assert len(energies) == 7 + 1
        assert len(feedbacks) == 7 + 1
        gates_per_round = g.n if mixer_kernel == "apply_rx" else len(bfs_order(g).oriented_edges)
        assert len(gates) == 7 * gates_per_round
        assert len(norm_bounds) == (7 if adaptive_dt else 0)
        assert seen == [h.m / 2] + [tr.hf_exp for tr in traces]
        # One path: every kernel call sees the mirrored half, never a full state.
        for args in energies + feedbacks + gates:
            assert args[0].mirrored and args[0].amplitudes.shape == (1 << (g.n - 1),)

    def test_energy_count_follows_early_stop(self, monkeypatch, cubic10):
        g, h, oracle = cubic10
        energies = counting(monkeypatch, "expectation_diagonal")
        traces = run_qaoa_feedback(g, h, RunConfig(rounds=500), oracle, stop_at_true_ratio=0.7)
        assert len(traces) < 500
        assert len(energies) == len(traces) + 1

    @pytest.mark.parametrize("kernel", ["feedback_observable", "expectation_diagonal"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_stops_the_run_at_its_round(self, monkeypatch, cubic10, kernel, bad):
        g, h, oracle = cubic10
        original = getattr(dynamics, kernel)
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(1)
            # The third call measures the state after round 2.
            return bad if len(calls) == 3 else original(*args, **kwargs)

        monkeypatch.setattr(dynamics, kernel, poisoned)
        with pytest.raises(StateError, match="round 2"):
            run_qaoa_feedback(g, h, RunConfig(rounds=5), oracle)

    def test_non_finite_initial_value_is_round_zero(self, monkeypatch, cubic10):
        g, h, oracle = cubic10
        monkeypatch.setattr(dynamics, "feedback_observable", lambda *args: math.nan)
        with pytest.raises(StateError, match="round 0"):
            run_light_cone(g, h, RunConfig(rounds=3), oracle)


class TestNormDrift:
    @pytest.mark.parametrize("rounds, failing_round", [(100, dynamics.NORM_CHECK_EVERY), (10, 10)])
    def test_drift_stops_the_run_at_its_check(self, monkeypatch, cubic10, rounds, failing_round):
        g, h, oracle = cubic10
        original = dynamics.apply_rx

        def leaky(state, qubit, theta):
            original(state, qubit, theta)
            state.amplitudes *= 1.0 + 1e-6
            return state

        monkeypatch.setattr(dynamics, "apply_rx", leaky)
        with pytest.raises(StateError, match=f"norm drift .* after round {failing_round} "):
            run_qaoa_feedback(g, h, RunConfig(rounds=rounds), oracle)
