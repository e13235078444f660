import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lyapcut.certificates import potential_value
from lyapcut.graphs import (
    Graph,
    GraphError,
    bfs_order,
    brute_force_max_cut,
    gen_bipartite,
    gen_erdos_renyi,
    gen_random_regular,
)
from lyapcut.hamiltonian import build_maxcut
from lyapcut.dynamics import (
    BetaParams,
    Mixer,
    RunConfig,
    beta_schedule,
    run_light_cone,
    run_qaoa_feedback,
)
from lyapcut import dynamics
from lyapcut.hamiltonian import commutator_terms
from lyapcut import statevector as sv
from lyapcut.statevector import (
    ObservableTerms,
    StateError,
    StateVector,
    Workspace,
    expectation_pauli,
    feedback_observable,
    init_plus,
    sum_x,
    sum_yz,
)

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


# A run setting out of range, and the message that names its field and value.
BAD_SETTINGS = {
    "dt_nan": ("dt", math.nan, r"^dt must be finite and positive, got nan$"),
    "dt_inf": ("dt", math.inf, r"^dt must be finite and positive, got inf$"),
    "epsilon_nan": ("epsilon", math.nan, r"^epsilon must be finite and positive, got nan$"),
    "epsilon_inf": ("epsilon", math.inf, r"^epsilon must be finite and positive, got inf$"),
    "c_negative": ("c", -0.04, r"^beta c must be finite and >= 0, got -0\.04$"),
    "c_nan": ("c", math.nan, r"^beta c must be finite and >= 0, got nan$"),
    "floor_above_one": ("floor", 1.5, r"^beta floor must be finite and in \[0, 1\], got 1\.5$"),
    "floor_negative": ("floor", -0.1, r"^beta floor must be finite and in \[0, 1\], got -0\.1$"),
    "rate_negative": ("rate", -1.0, r"^beta rate must be finite and >= 0, got -1\.0$"),
    "rate_inf": ("rate", math.inf, r"^beta rate must be finite and >= 0, got inf$"),
    "rounds_float": ("rounds", 2.5, r"^rounds must be an integer, got 2\.5$"),
    "rounds_bool": ("rounds", True, r"^rounds must be an integer, got True$"),
}


class TestRunSettings:
    @pytest.mark.parametrize("name, value, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
    def test_out_of_range_values_are_refused_naming_field_and_value(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**{name: value}) if name in ("dt", "epsilon", "rounds") else BetaParams(**{name: value})

    def test_range_ends_are_accepted(self):
        for params in (BetaParams(c=0.0), BetaParams(floor=0.0), BetaParams(floor=1.0), BetaParams(rate=0.0)):
            assert RunConfig(beta=params).beta == params


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
        # rate scales with rounds so beta stays the same function of t
        for dt, rounds, rate in [(0.16, 200, 1.0), (0.08, 400, 2.0), (0.04, 800, 4.0)]:
            cfg = RunConfig(dt=dt, rounds=rounds, beta=BetaParams(rate=rate))
            traces = run_qaoa_feedback(g, h, cfg, oracle)
            finals[dt] = (traces[-1].lambda_lb, traces[-1].two_param_lb)
        for idx in (0, 1):
            ratio = abs(finals[0.16][idx] - finals[0.08][idx]) / abs(finals[0.08][idx] - finals[0.04][idx])
            assert 1.5 <= ratio <= 2.5


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
    @pytest.mark.parametrize("runner, mixer_kernel", [(run_qaoa_feedback, "apply_rx"),
                                                      (run_light_cone, "apply_yz_layer")])
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
        # n RX gates a round; the light cone's whole YZ row is one call.
        gates_per_round = g.n if mixer_kernel == "apply_rx" else 1
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
        monkeypatch.setattr(dynamics, "feedback_observable", lambda *args, **kwargs: math.nan)
        with pytest.raises(StateError, match="round 0"):
            run_light_cone(g, h, RunConfig(rounds=3), oracle)


class TestNormDrift:
    @pytest.mark.parametrize("rounds, failing_round", [(100, dynamics.NORM_CHECK_EVERY), (10, 10)])
    def test_drift_stops_the_run_at_its_check(self, monkeypatch, cubic10, rounds, failing_round):
        g, h, oracle = cubic10
        original = dynamics.apply_rx

        def leaky(state, qubit, theta, **kwargs):
            original(state, qubit, theta, **kwargs)
            state.amplitudes *= 1.0 + 1e-6
            return state

        monkeypatch.setattr(dynamics, "apply_rx", leaky)
        with pytest.raises(StateError, match=f"norm drift .* after round {failing_round} "):
            run_qaoa_feedback(g, h, RunConfig(rounds=rounds), oracle)


class TestHamiltonianOfAnotherGraph:
    """A runner given the Hamiltonian of another graph refuses it instead of
    mixing one graph's mixer with the other's cut table."""

    G1 = gen_random_regular(8, 3, seed=1)
    G2 = gen_random_regular(8, 3, seed=2)

    @pytest.mark.parametrize("runner", [run_qaoa_feedback, run_light_cone])
    def test_refused(self, runner):
        assert self.G1 != self.G2
        with pytest.raises(GraphError, match="another graph"):
            runner(self.G1, build_maxcut(self.G2), RunConfig(rounds=2))

    @pytest.mark.parametrize("runner", [run_qaoa_feedback, run_light_cone])
    def test_an_equal_graph_is_accepted(self, runner):
        copy = Graph.from_edges(self.G1.n, self.G1.edges)
        assert copy is not self.G1
        assert len(runner(copy, build_maxcut(self.G1), RunConfig(rounds=2))) == 2


def random_mirrored(n, rng):
    """A random flip-symmetric state, stored as its half with bit n-1 = 0."""
    return StateVector(n, dense.random_state(n - 1, rng) / math.sqrt(2.0), mirrored=True)


def light_cone_mixer(g):
    edges = bfs_order(g).oriented_edges
    return Mixer(build_maxcut(g), yz_edges=edges)


# Oriented YZ edge lists (head, tail) on n qubits that put qubit n-1 at a head,
# only at tails, or nowhere; the last leaves qubit n-1 isolated, so it needs n >= 3.
ORIENTATIONS = {
    "head_on_top": lambda n: [(1, 0)] if n == 2 else [(0, n - 1), (n - 1, 1)] + [(j, j + 1) for j in range(1, n - 2)],
    "tail_on_top": lambda n: [(j, j + 1) for j in range(n - 1)] + [(0, n - 1)] * (n > 3),
    "interior_only": lambda n: [(j, j + 1) for j in range(n - 2)] + [(0, n - 2)] * (n > 3),
}


def wide_groups(mixer, n):
    """The Z-string terms per flipped qubit and letter, with the Z on qubit n-1 (pair bit n-2) dropped."""
    groups = {}
    for (j, letter), group in mixer._single_flips.items():
        groups[j, letter] = [(c, z[:-1] if z and z[-1] == n - 2 else z) for c, z in group]
    return groups


def wide_table(half, j, top, terms):
    """A weight table built in int64 (float64 for a float diagonal or coefficient), then narrowed."""
    d0, d1 = sv._pairs(half, j, top)
    exact = np.issubdtype(half.dtype, np.integer) and all(float(c).is_integer() for c, _ in terms)
    kind = np.int64 if exact else np.float64
    table = np.subtract(d1, d0, dtype=kind)
    weights = np.zeros(table.size, dtype=kind)
    for c, z_bits in terms:
        signs = np.ones(table.size, dtype=kind)
        for k in z_bits:
            signs[(np.arange(table.size) >> k) & 1 == 1] *= -1
        weights += (int(c) if exact else c) * signs
    table = table * weights.reshape(table.shape)
    if exact:
        bound = max(int(table.max()), -int(table.min()))
        kind = next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    return np.ascontiguousarray(sv._walk(table, j), dtype=kind)


class TestMixerFeedbackTables:
    """The light cone's feedback reads per-head weight tables that the run's Workspace holds."""

    @pytest.mark.parametrize("orientation, n", [(o, n) for o in ORIENTATIONS
                                                for n in range(3 if o == "interior_only" else 2, 9)])
    def test_observe_matches_the_dense_commutator(self, orientation, n):
        edges = tuple(ORIENTATIONS[orientation](n))
        g = Graph.from_edges(n, sorted({(min(e), max(e)) for e in edges}))
        mixer = Mixer(build_maxcut(g), yz_edges=edges)
        heads = {j for j, _ in edges}
        assert (n - 1 in heads) == (orientation == "head_on_top")
        assert any(n - 1 in e for e in edges) == (orientation != "interior_only")
        a_mat = dense.dense_observable(n, [(1.0, {j: "Y", k: "Z"}) for j, k in edges])
        h_mat = dense.dense_maxcut(n, g.edges)
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            state = random_mirrored(n, rng)
            expect = dense.commutator_expectation(state.full(), a_mat, h_mat)
            assert abs(mixer.observe(state) - expect) < 1e-10
        assert sorted(j for j, *_ in mixer.workspace(state).weighted) == sorted(heads)

    def test_complete_graph_root_needs_int16(self):
        # K16: the BFS root has 15 tails, so |Delta * s| reaches 15 * 15 = 225 on its table.
        n = 16
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        mixer = light_cone_mixer(g)
        state = random_mirrored(n, np.random.default_rng(310))
        expect = expectation_pauli(state, commutator_terms(mixer.generator, mixer.h))
        assert abs(mixer.observe(state) - expect) < 1e-10 * max(1.0, abs(expect))
        root = {j: table for j, _, table, *_ in mixer.workspace(state).weighted}[0]
        assert root.dtype == np.int16 and int(np.abs(root).max()) == 225

    def test_observe_with_built_tables_allocates_under_one_state_size(self):
        n = 16
        mixer = light_cone_mixer(gen_random_regular(n, 3, seed=1))
        state = random_mirrored(n, np.random.default_rng(320))
        workspace = mixer.workspace(state)
        mixer.observe(state, workspace)
        tracemalloc.start()
        try:
            mixer.observe(state, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * state.amplitudes.nbytes + 4096

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_cubic_tables_take_at_most_one_byte_per_pair(self, n):
        mixer = light_cone_mixer(gen_random_regular(n, 3, seed=n))
        heads = {j for j, _ in mixer.yz_edges}
        tables = [table for _, _, table, *_ in mixer.workspace(init_plus(n, mirrored=True)).weighted]
        assert len(tables) == len(heads)
        assert all(table.dtype == np.int8 and not table.flags.writeable for table in tables)
        assert sum(table.nbytes for table in tables) <= len(heads) << (n - 2)

    @pytest.mark.parametrize("n", range(8, 17))
    def test_tables_equal_a_wide_build(self, n):
        # The tables are built in the narrowest exact type; a plain int64 (float64) build
        # followed by the same narrowing must give the same dtype and bytes.
        g = gen_random_regular(n + n % 2, 3, seed=n) if n % 2 == 0 else gen_erdos_renyi(n, 0.5, seed=n)
        edges = bfs_order(g).oriented_edges
        h = build_maxcut(g)
        weighted = [(0.3, {j: "Y", k: "Z"}) for j, k in edges]
        cases = [(sum_yz(edges), h.diag), (sum_yz(edges), h.diag.astype(np.int64) - 40),
                 (sum_yz(edges), h.diag * 0.5), (ObservableTerms.from_pairs(weighted), h.diag)]
        for mixer, diag in cases:
            weighted = Workspace.build(init_plus(g.n, mirrored=True), mixer, diag).weighted
            half, top = diag[: 1 << (g.n - 1)], g.n - 1
            groups = {(j, letter): terms for (j, letter), terms in wide_groups(mixer, g.n).items()}
            assert [(j, letter) for j, letter, *_ in weighted] == list(groups)
            for j, letter, table, *_ in weighted:
                expect = wide_table(half, j, top, groups[j, letter])
                assert table.dtype == expect.dtype and np.array_equal(table, expect)

    def test_building_the_tables_allocates_little_beyond_them(self):
        # Beyond its tables and its scratch buffer, building the run's workspace takes at
        # most its views, the tables' work buffer and one table in the making.
        mixer = light_cone_mixer(gen_random_regular(16, 3, seed=1))
        state = init_plus(16, mirrored=True)
        mixer.h.diag
        mixer.generator._single_flips
        tracemalloc.start()
        try:
            workspace = mixer.workspace(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = [table for _, _, table, *_ in workspace.weighted]
        kept = sum(table.nbytes for table in tables)
        assert kept == len(tables) << 14 and peak - kept - workspace.scratch.nbytes <= 64 << 10

    def test_a_workspace_of_another_layout_is_refused(self):
        mixer = light_cone_mixer(gen_random_regular(8, 3, seed=1))
        state = init_plus(8, mirrored=True)
        workspace = mixer.workspace(state)
        with pytest.raises(StateError, match="another state buffer, layout"):
            mixer.observe(StateVector(7, state.amplitudes), workspace)


class TestMixerWorkspace:
    """A run builds one Workspace on its state buffer and hands it to every kernel call."""

    @pytest.mark.parametrize("runner", [run_qaoa_feedback, run_light_cone])
    def test_a_run_builds_one_workspace_and_no_other_table_set(self, monkeypatch, cubic10, runner):
        g, h, oracle = cubic10
        builds, splits = [], []
        build, split = Workspace.build.__func__, sv._split
        monkeypatch.setattr(Workspace, "build", classmethod(lambda cls, *args: builds.append(args) or build(cls, *args)))
        monkeypatch.setattr(sv, "_split", lambda *args: splits.append(args) or split(*args))
        runner(g, h, RunConfig(rounds=7), oracle)
        assert len(builds) == 1 and len(splits) == 1

    @pytest.mark.parametrize("runner", [run_qaoa_feedback, run_light_cone])
    def test_a_mixer_holds_only_its_fields_after_a_run(self, monkeypatch, cubic10, runner):
        g, h, oracle = cubic10
        mixers = []
        run_loop = dynamics._run_loop
        monkeypatch.setattr(dynamics, "_run_loop", lambda mixer, *args: mixers.append(mixer) or run_loop(mixer, *args))
        runner(g, h, RunConfig(rounds=3), oracle)
        (mixer,) = mixers
        assert vars(mixer).keys() == {f.name for f in dataclasses.fields(Mixer)}

    @pytest.mark.parametrize("runner", [run_qaoa_feedback, run_light_cone])
    def test_the_layer_declares_the_generator(self, monkeypatch, cubic10, runner):
        # The generators the runners passed before the Mixer set its own: sum_j X_j for the
        # transverse field, the YZ sum over the BFS edge order for the light cone.
        g, h, oracle = cubic10
        mixers = []
        run_loop = dynamics._run_loop
        monkeypatch.setattr(dynamics, "_run_loop", lambda mixer, *args: mixers.append(mixer) or run_loop(mixer, *args))
        runner(g, h, RunConfig(rounds=2), oracle)
        (mixer,) = mixers
        edges = bfs_order(g).oriented_edges
        expect = sum_x(g.n) if runner is run_qaoa_feedback else sum_yz(edges)
        assert mixer.generator == expect
        assert Mixer(h, yz_edges=mixer.yz_edges).generator == expect
        assert mixer.yz_edges == (None if runner is run_qaoa_feedback else edges)

    def test_a_generator_argument_is_refused(self, cubic10):
        g, h, _ = cubic10
        with pytest.raises(TypeError, match="generator"):
            Mixer(h, generator=sum_x(g.n))

    @pytest.mark.parametrize("runner", [run_qaoa_feedback, run_light_cone])
    def test_every_kernel_call_of_a_run_gets_the_one_workspace(self, monkeypatch, cubic10, runner):
        g, h, oracle = cubic10
        seen = []
        for name in ("apply_rx", "apply_yz_layer", "apply_diagonal_phase", "feedback_observable",
                     "expectation_diagonal"):
            original = getattr(dynamics, name)

            def wrapper(state, *args, original=original, **kwargs):
                seen.append((state.amplitudes, kwargs["workspace"]))
                return original(state, *args, **kwargs)

            monkeypatch.setattr(dynamics, name, wrapper)
        runner(g, h, RunConfig(rounds=3), oracle)
        buffers, workspaces = {id(b) for b, _ in seen}, {id(w) for _, w in seen}
        assert len(buffers) == 1 and len(workspaces) == 1
        buffer, workspace = seen[0]
        assert isinstance(workspace, Workspace) and workspace.amplitudes is buffer

    @pytest.mark.parametrize("n", [16, 18])
    def test_a_light_cone_layer_after_the_first_allocates_no_state_sized_temporary(self, n):
        mixer = light_cone_mixer(gen_random_regular(n, 3, seed=1))
        state = init_plus(n, mirrored=True)
        workspace = mixer.workspace(state)
        mixer.apply(state, 0.3, 0.08, workspace)
        tracemalloc.start()
        try:
            mixer.apply(state, 0.3, 0.08, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 10

    @pytest.mark.parametrize("n", [16, 18])
    @pytest.mark.parametrize("ansatz", ["qaoa_feedback", pytest.param("light_cone", marks=pytest.mark.xfail(
        strict=True, reason="the feedback pair products (conj(a0) and *= a1 over strided pair views) take "
                            "one 128 KiB numpy iteration buffer per call (CHANGES.md FOUND)"))])
    def test_a_round_after_the_first_allocates_no_state_sized_temporary(self, ansatz, n):
        # The smallest state-sized temporary, half the stored amplitudes as float64, is
        # 128 KiB at n=16 and 512 KiB at n=18; the bounds do not grow with n.
        g = gen_random_regular(n, 3, seed=1)
        mixer = light_cone_mixer(g) if ansatz == "light_cone" else Mixer(build_maxcut(g))
        state = init_plus(n, mirrored=True)
        workspace = mixer.workspace(state)
        mixer.observe(state, workspace)
        mixer.apply(state, 0.3, 0.08, workspace)
        mixer.observe(state, workspace)
        tracemalloc.start()
        try:
            mixer.apply(state, 0.3, 0.08, workspace)
            mixer.observe(state, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 10
