import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import pytest

from lyapcut import experiments
from lyapcut.dynamics import NORM_TOL, RX_BLOCKS_FROM_N, BetaParams, Run, RunConfig
from lyapcut.experiments import (
    ConvergenceRecord,
    PlotSeries,
    SuiteSpec,
    convergence_experiment,
    emit_plot,
    fit_loglog,
    percentile,
    read_trace_csv,
    run_suite,
    solve_instance,
    suite_instances,
    write_summary,
    write_trace_csv,
)
from lyapcut.graphs import FAMILIES, CutOracleResult, Graph, make_graph
from lyapcut.graphs import brute_force_max_cut


@pytest.fixture
def runner_calls(monkeypatch):
    """The sizes of the graphs the transverse-field runner is called on; set fail_on to k to
    make call number k (from 0) raise."""
    real = experiments.run_qaoa_feedback
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g.n)
        if len(calls) - 1 == counted.fail_on:
            raise RuntimeError(f"injected failure on call {len(calls) - 1}")
        return real(g, *args, **kwargs)
    counted.fail_on = None
    monkeypatch.setattr(experiments, "run_qaoa_feedback", counted)
    return counted, calls


def small_spec(**overrides):
    base = dict(
        family="regular3",
        n_list=(4,),
        instances_per_n=1,
        config=RunConfig(rounds=40),
        snapshot_steps=(1, 10, 40, 1000),
    )
    base.update(overrides)
    return SuiteSpec(**base)


class TestSuiteSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            small_spec(family="hypercube")

    @pytest.mark.parametrize("overrides, message", [
        (dict(family="erdos_renyi"), r"^exhaustive enumeration only applies to the cubic family$"),
        (dict(n_list=(6, 12)), r"supports n in \[4, 6, 8, 10\], got \(6, 12\)$"),
    ], ids=["family", "n_list"])
    def test_exhaustive_cubic_checked_on_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_spec(exhaustive_cubic=True, **overrides)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_below_two_refused_on_construction(self, family):
        with pytest.raises(ValueError, match=rf"^{family} graphs of n=1 \(n_list\): need at least 2 vertices, got n=1$"):
            small_spec(family=family, n_list=(8, 1))

    @pytest.mark.parametrize("overrides, message", [
        (dict(n_list=(8, 8)), r"^n_list repeats n=8, got \(8, 8\)$"),
        (dict(n_list=(6, 8, 6)), r"^n_list repeats n=6, got \(6, 8, 6\)$"),
        (dict(n_list=(4, 4), exhaustive_cubic=True), r"^n_list repeats n=4, got \(4, 4\)$"),
        (dict(n_list=(8.0,)), r"^n_list must be an integer, got 8\.0$"),
        (dict(n_list=(8, True)), r"^n_list must be an integer, got True$"),
        (dict(instances_per_n=1.5), r"^instances_per_n must be an integer, got 1\.5$"),
        (dict(instances_per_n=True), r"^instances_per_n must be an integer, got True$"),
    ], ids=["repeat", "repeat_apart", "repeat_exhaustive", "float_size", "bool_size", "float_instances",
            "bool_instances"])
    def test_grid_values_are_distinct_integers(self, overrides, message):
        # A repeated size would run its instances twice under one graph id, each overwriting the other's files.
        with pytest.raises(ValueError, match=message):
            small_spec(**overrides)

    def test_exhaustive_cubic_yields_every_class(self):
        spec = small_spec(exhaustive_cubic=True, n_list=(4, 6))
        assert [gid for gid, _ in suite_instances(spec)] == [
            "regular3_n04_i00", "regular3_n06_i00", "regular3_n06_i01"]

    def test_instances_deterministic(self):
        spec = small_spec(family="erdos_renyi", n_list=(8, 10), instances_per_n=3)
        first = list(suite_instances(spec))
        second = list(suite_instances(spec))
        assert [gid for gid, _ in first] == [gid for gid, _ in second]
        assert all(g1 == g2 for (_, g1), (_, g2) in zip(first, second))

    def test_bipartite_split_is_balanced(self):
        spec = small_spec(family="bipartite", n_list=(9,), instances_per_n=1)
        (_, g), = suite_instances(spec)
        assert g.n == 9
        assert all(u < 5 <= v for u, v in g.edges)


class TestRunSuite:
    def test_k4_suite_outputs(self, tmp_path):
        spec = small_spec()
        manifest = run_suite(spec, tmp_path)
        assert manifest["instances"] == ["regular3_n04_i00"]
        trace_path = tmp_path / "regular3_n04_i00.csv"
        summary_path = tmp_path / "regular3_n04_i00.json"
        assert trace_path.exists() and summary_path.exists()
        summary = json.loads(summary_path.read_text())
        assert summary["n"] == 4 and summary["m"] == 6
        assert summary["oracle"]["optimum"] == 4  # K4 forced
        assert summary["final"]["true_ratio"] == pytest.approx(
            summary["final"]["hf_over_m"] * 6 / 4
        )
        agg = (tmp_path / "aggregates.csv").read_text().splitlines()
        assert agg[0].startswith("family,n,step")
        assert len(agg) == 1 + 3  # snapshots 1, 10, 40 are within range

    def test_csv_round_trip_exact(self, tmp_path):
        spec = small_spec(family="erdos_renyi", n_list=(6,), config=RunConfig(rounds=25))
        run_suite(spec, tmp_path)
        rows = read_trace_csv(tmp_path / "erdos_renyi_n06_i00.csv")
        (gid, g), = suite_instances(spec)
        oracle, traces = solve_instance(g, spec.config)
        assert oracle == brute_force_max_cut(g)
        assert len(rows) == len(traces) == 25
        for row, tr in zip(rows, traces):
            assert row["t"] == tr.t
            assert row["O"] == tr.O
            assert row["exp_hf"] == tr.hf_exp
            assert row["lambda_lb"] == tr.lambda_lb
            assert row["two_param_lb"] == tr.two_param_lb
            assert row["true_ratio"] == tr.true_ratio

    def test_one_cut_table_per_instance(self, tmp_path, cut_table_calls):
        spec = small_spec(family="erdos_renyi", n_list=(8, 10), instances_per_n=2, config=RunConfig(rounds=5))
        run_suite(spec, tmp_path)
        assert cut_table_calls == [8, 8, 10, 10]
        # The oracle read off the Hamiltonian's table is the exhaustive one.
        for graph_id, g in suite_instances(spec):
            oracle = brute_force_max_cut(g)
            summary = json.loads((tmp_path / f"{graph_id}.json").read_text())
            side = "".join(str(oracle.maximizer >> v & 1) for v in range(g.n))
            assert summary["oracle"] == {"optimum": oracle.optimum, "one_maximizer": side}

    def test_summary_maximizer_uses_vertex_order(self, tmp_path):
        # Character v is the side of vertex v, which is bit v of the basis index: the star
        # centred on vertex 0 is cut best by vertex 0 alone, index 1.
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        cfg = RunConfig(rounds=2)
        oracle, run = solve_instance(g, cfg)
        assert oracle == CutOracleResult(optimum=2, maximizer=1)
        write_summary(tmp_path / "s.json", "s", g, cfg, None, oracle, run)
        assert json.loads((tmp_path / "s.json").read_text())["oracle"]["one_maximizer"] == "100"

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_spec(family="bipartite", n_list=(6,), config=RunConfig(rounds=30))
        run_suite(spec, tmp_path / "a")
        run_suite(spec, tmp_path / "b")
        for name in ["bipartite_n06_i00.csv", "bipartite_n06_i00.json", "aggregates.csv", "manifest.json"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_pool_matches_sequential(self, tmp_path):
        seq = small_spec(family="erdos_renyi", n_list=(6, 8), instances_per_n=2, config=RunConfig(rounds=20))
        par = small_spec(family="erdos_renyi", n_list=(6, 8), instances_per_n=2,
                         config=RunConfig(rounds=20), workers=2)
        run_suite(seq, tmp_path / "seq")
        run_suite(par, tmp_path / "par")
        names = sorted(p.name for p in (tmp_path / "seq").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
        for name in names:
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    def test_worker_pool_starts_no_more_processes_than_instances_or_cpus(self, tmp_path, monkeypatch):
        import concurrent.futures
        import os

        sizes = []

        class FakePool:
            # Records the pool size and runs in this process, so no process starts.
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        spec = small_spec(family="erdos_renyi", n_list=(6,), instances_per_n=3, config=RunConfig(rounds=5),
                          workers=10 ** 6)
        run_suite(spec, tmp_path)
        assert sizes == [min(3, os.cpu_count() or 1)]

    def test_bipartite_summary_metadata_and_identity(self, tmp_path):
        spec = small_spec(family="bipartite", n_list=(7,), config=RunConfig(rounds=50))
        run_suite(spec, tmp_path)
        summary = json.loads((tmp_path / "bipartite_n07_i00.json").read_text())
        assert summary["parts"] == [4, 3]
        assert summary["oracle"]["optimum"] == summary["m"]
        assert summary["final"]["true_ratio"] == pytest.approx(summary["final"]["hf_over_m"], abs=1e-12)

    def test_failure_keeps_every_earlier_instance(self, tmp_path, runner_calls):
        spec = small_spec(family="erdos_renyi", n_list=(6, 8), instances_per_n=2, config=RunConfig(rounds=10))
        run_suite(spec, tmp_path / "whole")
        counted, calls = runner_calls
        calls.clear()
        counted.fail_on = 2
        with pytest.raises(RuntimeError, match="injected failure on call 2"):
            run_suite(spec, tmp_path / "cut")
        # Each instance is written as it finishes: the two before the failure are on disk, byte for byte.
        written = sorted(p.name for p in (tmp_path / "cut").iterdir())
        assert written == ["erdos_renyi_n06_i00.csv", "erdos_renyi_n06_i00.json",
                           "erdos_renyi_n06_i01.csv", "erdos_renyi_n06_i01.json"]
        for name in written:
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_skipped_instance_keeps_the_sub_seeds_of_the_grid(self, tmp_path):
        spec = small_spec(family="erdos_renyi", n_list=(6, 10, 8), instances_per_n=2,
                          config=RunConfig(rounds=5, state_cap=8))
        manifest = run_suite(spec, tmp_path)
        assert [s["graph_id"] for s in manifest["skipped"]] == ["erdos_renyi_n10_i00", "erdos_renyi_n10_i01"]
        grid = dict(suite_instances(spec))
        assert manifest["instances"] == [gid for gid in grid if gid not in ("erdos_renyi_n10_i00",
                                                                            "erdos_renyi_n10_i01")]
        for gid in manifest["instances"]:
            assert json.loads((tmp_path / f"{gid}.json").read_text())["graph_hash"] == grid[gid].content_hash()

    def test_state_cap_skips_with_reason(self, tmp_path):
        cfg = RunConfig(rounds=5, state_cap=6)
        spec = small_spec(family="erdos_renyi", n_list=(8,), config=cfg)
        manifest = run_suite(spec, tmp_path)
        assert manifest["instances"] == []
        assert manifest["skipped"][0]["reason"] == "n=8 is above state cap 6"

    def test_bounds_hold_across_suite(self, tmp_path):
        spec = small_spec(family="erdos_renyi", n_list=(6, 8), instances_per_n=2,
                          config=RunConfig(rounds=60))
        run_suite(spec, tmp_path)
        for gid in json.loads((tmp_path / "manifest.json").read_text())["instances"]:
            for row in read_trace_csv(tmp_path / f"{gid}.csv"):
                assert row["lambda_lb"] <= row["true_ratio"] + 1e-9
                assert row["two_param_lb"] <= row["true_ratio"] + 1e-9


class TestClampsAndFreezeRound:
    """The run counts clamps per tracker and records the freeze round, which each trace
    row's violation flag merges, and the summary holds them."""

    # The freeze fixture of tests/test_dynamics.py::TestFreezePath: K2 with a large beta at fixed dt.
    K2 = Graph.from_edges(2, [(0, 1)])
    FREEZE = dict(dt=0.1, rounds=12, beta=BetaParams(c=20))

    def summary(self, tmp_path, g, cfg):
        oracle, run = solve_instance(g, cfg)
        write_summary(tmp_path / "s.json", "s", g, cfg, None, oracle, run)
        summary = json.loads((tmp_path / "s.json").read_text())
        assert "violations" not in summary
        keys = ("one_param_clamps", "two_param_clamps", "freeze_round")
        assert {key: summary[key] for key in keys} == {key: getattr(run, key) for key in keys}
        return run

    def test_a_default_run_reads_zeros_and_null(self, tmp_path):
        run = self.summary(tmp_path, make_graph("regular3", 8, seed=1), RunConfig(rounds=200))
        assert (run.one_param_clamps, run.two_param_clamps, run.freeze_round) == (0, 0, None)
        assert not any(tr.violation for tr in run)

    def test_a_light_cone_run_without_feedback_clamps(self, tmp_path):
        # The literal beta overshoots: O is negative from round 194 on.
        cfg = RunConfig(ansatz="light_cone", lightcone_feedback=False, rounds=300)
        run = self.summary(tmp_path, make_graph("regular3", 6, seed=1), cfg)
        # Nothing froze, so both trackers clamp exactly the rounds whose gain alpha O dt is negative.
        negative = sum(tr.alpha * tr.O < 0 for tr in run)
        assert negative > 0
        assert (run.one_param_clamps, run.two_param_clamps, run.freeze_round) == (negative, negative, None)
        assert negative == sum(tr.violation for tr in run)

    @pytest.mark.parametrize("ansatz, freeze_round", [("qaoa_feedback", 8), ("light_cone", 1)])
    def test_a_run_that_freezes_records_its_round(self, tmp_path, ansatz, freeze_round):
        run = self.summary(tmp_path, self.K2, RunConfig(ansatz=ansatz, **self.FREEZE))
        assert (run.one_param_clamps, run.two_param_clamps, run.freeze_round) == (0, 0, freeze_round)
        assert [tr.step for tr in run if tr.violation] == [freeze_round]

    def test_the_summary_holds_every_run_field_but_the_traces(self, tmp_path):
        # A field added to Run reaches the summary under its own name, with no other change.
        run = self.summary(tmp_path, self.K2, RunConfig(**self.FREEZE))
        summary = json.loads((tmp_path / "s.json").read_text())
        fixed = {"graph_id", "family", "n", "m", "parts", "graph_hash", "config", "oracle", "final"}
        facts = {f.name for f in dataclasses.fields(Run)} - {"traces"}
        assert set(summary) == fixed | facts
        assert {key: summary[key] for key in facts} == {key: getattr(run, key) for key in facts}


class TestFinalNormDrift:
    """The run records | ||psi||^2 - 1 | of its last norm check, which is deterministic, and the summary holds it."""

    def test_a_default_run_reads_below_the_tolerance(self, tmp_path):
        g = make_graph("regular3", 8, seed=1)
        cfg = RunConfig(rounds=200)
        oracle, run = solve_instance(g, cfg)
        assert 0.0 <= run.final_norm_drift < NORM_TOL
        write_summary(tmp_path / "s.json", "s", g, cfg, None, oracle, run)
        assert json.loads((tmp_path / "s.json").read_text())["final_norm_drift"] == run.final_norm_drift

    def test_reruns_and_the_pool_write_the_same_bytes_above_the_row_switch(self, tmp_path):
        # n=14 runs the transverse-field row as BLAS block products (dynamics.RX_BLOCKS_FROM_N).
        spec = small_spec(n_list=(14,), instances_per_n=2, config=RunConfig(rounds=20), snapshot_steps=(10,))
        assert 14 >= RX_BLOCKS_FROM_N
        run_suite(spec, tmp_path / "a")
        run_suite(spec, tmp_path / "b")
        run_suite(dataclasses.replace(spec, workers=2), tmp_path / "pool")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(names) == 2 * 2 + 2
        for other in ("b", "pool"):
            assert names == sorted(p.name for p in (tmp_path / other).iterdir())
            for name in names:
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / other / name).read_bytes()
        for graph_id, _ in suite_instances(spec):
            assert 0.0 <= json.loads((tmp_path / "a" / f"{graph_id}.json").read_text())["final_norm_drift"] < NORM_TOL


class TestConvergence:
    def test_threshold_below_start_hits_round_one(self):
        spec = small_spec(family="bipartite", n_list=(6,), config=RunConfig(rounds=50))
        records = convergence_experiment(spec, targets=[0.4])
        assert all(r.rounds_to_target == 1 for r in records)

    def test_unreachable_target_is_sentinel(self):
        spec = small_spec(config=RunConfig(rounds=5))
        records = convergence_experiment(spec, targets=[0.999999])
        assert all(r.rounds_to_target is None for r in records)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            convergence_experiment(small_spec(), targets=(1.2,))

    def test_repeated_target_is_refused_before_any_run(self, runner_calls):
        # A repeated target would write each of its records twice and count them twice in the fit.
        _, calls = runner_calls
        with pytest.raises(ValueError, match=r"^targets repeat 0\.7, got \(0\.6, 0\.7, 0\.7\)$"):
            convergence_experiment(small_spec(), targets=[0.7, 0.6, 0.7])
        assert calls == []

    def test_worker_pool_matches_sequential(self):
        spec = small_spec(family="erdos_renyi", n_list=(6, 8), instances_per_n=2, config=RunConfig(rounds=300))
        sequential = convergence_experiment(spec, targets=[0.6, 0.8])
        assert convergence_experiment(dataclasses.replace(spec, workers=2), targets=[0.6, 0.8]) == sequential
        assert len(sequential) == 8

    def test_size_above_state_cap_refused_before_any_run(self, runner_calls):
        _, calls = runner_calls
        spec = small_spec(family="erdos_renyi", n_list=(6, 8), config=RunConfig(rounds=5, state_cap=6))
        with pytest.raises(ValueError, match=r"^n_list: n=8 is above state cap 6$"):
            convergence_experiment(spec, targets=[0.5])
        assert calls == []

    def test_monotone_targets(self):
        spec = small_spec(family="regular3", n_list=(8,), instances_per_n=2,
                          config=RunConfig(rounds=2000))
        records = convergence_experiment(spec, targets=[0.6, 0.8])
        by_graph = {}
        for r in records:
            by_graph.setdefault(r.graph_id, {})[r.target] = r.rounds_to_target
        for rounds in by_graph.values():
            assert rounds[0.6] <= rounds[0.8]


class TestPercentileAndFit:
    def test_linear_interpolation(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        vals = [9.0, 1.0, 5.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def _synthetic(self, power):
        records = []
        for n in (8, 10, 12, 14):
            for i in range(3):
                records.append(ConvergenceRecord(f"g{n}_{i}", n, 0.878, int(round(n**power))))
        return records

    def test_exact_square_law(self):
        fit = fit_loglog(self._synthetic(2))
        assert fit.slope == pytest.approx(2.0, abs=1e-9)

    def test_exact_cube_law(self):
        fit = fit_loglog(self._synthetic(3))
        assert fit.slope == pytest.approx(3.0, abs=1e-9)

    def test_sentinels_excluded_and_counted(self):
        records = self._synthetic(2) + [ConvergenceRecord("gx", 8, 0.878, None)]
        fit = fit_loglog(records)
        assert fit.excluded == 1
        assert fit.slope == pytest.approx(2.0, abs=1e-9)

    def test_variants(self):
        records = self._synthetic(2)
        assert fit_loglog(records, which="per_n_max").slope == pytest.approx(2.0, abs=1e-9)
        fit_q = fit_loglog(records, which="per_n_quartile", q=75.0)
        assert fit_q.which == "per_n_quartile(75)"
        assert fit_q.slope == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_input_rejected(self):
        records = [ConvergenceRecord("a", 8, 0.878, 100), ConvergenceRecord("b", 8, 0.878, 110)]
        with pytest.raises(ValueError):
            fit_loglog(records)


class TestEmitPlot:
    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg")
        with pytest.raises(ValueError):
            emit_plot([PlotSeries("a", (), (), "scatter")], tmp_path / "x.svg")

    def test_two_point_series_is_wellformed(self, tmp_path):
        path = emit_plot(
            [PlotSeries("pair", (4.0, 8.0), (16.0, 64.0), "scatter")],
            tmp_path / "two.svg",
        )
        assert path.exists() and path.stat().st_size > 0
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert (tmp_path / "two.csv").read_text().splitlines()[0] == "series,x,y"

    def test_fit_plot_contains_all_series(self, tmp_path):
        ns = (8.0, 10.0, 12.0, 14.0)
        series = [
            PlotSeries("instances", ns, tuple(n**2.6 for n in ns), "scatter"),
            PlotSeries("fit all", ns, tuple(n**2.58 for n in ns), "line"),
            PlotSeries("fit worst", ns, tuple(n**2.65 for n in ns), "line"),
            PlotSeries("n^2", ns, tuple(n**2 for n in ns), "line"),
            PlotSeries("n^3", ns, tuple(n**3 for n in ns), "line"),
        ]
        path = emit_plot(series, tmp_path / "fit.svg")
        text = path.read_text()
        for label in ("instances", "fit all", "fit worst", "n^2", "n^3"):
            assert label in text
        assert text.count("<polyline") == 4
        ET.parse(path)

    def test_label_markup_is_escaped_in_svg_and_csv(self, tmp_path):
        label = """a & b < c > d "e" 'f'"""
        escaped = """a &amp; b &lt; c &gt; d "e" 'f'"""
        path = emit_plot([PlotSeries(label, (1.0, 10.0), (2.0, 20.0), "line")], tmp_path / "m.svg")
        assert f'font-size="11">{escaped}</text>' in path.read_text()
        assert label in [node.text for node in ET.parse(path).getroot().iter() if node.tag.endswith("text")]
        assert (tmp_path / "m.csv").read_text().splitlines()[1:] == [f"{escaped},1.0,2.0", f"{escaped},10.0,20.0"]

    def test_deterministic_bytes(self, tmp_path):
        series = [PlotSeries("s", (1.0, 10.0), (2.0, 20.0), "line")]
        p1 = emit_plot(series, tmp_path / "a.svg")
        p2 = emit_plot(series, tmp_path / "b.svg")
        assert p1.read_bytes() == p2.read_bytes()
