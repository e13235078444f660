"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def fake_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # a second root d [11, 12] belongs to the next unit.
    names = ["dynamics.root", "statevector.a", "statevector.b", "certificates.c"]
    spans = {
        "start": np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0, 12.0]),
        "parent": np.array([-1, 0, 1, 0, -1]),
        "name_id": np.array([0, 1, 2, 3, 1]),
        "instance": np.zeros(5, dtype=np.int64),
        "unit": np.array([0, 0, 0, 0, 1]),
        "nbytes": np.array([0.0, 64.0, 64.0, 0.0, 32.0]),
    }
    return names, spans


def test_self_time_subtracts_direct_children_only():
    _, spans = fake_spans()
    own = tracer.self_times(spans["start"], spans["end"], spans["parent"])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times of one tree add up to its root's duration.
    assert own[:4].sum() == 10.0


def test_per_unit_table_groups_by_unit_and_counts_top_level_bytes():
    names, spans = fake_spans()
    table = tracer.per_unit_table(spans, names)
    assert table["units"].tolist() == [0, 1]
    assert table["calls"][0].tolist() == [1, 1, 1, 1]
    assert table["calls"][1].tolist() == [0, 1, 0, 0]
    assert table["self_s"][0].tolist() == [3.0, 2.0, 1.0, 4.0]
    assert table["incl_s"][0].tolist() == [10.0, 3.0, 1.0, 4.0]
    # b is nested in a, both statevector: only a's bytes count.
    assert table["top_bytes"][0].tolist() == [0.0, 64.0, 0.0, 0.0]
    assert table["top_bytes"][1].tolist() == [0.0, 32.0, 0.0, 0.0]


def row(step, lam, two, ratio, violation=False):
    return {"t": 0.1 * step, "beta": 0.04, "O": 1.0, "alpha": 0.04, "hf_exp": ratio * 10.0,
            "hf_over_m": ratio, "lambda_lb": lam, "two_param_lb": two, "true_ratio": ratio,
            "violation": violation}


def test_gate_counts_a_bound_above_the_true_ratio():
    rows = [row(1, 0.1, 0.2, 0.6), row(2, 0.2, 0.7, 0.65), row(3, 0.3, 0.4, 0.7)]
    assert checks.gate(rows) == (3, 1)
    rows[0]["lambda_lb"] = 0.61
    assert checks.gate(rows) == (3, 2)


def test_gate_counts_non_finite_ratio_above_one_and_lost_dominance():
    rows = [
        row(1, 0.1, 0.2, 0.6),
        row(2, 0.2, 0.3, 1.0 + 1e-6),
        row(3, math.nan, 0.3, 0.7),
        row(4, 0.3, 0.2, 0.7),
    ]
    assert checks.gate(rows) == (4, 3)


def test_gate_allows_dominance_loss_from_the_first_flagged_step():
    rows = [row(1, 0.1, 0.2, 0.6), row(2, 0.3, 0.2, 0.6, violation=True), row(3, 0.4, 0.2, 0.7)]
    assert checks.gate(rows) == (3, 0)


def test_gate_checks_the_ratio_against_the_oracle_optimum():
    rows = [row(1, 0.1, 0.2, 0.6)]
    assert checks.gate(rows, optimum=10) == (1, 0)
    assert checks.gate(rows, optimum=11) == (1, 1)


def test_missing_metric_is_reported_absent():
    declared = [{"name": "a.calls", "unit": "count"}, {"name": "gone.self_s", "unit": "s"}]
    metrics, absent = run.select({"a.calls": 3.0}, declared)
    assert metrics == {"a.calls": {"value": 3.0, "unit": "count"}}
    assert absent == ["gone.self_s"]


@pytest.fixture
def lyapcut():
    import lyapcut

    return lyapcut


def test_tracer_sees_calls_through_every_namespace_and_restores(lyapcut):
    import lyapcut.dynamics as dynamics

    original = dynamics.apply_rx
    g = lyapcut.gen_random_regular(6, 3, seed=1)
    h = lyapcut.build_maxcut(g)
    trace = tracer.Tracer()
    trace.unit = 0
    trace.install()
    try:
        lyapcut.run_qaoa_feedback(g, h, lyapcut.RunConfig(rounds=3))
    finally:
        trace.uninstall()
    assert dynamics.apply_rx is original
    spans = trace.arrays()
    rx = trace.names.index("statevector.apply_rx")
    assert int((spans["name_id"] == rx).sum()) == 3 * g.n
    root = trace.names.index("dynamics.run_qaoa_feedback")
    assert spans["name_id"][spans["parent"] == -1].tolist() == [root]
    assert set(spans["instance"].tolist()) == {0}


def test_tracer_counts_clamps_and_freezes(lyapcut):
    trace = tracer.Tracer()
    trace.unit = 0
    trace.install()
    try:
        lyapcut.one_param_step(lyapcut.OneParamTracker(), [1.0], [-1.0], 0.1, q_exp=2.0)
        lyapcut.two_param_step(lyapcut.TwoParamTracker(), [1.0], [-1.0], 0.1, q_exp=2.0, a=1.0, b=1.0)
        with pytest.raises(lyapcut.DenominatorCollapse):
            lyapcut.two_param_step(lyapcut.TwoParamTracker(), [1.0], [30.0], 0.1, q_exp=2.0, a=1.0, b=1.0)
    finally:
        trace.uninstall()
    assert trace.counters == {(0, "one_param_clamps"): 1, (0, "two_param_clamps"): 1, (0, "freezes"): 1}


def test_dense_spot_check_passes_on_a_cubic_instance(lyapcut):
    attempted, failed, worst = checks.dense_spot_check(lyapcut, lyapcut.gen_random_regular(8, 3, seed=2))
    assert (attempted, failed) == (10, 0)
    assert worst < checks.DENSE_TOL
