"""The package surface that the benchmark in perfbench/ measures.

The benchmark traces every public module-level function of the layer modules
by name, reads the per-layer metrics declared in BENCHMARK.json, and gates
each recorded step through perfbench/checks.py. Renaming a kernel, moving the
round loop off it, or changing StepTrace makes declared metrics go missing
there; these tests fail first. That the round loop calls the measured kernels
through their public names, once per round, is checked in test_dynamics.py.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import lyapcut
from lyapcut.dynamics import RunConfig, run_qaoa_feedback
from lyapcut.graphs import gen_random_regular
from lyapcut.hamiltonian import build_maxcut

ROOT = Path(__file__).resolve().parents[1]
FUNCTION_METRICS = ("calls", "self_s", "per_round_s", "per_call_s")


def declared_function_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = []
    for entry in declared["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) == 3 and parts[2] in FUNCTION_METRICS:
            out.append(tuple(parts[:2]))
    return out


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_function_metrics_name_public_functions():
    pairs = declared_function_metrics()
    assert pairs
    for layer, function in pairs:
        module = importlib.import_module(f"lyapcut.{layer}")
        obj = getattr(module, function, None)
        assert not function.startswith("_")
        assert inspect.isfunction(obj), f"{layer}.{function} is not a function of lyapcut.{layer}"
        assert obj.__module__ == module.__name__, f"{layer}.{function} is defined in {obj.__module__}"
        assert obj.__name__ == function, f"{layer}.{function} is an alias of {obj.__name__}"


def test_step_trace_carries_the_gated_fields():
    checks = load_checks()
    g = gen_random_regular(6, 3, seed=4)
    oracle = lyapcut.brute_force_max_cut(g)
    traces = run_qaoa_feedback(g, build_maxcut(g), RunConfig(rounds=3), oracle)
    rows = [vars(tr) for tr in traces]
    for row in rows:
        assert set(checks.NUMERIC_FIELDS) | {"violation"} <= set(row)
    assert checks.gate(rows, oracle.optimum) == (3, 0)
