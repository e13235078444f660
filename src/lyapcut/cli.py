"""Command-line interface: single runs, suites, convergence fits, oracle, generation."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .dynamics import BetaParams, RunConfig
from .experiments import (
    ConvergenceRecord,
    PlotSeries,
    SuiteSpec,
    atomic_write,
    convergence_experiment,
    emit_plot,
    fit_loglog,
    run_suite,
    solve_instance,
    write_summary,
    write_trace_csv,
)
from .graphs import Graph, GraphError, brute_force_max_cut, load_graph, make_graph

_FAMILY_ALIASES = {
    "regular3": "regular3",
    "er": "erdos_renyi",
    "erdos_renyi": "erdos_renyi",
    "bipartite": "bipartite",
}

_ANSATZ_ALIASES = {"qaoa": "qaoa_feedback", "qaoa_feedback": "qaoa_feedback",
                   "lightcone": "light_cone", "light_cone": "light_cone"}

# The spec keys each family reads; make_graph ignores p for regular3 and d for the others.
_GRAPH_SPEC_KEYS = {"regular3": ("n", "seed", "d"), "erdos_renyi": ("n", "seed", "p"),
                    "bipartite": ("n", "seed", "p")}
_CONFIG_KEYS = ("family", "n_list", "instances_per_n", "dt", "rounds", "beta", "epsilon",
                "adaptive_dt", "lightcone_feedback", "seed", "ansatz", "targets", "p",
                "oracle_cap", "snapshot_steps", "exhaustive_cubic")
_BETA_KEYS = ("c", "floor", "rate")


def _reject_unknown(keys, known, where: str) -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise SystemExit(f"unknown key(s) {', '.join(unknown)} in {where}; known: {', '.join(known)}")


def _choice(raw: dict, key: str, default: str, aliases: dict, where: str) -> str:
    value = raw.get(key, default)
    if not isinstance(value, str) or value not in aliases:
        raise SystemExit(f"{key} {value!r} in {where} is not one of: {', '.join(sorted(aliases))}")
    return aliases[value]


def _flag(raw: dict, key: str, default: bool, where: str) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise SystemExit(f"{key} {value!r} in {where} must be JSON true or false")
    return value


def _as_number(value, kind: type, key: str, where: str):
    """value as kind, int or float: a JSON integer, or for float any JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise SystemExit(f"{key} {value!r} in {where} must be {'an integer' if kind is int else 'a number'}")
    return kind(value)


def _number(raw: dict, key: str, default, kind: type, where: str):
    return _as_number(raw.get(key, default), kind, key, where)


def _numbers(raw: dict, key: str, default: list, kind: type, where: str) -> tuple:
    value = raw.get(key, default)
    if not isinstance(value, list):
        raise SystemExit(f"{key} {value!r} in {where} must be a JSON list")
    return tuple(_as_number(v, kind, key, where) for v in value)


def _spec_number(kv: dict, key: str, default: str, kind: type, spec: str):
    try:
        return kind(kv.get(key, default))
    except ValueError:
        raise SystemExit(f"{key}={kv[key]} in graph spec {spec} is not "
                         f"{'an integer' if kind is int else 'a number'}") from None


def _resolve_graph(arg: str) -> Graph:
    """Accept a path or a compact spec like 'regular3:n=10,seed=7'."""
    if Path(arg).exists():
        return load_graph(arg)
    if ":" not in arg:
        raise SystemExit(f"graph file not found and not a family spec: {arg}")
    family, _, params = arg.partition(":")
    family = _FAMILY_ALIASES.get(family)
    if family is None:
        raise SystemExit(f"unknown family in graph spec: {arg}")
    kv = {}
    for item in filter(None, params.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise SystemExit(f"key {key} in graph spec {arg} has no value; write {key}=...")
        kv[key] = value
    _reject_unknown(kv, _GRAPH_SPEC_KEYS[family], f"graph spec {arg} for family {family}")
    try:
        return make_graph(family, _spec_number(kv, "n", "10", int, arg), _spec_number(kv, "seed", "0", int, arg),
                          p=_spec_number(kv, "p", "0.5", float, arg), degree=_spec_number(kv, "d", "3", int, arg))
    except GraphError as err:
        raise SystemExit(f"graph spec {arg}: {err}") from None


def _config_from_file(path: str) -> SuiteSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    _reject_unknown(raw, _CONFIG_KEYS, path)
    beta_raw = raw.get("beta", {})
    if not isinstance(beta_raw, dict):
        raise SystemExit(f"beta {beta_raw!r} in {path} must be a JSON object")
    beta_where = f"{path} (beta)"
    _reject_unknown(beta_raw, _BETA_KEYS, beta_where)
    beta = BetaParams(
        c=_number(beta_raw, "c", 0.04, float, beta_where),
        floor=_number(beta_raw, "floor", 0.5, float, beta_where),
        rate=_number(beta_raw, "rate", 2.0, float, beta_where),
    )
    # RunConfig and SuiteSpec check ranges and name the field and value.
    try:
        cfg = RunConfig(
            ansatz=_choice(raw, "ansatz", "qaoa", _ANSATZ_ALIASES, path),
            dt=_number(raw, "dt", 0.08, float, path),
            rounds=_number(raw, "rounds", 10_000, int, path),
            beta=beta,
            epsilon=_number(raw, "epsilon", 1e-3, float, path),
            adaptive_dt=_flag(raw, "adaptive_dt", False, path),
            lightcone_feedback=_flag(raw, "lightcone_feedback", True, path),
            seed=_number(raw, "seed", 0, int, path),
        )
        return SuiteSpec(
            family=_choice(raw, "family", "regular3", _FAMILY_ALIASES, path),
            n_list=_numbers(raw, "n_list", [10], int, path),
            instances_per_n=_number(raw, "instances_per_n", 1, int, path),
            config=cfg,
            targets=_numbers(raw, "targets", [], float, path),
            p=_number(raw, "p", 0.5, float, path),
            oracle_cap=_number(raw, "oracle_cap", 20, int, path),
            snapshot_steps=_numbers(raw, "snapshot_steps", [10, 100, 1000, 10000], int, path),
            exhaustive_cubic=_flag(raw, "exhaustive_cubic", False, path),
        )
    except ValueError as err:
        raise SystemExit(f"{err} in {path}") from None


def _cmd_run(args) -> int:
    g = _resolve_graph(args.graph)
    try:
        cfg = RunConfig(
            ansatz=_ANSATZ_ALIASES[args.ansatz],
            dt=args.dt,
            rounds=args.rounds,
            epsilon=args.epsilon,
            adaptive_dt=args.adaptive,
            lightcone_feedback=not args.no_lightcone_feedback,
            seed=args.seed,
        )
    except ValueError as err:
        # The fields that RunConfig checks (dt, rounds, epsilon) share their names with the flags.
        raise SystemExit(f"lyapcut run: --{err}") from None
    oracle, traces = solve_instance(g, cfg, args.oracle_cap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph_id = args.graph_id or f"run_n{g.n:02d}"
    write_trace_csv(out / f"{graph_id}.csv", graph_id, g, traces)
    write_summary(out / f"{graph_id}.json", graph_id, g, cfg, None, oracle, traces)
    last = traces[-1]
    ratio = f" true_ratio={last.true_ratio:.6f}" if last.true_ratio is not None else ""
    print(f"{graph_id}: steps={last.step} hf/m={last.hf_over_m:.6f} "
          f"lambda_lb={last.lambda_lb:.6f} two_param_lb={last.two_param_lb:.6f}{ratio}")
    return 0


def _cmd_suite(args) -> int:
    spec = _config_from_file(args.config)
    manifest = run_suite(spec, args.out)
    print(f"suite complete: {len(manifest['instances'])} instances, "
          f"{len(manifest['skipped'])} skipped, results in {args.out}")
    return 0


def _cmd_convergence(args) -> int:
    spec = _config_from_file(args.config)
    targets = tuple(float(t) for t in args.targets.split(","))
    records = convergence_experiment(spec, targets)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["graph_id,n,target,rounds_to_target"]
    for r in records:
        reached = "" if r.rounds_to_target is None else str(r.rounds_to_target)
        lines.append(f"{r.graph_id},{r.n},{r.target!r},{reached}")
    atomic_write(out / "records.csv", "\n".join(lines) + "\n")

    fit_report = {}
    for target in targets:
        sub = [r for r in records if r.target == target]
        fits = {}
        try:
            for which, q in (("all_points", None), ("per_n_max", None),
                             ("per_n_quartile", 25.0), ("per_n_quartile", 75.0)):
                fr = fit_loglog(sub, which=which, q=q)
                fits[fr.which] = {"slope": fr.slope, "intercept": fr.intercept,
                                  "n_points": fr.n_points, "excluded": fr.excluded}
        except ValueError as err:
            fits["error"] = str(err)
        fit_report[repr(target)] = fits
        _emit_convergence_plot(sub, out / f"loglog_{target:g}.svg")
    atomic_write(out / "fits.json", json.dumps(fit_report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(fit_report, indent=2, sort_keys=True))
    return 0


def _emit_convergence_plot(records: list[ConvergenceRecord], path: Path) -> None:
    reached = [r for r in records if r.rounds_to_target is not None]
    if not reached:
        return
    ns = sorted({r.n for r in reached})
    series = [PlotSeries("instances", tuple(float(r.n) for r in reached),
                         tuple(float(r.rounds_to_target) for r in reached), "scatter")]
    try:
        for which, q, label in (("all_points", None, "fit all"), ("per_n_max", None, "fit worst")):
            fr = fit_loglog(reached, which=which, q=q)
            ys = tuple(10 ** (fr.intercept + fr.slope * math.log10(n)) for n in ns)
            series.append(PlotSeries(f"{label} (c={fr.slope:.2f})", tuple(float(n) for n in ns), ys, "line"))
    except ValueError:
        pass
    series.append(PlotSeries("n^2", tuple(float(n) for n in ns), tuple(float(n) ** 2 for n in ns), "line"))
    series.append(PlotSeries("n^3", tuple(float(n) for n in ns), tuple(float(n) ** 3 for n in ns), "line"))
    emit_plot(series, "loglog_scatter", path)


def _cmd_oracle(args) -> int:
    g = _resolve_graph(args.graph)
    res = brute_force_max_cut(g)
    print(f"optimum {res.optimum}")
    print(f"maximizer {res.bitstrings(g.n)[0]}")
    return 0


def _cmd_gen(args) -> int:
    family = _FAMILY_ALIASES[args.family]
    g = make_graph(family, args.n, args.seed, p=args.p, degree=args.d)
    Path(args.out).write_text(g.to_text(), encoding="utf-8")
    print(f"wrote {family} graph n={g.n} m={g.m} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lyapcut",
                                     description="Feedback-driven Max-Cut runs with certified ratio bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one instance and write its trace")
    p_run.add_argument("--graph", required=True, help="graph file or family spec like regular3:n=10,seed=7")
    p_run.add_argument("--ansatz", choices=sorted(_ANSATZ_ALIASES), default="qaoa")
    p_run.add_argument("--dt", type=float, default=0.08)
    p_run.add_argument("--rounds", type=int, default=10_000)
    p_run.add_argument("--adaptive", action="store_true")
    p_run.add_argument("--epsilon", type=float, default=1e-3)
    p_run.add_argument("--no-lightcone-feedback", action="store_true")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--oracle-cap", type=int, default=20)
    p_run.add_argument("--graph-id", default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a configured instance grid")
    p_suite.add_argument("--config", required=True)
    p_suite.add_argument("--out", required=True)
    p_suite.set_defaults(func=_cmd_suite)

    p_conv = sub.add_parser("convergence", help="rounds-to-target statistics and log-log fits")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--targets", default="0.878,0.9326")
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=_cmd_convergence)

    p_oracle = sub.add_parser("oracle", help="print the exhaustive optimum of a graph")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a graph and write the text format")
    p_gen.add_argument("--family", choices=sorted(_FAMILY_ALIASES), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, default=3)
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
