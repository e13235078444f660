"""Command-line interface: single runs, suites, convergence fits, oracle, generation."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from pathlib import Path

from .dynamics import BetaParams, RunConfig
from .experiments import (
    ConvergenceRecord,
    FitResult,
    PlotSeries,
    SuiteSpec,
    atomic_write,
    convergence_experiment,
    convergence_targets,
    emit_plot,
    fit_loglog,
    run_suite,
    solve_instance,
    write_summary,
    write_trace_csv,
)
from .graphs import Graph, GraphError, brute_force_max_cut, load_graph, make_graph
from .statevector import StateError

_FAMILY_ALIASES = {
    "regular3": "regular3",
    "er": "erdos_renyi",
    "erdos_renyi": "erdos_renyi",
    "bipartite": "bipartite",
}

_ANSATZ_ALIASES = {"qaoa": "qaoa_feedback", "qaoa_feedback": "qaoa_feedback",
                   "lightcone": "light_cone", "light_cone": "light_cone"}

# The spec keys each family reads, with the make_graph argument each sets and its type;
# make_graph ignores p for regular3 and d for the others.
_N_SEED = {"n": ("n", int), "seed": ("seed", int)}
_GRAPH_SPEC_KEYS = {"regular3": {**_N_SEED, "d": ("degree", int)}, "erdos_renyi": {**_N_SEED, "p": ("p", float)},
                    "bipartite": {**_N_SEED, "p": ("p", float)}}


def _unread_graph_keys(family: str) -> dict[str, str]:
    """The spec keys of other families that family does not read (p for regular3), with their make_graph names."""
    return {key: name for keys in _GRAPH_SPEC_KEYS.values() for key, (name, _) in keys.items()
            if key not in _GRAPH_SPEC_KEYS[family]}


def _reject_unknown(keys, known, where: str) -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise SystemExit(f"unknown key(s) {', '.join(unknown)} in {where}; known: {', '.join(known)}")


def _read(value, kind, key: str, where: str):
    """value as kind: int, float, bool, [int], an alias dict or BetaParams; else stop naming key and value."""
    if isinstance(kind, dict):
        if not isinstance(value, str) or value not in kind:
            raise SystemExit(f"{key} {value!r} in {where} is not one of: {', '.join(sorted(kind))}")
        return kind[value]
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise SystemExit(f"{key} {value!r} in {where} must be a JSON list")
        return tuple(_read(v, kind[0], key, where) for v in value)
    if kind is bool:
        if not isinstance(value, bool):
            raise SystemExit(f"{key} {value!r} in {where} must be JSON true or false")
        return value
    if kind is BetaParams:
        if not isinstance(value, dict):
            raise SystemExit(f"{key} {value!r} in {where} must be a JSON object")
        where = f"{where} ({key})"
        _reject_unknown(value, [f.name for f in dataclasses.fields(BetaParams)], where)
        return BetaParams(**{k: _read(v, float, k, where) for k, v in value.items()})
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise SystemExit(f"{key} {value!r} in {where} must be {'an integer' if kind is int else 'a number'}")
    return kind(value)


# Every suite-config key: its kind and the default for an absent key. None keeps the default of
# the RunConfig or SuiteSpec field of that name; family, n_list and instances_per_n have none.
_CONFIG_KEYS = {
    "family": (_FAMILY_ALIASES, "regular3"), "n_list": ([int], [10]), "instances_per_n": (int, 1),
    "dt": (float, None), "rounds": (int, None), "beta": (BetaParams, None), "epsilon": (float, None),
    "adaptive_dt": (bool, None), "lightcone_feedback": (bool, None), "seed": (int, None),
    "ansatz": (_ANSATZ_ALIASES, None), "p": (float, None), "snapshot_steps": ([int], None),
    "exhaustive_cubic": (bool, None),
    "workers": (int, None),
    "state_cap": (int, None),
    "degree": (int, None),
}
_RUN_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _spec_number(value: str, key: str, kind: type, spec: str):
    try:
        return kind(value)
    except ValueError:
        raise SystemExit(f"{key}={value} in graph spec {spec} is not "
                         f"{'an integer' if kind is int else 'a number'}") from None


def _resolve_graph(arg: str, command: str) -> Graph:
    """Accept a path or a compact spec like 'regular3:n=10,seed=7'."""
    if Path(arg).exists():
        try:
            return load_graph(arg)
        except GraphError as err:  # the message names the file
            raise SystemExit(f"lyapcut {command} --graph: {err}") from None
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
    graph_args = {"n": 10, "seed": 0}  # the spec's defaults; absent p and d keep make_graph's
    graph_args.update((name, _spec_number(kv[key], key, kind, arg))
                      for key, (name, kind) in _GRAPH_SPEC_KEYS[family].items() if key in kv)
    try:
        return make_graph(family, **graph_args)
    except GraphError as err:
        raise SystemExit(f"graph spec {arg}: {err}") from None


def _config_from_file(path: str) -> SuiteSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise SystemExit(f"--config {path}: cannot read: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise SystemExit(f"--config {path}: not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise SystemExit(f"{path} is not valid JSON: {err.msg} at line {err.lineno} column {err.colno}") from None
    if not isinstance(raw, dict):
        raise SystemExit(f"{path} must hold a JSON object of config keys, got {type(raw).__name__}")
    _reject_unknown(raw, _CONFIG_KEYS, path)
    # BetaParams, RunConfig and SuiteSpec check ranges and name the field and value.
    try:
        values = {key: _read(raw.get(key, default), kind, key, path)
                  for key, (kind, default) in _CONFIG_KEYS.items() if key in raw or default is not None}
        cfg = RunConfig(**{k: v for k, v in values.items() if k in _RUN_FIELDS})
        spec = SuiteSpec(config=cfg, **{k: v for k, v in values.items() if k not in _RUN_FIELDS})
    except ValueError as err:
        raise SystemExit(f"{err} in {path}") from None
    # A graph key that the family does not read (p for regular3, degree for the others) is refused,
    # as in a graph spec; config keys carry the make_graph names.
    unread = _unread_graph_keys(spec.family).values()
    _reject_unknown(raw, [k for k in _CONFIG_KEYS if k not in unread], f"{path} for family {spec.family}")
    return spec


def _targets(text: str) -> tuple[float, ...]:
    """--targets as sorted numbers in (0, 1); argparse names the flag in the message."""
    try:
        return convergence_targets(float(t) for t in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{text!r}: {err}") from None


def _refuse_out(args, reason: str):
    raise SystemExit(f"lyapcut {args.command} --out {args.out}: cannot make the directory: {reason}")


def _check_output_dir(args) -> None:
    """Stop on an --out that exists and is no directory, or that lies under such a path, and make
    nothing; run and convergence call it before their runs, which may still refuse their input."""
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                _refuse_out(args, os.strerror(errno.EEXIST if path == out else errno.ENOTDIR))
            return


def _output_dir(args) -> Path:
    """The --out directory, made if absent; a path that cannot be a directory stops naming flag and path."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        _refuse_out(args, err.strerror)
    return out


def _cmd_run(args) -> int:
    if args.graph_id is not None and Path(args.graph_id).name != args.graph_id:
        raise SystemExit(f"lyapcut run: --graph-id {args.graph_id!r} must be a file name without a path separator")
    g = _resolve_graph(args.graph, args.command)
    # Each run flag stores under the RunConfig field it sets; an absent flag keeps the field default.
    fields = {k: v for k, v in vars(args).items() if k in _RUN_FIELDS}
    try:
        cfg = RunConfig(**{**fields, "ansatz": _ANSATZ_ALIASES[args.ansatz]})
    except ValueError as err:
        # The fields that RunConfig checks (dt, rounds, epsilon) share their names with the flags.
        raise SystemExit(f"lyapcut run: --{err}") from None
    _check_output_dir(args)
    oracle, run = solve_instance(g, cfg)
    out = _output_dir(args)
    graph_id = args.graph_id or f"run_n{g.n:02d}"
    write_trace_csv(out / f"{graph_id}.csv", graph_id, g, run)
    write_summary(out / f"{graph_id}.json", graph_id, g, cfg, None, oracle, run)
    last = run[-1]
    print(f"{graph_id}: steps={last.step} hf/m={last.hf_over_m:.6f} "
          f"lambda_lb={last.lambda_lb:.6f} two_param_lb={last.two_param_lb:.6f} true_ratio={last.true_ratio:.6f}")
    return 0


def _cmd_suite(args) -> int:
    spec = _config_from_file(args.config)
    manifest = run_suite(spec, _output_dir(args))
    print(f"suite complete: {len(manifest['instances'])} instances, "
          f"{len(manifest['skipped'])} skipped, results in {args.out}")
    return 0


# The log-log fits written per target, as (variant, q) arguments of fit_loglog.
_FITS = (("all_points", None), ("per_n_max", None), ("per_n_quartile", 25.0), ("per_n_quartile", 75.0))


def _cmd_convergence(args) -> int:
    spec = _config_from_file(args.config)
    _check_output_dir(args)
    try:
        records = convergence_experiment(spec, args.targets)
    except StateError:  # a run stopped; main names it
        raise
    except ValueError as err:  # such as an n_list entry above the state cap, refused before any run
        raise SystemExit(f"{err} in {args.config}") from None
    out = _output_dir(args)

    lines = ["graph_id,n,target,rounds_to_target"]
    for r in records:
        reached = "" if r.rounds_to_target is None else str(r.rounds_to_target)
        lines.append(f"{r.graph_id},{r.n},{r.target!r},{reached}")
    atomic_write(out / "records.csv", "\n".join(lines) + "\n")

    fit_report = {}
    for target in args.targets:
        sub = [r for r in records if r.target == target]
        try:
            fits = {fr.which: fr for fr in (fit_loglog(sub, which=which, q=q) for which, q in _FITS)}
            fit_report[repr(target)] = {which: {"slope": fr.slope, "intercept": fr.intercept,
                                                "n_points": fr.n_points, "excluded": fr.excluded}
                                        for which, fr in fits.items()}
        except ValueError as err:
            fits = {}
            fit_report[repr(target)] = {"error": str(err)}
        _emit_convergence_plot(sub, fits, out / f"loglog_{target:g}.svg")
    atomic_write(out / "fits.json", json.dumps(fit_report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(fit_report, indent=2, sort_keys=True))
    return 0


def _emit_convergence_plot(records: list[ConvergenceRecord], fits: dict[str, FitResult], path: Path) -> None:
    """Scatter the reached records with the all-points and worst-per-size fit lines, if fitted, and n^2, n^3."""
    reached = [r for r in records if r.rounds_to_target is not None]
    if not reached:
        return
    ns = sorted({r.n for r in reached})
    series = [PlotSeries("instances", tuple(float(r.n) for r in reached),
                         tuple(float(r.rounds_to_target) for r in reached), "scatter")]
    for which, label in (("all_points", "fit all"), ("per_n_max", "fit worst")):
        if which in fits:
            fr = fits[which]
            ys = tuple(10 ** (fr.intercept + fr.slope * math.log10(n)) for n in ns)
            series.append(PlotSeries(f"{label} (c={fr.slope:.2f})", tuple(float(n) for n in ns), ys, "line"))
    series.append(PlotSeries("n^2", tuple(float(n) for n in ns), tuple(float(n) ** 2 for n in ns), "line"))
    series.append(PlotSeries("n^3", tuple(float(n) for n in ns), tuple(float(n) ** 3 for n in ns), "line"))
    emit_plot(series, path)


def _cmd_oracle(args) -> int:
    g = _resolve_graph(args.graph, args.command)
    res = brute_force_max_cut(g)
    print(f"optimum {res.optimum}")
    print(f"maximizer {res.sides(g.n)}")
    return 0


def _cmd_gen(args) -> int:
    family = _FAMILY_ALIASES[args.family]
    # Each flag stores under its make_graph name; --p and --d are present only when given.
    unread = [f"--{key}" for key, name in _unread_graph_keys(family).items() if name in args]
    if unread:
        raise SystemExit(f"lyapcut gen --family {args.family}: {', '.join(unread)} not read by family {family}; "
                         f"known: {', '.join('--' + key for key in _GRAPH_SPEC_KEYS[family])}")
    try:
        g = make_graph(family, **{name: getattr(args, name) for name, _ in _GRAPH_SPEC_KEYS[family].values()
                                  if name in args})
    except GraphError as err:
        raise SystemExit(f"lyapcut gen --family {args.family} --n {args.n}: {err}") from None
    try:
        Path(args.out).write_text(g.to_text(), encoding="utf-8")
    except OSError as err:
        raise SystemExit(f"lyapcut gen --out {args.out}: cannot write: {err.strerror}") from None
    print(f"wrote {family} graph n={g.n} m={g.m} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lyapcut",
                                     description="Feedback-driven Max-Cut runs with certified ratio bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one instance and write its trace")
    p_run.add_argument("--graph", required=True, help="graph file or family spec like regular3:n=10,seed=7")
    p_run.add_argument("--ansatz", choices=sorted(_ANSATZ_ALIASES), default=RunConfig.ansatz)
    p_run.add_argument("--dt", type=float, default=argparse.SUPPRESS)
    p_run.add_argument("--rounds", type=int, default=argparse.SUPPRESS)
    p_run.add_argument("--adaptive", dest="adaptive_dt", action="store_true", default=argparse.SUPPRESS)
    p_run.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    p_run.add_argument("--no-lightcone-feedback", dest="lightcone_feedback", action="store_false",
                       default=argparse.SUPPRESS)
    p_run.add_argument("--graph-id", default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a configured instance grid")
    p_suite.add_argument("--config", required=True)
    p_suite.add_argument("--out", required=True)
    p_suite.set_defaults(func=_cmd_suite)

    p_conv = sub.add_parser("convergence", help="rounds-to-target statistics and log-log fits")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--targets", type=_targets, default="0.878,0.9326")
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=_cmd_convergence)

    p_oracle = sub.add_parser("oracle", help="print the exhaustive optimum of a graph")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a graph and write the text format")
    p_gen.add_argument("--family", choices=sorted(_FAMILY_ALIASES), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", dest="degree", metavar="D", type=int, default=argparse.SUPPRESS)
    p_gen.add_argument("--p", type=float, default=argparse.SUPPRESS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, StateError) as err:  # a graph the run refuses, or a run that stopped
        source = f"--config {args.config}" if "config" in args else f"--graph {args.graph}"
        raise SystemExit(f"lyapcut {args.command} {source}: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
