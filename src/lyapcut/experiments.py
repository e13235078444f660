"""Batch orchestration: suites, convergence statistics, trace persistence, plots.

Suites fan out over (size, instance) grids with a documented seed-splitting
rule: the sub-seed of instance number k in the grid is master_seed XOR k.
Suites and convergence runs go through one instance loop that yields each
result in grid order as it finishes; every result file is written atomically
(write to a temp name, then rename) as its instance arrives.
"""

from __future__ import annotations

import dataclasses
import html
import json
import math
import numbers
import os
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Optional, Sequence, get_type_hints

from .dynamics import Run, RunConfig, StepTrace, run_light_cone, run_qaoa_feedback
from .graphs import (
    CONNECTED_CUBIC_COUNTS,
    FAMILIES,
    CutOracleResult,
    Graph,
    GraphError,
    bipartite_parts,
    check_family,
    enumerate_cubic,
    make_graph,
)
from .hamiltonian import build_maxcut
from .statevector import cap_message

_PARSE = {int: int, float: float, bool: lambda s: s == "1", Optional[float]: lambda s: float(s) if s else None}
# (CSV column, StepTrace field, parser) for every trace column after graph_id,n,m, in StepTrace
# field order; hf_exp is the one field written under another name.
_STEP_COLUMNS = tuple(("exp_hf" if name == "hf_exp" else name, name, _PARSE[kind])
                      for name, kind in get_type_hints(StepTrace).items())
TRACE_COLUMNS = ("graph_id", "n", "m", *(column for column, _, _ in _STEP_COLUMNS))

NOT_REACHED = None


@dataclass(frozen=True)
class SuiteSpec:
    family: str
    n_list: tuple[int, ...]
    instances_per_n: int
    config: RunConfig
    p: float = 0.5
    degree: int = 3
    snapshot_steps: tuple[int, ...] = (10, 100, 1000, 10000)
    exhaustive_cubic: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not self.n_list:
            raise ValueError(f"n_list must be nonempty, got {self.n_list}")
        for i, n in enumerate(self.n_list):
            _check_integer("n_list", n)
            if n in self.n_list[:i]:
                raise ValueError(f"n_list repeats n={n}, got {self.n_list}")
        _check_integer("instances_per_n", self.instances_per_n)
        if self.instances_per_n < 1:
            raise ValueError(f"instances_per_n must be >= 1, got {self.instances_per_n}")
        if self.exhaustive_cubic and self.family != "regular3":
            raise ValueError("exhaustive enumeration only applies to the cubic family")
        if self.exhaustive_cubic and not set(self.n_list) <= CONNECTED_CUBIC_COUNTS.keys():
            raise ValueError(f"exhaustive cubic enumeration supports n in {sorted(CONNECTED_CUBIC_COUNTS)}, "
                             f"got {self.n_list}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # A size or p the family's generator refuses stops here, before any instance runs.
        for n in () if self.exhaustive_cubic else self.n_list:
            try:
                check_family(self.family, n, p=self.p, degree=self.degree)
            except GraphError as err:
                raise ValueError(f"{self.family} graphs of n={n} (n_list): {err}") from None


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ConvergenceRecord:
    graph_id: str
    n: int
    target: float
    rounds_to_target: Optional[int]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    which: str
    n_points: int
    excluded: int


@dataclass(frozen=True)
class PlotSeries:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    style: str = "scatter"  # scatter | line

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(f"series {self.label!r}: {len(self.xs)} xs vs {len(self.ys)} ys")
        if self.style not in ("scatter", "line"):
            raise ValueError(f"unknown style {self.style!r}")


def suite_instances(spec: SuiteSpec):
    """Yield (graph_id, graph) pairs for the grid, deterministically seeded."""
    if spec.exhaustive_cubic:
        for n in spec.n_list:
            for k, g in enumerate(enumerate_cubic(n, seed=spec.config.seed)):
                yield f"{spec.family}_n{n:02d}_i{k:02d}", g
        return
    counter = 0
    for n in spec.n_list:
        for k in range(spec.instances_per_n):
            sub_seed = spec.config.seed ^ counter
            counter += 1
            g = make_graph(spec.family, n, sub_seed, p=spec.p, degree=spec.degree)
            yield f"{spec.family}_n{n:02d}_i{k:02d}", g


def solve_instance(
    g: Graph,
    cfg: RunConfig,
    stop_at_true_ratio: Optional[float] = None,
) -> tuple[CutOracleResult, Run]:
    """Run the configured ansatz on g; the oracle is read off the cut table of
    the same Hamiltonian, so the table is built once."""
    h = build_maxcut(g, cap=cfg.state_cap)
    oracle = CutOracleResult.from_table(h.diag)
    runner = run_qaoa_feedback if cfg.ansatz == "qaoa_feedback" else run_light_cone
    return oracle, runner(g, h, cfg, oracle, stop_at_true_ratio=stop_at_true_ratio)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_trace_csv(path: Path, graph_id: str, g: Graph, traces: Sequence[StepTrace]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for tr in traces:
        lines.append(",".join([graph_id, str(g.n), str(g.m),
                               *(_fmt(getattr(tr, field)) for _, field, _ in _STEP_COLUMNS)]))
    atomic_write(path, "\n".join(lines) + "\n")


def read_trace_csv(path: Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace columns in {path}: {header}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(TRACE_COLUMNS, parts))
            row["n"], row["m"] = int(row["n"]), int(row["m"])
            for column, _, parse in _STEP_COLUMNS:
                row[column] = parse(row[column])
            rows.append(row)
    return rows


def write_summary(path: Path, graph_id: str, g: Graph, cfg: RunConfig, family: Optional[str],
                  oracle: CutOracleResult, run: Run) -> None:
    """Write the per-instance summary JSON, with every Run field but the traces under its own name;
    family is None for a graph from outside a suite grid."""
    last = run[-1]
    summary = {
        "graph_id": graph_id,
        "family": family,
        "n": g.n,
        "m": g.m,
        "parts": list(bipartite_parts(g.n)) if family == "bipartite" else None,
        "graph_hash": g.content_hash(),
        "config": dataclasses.asdict(cfg),
        "oracle": {
            "optimum": oracle.optimum,
            "one_maximizer": oracle.sides(g.n),
        },
        "final": {
            "step": last.step,
            "t": last.t,
            "exp_hf": last.hf_exp,
            "hf_over_m": last.hf_over_m,
            "lambda_lb": last.lambda_lb,
            "two_param_lb": last.two_param_lb,
            "true_ratio": last.true_ratio,
        },
        **{f.name: getattr(run, f.name) for f in dataclasses.fields(run) if f.name != "traces"},
    }
    atomic_write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _solve_each(spec: SuiteSpec, instances: Sequence[tuple[str, Graph]],
                stop_at_true_ratio: Optional[float] = None):
    """Yield (graph_id, g, oracle, run) for each (graph_id, g) pair, in the given order.

    With workers > 1 the runs fan out over a process pool, whose map keeps the
    input order and hands each result over as soon as it and its predecessors
    are done; each run only touches immutable inputs. workers comes from a
    config file, so the pool starts no more processes than there are
    instances or CPUs.
    """
    graphs = [g for _, g in instances]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: sequential runs never pay for it

        context = ProcessPoolExecutor(max_workers=max(1, min(spec.workers, len(graphs), os.cpu_count() or 1)))
    else:
        context = nullcontext()
    with context as pool:
        solved = (pool.map if pool else map)(solve_instance, graphs, repeat(spec.config), repeat(stop_at_true_ratio))
        for (graph_id, g), result in zip(instances, solved):
            yield graph_id, g, *result


def run_suite(spec: SuiteSpec, output_dir) -> dict:
    """Run every instance of the grid; write trace CSV and summary JSON per
    instance as it finishes, then the snapshot aggregates, and return the manifest.

    An instance above the state cap is skipped with a reason; the sub-seeds of
    the others stay those of the full grid.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    instances = []
    skipped = []
    for graph_id, g in suite_instances(spec):
        if g.n > spec.config.state_cap:
            skipped.append({"graph_id": graph_id, "reason": cap_message(g.n, spec.config.state_cap)})
        else:
            instances.append((graph_id, g))

    snapshots = sorted(s for s in set(spec.snapshot_steps) if 1 <= s <= spec.config.rounds)
    at_snapshot = {}  # (n, step) -> the trace row at that step of each instance of size n, in grid order
    done = []
    for graph_id, g, oracle, run in _solve_each(spec, instances):
        write_trace_csv(out / f"{graph_id}.csv", graph_id, g, run)
        write_summary(out / f"{graph_id}.json", graph_id, g, spec.config, spec.family, oracle, run)
        done.append(graph_id)
        for s in snapshots:
            if len(run) >= s:
                at_snapshot.setdefault((g.n, s), []).append(run[s - 1])

    agg_lines = ["family,n,step,instances,mean_true_ratio,mean_lambda_lb,mean_two_param_lb,mean_hf_over_m"]
    for n in spec.n_list:
        for s in snapshots:
            rows = at_snapshot.get((n, s))
            if not rows:
                continue
            agg_lines.append(",".join([
                spec.family, str(n), str(s), str(len(rows)),
                *(_fmt(sum(getattr(r, field) for r in rows) / len(rows))
                  for field in ("true_ratio", "lambda_lb", "two_param_lb", "hf_over_m")),
            ]))
    atomic_write(out / "aggregates.csv", "\n".join(agg_lines) + "\n")

    manifest = {
        "family": spec.family,
        "instances": done,
        "skipped": skipped,
        "aggregates": "aggregates.csv",
    }
    atomic_write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def convergence_targets(targets: Iterable[float]) -> tuple[float, ...]:
    """The targets sorted; there must be at least one, each must lie in (0, 1), and none may repeat."""
    targets = tuple(sorted(targets))
    if not targets:
        raise ValueError("need at least one target")
    if any(not 0 < t < 1 for t in targets):
        raise ValueError(f"targets must lie in (0, 1), got {targets}")
    if repeated := [a for a, b in zip(targets, targets[1:]) if a == b]:
        raise ValueError(f"targets repeat {repeated[0]!r}, got {targets}")
    return targets


def convergence_experiment(spec: SuiteSpec, targets: Iterable[float]) -> list[ConvergenceRecord]:
    """First round at which each instance reaches each target true ratio.

    A size above the state cap is refused before any run, since every
    instance needs its exact ratio.
    """
    targets = convergence_targets(targets)
    over = [n for n in spec.n_list if n > spec.config.state_cap]
    if over:
        raise ValueError(f"n_list: {cap_message(over[0], spec.config.state_cap)}")
    records = []
    for graph_id, g, _, run in _solve_each(spec, list(suite_instances(spec)), stop_at_true_ratio=targets[-1]):
        for target in targets:
            hit = next((tr.step for tr in run if tr.true_ratio >= target), NOT_REACHED)
            records.append(ConvergenceRecord(graph_id=graph_id, n=g.n, target=target, rounds_to_target=hit))
    return records


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    if not len(values):
        raise ValueError("percentile of empty input")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] * (1 - frac) + ordered[hi] * frac)


def _ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: no spread in x")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def fit_loglog(
    records: Sequence[ConvergenceRecord],
    which: str = "all_points",
    q: Optional[float] = None,
) -> FitResult:
    """OLS of log10(rounds) against log10(n).

    Not-reached records are excluded up front and reported in the result.
    Variants: per_n_max fits the worst instance per size, per_n_quartile fits
    the q-th percentile per size.
    """
    reached = [r for r in records if r.rounds_to_target is not NOT_REACHED]
    excluded = len(records) - len(reached)
    if len({r.n for r in reached}) < 2:
        raise ValueError("degenerate fit: need at least two distinct sizes with reached targets")

    if which == "all_points":
        pts = [(math.log10(r.n), math.log10(r.rounds_to_target)) for r in reached]
    elif which == "per_n_max":
        pts = []
        for n in sorted({r.n for r in reached}):
            worst = max(r.rounds_to_target for r in reached if r.n == n)
            pts.append((math.log10(n), math.log10(worst)))
    elif which == "per_n_quartile":
        if q is None:
            raise ValueError("per_n_quartile needs q")
        pts = []
        for n in sorted({r.n for r in reached}):
            rounds = [r.rounds_to_target for r in reached if r.n == n]
            pts.append((math.log10(n), math.log10(percentile(rounds, q))))
        which = f"per_n_quartile({q:g})"
    else:
        raise ValueError(f"unknown fit variant {which!r}")

    slope, intercept = _ols([p[0] for p in pts], [p[1] for p in pts])
    return FitResult(slope=slope, intercept=intercept, which=which, n_points=len(pts), excluded=excluded)


# --- SVG emission -----------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_W, _H = 760, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 56


def emit_plot(series: Sequence[PlotSeries], path) -> Path:
    """Render series on log10 axes with decade ticks to a self-contained SVG plus a raw CSV next to it."""
    series = list(series)
    if not series or all(len(s.xs) == 0 for s in series):
        raise ValueError("nothing to plot: empty series")
    path = Path(path)

    csv_lines = ["series,x,y"]
    for s in series:
        for x, y in zip(s.xs, s.ys):
            csv_lines.append(f"{html.escape(s.label, quote=False)},{_fmt(float(x))},{_fmt(float(y))}")
    atomic_write(path.with_suffix(".csv"), "\n".join(csv_lines) + "\n")

    points = [[(math.log10(x), math.log10(y)) for x, y in zip(s.xs, s.ys)] for s in series]

    all_x = [p[0] for pts in points for p in pts]
    all_y = [p[1] for pts in points for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    pad_x = 0.05 * (x_hi - x_lo or 1.0)
    pad_y = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#404040"/>',
    ]

    x_ticks = [(float(t), f"1e{t}") for t in range(math.floor(x_lo), math.ceil(x_hi) + 1)]
    y_ticks = [(float(t), f"1e{t}") for t in range(math.floor(y_lo), math.ceil(y_hi) + 1)]

    for t, label in x_ticks:
        if not x_lo <= t <= x_hi:
            continue
        parts.append(f'<line x1="{px(t):.1f}" y1="{_MT}" x2="{px(t):.1f}" y2="{_MT + plot_h}" stroke="#d9d9d9"/>')
        parts.append(
            f'<text x="{px(t):.1f}" y="{_MT + plot_h + 18}" font-size="11" text-anchor="middle">{label}</text>'
        )
    for t, label in y_ticks:
        if not y_lo <= t <= y_hi:
            continue
        parts.append(f'<line x1="{_ML}" y1="{py(t):.1f}" x2="{_ML + plot_w}" y2="{py(t):.1f}" stroke="#d9d9d9"/>')
        parts.append(
            f'<text x="{_ML - 6}" y="{py(t) + 4:.1f}" font-size="11" text-anchor="end">{label}</text>'
        )

    for si, (s, pts) in enumerate(zip(series, points)):
        color = _PALETTE[si % len(_PALETTE)]
        if s.style == "line":
            joined = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
            parts.append(f'<polyline points="{joined}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        else:
            for x, y in pts:
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.2" fill="{color}" fill-opacity="0.8"/>')

    legend_y = _MT + 14
    for si, s in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        parts.append(f'<rect x="{_ML + 10}" y="{legend_y - 9 + si * 16}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{_ML + 25}" y="{legend_y + si * 16}" font-size="11">{html.escape(s.label, quote=False)}</text>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")
    return path
