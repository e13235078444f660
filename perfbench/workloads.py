"""The three benchmark workloads, built only from public lyapcut functions.

Every call goes through the package attribute at call time (``self.lp.name``),
so the tracer's rebinding sees it. Inputs come from the workload seed alone.

Why these three:
- large_qaoa: kernel-bound transverse-field rounds at n=16 (feedback, RX row,
  <H_f>, phase). Fused-RX and flip-delta feedback changes must show here.
- large_lightcone: the YZ mixer at n=16; two-qubit gates over edges and
  m-term feedback, no RX and no phase layer. It bypasses RX-only changes.
  Both large workloads stop at n=16, whose 1 MiB state is half the core's
  own 2 MiB L2. At n=18 and n=20 the working set lives in the L3 that other
  tenants of the host share. A memory-streaming neighbour slowed an n=20
  round by 13% and left an n=16 round unchanged; as the host's load
  changed, n=20 runs of the same code differed by up to 1.8x.
- small_suite: two run_suite grids at n in {8, 10, 12}, one fixed-dt cubic,
  one adaptive-dt Erdos-Renyi. Per-call overhead dominates; it also runs the
  certificates, trace rows, CSV output and error_constants. Batched
  evolution must show here; large-n kernel wins should be neutral.
There is no convergence_experiment workload. Its repetitions take 3-6 s,
so a run holds only a few of them, and the rounds to target, and with them
the work, vary between seeds. On a two-vCPU VM of a shared host, its spread
between runs of the same code reached 38-61% of the median in two of three
sets of ten, past any bound a regression check could use.
"""

from __future__ import annotations

import os
from pathlib import Path

from checks import csv_row

# Sub-seeds of a suite grid are config.seed XOR k for instance k < 1024, so a
# stride of 1024 keeps the grids of different workload seeds disjoint.
SEED_STRIDE = 1024
GRAPH_POOL = 4
SMALL_N = (8, 10, 12)


def steps(traces) -> list[dict]:
    return [vars(tr) for tr in traces]


class LargeRun:
    """One cubic graph per repetition at large n, cycling over a small pool so
    the ratio metrics average over GRAPH_POOL graphs."""

    def __init__(self, lp, seed: int, ansatz: str, n: int, rounds: int):
        self.lp = lp
        self.n = n
        self.items = GRAPH_POOL
        self.expected_instances = GRAPH_POOL
        self.runner = "run_qaoa_feedback" if ansatz == "qaoa_feedback" else "run_light_cone"
        self.cfg = lp.RunConfig(ansatz=ansatz, rounds=rounds)
        self.graph_seeds = [seed * GRAPH_POOL + k for k in range(GRAPH_POOL)]
        self.prepared: dict[int, tuple] = {}
        self.last = None

    def setup(self, k: int) -> None:
        i = k % GRAPH_POOL
        g = self.lp.gen_random_regular(self.n, 3, seed=self.graph_seeds[i])
        h = self.lp.build_maxcut(g)
        oracle = self.lp.brute_force_max_cut(g)
        self.prepared.setdefault(i, (g, h, oracle))

    def run(self, item: int) -> None:
        g, h, oracle = self.prepared[item]
        self.last = (item, oracle.optimum, getattr(self.lp, self.runner)(g, h, self.cfg, oracle))

    def collect(self) -> tuple[dict, int]:
        item, optimum, traces = self.last
        return {item: (steps(traces), optimum)}, 0


class SuiteRun:
    """Two run_suite grids; set-up generates every instance of each spec and
    computes its cut table and exhaustive optimum."""

    items = 1
    n = max(SMALL_N)

    def __init__(self, lp, seed: int, work_dir: Path):
        base = lp.RunConfig(rounds=200, seed=seed * SEED_STRIDE)
        adaptive = lp.RunConfig(rounds=200, seed=seed * SEED_STRIDE, adaptive_dt=True)
        self.lp = lp
        self.specs = [
            lp.SuiteSpec(family="regular3", n_list=SMALL_N, instances_per_n=4, config=base),
            lp.SuiteSpec(family="erdos_renyi", n_list=SMALL_N, instances_per_n=4, config=adaptive, p=0.5),
        ]
        self.optima: dict[str, int] = {}
        self.expected_instances = sum(len(spec.n_list) * spec.instances_per_n for spec in self.specs)
        self.out = work_dir

    def setup(self, k: int) -> None:
        optima = {}
        for spec in self.specs:
            for graph_id, g in self.lp.experiments.suite_instances(spec):
                self.lp.build_maxcut(g, cap=spec.config.state_cap)
                optima[graph_id] = self.lp.brute_force_max_cut(g).optimum
        self.optima = optima

    def run(self, item: int) -> None:
        for spec in self.specs:
            self.lp.run_suite(spec, self.out / spec.family)

    def collect(self) -> tuple[dict, int]:
        instances = {}
        written = 0
        for spec in self.specs:
            folder = self.out / spec.family
            written += sum(entry.stat().st_size for entry in os.scandir(folder))
            for graph_id in self.optima:
                if graph_id.startswith(spec.family):
                    rows = self.lp.experiments.read_trace_csv(folder / f"{graph_id}.csv")
                    instances[graph_id] = ([csv_row(r) for r in rows], self.optima[graph_id])
        return instances, written


def make(name: str, lp, seed: int, work_dir: Path):
    if name == "large_qaoa":
        return LargeRun(lp, seed, "qaoa_feedback", n=16, rounds=100)
    if name == "large_lightcone":
        return LargeRun(lp, seed, "light_cone", n=16, rounds=40)
    if name == "small_suite":
        return SuiteRun(lp, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("large_qaoa", "large_lightcone", "small_suite")
