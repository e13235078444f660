"""lyapcut benchmark: one workload per process, timed from outside the package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload large_qaoa --seed 1 --seconds 35 --trace 0

With --trace 0 the last stdout line holds the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, measured on
traced repetitions that alternate with untraced ones. Earlier lines hold the
run metadata. Spans and the full per-function table go to
.perfbench/<workload>/. The exit code is nonzero when a correctness check
fails or the package cannot be imported from ./src.

BLAS runs on one thread, and glibc's allocator keeps freed blocks on the
heap (see pin_allocator). With two BLAS threads on a two-core machine, an
n=20 round used more CPU time than wall time, and it slowed by 10% while
another process kept one core busy.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Must be set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import checks
import tracer
import workloads

# glibc mallopt parameters, and the values pin_allocator() sets.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20
# Set-up repeats until both minimums are met; setup_s is the median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
# Per-round and per-call figures in the ROADMAP baseline table (n=20, seed=1),
# and the rounds of the traced n=20 run that is reported beside them.
RECONCILE_ROUNDS = 2
ROADMAP_N20 = {"rx_row_s": 0.25, "feedback_sum_x_s": 0.33, "hf_expectation_s": 0.007}


def pin_allocator() -> bool:
    """Serve every block under 32 MiB from the heap and never trim it.

    By default glibc moves its mmap threshold up as large blocks are freed,
    so whether the 1 MiB temporaries of an n=16 kernel come back as fresh
    mmap pages, one page fault per 4 KiB, or as reused heap depends on the
    allocation history. With the default the light-cone workload took 170k
    or 400k minor faults depending on the seed alone, and its repetitions
    moved by 20% when the mode flipped in mid-run. Returns False where libc
    has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    return bool(mmap_set and trim_set)


def import_package(root: Path):
    """Import lyapcut from the checkout's src/, never from an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import lyapcut
    except ImportError as exc:
        raise SystemExit(f"cannot import lyapcut from {src}: {exc}")
    if not Path(lyapcut.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"lyapcut was imported from {lyapcut.__file__}, not from {src}")
    return lyapcut


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def cache_sizes() -> dict[str, int]:
    """Unified or data cache size in bytes per level, from sysfs."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = read_text(f"{index}/type").strip()
        size = read_text(f"{index}/size").strip()
        if kind in ("Data", "Unified") and size.endswith("K"):
            sizes[f"L{read_text(f'{index}/level').strip()}"] = int(size[:-1]) * 1024
    return sizes


def blas_threads():
    """OpenBLAS thread count of the library numpy loaded, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: Path) -> str:
    head = read_text(str(root / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return read_text(str(root / ".git" / head[5:])).strip() or "unknown"
    return head or "unknown: the checkout is not a git repository"


def machine_info(root: Path, n: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((int(line.split()[1]) * 1024 for line in read_text("/proc/meminfo").splitlines()
                if line.startswith("MemTotal:")), None)
    caches = cache_sizes()
    state = 16 << n
    l3 = caches.get("L3")
    if l3 is not None and state <= l3:
        note = (f"the n={n} state ({state / 2**20:g} MiB) does not exceed L3 ({l3 / 2**20:g} MiB): GB/s figures are "
                "computed bytes over kernel time, not DRAM bandwidth")
    else:
        note = f"the n={n} state ({state} bytes) exceeds L3 or L3 is unknown; GB/s figures are computed bytes"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_bytes": caches,
        "ram_bytes": mem,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "state_bytes": state,
        "state_vs_cache": {level: state / size for level, size in caches.items()},
        "state_note": note,
    }


def current_rss() -> int:
    """Resident set size of this process in bytes."""
    return int(read_text("/proc/self/statm").split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def median(values):
    return statistics.median(values) if values else 0.0


def run_loop(workload, seconds: float, traced: bool, trace) -> dict:
    """Repeat the workload's main calls for about `seconds` seconds.

    Repetitions cycle over the workload's inputs. Traced runs alternate
    untraced and traced repetitions; the ratio of their median walls is the
    tracing overhead. The loop stops before a repetition that would overrun,
    once every input has run. Each distinct instance is gated the first time
    it runs and only its final step is kept, so no repetition's traces stay
    alive into the next one and raise the peak RSS.
    """
    reps = []
    finals = {}
    attempted = failed = 0
    rss_before = current_rss()
    peak_first = None
    begin = perf_counter()
    min_reps = max(workload.items, 2 if traced else 1)
    while True:
        r = len(reps)
        spans = traced and r % 2 == 1
        trace.unit = r
        if spans:
            trace.install()
        t0 = perf_counter()
        workload.run(r % workload.items)
        wall = perf_counter() - t0
        if spans:
            trace.uninstall()
        instances, written = workload.collect()
        for key, (rows, optimum) in instances.items():
            if key not in finals and rows:
                a, f = checks.gate(rows, optimum)
                attempted += a
                failed += f
                finals[key] = rows[-1]
        reps.append({"traced": spans, "wall": wall, "bytes_written": written,
                     "rounds": sum(len(rows) for rows, _ in instances.values())})
        del instances
        if peak_first is None:
            peak_first = peak_rss()
        elapsed = perf_counter() - begin
        if len(reps) >= min_reps and elapsed + median([x["wall"] for x in reps]) > seconds:
            break
    # A missing instance is one failed check.
    attempted += workload.expected_instances
    failed += max(workload.expected_instances - len(finals), 0)
    return {"reps": reps, "finals": list(finals.values()), "attempted": attempted, "failed": failed,
            "rss_before": rss_before, "peak_first": peak_first}


def end_to_end(loop, setup_times, attempted, failed) -> dict:
    """The end-to-end metrics of an untraced run; timings are medians."""
    plain = [x for x in loop["reps"] if not x["traced"]]
    finals = loop["finals"]
    return {
        "wall_s": median([x["wall"] for x in plain]),
        "rounds_per_s": median([x["rounds"] / x["wall"] for x in plain]),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss() / 2**20,
        "certified_ratio": statistics.fmean(r["two_param_lb"] for r in finals) if finals else 0.0,
        "achieved_ratio": statistics.fmean(r["true_ratio"] for r in finals) if finals else 0.0,
        "checks_passed_share": 1.0 - failed / attempted,
    }


def per_layer(workload, loop, setup_times, trace) -> dict:
    """Per-layer metrics for one pass (one set-up plus one repetition), each
    the median over the traced set-ups and repetitions."""
    names = trace.names
    table = tracer.per_unit_table(trace.arrays(), names)
    setup_rows = table["units"] < 0
    traced = [x for x in loop["reps"] if x["traced"]]
    plain = [x for x in loop["reps"] if not x["traced"]]
    rep_rows = np.isin(table["units"], [i for i, x in enumerate(loop["reps"]) if x["traced"]])

    def per_pass(arr):
        total = np.zeros(arr.shape[1])
        for rows in (setup_rows, rep_rows):
            if rows.any():
                total += np.median(arr[rows], axis=0)
        return total

    calls = per_pass(table["calls"])
    self_s = per_pass(table["self_s"])
    metrics = {}
    for i, name in enumerate(names):
        metrics[f"{name}.calls"] = float(calls[i])
        metrics[f"{name}.self_s"] = float(self_s[i])
    for layer in tracer.LAYERS:
        idx = [i for i, name in enumerate(names) if name.startswith(layer + ".")]
        if idx:
            metrics[f"{layer}.self_s"] = float(self_s[idx].sum())

    def loop_total(arr, name):
        return float(arr[rep_rows, names.index(name)].sum()) if name in names else None

    sv = [i for i, name in enumerate(names) if name.startswith("statevector.")]
    rounds = sum(x["rounds"] for x in traced)
    # A kernel call reads and writes the state once: 2 x its first argument's bytes.
    sv_bytes = 2 * table["top_bytes"][rep_rows][:, sv].sum(axis=1)
    sv_time = table["top_incl"][rep_rows][:, sv].sum()
    metrics["statevector.bytes_computed"] = float(np.median(sv_bytes)) if len(sv_bytes) else 0.0
    metrics["statevector.gbps_computed"] = float(sv_bytes.sum() / sv_time / 1e9) if sv_time > 0 else 0.0
    metrics["statevector.rss_over_state"] = (loop["peak_first"] - loop["rss_before"]) / (16 << workload.n)
    rx = loop_total(table["self_s"], "statevector.apply_rx")
    if rx is not None and rounds:
        metrics["statevector.apply_rx.per_round_s"] = rx / rounds
    for name in ("statevector.feedback_observable", "statevector.expectation_diagonal"):
        n_calls = loop_total(table["calls"], name)
        if n_calls:
            metrics[f"{name}.per_call_s"] = loop_total(table["incl_s"], name) / n_calls
    for counter in ("one_param_clamps", "two_param_clamps", "freezes"):
        metrics[f"certificates.{counter}"] = median([trace.counters[(i, counter)]
                                                     for i, x in enumerate(loop["reps"]) if x["traced"]])
    metrics["dynamics.rounds"] = median([x["rounds"] for x in traced])
    metrics["experiments.bytes_written"] = median([x["bytes_written"] for x in traced])
    traced_wall = median([x["wall"] for x in traced])
    metrics["bench.trace_overhead_share"] = traced_wall / median([x["wall"] for x in plain]) - 1.0
    # Set-ups are always traced, so a pass's traced wall is one of each.
    metrics["bench.traced_wall_s"] = median(setup_times) + traced_wall
    metrics["bench.layer_self_share"] = float(self_s.sum()) / metrics["bench.traced_wall_s"]

    return metrics


def reconcile_n20(lp, seed: int) -> dict:
    """Per-round RX row, per-call feedback and per-call <H_f> times of a
    traced n=20 qaoa_feedback run, next to the ROADMAP baseline table.

    This is metadata only: the large workloads run at n=16, where timings
    depend far less on what the host's other tenants do to the shared L3.
    """
    g = lp.gen_random_regular(20, 3, seed=seed)
    h = lp.build_maxcut(g)
    probe = tracer.Tracer()
    probe.install()
    try:
        rounds = len(lp.run_qaoa_feedback(g, h, lp.RunConfig(ansatz="qaoa_feedback", rounds=RECONCILE_ROUNDS)))
    finally:
        probe.uninstall()
    names = probe.names
    table = tracer.per_unit_table(probe.arrays(), names)

    def total(key, name):
        return float(table[key][:, names.index(name)].sum()) if name in names else None

    def per_call(name):
        calls = total("calls", name)
        return total("incl_s", name) / calls if calls else None

    rx = total("self_s", "statevector.apply_rx")
    return {
        "n": 20,
        "rounds": rounds,
        "rx_row_s": rx / rounds if rx is not None and rounds else None,
        "feedback_observable_per_call_s": per_call("statevector.feedback_observable"),
        "expectation_diagonal_per_call_s": per_call("statevector.expectation_diagonal"),
        "roadmap_n20": ROADMAP_N20,
        "note": (f"one traced run of {rounds} rounds, not a median; n=20 timings move by up to 1.8x "
                 "with the host's load, so the benchmark stands behind its n=16 medians, and the ROADMAP "
                 "table's single runs varied by 30-50%"),
    }


def select(measured: dict, declared: list) -> tuple[dict, list]:
    """Keep the declared metrics, with their units; report the missing ones as absent."""
    out, absent = {}, []
    for entry in declared:
        if entry["name"] in measured:
            out[entry["name"]] = {"value": measured[entry["name"]], "unit": entry["unit"]}
        else:
            absent.append(entry["name"])
    return out, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    allocator_pinned = pin_allocator()
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    lp = import_package(root)
    out_dir = root / ".perfbench" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    dense_attempted, dense_failed, dense_err = checks.dense_spot_check(lp, lp.gen_random_regular(8, 3, seed=args.seed))

    trace = tracer.Tracer()
    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        workload = workloads.make(args.workload, lp, args.seed, Path(work_dir))
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            k = len(setup_times)
            trace.unit = -1 - k
            if args.trace:
                trace.install()
            t0 = perf_counter()
            workload.setup(k)
            setup_times.append(perf_counter() - t0)
            if args.trace:
                trace.uninstall()
        loop = run_loop(workload, args.seconds, bool(args.trace), trace)

    attempted = loop["attempted"] + dense_attempted
    failed = loop["failed"] + dense_failed
    plain = [x for x in loop["reps"] if not x["traced"]]
    meta = machine_info(root, workload.n)
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"setup_s": len(setup_times), "untraced_reps": len(plain),
                    "traced_reps": len(loop["reps"]) - len(plain), "instances_gated": len(loop["finals"])},
        "rep_walls_s": [x["wall"] for x in loop["reps"]],
        "dense_check": {"checks": dense_attempted, "failed": dense_failed, "worst_abs_error": dense_err},
        "allocator_pinned": allocator_pinned,
        "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
    })
    if args.trace:
        measured = per_layer(workload, loop, setup_times, trace)
        metrics, absent = select(measured, declared["per_layer"])
        if args.workload == "large_qaoa":
            meta["reconcile"] = reconcile_n20(lp, args.seed)
        trace.save(out_dir / "spans.npz")
        (out_dir / "layers.json").write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")
    else:
        measured = end_to_end(loop, setup_times, attempted, failed)
        metrics, absent = select(measured, declared["end_to_end"])
    meta["absent_metrics"] = absent
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
