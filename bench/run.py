#!/usr/bin/env python3
"""Host-time benchmark of the convaccel simulator and cost model.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates seeded inputs under ``.bench_work/`` in the repository root, then
calls the public entry point ``convaccel.cli.main([...])`` in this process
as a closed loop with one caller for ``--seconds`` seconds.  Every
invocation is checked: exit code 0, and the sha256 of every tensor ``run``
writes, of ``report.txt``, of the sweep CSV and of the ``estimate`` and
``sweep`` reports equal to golden.json (default seed) or to the warm-up
pass (any other seed).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures half
the time untraced and half with wrappers around each module's public
functions (tracing.py); it reports the per-layer metrics, the tracing
overhead and a call-count self-check, and writes the spans of one pass to
``.bench_work/traces/``.  Times are host time, how long the simulator
takes; ``perf.pred_*`` are simulated statistics of the modelled
accelerator.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name and unit.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import os  # noqa: E402

# BLAS runs single-threaded.  On a 2-core host an idle OpenBLAS worker
# spin-waits after each call and slows the simulator's main thread by up to
# 3x at random; with one thread run and estimate times are unimodal.  Set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MAX_WRITTEN_SPANS = 100_000

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "engine.conv_exec.s": "invoke_p50_s on vgg16-conf6 and small-nets-conf1",
    "engine.conv_exec.calls": "invoke_p50_s on small-nets-conf1 (per-call overhead)",
    "engine.conv_exec.gmac_per_s": "invoke_p50_s on vgg16-conf6 (host rate per simulated MAC)",
    "engine.mpool_exec.s": "invoke_p50_s on small-nets-conf1",
    "engine.mpool_exec.calls": "invoke_p50_s on small-nets-conf1",
    "engine.exec_with_split.self_s": "invoke_p50_s on vgg16-conf6",
    "engine.exec_with_split.calls": "invoke_p50_s on vgg16-conf6",
    "engine.restreams": "invoke_p50_s on vgg16-conf6",
    "engine.plan_split.calls": "invoke_p50_s on design-sweep and the run workloads",
    "quant.rescale_block.s": "invoke_p50_s on vgg16-conf6 and small-nets-conf1",
    "quant.rescale_block.calls": "invoke_p50_s on vgg16-conf6 and small-nets-conf1",
    "tensors.load_bank.s": "invoke_p50_s and peak_rss_mb on vgg16-conf6",
    "tensors.load_bank.mb": "invoke_p50_s and peak_rss_mb on vgg16-conf6",
    "tensors.load_tensor.s": "invoke_p50_s on vgg16-conf6",
    "tensors.save_tensor.s": "invoke_p50_s on vgg16-conf6",
    "graph.parse_network.s": "estimate_p50_ms and setup_s on every workload",
    "graph.validate.s": "invoke_p50_s on design-sweep",
    "graph.validate.calls": "invoke_p50_s on design-sweep",
    "graph.run_network.self_s": "invoke_p50_s and peak_rss_mb on vgg16-conf6",
    "perf.network_perf.s": "invoke_p50_s and estimate_p50_ms on design-sweep",
    "perf.network_perf.calls": "invoke_p50_s and estimate_p50_ms on design-sweep",
    "perf.conv_cycles.calls": "invoke_p50_s and estimate_p50_ms on design-sweep",
    "dse.enumerate_points.self_s": "invoke_p50_s on design-sweep",
    "dse.pareto_front.s": "invoke_p50_s on design-sweep",
    "dse.points": "invoke_p50_s on design-sweep (work per sweep)",
    "dse.feasible_frac": "invoke_p50_s on design-sweep (work per sweep)",
    "dse.front_size": "invoke_p50_s on design-sweep (work per sweep)",
    "cli.main.self_s": "estimate_p50_ms on design-sweep",
    "perf.pred_total_cycles": "simulated: a speed-only change leaves it identical",
    "perf.pred_end_to_end_ms": "simulated: a speed-only change leaves it identical",
    "perf.pred_restreams": "simulated: a speed-only change leaves it identical",
    "perf.pred_mac_util": "simulated: a speed-only change leaves it identical",
    "trace.overhead_s": "traced minus untraced invoke_p50_s, in the same process",
    "trace.uncovered_s": "pass wall time that no span's self time accounts for",
}


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With n samples that is the sample of rank n - 10 in ascending order, at
    percentile 100 * (n - 10) / n.  Up to 20 samples no rank above the
    median qualifies, and the median is returned as the 50th percentile.
    """
    s = sorted(samples)
    n = len(s)
    k = n - 10
    if 2 * k <= n:
        return statistics.median(s), 50.0
    return s[k - 1], 100.0 * k / n


def environment():
    """nproc, numpy version and BLAS threads (capped at nproc)."""
    import ctypes

    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    blas = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None and blas is None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    blas = fn()
    except OSError:
        pass
    if blas is None:
        env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS", "")
        blas = int(env) if env.isdigit() else nproc
    return {
        "nproc": nproc,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_threads": min(blas, nproc),
    }


def load_golden(workload_name):
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(workload_name)
    except FileNotFoundError:
        return None


def write_golden(workload_name, reference):
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data["workloads"][workload_name] = reference
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(workload, cli, checker, seconds):
    """Closed loop, one caller: whole passes until ``seconds`` have elapsed.

    Returns the passes and the reference loop's times, one per invocation.
    """
    from workloads import run_pass

    passes, reference = [], []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(workload, cli, checker, reference))
        if time.perf_counter() >= deadline:
            return passes, reference


def host_scale(reference):
    """Factor that turns this run's times into times at the reference speed."""
    from workloads import REFERENCE_MS

    return REFERENCE_MS / (1e3 * statistics.median(reference))


def timings(passes, kind):
    return [sec for timed in passes for op, sec in timed if op.kind == kind]


def by_cell(passes, kind):
    """Invocation times of one kind, grouped by invocation label (cell)."""
    cells = {}
    for timed in passes:
        for op, sec in timed:
            if op.kind == kind:
                cells.setdefault(op.label, []).append(sec)
    return cells


def cell_median(passes, kind):
    """Median over invocations of one kind of each invocation's own median.

    A pass mixes invocations of very different cost (four networks under
    six configurations for estimate).  The median of the pooled samples
    then sits in the gap between two cost clusters, where it jumps with
    noise; the median of per-invocation medians does not.
    """
    return statistics.median(statistics.median(v) for v in by_cell(passes, kind).values())


def cell_tail(passes, kind):
    """(value, percentile, cells, samples per cell): median over cells of each cell's tail.

    The pooled tail of cells of different cost reads the most expensive
    cell's typical time, not a tail; and with thousands of samples it would
    be a percentile so high that a few host hiccups set it.
    """
    cells = list(by_cell(passes, kind).values())
    tails = [tail(v) for v in cells]
    n = min(len(v) for v in cells)
    return statistics.median(t[0] for t in tails), min(t[1] for t in tails), len(cells), n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help=f"store the warm-up pass digests in golden.json (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "convaccel")):
        print(f"error: no convaccel sources under {src}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden digests are recorded for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import convaccel.cli as cli

    import inputs
    import workloads

    if args.workload not in workloads.WHY:
        print(f"error: workload must be one of {', '.join(workloads.WHY)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads.build_workload(args.workload, args.seed, inputs.fresh_dir(work))
            gen_times.append(time.perf_counter() - start)
        return _bench(args, cli, workload, import_s, gen_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, cli, workload, import_s, gen_times):
    import workloads

    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED else None
    checker = workloads.Checker(None if args.write_golden else golden)
    start = time.perf_counter()
    workloads.run_pass(workload, cli, checker)  # warm-up: checked, not timed
    warmup_s = time.perf_counter() - start
    setup_s = import_s + statistics.median(gen_times) + warmup_s
    if args.write_golden:
        if checker.failed:
            print("\n".join(checker.errors), file=sys.stderr)
            return 1
        write_golden(args.workload, checker.reference)
    elif args.seed == DEFAULT_SEED and set(golden or ()) != {op.label for op in workload.ops}:
        checker.problem(f"{GOLDEN} has no digests for some of {args.workload}'s invocations")

    passes, reference = measure(
        workload, cli, checker, args.seconds / 2 if args.trace else args.seconds
    )

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(
        f"seed {args.seed}; {len(passes)} timed passes of {len(workload.ops)} invocations, "
        f"closed loop, one caller; setup_s = import {import_s:.3f} s + input generation "
        f"{statistics.median(gen_times):.3f} s (median of {SETUP_REPEATS}) + warm-up pass "
        f"{warmup_s:.3f} s"
    )
    untraced_p50 = cell_median(passes, workload.principal)
    if args.trace:
        metrics = _traced(args, workload, cli, checker, untraced_p50)
    else:
        metrics = _end_to_end(workload, passes, reference, setup_s, checker)

    print(
        f"ops_failed_frac {checker.failed_frac:.6f} ratio "
        f"({checker.failed} of {checker.attempted} invocations, warm-up included)"
    )
    for err in checker.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>18.6f} {unit}")
    result = {
        "correct": checker.ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _end_to_end(workload, passes, reference, setup_s, checker):
    import workloads

    principal = timings(passes, workload.principal)
    p50 = cell_median(passes, workload.principal)
    p_tail, pct = tail(principal)
    est_p50 = cell_median(passes, "estimate")
    est_tail, est_pct, est_cells, est_n = cell_tail(passes, "estimate")
    scale = host_scale(reference)
    print(
        f"invoke_tail_s is p{pct:.1f} of {len(principal)} '{workload.principal}' invocations; "
        f"estimate_tail_ms is the median over {est_cells} cells of each "
        f"cell's p{est_pct:.1f} of at least {est_n} 'estimate' invocations"
    )
    print(
        f"reference loop: median {1e3 * statistics.median(reference):.6f} ms over "
        f"{len(reference)} samples; times below are scaled by {scale:.6f} to "
        f"{workloads.REFERENCE_MS} ms per loop"
    )
    print(
        f"unscaled: invoke_p50_s {p50:.6f} s, invoke_tail_s {p_tail:.6f} s, "
        f"estimate_p50_ms {1e3 * est_p50:.6f} ms, estimate_tail_ms {1e3 * est_tail:.6f} ms, "
        f"setup_s {setup_s:.6f} s"
    )
    if workload.principal == "run":
        print(f"run_p50_s {scale * p50:.6f} s, run_tail_s {scale * p_tail:.6f} s")
    else:
        print(
            f"sweep_points_per_s {workloads.SWEEP_POINTS / (scale * p50):.3f} 1/s "
            f"({workloads.SWEEP_POINTS} points per sweep)"
        )
    mre = workloads.model_conv_mre_pct()
    quoted = workloads.readme_mre_pct()
    if quoted is None or round(mre, 1) != quoted:
        checker.problem(f"model_conv_mre_pct {mre:.3f} does not match README's {quoted}%")
    return {
        "invoke_p50_s": (scale * p50, "s"),
        "invoke_tail_s": (scale * p_tail, "s"),
        "estimate_p50_ms": (scale * 1e3 * est_p50, "ms"),
        "estimate_tail_ms": (scale * 1e3 * est_tail, "ms"),
        "setup_s": (scale * setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "model_conv_mre_pct": (mre, "%"),
    }


def _traced(args, workload, cli, checker, untraced_p50):
    import tracing
    import workloads
    from convaccel.graph import parse_network

    expected = workloads.expected_calls(workload)
    tracer = tracing.Tracer()
    tracer.install()
    sites = tracer.sites()
    try:
        passes, _ = measure(workload, cli, checker, args.seconds / 2)
    finally:
        tracer.uninstall()
    span_passes = tracing.split_passes(tracer.take(), len(workload.ops))
    summaries = [tracing.summarize(p) for p in span_passes]
    traced_p50 = cell_median(passes, workload.principal)

    def inclusive(name):
        return statistics.median(s.get(name, (0.0, 0.0, 0))[0] for s in summaries)

    def own(name):
        return statistics.median(s.get(name, (0.0, 0.0, 0))[1] for s in summaries)

    def calls(name):
        if name in tracer.counts:
            return tracer.counts[name] / len(passes)
        return summaries[0].get(name, (0, 0, 0))[2]

    first = span_passes[0]
    macs = 0
    if workload.principal == "run":
        macs = sum(parse_network(net_file).mac_count() for net_file, _ in workload.cells)
    bank_bytes = sum(os.path.getsize(s.tag) for s in first if s.name == "tensors.load_bank")
    conv_s = inclusive("engine.conv_exec")
    points = feasible = front = 0
    if workload.principal == "sweep":
        points, feasible, front = workloads.sweep_counts(workload.ops[-1].files[0])
    walls = [sum(sec for _, sec in timed) for timed in passes]
    uncovered = statistics.median(
        wall - sum(v[1] for v in s.values()) for wall, s in zip(walls, summaries)
    )
    metrics = {
        "engine.conv_exec.s": (conv_s, "s"),
        "engine.conv_exec.calls": (calls("engine.conv_exec"), "count"),
        "engine.conv_exec.gmac_per_s": (macs / conv_s / 1e9 if conv_s else 0.0, "GMAC/s"),
        "engine.mpool_exec.s": (inclusive("engine.mpool_exec"), "s"),
        "engine.mpool_exec.calls": (calls("engine.mpool_exec"), "count"),
        "engine.exec_with_split.self_s": (own("engine.exec_with_split"), "s"),
        "engine.exec_with_split.calls": (calls("engine.exec_with_split"), "count"),
        "engine.restreams": (tracing.split_restreams(first), "count"),
        "engine.plan_split.calls": (calls("engine.plan_split"), "count"),
        "quant.rescale_block.s": (inclusive("quant.rescale_block"), "s"),
        "quant.rescale_block.calls": (calls("quant.rescale_block"), "count"),
        "tensors.load_bank.s": (inclusive("tensors.load_bank"), "s"),
        "tensors.load_bank.mb": (bank_bytes / 1e6, "MB"),
        "tensors.load_tensor.s": (inclusive("tensors.load_tensor"), "s"),
        "tensors.save_tensor.s": (inclusive("tensors.save_tensor"), "s"),
        "graph.parse_network.s": (inclusive("graph.parse_network"), "s"),
        "graph.validate.s": (inclusive("graph.validate"), "s"),
        "graph.validate.calls": (calls("graph.validate"), "count"),
        "graph.run_network.self_s": (own("graph.run_network"), "s"),
        "perf.network_perf.s": (inclusive("perf.network_perf"), "s"),
        "perf.network_perf.calls": (calls("perf.network_perf"), "count"),
        "perf.conv_cycles.calls": (calls("perf.conv_cycles"), "count"),
        "dse.enumerate_points.self_s": (own("dse.enumerate_points"), "s"),
        "dse.pareto_front.s": (inclusive("dse.pareto_front"), "s"),
        "dse.points": (points, "count"),
        "dse.feasible_frac": (feasible / points if points else 0.0, "ratio"),
        "dse.front_size": (front, "count"),
        "cli.main.self_s": (own("cli.main"), "s"),
        **workloads.simulated_stats(workload.cells),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.uncovered_s": (uncovered, "s"),
    }

    for name, where in sorted(sites.items()):
        print(f"wrapped {name} at {', '.join(where)}")
    for name, want in expected.items():
        got = calls(name)
        if got != want:
            checker.problem(f"self-check: {name} called {got} times per pass, model says {want}")
        print(f"self-check {name}: {got} calls per pass, model says {want}")
    wall = statistics.median(walls)
    print(f"traced {len(span_passes)} passes; median pass wall {wall:.6f} s; self time by layer:")
    for name in sorted(summaries[0], key=own, reverse=True):
        print(f"  {name:<28} {own(name):>12.6f} s {100 * own(name) / wall:7.2f}%")
    print(
        f"  uncovered remainder {uncovered:.6f} s; tracing overhead "
        f"{traced_p50 - untraced_p50:+.6f} s on invoke_p50_s "
        f"(untraced {untraced_p50:.6f} s, traced {traced_p50:.6f} s)"
    )
    for name in metrics:
        print(f"  {name} moves {MOVES[name]}")
    _write_trace(args, first, sites, metrics)
    return metrics


def _write_trace(args, spans, sites, metrics):
    """Write one traced pass: its spans and the engine time per layer shape."""
    per_shape = {}
    for s in spans:
        if s.name in ("engine.conv_exec", "engine.mpool_exec"):
            entry = per_shape.setdefault(f"{s.name} {s.tag}", {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += s.end - s.start
    t0 = spans[0].start
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "sites": sites,
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
        "per_shape": dict(sorted(per_shape.items())),
        "spans_truncated": len(spans) > MAX_WRITTEN_SPANS,
        "spans": [
            [s.name, s.start - t0, s.end - t0, s.parent, None if s.tag is None else str(s.tag)]
            for s in spans[:MAX_WRITTEN_SPANS]
        ],
    }
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
