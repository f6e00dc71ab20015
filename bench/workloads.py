"""The benchmark's workloads, how one invocation is run, and its correctness check.

A workload is a fixed list of CLI invocations (a pass) over inputs
generated from the seed.  Each invocation goes through the program's
public entry point, ``convaccel.cli.main([...])``, in this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import math
import os
import re
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

import inputs
from convaccel.config import CONFIG_KEYS, AccelConfig, load_config
from convaccel.engine import plan_split
from convaccel.graph import parse_network, validate
from convaccel.perf import network_perf

# vgg16 runs at a 64x64 input so that one invocation takes seconds, not tens
# of seconds: all 13 layers, bank shapes, split plans and pools stay as
# shipped, and the FC banks shrink with the graph's shape inference.
VGG_INPUT = 64

# 720 design points over all four networks.  The weight budget axis varies
# split planning; the DSP and power limits make part of the grid infeasible.
SWEEP_AXES = {
    "FREQ": (100, 150, 200, 250, 300),
    "ICP": (8, 16, 32),
    "OCP": (4, 8, 16),
    "APACK": (8, 16),
    "PPACK": (8, 16),
    "CHOUTxFILTERxFILTERxCHIN_MAX": (73728, 147456, 294912, 589824),
    "PE_DSP": ("ocp",),
}
SWEEP_CONSTRAINTS = {"max_dsp": 200, "max_power_w": 4.0}
SWEEP_POINTS = math.prod(len(v) for v in SWEEP_AXES.values())

# Rounds of the estimate invocations per pass: each (network, config) cell
# is estimated this many times, so that every cell has enough samples in a
# run for its own median and tail.  Four rounds cost ~5% of a vgg16-conf6
# pass and ~20% of a design-sweep pass.
ESTIMATE_ROUNDS = 4

# Host-speed reference.  On a shared host the speed of this process drifts
# from one minute to the next, by up to a third between the medians of two
# runs, and a run cannot average that out.
# The benchmark times a fixed pure-Python loop after every invocation; the
# end-to-end times are scaled by REFERENCE_MS / (median loop time of the
# run), so they read as times on a host where the loop takes REFERENCE_MS
# (about its median on the 2-core 2.1 GHz Xeon VM the benchmark was
# defined on).
REFERENCE_LOOPS = 12_000
REFERENCE_MS = 1.0

WHY = {
    "vgg16-conf6": "run of vgg16 (64x64 input) under conf6: large GEMMs, split-merge in 8 of "
    "13 layers (53 conv calls), the biggest banks and host FCs; bypasses dse",
    "small-nets-conf1": "run of squeezenet, zynqnet and peleenet under conf1: 166 small layers "
    "at the smallest tiles, so per-call overhead, not arithmetic, dominates",
    "design-sweep": "the 24 reference estimate cells plus one 720-point sweep over all four "
    "networks: perf, validate and dse only; bypasses engine, quant and tensors",
}


@dataclass
class Op:
    """One CLI invocation; its outputs are digested after it returns."""

    label: str
    kind: str  # run | estimate | sweep
    argv: list
    files: tuple = ()  # output files to digest
    out_dir: str = ""  # every file written here is digested
    digest_stdout: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    cells: list  # (network file, config file) pairs run, or estimated on design-sweep
    principal: str  # the op kind invoke_p50_s times


def _estimate(name, net_file, cfg):
    argv = ["estimate", "--net", net_file, "--config", inputs.config_path(cfg)]
    return Op(f"estimate:{name}/{cfg}", "estimate", argv, digest_stdout=True)


def _run(name, net_file, cfg, input_file, work):
    # The last convolution's map is written too, so the digests cover the
    # accelerated layers and not only the host softmax.
    last_conv = [n.id for n in parse_network(net_file).nodes if n.kind == "conv"][-1]
    out_dir = os.path.join(work, f"out_{name}")
    argv = ["run", "--net", net_file, "--config", inputs.config_path(cfg), "--input"]
    argv += [input_file, "--out-dir", out_dir, "--emit", last_conv]
    # run's stdout names the output directory, so only its files are digested.
    return Op(f"run:{name}/{cfg}", "run", argv, out_dir=out_dir)


def build_workload(name, seed, work) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``work``."""
    rng = np.random.default_rng(seed)
    if name == "design-sweep":
        pairs = [(n, c) for n in inputs.NETS for c in inputs.CONFIGS]
        rounds = range(ESTIMATE_ROUNDS)
        ops = [_estimate(n, inputs.net_path(n), c) for _ in rounds for n, c in pairs]
        cells = [(inputs.net_path(n), inputs.config_path(c)) for n, c in pairs]
        sweep_file = inputs.write_sweep(rng, work, SWEEP_AXES, SWEEP_CONSTRAINTS)
        csv_file = os.path.join(work, "sweep.csv")
        argv = ["sweep", "--sweep", sweep_file, "--csv", csv_file]
        ops.append(Op("sweep:grid", "sweep", argv, files=(csv_file,), digest_stdout=True))
        return Workload(name, ops, cells, "sweep")
    if name == "vgg16-conf6":
        nets, cfg, hw = ("vgg16",), "conf6", VGG_INPUT
    elif name == "small-nets-conf1":
        nets, cfg, hw = ("squeezenet_v11", "zynqnet", "peleenet"), "conf1", None
    else:
        raise ValueError(f"unknown workload {name!r}")
    ops, cells = [], []
    for net in nets:
        net_file, input_file = inputs.write_network(net, rng, work, input_hw=hw)
        # Estimate under every reference configuration, then run under one.
        ops += [_estimate(net, net_file, c) for _ in range(ESTIMATE_ROUNDS) for c in inputs.CONFIGS]
        ops.append(_run(net, net_file, cfg, input_file, work))
        cells.append((net_file, inputs.config_path(cfg)))
    return Workload(name, ops, cells, "run")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def invoke(op, cli):
    """Run one CLI invocation; return (seconds, exit code, digests, stderr text)."""
    for path in op.files:
        if os.path.exists(path):
            os.remove(path)
    if op.out_dir:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception:  # counted as a failed invocation; the loop goes on
            rc = -1
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    digests = {}
    if op.digest_stdout:
        digests["stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    for path in op.files:
        if os.path.exists(path):
            digests[os.path.basename(path)] = _sha256(path)
    if op.out_dir and os.path.isdir(op.out_dir):
        for fname in sorted(os.listdir(op.out_dir)):
            digests[fname] = _sha256(os.path.join(op.out_dir, fname))
    return seconds, rc, digests, err.getvalue()


class Checker:
    """Counts attempted and failed invocations against reference digests.

    An invocation fails on a non-zero exit code or on any digest that
    differs from the reference.  Labels missing from ``reference`` take
    their first invocation's digests as the reference.
    """

    def __init__(self, reference=None):
        self.reference = dict(reference or {})
        self.attempted = 0
        self.failed = 0
        self.ok = True  # False once a check other than an invocation's fails
        self.errors = []

    def check(self, op, rc, digests, stderr=""):
        self.attempted += 1
        want = self.reference.setdefault(op.label, digests)
        problem = None
        if rc != 0:
            problem = f"exit code {rc}: {stderr.strip()[-500:]}"
        elif digests != want:
            bad = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
            problem = f"digest mismatch in {', '.join(bad)}"
        if problem:
            self.failed += 1
            self._note(f"{op.label}: {problem}")
        return problem is None

    def problem(self, message):
        """Record a failed check that is not an invocation's."""
        self.ok = False
        self._note(message)

    def _note(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def reference_work():
    """A fixed pure-Python loop, none of it the program's code."""
    s = 0
    for i in range(REFERENCE_LOOPS):
        s += i * i % 7
    return s


def reference_seconds():
    """Wall time of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_pass(workload, cli, checker, reference=None):
    """One pass over the workload's invocations, each checked: [(op, seconds)].

    If ``reference`` is a list, the reference loop is timed after each
    invocation, outside its timing, and appended to it.
    """
    timed = []
    for op in workload.ops:
        seconds, rc, digests, stderr = invoke(op, cli)
        checker.check(op, rc, digests, stderr)
        timed.append((op, seconds))
        if reference is not None:
            reference.append(reference_seconds())
    return timed


# ---------------------------------------------------------------------------
# Simulated statistics and model quality, computed with the program's API.
# ---------------------------------------------------------------------------


def simulated_stats(cells):
    """Predicted cycles, latency, restreams and MAC utilization summed over the cells."""
    cycles = ms = restreams = macs = slots = 0
    for net_file, cfg_file in cells:
        net, cfg = parse_network(net_file), load_config(cfg_file)
        report = network_perf(net, cfg)
        cell_cycles = sum(lp.cycles.total_cycles for lp in report.layers)
        cycles += cell_cycles
        ms += report.end_to_end_ms
        restreams += sum(lp.cycles.restreams for lp in report.layers)
        macs += net.mac_count()
        slots += cell_cycles * cfg.icp * cfg.ocp
    return {
        "perf.pred_total_cycles": (cycles, "cycles"),
        "perf.pred_end_to_end_ms": (ms, "ms"),
        "perf.pred_restreams": (restreams, "count"),
        "perf.pred_mac_util": (macs / slots, "ratio"),
    }


def model_conv_mre_pct():
    """Mean relative error (%) of predicted conv latency over the 24 measured cells.

    The measured references are scripts/fit_calibration.py's tables, loaded
    without running its main(), which would rewrite the shipped calibration.
    The calibration was fitted on these same cells: the error is in-sample.
    """
    spec = importlib.util.spec_from_file_location(
        "fit_calibration", os.path.join(inputs.REPO, "scripts", "fit_calibration.py")
    )
    fit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fit)
    errs = []
    for net_name in fit.NETS:
        net = parse_network(inputs.net_path(net_name))
        for i, cfg_name in enumerate(fit.CONFIGS):
            measured = fit.CONV_MS[net_name][i]
            predicted = network_perf(net, load_config(inputs.config_path(cfg_name))).conv_ms
            errs.append(abs(predicted - measured) / measured)
    return 100.0 * sum(errs) / len(errs)


def readme_mre_pct():
    """The conv-latency error README.md quotes for the fit, or None."""
    with open(os.path.join(inputs.REPO, "README.md"), encoding="utf-8") as fh:
        m = re.search(r"Achieved fit: ([0-9.]+)% mean relative error", fh.read())
    return float(m.group(1)) if m else None


def sweep_counts(csv_file):
    """(points, feasible, on the front) read from a sweep CSV."""
    with open(csv_file, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    fi, pi = header.index("feasible"), header.index("pareto")
    return len(rows), sum(r[fi] == "1" for r in rows), sum(r[pi] == "1" for r in rows)


def _grid_configs():
    """AccelConfig per sweep point, None where the parameters are invalid."""
    base = load_config(inputs.config_path("conf1")).param_values()
    for combo in itertools.product(*SWEEP_AXES.values()):
        fields = dict(base, **dict(zip(SWEEP_AXES, combo)))
        if fields["PE_DSP"] == "ocp":
            fields["PE_DSP"] = fields["OCP"]
        try:
            yield AccelConfig(**{attr: fields[key] for key, attr in CONFIG_KEYS.items()})
        except ValueError:
            yield None


def expected_calls(workload):
    """Calls per pass of the traced functions, derived from the model.

    The traced run compares these with the wrappers' counts, so a wrapper
    missing at some import site fails loudly.  Call before installing the
    wrappers.
    """
    exp = {"cli.main": len(workload.ops)}
    estimates = sum(op.kind == "estimate" for op in workload.ops)
    if workload.principal == "run":
        conv = groups = pooled = banks = 0
        for net_file, cfg_file in workload.cells:
            net, cfg = parse_network(net_file), load_config(cfg_file)
            for node, sn in zip(net.topo_order(), net.shaped_nodes()):
                banks += node.params is not None
                if sn.spec is None:
                    continue
                bank_geom = (sn.spec.co, sn.spec.filter, sn.spec.filter, sn.in_geom[2])
                n = plan_split(bank_geom, cfg).restreams
                conv += 1
                groups += n
                pooled += n if sn.spec.pool else 0
        exp.update(
            {
                "graph.run_network": len(workload.cells),
                "engine.exec_with_split": conv,
                "engine.conv_exec": groups,
                "quant.rescale_block": groups,
                "engine.mpool_exec": pooled,
                "tensors.load_bank": banks,
            }
        )
    else:
        nets = [parse_network(inputs.net_path(n)) for n in inputs.NETS]
        valid = legal = 0
        for cfg in _grid_configs():
            if cfg is not None:
                valid += 1
                legal += sum(validate(net, cfg).ok for net in nets)
        exp.update(
            {
                "dse.enumerate_points": 1,
                "dse.pareto_front": 1,
                "graph.validate": estimates + valid * len(nets),
                "perf.network_perf": estimates + legal,
            }
        )
    return exp
