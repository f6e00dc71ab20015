"""Tests of the benchmark's own machinery: python -m pytest bench"""

import hashlib
import os

import numpy as np
import pytest

import convaccel.cli as cli
import convaccel.engine
import convaccel.graph
import inputs
import tracing
import workloads
from run import cell_median, cell_tail, host_scale, tail
from tracing import Span, self_times, split_passes, split_restreams, summarize


# --- the percentile rule ---------------------------------------------------


@pytest.mark.parametrize(
    "n, value, pct",
    [
        (1000, 990, 99.0),  # 10 samples above rank 990
        (100, 90, 90.0),
        (40, 30, 75.0),
        (21, 11, 100 * 11 / 21),
        (20, 10.5, 50.0),  # rank 10 of 20 is the median rank: the median
        (19, 10, 50.0),  # too few samples: the median
        (6, 3.5, 50.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, pct):
    samples = list(range(n, 0, -1))  # 1..n, unsorted
    got, got_pct = tail(samples)
    assert got == value
    assert got_pct == pytest.approx(pct)
    if got_pct > 50:
        assert sum(s > got for s in samples) == 10


def test_cell_statistics_take_the_median_over_cells():
    ops = [workloads.Op(f"estimate:{c}", "estimate", []) for c in "abc"]
    cost = {"estimate:a": 1.0, "estimate:b": 2.0, "estimate:c": 30.0}
    # 40 passes; in each cell the i-th pass adds i / 100 to the cell's cost.
    passes = [[(op, cost[op.label] + i / 100) for op in ops] for i in range(40)]
    assert cell_median(passes, "estimate") == pytest.approx(2.195)
    value, pct, cells, n = cell_tail(passes, "estimate")
    assert (pct, cells, n) == (75.0, 3, 40)
    assert value == pytest.approx(2.29)  # cell b's rank 30 of 40


def test_host_scale_maps_the_reference_median_to_reference_ms():
    reference = [0.004, 0.002, 0.003, 0.0025, 0.009]  # median 3 ms
    assert host_scale(reference) == pytest.approx(workloads.REFERENCE_MS / 3.0)


# --- self time on synthetic nested spans --------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        Span("c", 9.5, 11.0, 0),  # sticks out of root: only [9.5, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 1.0, 3.0, 1.5])


def test_passes_split_at_roots_and_self_times_partition_the_wall():
    spans = [
        Span("cli.main", 0.0, 4.0, -1),
        Span("engine.exec_with_split", 0.5, 3.5, 0),
        Span("engine.conv_exec", 1.0, 2.0, 1),
        Span("engine.conv_exec", 2.0, 3.0, 1),
        Span("cli.main", 4.0, 5.0, -1),
        Span("engine.exec_with_split", 4.2, 4.8, 4),
        Span("engine.conv_exec", 4.3, 4.7, 5),
    ]
    one, two = split_passes(spans, 1)
    assert [s.parent for s in two] == [-1, 0, 1]
    agg = summarize(one)
    assert agg["engine.conv_exec"] == pytest.approx([2.0, 2.0, 2])
    assert agg["engine.exec_with_split"] == pytest.approx([3.0, 1.0, 1])
    assert sum(v[1] for v in agg.values()) == pytest.approx(4.0)
    assert split_restreams(one) == 2  # two groups of one split layer
    assert split_restreams(two) == 0  # one unsplit layer


# --- failure counting ---------------------------------------------------------


def test_wrong_golden_digest_counts_as_failure():
    op = workloads._estimate("squeezenet_v11", inputs.net_path("squeezenet_v11"), "conf1")
    seconds, rc, digests, _ = workloads.invoke(op, cli)
    assert rc == 0 and seconds > 0

    good = workloads.Checker({op.label: digests})
    assert good.check(op, rc, digests)
    bad = workloads.Checker({op.label: {"stdout": "0" * 64}})
    assert not bad.check(op, rc, digests)
    assert not bad.check(op, rc, digests)
    assert (bad.attempted, bad.failed, bad.failed_frac) == (2, 2, 1.0)
    assert bad.ok  # invocation failures are counted, not flagged separately


def test_nonzero_exit_counts_as_failure():
    argv = ["estimate", "--net", "nope.net", "--config", "nope.cfg"]
    missing = workloads.Op("estimate:x", "estimate", argv, digest_stdout=True)
    seconds, rc, digests, stderr = workloads.invoke(missing, cli)
    assert rc == 4 and "nope.net" in stderr
    checker = workloads.Checker()
    assert not checker.check(missing, rc, digests, stderr)
    assert checker.failed == 1 and "exit code 4" in checker.errors[0]


def test_run_pass_times_the_reference_after_each_invocation():
    op = workloads._estimate("squeezenet_v11", inputs.net_path("squeezenet_v11"), "conf1")
    workload = workloads.Workload("w", [op, op], [], "estimate")
    reference = []
    timed = workloads.run_pass(workload, cli, workloads.Checker(), reference)
    assert len(timed) == len(reference) == 2
    assert all(sec > 0 for sec in reference)


# --- generator determinism ----------------------------------------------------


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_same_seed_gives_the_same_bytes(tmp_path):
    digests = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        work = inputs.fresh_dir(str(tmp_path / sub))
        rng = np.random.default_rng(seed)
        inputs.write_network("squeezenet_v11", rng, work)
        inputs.write_sweep(rng, work, workloads.SWEEP_AXES, workloads.SWEEP_CONSTRAINTS)
        digests.append(_tree_digest(work))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_generated_banks_match_the_graph_and_run(tmp_path):
    work = inputs.fresh_dir(str(tmp_path / "w"))
    net_file, input_file = inputs.write_network("vgg16", np.random.default_rng(0), work, 32)
    net = convaccel.graph.parse_network(net_file)
    assert net.input_geom == (32, 32, 3)
    fc6 = convaccel.tensors.load_bank(os.path.join(work, "params/vgg16/fc6.qfb"))
    assert fc6.geom == (4096, 1, 1, 512)  # 32 -> 1x1x512 after five pools
    conv = convaccel.tensors.load_bank(os.path.join(work, "params/vgg16/conv1_1.qfb"))
    assert (conv.weight_frac_bits, conv.bias_frac_bits) == (7, 7)
    rc = cli.main(["run", "--net", net_file, "--config", inputs.config_path("conf6"),
                   "--input", input_file, "--out-dir", str(tmp_path / "out")])
    assert rc == 0


# --- wrappers ---------------------------------------------------------------------


def test_install_wraps_every_import_site_and_uninstall_restores():
    original = convaccel.engine.exec_with_split
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert convaccel.graph.exec_with_split is not original
        assert convaccel.graph.exec_with_split is convaccel.engine.exec_with_split
        assert "convaccel.graph.plan_split" in tracer.sites()["engine.plan_split"]
    finally:
        tracer.uninstall()
    assert convaccel.graph.exec_with_split is original
    assert convaccel.engine.exec_with_split is original
