"""Regression pins for the shipped workload networks and configurations."""

import glob
import hashlib
import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT
from convaccel import load_calibration, load_config, network_perf, parse_network, validate
from convaccel.config import DEFAULT_CALIBRATION, AccelConfig, Calibration
from convaccel.config import save_calibration, save_config
from convaccel.cli import EXIT_OK, main

NET_MACS_M = {
    # million multiply-accumulates of the accelerated layers; the workload
    # models track the published architectures (zynqnet is a reconstruction
    # from aggregate statistics, see README)
    "squeezenet_v11": 352.5,
    "zynqnet": 452.6,
    "peleenet": 519.9,
    "vgg16": 15346.6,
}

# Per network, per conf1..conf6: summed layer total cycles, summed
# restreams, layers that validate splits, and end_to_end_ms exactly (the
# float pins the per-layer division and summation order too).
PINNED_PERF = {
    "squeezenet_v11": (
        (4490098, 27, 1, 46.548679456),
        (2742198, 27, 1, 29.069679456000003),
        (2566104, 27, 1, 27.308739456000005),
        (2065012, 27, 1, 22.297819456),
        (2065012, 27, 1, 11.972759456),
        (2065012, 27, 1, 8.531072789333333),
    ),
    "zynqnet": (
        (6164900, 29, 2, 64.330372672),
        (3917604, 29, 2, 41.85741267200001),
        (3566466, 29, 2, 38.34603267199999),
        (2912322, 29, 2, 31.804592672000005),
        (2912322, 29, 2, 17.242982672000004),
        (2912322, 29, 2, 12.389112672),
    ),
    "peleenet": (
        (7227540, 115, 1, 76.82488531199998),
        (5013230, 115, 1, 54.68178531199995),
        (4723336, 115, 1, 51.78284531199995),
        (3905722, 115, 1, 43.60670531200002),
        (3905722, 115, 1, 24.078095312000006),
        (3905722, 115, 1, 17.568558645333326),
    ),
    "vgg16": (
        (127816184, 53, 8, 1448.2831376640002),
        (66400760, 53, 8, 834.1288976640001),
        (64921316, 53, 8, 819.334457664),
        (35116772, 53, 8, 521.2890176640001),
        (35116772, 53, 8, 345.705157664),
        (35116772, 53, 8, 287.17720433066665),
    ),
}


def _nets():
    return sorted(glob.glob(os.path.join(DATA_DIR, "networks", "*.net")))


def _cfgs():
    return sorted(glob.glob(os.path.join(DATA_DIR, "configs", "*.cfg")))


def test_shipped_files_present():
    assert len(_nets()) == 4
    assert len(_cfgs()) == 6


@pytest.mark.parametrize("path", _nets())
def test_networks_parse_and_pin_mac_totals(path):
    net = parse_network(path)
    assert net.mac_count() / 1e6 == pytest.approx(NET_MACS_M[net.name], abs=0.05)


@pytest.mark.parametrize("net_path", _nets())
@pytest.mark.parametrize("cfg_path", _cfgs())
def test_every_network_legal_under_every_config(net_path, cfg_path):
    report = validate(parse_network(net_path), load_config(cfg_path))
    assert report.ok, str(report)


@pytest.mark.parametrize("path", _nets())
def test_pinned_cycles_restreams_and_verdicts(path):
    net = parse_network(path)
    got = []
    for cfg_path in _cfgs():
        cfg = load_config(cfg_path)
        report, legality = network_perf(net, cfg), validate(net, cfg)
        assert [r.groups for r in legality.rows] == [l.cycles.restreams for l in report.layers]
        got.append(
            (
                sum(l.cycles.total_cycles for l in report.layers),
                sum(l.cycles.restreams for l in report.layers),
                sum(r.verdict == "split" for r in legality.rows),
                report.end_to_end_ms,
            )
        )
    assert tuple(got) == PINNED_PERF[net.name]


def test_config_walk_matches_tuning_path():
    cfgs = [load_config(p) for p in _cfgs()]
    assert [c.freq_mhz for c in cfgs] == [100, 100, 100, 100, 200, 300]
    assert [c.icp for c in cfgs] == [16, 16, 16, 32, 32, 32]
    assert [c.ocp for c in cfgs] == [8, 16, 16, 16, 16, 16]
    assert [c.apack for c in cfgs] == [8, 8, 16, 16, 16, 16]
    assert all(c.pe_dsp == c.ocp for c in cfgs)
    # shared buffer budgets across the walk
    assert len({c.chout_x_filter_x_filter_x_chin_max for c in cfgs}) == 1


@pytest.mark.parametrize("path", _nets())
def test_network_files_roundtrip(path, tmp_path):
    from convaccel.graph import save_network

    net = parse_network(path)
    out = tmp_path / "again.net"
    save_network(net, str(out))
    again = parse_network(str(out))
    assert again.name == net.name
    assert again.input_geom == net.input_geom
    assert again.nodes == net.nodes
    assert [sn.out_geom for sn in again.shaped_nodes()] == [
        sn.out_geom for sn in net.shaped_nodes()
    ]


# sha256 of save_network's bytes and of repr(shaped_nodes()) per network,
# recorded from the node-object parser that the column parser replaced.
# "peleenet_shuffled" is peleenet.net with its node lines shuffled, which
# takes the topological sort rather than declaration order.
PINNED_GRAPH_DIGESTS = {
    "peleenet": ("db87933d43ca46d93e63f4408d0dc1011a3ff0c94bd6538c2ececb2763a3ef0e",
                 "68d179b5cff844155f0f653b9445a1b4c5863bcf567285d3fac946fd6c11ae66"),
    "squeezenet_v11": ("dacfdcf3812c9166dcf69f365f5f47e30e250a36494b51449094e4f603effcd6",
                       "f9133e004e2bb25d81f31d7469b4c9116b38831f6b7b00f3e2184ab71641f220"),
    "vgg16": ("6f71640fc54dbb4d3bb3caa0da8efe1d39b54399f347a9e1a720ce5f6b061e92",
              "6f2f7b74949b3690da3eb1bb92eb6f41ccd77a7bc83afa24f180fd122ad219ff"),
    "zynqnet": ("befb5beb1b81c99928b635b9ffcbbcbfc90b13771486667444024f2cb8968f14",
                "d20f2529cfa80cd30887c1778b243cdb2d08a3e9d5d1b47749702d9001a234f9"),
    "peleenet_shuffled": ("1a22762b9a1a9e1873ad7a19b8e18fa6aceca2778761fdeb3f809b36be41d15e",
                          "0d47e6ad3a0f7bd700a0d049b40ee1f9edf8fcd56412bee116c901f915d2745c"),
}


@pytest.mark.parametrize("name", list(PINNED_GRAPH_DIGESTS))
def test_graph_digests_pinned(tmp_path, name):
    import random

    from convaccel.graph import save_network

    path = os.path.join(DATA_DIR, "networks", f"{name.removesuffix('_shuffled')}.net")
    if name.endswith("_shuffled"):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        nodes = [line for line in lines if line.startswith("node ")]
        random.Random(14).shuffle(nodes)
        path = tmp_path / "shuffled.net"
        header = [line for line in lines if not line.startswith("node ")]
        path.write_text("\n".join(header + nodes) + "\n")
    net = parse_network(str(path))
    save_network(net, str(tmp_path / "out.net"))
    digests = (
        hashlib.sha256((tmp_path / "out.net").read_bytes()).hexdigest(),
        hashlib.sha256(repr(net.shaped_nodes()).encode()).hexdigest(),
    )
    assert digests == PINNED_GRAPH_DIGESTS[name]


def test_shipped_calibration_matches_package_default():
    calib = load_calibration(os.path.join(DATA_DIR, "calibration", "default.cal"))
    assert calib == DEFAULT_CALIBRATION


def test_text_writers_pin_bytes(tmp_path):
    # Canonical key order, NAME first when set, floats in %g form.
    cfg = AccelConfig(150.5, 8, 16, 32, 16, 12, 3, 4096, 1152, 147456, 256, 7168, 256, "pin")
    save_config(cfg, tmp_path / "p.cfg")
    assert (tmp_path / "p.cfg").read_bytes() == (
        b"NAME=pin\nFREQ=150.5\nAPACK=8\nPPACK=16\nICP=32\nOCP=16\nPE_DSP=12\n"
        b"FILTER_MAX=3\nWINxCHIN_PAD_MAX=4096\nFILTERxFILTERxCHIN_MAX=1152\n"
        b"CHOUTxFILTERxFILTERxCHIN_MAX=147456\nCHOUT_MAX=256\nPWINxPCH_MAX=7168\nPCH_MAX=256\n"
    )
    assert load_config(tmp_path / "p.cfg") == cfg
    calib = Calibration(3, 400, 5, 6, 1.25, 0.5, 2.0)
    save_calibration(calib, tmp_path / "p.cal")
    assert (tmp_path / "p.cal").read_bytes() == (
        b"k_pipe=3\nk_layer=400\nk_pool=5\nc_dsp=6\np0_w=1.25\n"
        b"power_slope_w_per_100mhz=0.5\nhost_ns_per_unit=2\n"
    )
    assert load_calibration(tmp_path / "p.cal") == calib


# sha256 of `convaccel sweep` stdout and of its --csv file, per shipped sweep.
PINNED_SWEEPS = {
    "reference_points": (
        "e968429365e43acc0169b7b20a9eb6b7601499d6221bd9ae0957454f6ade7fa2",
        "297e9934437fb091acc063a197aa6d88082b7557a3675d5d109164f8da25b4e4",
    ),
    "parallelism_grid": (
        "d1f60b6239bc82a11377d0e68728005b09a29f186487cb4b0f113b18dc513990",
        "4a7a04eb6fca62fcc8d6553f53b04c365389a21ac9f445b0d6649657d9c9bf8c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_shipped_sweeps_pin_bytes(tmp_path, capsys, name):
    csv_path = tmp_path / "points.csv"
    sweep = os.path.join(DATA_DIR, "sweeps", f"{name}.sw")
    assert main(["sweep", "--sweep", sweep, "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    digests = (hashlib.sha256(out).hexdigest(), hashlib.sha256(csv_path.read_bytes()).hexdigest())
    assert digests == PINNED_SWEEPS[name]


def test_reference_points_script_runs():
    script = os.path.join(REPO_ROOT, "scripts", "sweep_reference_points.py")
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "5 of 6 points on the Pareto front" in proc.stdout


def test_calibration_script_rewrites_the_shipped_fit(tmp_path):
    """fit_calibration.py, run on a copy of scripts/ and data/, writes default.cal
    byte for byte and prints the conv error README quotes."""
    import re
    import shutil

    for name in ("scripts", "data"):
        shutil.copytree(os.path.join(REPO_ROOT, name), tmp_path / name)
    os.symlink(os.path.join(REPO_ROOT, "src"), tmp_path / "src")
    written = tmp_path / "data" / "calibration" / "default.cal"
    written.unlink()
    script = tmp_path / "scripts" / "fit_calibration.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(DATA_DIR, "calibration", "default.cal"), "rb") as fh:
        assert written.read_bytes() == fh.read()
    mre = re.search(r"overall conv mean relative error: ([0-9.]+)%", proc.stdout).group(1)
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        quoted = re.search(r"Achieved fit: ([0-9.]+)% mean relative error", fh.read()).group(1)
    assert mre == "14.519"
    assert round(float(mre), 1) == float(quoted)


def test_network_script_rewrites_the_shipped_networks(tmp_path):
    """build_networks.py, run on a copy of scripts/, writes every data/networks/*.net
    byte for byte, and the node-line pattern reads each node line it writes."""
    import shutil

    from convaccel import graph

    shutil.copytree(os.path.join(REPO_ROOT, "scripts"), tmp_path / "scripts")
    os.symlink(os.path.join(REPO_ROOT, "src"), tmp_path / "src")
    script = tmp_path / "scripts" / "build_networks.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    shipped = sorted(glob.glob(os.path.join(DATA_DIR, "networks", "*.net")))
    written = sorted(glob.glob(str(tmp_path / "data" / "networks" / "*.net")))
    assert list(map(os.path.basename, written)) == list(map(os.path.basename, shipped))
    for ours, theirs in zip(written, shipped):
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            text = a.read()
            assert text == b.read()
        nodes = [line for line in text.decode().splitlines() if line.startswith("node ")]
        assert nodes and all(map(graph._NODE_LINE, nodes)), ours
