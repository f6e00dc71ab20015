"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected resource/latency/power values are frozen from the measured
reference implementations; functional criteria check the engine against
the naive oracles in reference.py at zero tolerance.
"""

import io
import os
import random
import time

import numpy as np

from conftest import (
    DATA_DIR,
    random_bank,
    random_scheme,
    random_tensor,
    seeded,
    wide_open_config,
)
from convaccel import (
    DfpScheme,
    FTensor3,
    LayerSpec,
    PoolSpec,
    accel_exec,
    choose_frac_bits,
    dequantize,
    estimate_resources,
    exec_with_split,
    load_calibration,
    load_config,
    network_perf,
    parse_network,
    quantize,
    reshape_first_layer,
)
from convaccel.config import DEFAULT_CALIBRATION, save_config
from convaccel.dse import DesignPoint, enumerate_points, load_sweep, pareto_front, write_csv
from convaccel.engine import conv_out_dims, plan_split
from convaccel.graph import ConvNode, NetworkGraph, save_network
from convaccel.quant import FRAC_MAX, FRAC_MIN
from convaccel.tensors import save_bank, save_tensor
from reference import layer_ref, pareto_ref

CONFIG_NAMES = ("conf1", "conf2", "conf3", "conf4", "conf5", "conf6")
NET_NAMES = ("squeezenet_v11", "zynqnet", "peleenet", "vgg16")


def _report(criterion, ok, message):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion}: {message}"


def _geometry_combos():
    combos = []
    for f, p in ((1, 0), (3, 0), (3, 1)):
        for s in (1, 2):
            for relu in (False, True):
                for pool in (None, 2, 3):
                    combos.append((f, s, p, relu, pool))
    return combos  # 36 combinations


def _sample_instance(rng, combo, max_hw, max_ch):
    f, s, p, relu, pool_w = combo
    pool = PoolSpec(pool_w) if pool_w else None
    while True:
        h, x = rng.randint(1, max_hw), rng.randint(1, max_hw)
        ci, co = rng.randint(1, max_ch), rng.randint(1, max_ch)
        if h + 2 * p < f or x + 2 * p < f:
            continue
        ho = (h + 2 * p - f) // s + 1
        wo = (x + 2 * p - f) // s + 1
        if pool and (ho < pool.window or wo < pool.window):
            continue
        scheme = random_scheme(rng)
        spec = LayerSpec(f, s, p, co, relu, pool, scheme)
        ia = random_tensor(rng, h, x, ci, frac=scheme.input_frac)
        bank = random_bank(rng, co, f, ci, wf=scheme.weight_frac, bf=scheme.bias_frac)
        return ia, bank, spec


def test_criterion_1_functional_bit_exactness():
    rng = seeded(1001)
    combos = _geometry_combos()
    start = time.monotonic()
    checked = 0
    n_instances = 1000
    for i in range(n_instances):
        combo = combos[i % len(combos)]
        roll = rng.random()
        if roll < 0.88:
            max_hw, max_ch = 9, 10
        elif roll < 0.99:
            max_hw, max_ch = 13, 24
        else:
            max_hw, max_ch = 16, 64
        ia, bank, spec = _sample_instance(rng, combo, max_hw, max_ch)
        got = accel_exec(ia, bank, spec)
        want = layer_ref(ia, bank, spec)
        assert list(got.values) == want, f"instance {i} ({combo}) diverged"
        checked += 1
    # one deliberately maximal instance at the size bounds
    scheme = random_scheme(rng)
    spec = LayerSpec(3, 1, 1, 64, True, PoolSpec(3), scheme)
    ia = random_tensor(rng, 16, 16, 64, frac=scheme.input_frac)
    bank = random_bank(rng, 64, 3, 64, wf=scheme.weight_frac, bf=scheme.bias_frac)
    assert list(accel_exec(ia, bank, spec).values) == layer_ref(ia, bank, spec)
    checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        elapsed < 60.0,
        f"{checked} randomized instances bit-exact vs naive oracle in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_split_merge_invariance():
    rng = seeded(1002)
    checked = 0
    for _ in range(200):
        while True:
            h, x = rng.randint(2, 9), rng.randint(2, 9)
            ci = rng.randint(1, 12)
            f = rng.choice((1, 3))
            p = rng.choice((0, 1)) if f == 3 else 0
            s = rng.choice((1, 2))
            if h + 2 * p >= f and x + 2 * p >= f:
                break
        n_groups = rng.randint(2, 8)
        group = rng.randint(1, 8)
        co = group * n_groups - rng.randint(0, group - 1) if group > 1 else n_groups
        scheme = random_scheme(rng)
        spec = LayerSpec(f, s, p, co, rng.random() < 0.5, None, scheme)
        ia = random_tensor(rng, h, x, ci, frac=scheme.input_frac)
        bank = random_bank(rng, co, f, ci, wf=scheme.weight_frac, bf=scheme.bias_frac)
        cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=group * f * f * ci)
        plan = plan_split(bank.geom, cfg)
        assert 2 <= plan.restreams <= 8, (co, group, plan.groups)
        assert exec_with_split(ia, bank, spec, cfg) == accel_exec(ia, bank, spec)
        checked += 1
    _report(2, True, f"{checked} split layers (2-8 groups) equal unsplit runs bit-exactly")


def test_criterion_3_reshape_equivalence():
    rng = seeded(1003)
    checked = 0
    for _ in range(100):
        f = rng.choice((1, 3))
        p = rng.choice((0, 1)) if f == 3 else 0
        h = rng.randint(max(f, 2), 12)
        x = rng.randint(max(f, 2), 12)
        ci = rng.randint(1, 8)
        co = rng.randint(1, 12)
        scheme = random_scheme(rng)
        pool = None
        spec = LayerSpec(f, 2, p, co, rng.random() < 0.5, pool, scheme)
        ho, wo = conv_out_dims(h, x, spec)
        if rng.random() < 0.3 and ho >= 3 and wo >= 3:
            spec = LayerSpec(f, 2, p, co, spec.relu, PoolSpec(rng.choice((2, 3))), scheme)
        transform = reshape_first_layer(spec, (h, x, ci), icp=32)
        assert transform is not None
        ia = random_tensor(rng, h, x, ci, frac=scheme.input_frac)
        bank = random_bank(rng, co, f, ci, wf=scheme.weight_frac, bf=scheme.bias_frac)
        assert transform.run(ia, bank) == accel_exec(ia, bank, spec), "reshape diverged"
        assert transform.mac_count_original() == transform.mac_count_reshaped()
        checked += 1
    _report(3, True, f"{checked} stride-2 first layers reshape bit-exactly, MAC counts equal")


def test_criterion_4_resource_regression():
    calib = load_calibration(os.path.join(DATA_DIR, "calibration", "default.cal"))
    dsp_ok = True
    for icp, ocp, want in ((16, 8, 74), (16, 16, 138), (32, 16, 266)):
        cfg = wide_open_config(icp=icp, ocp=ocp, pe_dsp=ocp)
        got = estimate_resources(cfg, calib).dsp
        dsp_ok = dsp_ok and got == want
    power_ok = True
    deltas = []
    for freq, want in ((100.0, 2.710), (200.0, 3.506), (300.0, 4.259)):
        got = estimate_resources(wide_open_config(freq_mhz=freq), calib).power_w
        deltas.append(abs(got - want))
        power_ok = power_ok and abs(got - want) <= 0.15
    _report(
        4,
        dsp_ok and power_ok,
        f"DSP exact at 74/138/266; power within +-0.15 W (max err {max(deltas):.3f} W)",
    )


def _load_reference_workload():
    nets = {
        name: parse_network(os.path.join(DATA_DIR, "networks", f"{name}.net"))
        for name in NET_NAMES
    }
    cfgs = {
        name: load_config(os.path.join(DATA_DIR, "configs", f"{name}.cfg"))
        for name in CONFIG_NAMES
    }
    return nets, cfgs


def test_criterion_5_latency_calibration():
    nets, cfgs = _load_reference_workload()
    calib = load_calibration(os.path.join(DATA_DIR, "calibration", "default.cal"))
    assert calib == DEFAULT_CALIBRATION, "shipped calibration drifted from the defaults"

    reports = {
        (n, c): network_perf(nets[n], cfgs[c], calib) for n in NET_NAMES for c in CONFIG_NAMES
    }

    vgg6 = reports[("vgg16", "conf6")].conv_ms
    window_ok = 100.7 <= vgg6 <= 1.4 * 126.52

    ordering_ok = True
    for n in NET_NAMES:
        conv_row = [reports[(n, c)].conv_ms for c in CONFIG_NAMES]
        total_row = [reports[(n, c)].end_to_end_ms for c in CONFIG_NAMES]
        ordering_ok = ordering_ok and all(a > b for a, b in zip(conv_row, conv_row[1:]))
        ordering_ok = ordering_ok and all(a > b for a, b in zip(total_row, total_row[1:]))

    bound_ok = True
    for n in NET_NAMES:
        macs = nets[n].mac_count()
        for c in CONFIG_NAMES:
            cfg = cfgs[c]
            floor_ms = macs / (cfg.icp * cfg.ocp) / (cfg.freq_mhz * 1000.0)
            bound_ok = bound_ok and reports[(n, c)].conv_ms >= floor_ms

    _report(
        5,
        window_ok and ordering_ok and bound_ok,
        f"vgg16/conf6 conv {vgg6:.3f} ms in [100.7, 177.13]; all 8 latency rows strictly "
        f"decreasing; every prediction above its MAC-rate floor",
    )


def _float_conv(x, w4, biases, stride, pad, relu):
    h, xx, ci = x.shape
    co, f, _, _ = w4.shape
    if pad:
        padded = np.zeros((h + 2 * pad, xx + 2 * pad, ci))
        padded[pad : pad + h, pad : pad + xx] = x
    else:
        padded = x
    ho = (h + 2 * pad - f) // stride + 1
    wo = (xx + 2 * pad - f) // stride + 1
    out = np.zeros((ho, wo, co))
    for fy in range(f):
        for fx in range(f):
            window = padded[fy : fy + stride * ho : stride, fx : fx + stride * wo : stride]
            out += np.tensordot(window, w4[:, fy, fx, :], axes=([2], [1]))
    out += biases
    if relu:
        out = np.maximum(out, 0.0)
    return out


def _float_pool(x, window):
    h, xx, c = x.shape
    ho, wo = (h - window) // 2 + 1, (xx - window) // 2 + 1
    out = np.zeros((ho, wo, c))
    for yo in range(ho):
        for xo in range(wo):
            out[yo, xo] = x[yo * 2 : yo * 2 + window, xo * 2 : xo * 2 + window].max(axis=(0, 1))
    return out


def _clamp_frac(f):
    return max(FRAC_MIN, min(FRAC_MAX, f))


def test_criterion_6_quantization_error_bounds():
    rng = np.random.default_rng(1006)
    # elementwise round-trip bound over 1e6 values across many scales
    worst = 0.0
    for _ in range(100):
        scale = float(rng.uniform(0.05, 50.0))
        data = rng.uniform(-scale, scale, size=10000)
        f = choose_frac_bits(data)
        t = FTensor3(100, 100, 1, data)
        err = np.abs(dequantize(quantize(t, f)).values - data)
        worst = max(worst, float((err * 2.0 ** (f + 1)).max()))
        assert (err <= 2.0 ** (-f - 1) + 1e-12).all()
    bound_ok = worst <= 1.0 + 1e-9

    # three-layer network: quantized pipeline vs float reference
    prng = seeded(1006)
    x = rng.uniform(-1.0, 1.0, size=(8, 8, 4))
    plan = [
        dict(f=3, s=1, p=1, co=6, relu=True, pool=None),
        dict(f=1, s=1, p=0, co=8, relu=True, pool=None),
        dict(f=3, s=1, p=0, co=5, relu=False, pool=2),
    ]
    fi = _clamp_frac(choose_frac_bits(x))
    q = quantize(FTensor3(8, 8, 4, x.reshape(-1)), fi)
    x_float = x
    last_fo = fi
    for layer in plan:
        ci = x_float.shape[2]
        w = rng.uniform(-0.7, 0.7, size=(layer["co"], layer["f"], layer["f"], ci))
        b = rng.uniform(-0.4, 0.4, size=layer["co"])
        fp = _clamp_frac(choose_frac_bits(w))
        fb = _clamp_frac(choose_frac_bits(b))
        ref = _float_conv(x_float, w, b, layer["s"], layer["p"], layer["relu"])
        if layer["pool"]:
            ref = _float_pool(ref, layer["pool"])
        fo = _clamp_frac(choose_frac_bits(ref))
        scheme = DfpScheme(last_fo, fp, fb, fo)
        wq = np.clip(np.round(w * 2.0**fp), -128, 127).astype(np.int8)
        bq = np.clip(np.round(b * 2.0**fb), -128, 127).astype(np.int8)
        from convaccel import QFilterBank

        bank = QFilterBank(
            layer["co"], layer["f"], layer["f"], ci, wq.reshape(-1), bq, fp, fb
        )
        spec = LayerSpec(
            layer["f"],
            layer["s"],
            layer["p"],
            layer["co"],
            layer["relu"],
            PoolSpec(layer["pool"]) if layer["pool"] else None,
            scheme,
        )
        q = accel_exec(q, bank, spec)
        x_float = ref
        last_fo = fo
    final = dequantize(q).values.reshape(q.height, q.width, q.channels)
    steps = np.abs(final - x_float) * 2.0**last_fo
    net_ok = float(steps.max()) <= 3.0
    _report(
        6,
        bound_ok and net_ok,
        f"round-trip error <= half step on 1e6 values; 3-layer quantized-vs-float "
        f"divergence {steps.max():.2f} steps (<= 3)",
    )


def test_criterion_7_dse_correctness():
    rng = seeded(1007)
    objectives = ("latency", "dsp", "power")
    pts = []
    for i in range(1000):
        metrics = {
            "latency": round(rng.uniform(1, 500), 3),
            "dsp": rng.randint(10, 400),
            "power": round(rng.uniform(1.0, 6.0), 3),
            "bram": rng.randint(1 << 10, 1 << 20),
        }
        pts.append(DesignPoint({"FREQ": float(i)}, metrics, True))
    front = pareto_front(pts, objectives)
    want = pareto_ref([tuple(p.metrics[o] for o in objectives) for p in pts])
    got = {pts.index(p) for p in front}
    front_ok = got == want

    spec = load_sweep(os.path.join(DATA_DIR, "sweeps", "reference_points.sw"))
    points = enumerate_points(spec)
    buf = io.StringIO()
    write_csv(points, spec, buf)
    rows = buf.getvalue().strip().splitlines()
    dsp_col = rows[0].split(",").index("dsp")
    dsp_values = [r.split(",")[dsp_col] for r in rows[1:]]
    csv_ok = dsp_values == ["74", "138", "138", "266", "266", "266"]
    _report(
        7,
        front_ok and csv_ok,
        f"Pareto front equals brute-force filter on 1000 points; reference sweep DSP "
        f"column reads {'/'.join(dsp_values)}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    from convaccel.cli import main

    rng = seeded(1008)
    scheme = DfpScheme(4, 5, 5, 4)
    spec = LayerSpec(3, 1, 1, 6, True, PoolSpec(2), scheme)
    ia = random_tensor(rng, 8, 8, 3, frac=4)
    bank = random_bank(rng, 6, 3, 3, wf=5, bf=5)
    save_bank(bank, tmp_path / "c.qfb")
    net = NetworkGraph(
        "det",
        (8, 8, 3),
        4,
        [ConvNode("c", 3, 1, 1, 6, True, PoolSpec(2), 4, 5, 5, "c.qfb", ("input",))],
        str(tmp_path),
    )
    net_path = str(tmp_path / "net.net")
    save_network(net, net_path)
    cfg_path = str(tmp_path / "cfg.cfg")
    save_config(wide_open_config(), cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")

    run_bytes = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        rc = main(
            [
                "run",
                "--net",
                net_path,
                "--config",
                cfg_path,
                "--input",
                str(tmp_path / "in.qt3"),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        run_bytes.append(
            (out_dir / "report.txt").read_bytes() + (out_dir / "c.qt3").read_bytes()
        )
    run_ok = run_bytes[0] == run_bytes[1]

    sweep_path = os.path.join(DATA_DIR, "sweeps", "reference_points.sw")
    csvs = []
    for sub in ("s1.csv", "s2.csv"):
        rc = main(["sweep", "--sweep", sweep_path, "--csv", str(tmp_path / sub)])
        assert rc == 0
        csvs.append((tmp_path / sub).read_bytes())
    sweep_ok = csvs[0] == csvs[1]

    net_file = os.path.join(DATA_DIR, "networks", "squeezenet_v11.net")
    cfg_file = os.path.join(DATA_DIR, "configs", "conf3.cfg")
    import contextlib

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["estimate", "--net", net_file, "--config", cfg_file]) == 0
        outs.append(buf.getvalue())
    estimate_ok = outs[0] == outs[1]

    _report(
        8,
        run_ok and sweep_ok and estimate_ok,
        "run/estimate/sweep outputs byte-identical across repeated invocations",
    )
