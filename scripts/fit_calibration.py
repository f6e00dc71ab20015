#!/usr/bin/env python3
"""Fit the cost-model calibration constants against measured references.

The targets are the measured latency/power/DSP numbers of the six shipped
accelerator configurations running the four workload networks on the
reference board.  Procedure:

  * k_pipe, k_layer: grid search minimizing the mean relative error over
    the 24 convolution-latency cells (4 networks x 6 configurations).
  * host_ns_per_unit: minimizes mean relative error of the per-network
    host time (end-to-end minus convolution, averaged over configs).
  * p0_w: least squares on the three frequency points of the power trend
    (0.8 W per 100 MHz slope kept as measured).
  * c_dsp: exact from the DSP cells (74/138/266 minus the PE array).

Writes data/calibration/default.cal and prints the per-cell table.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from convaccel.config import Calibration, load_config, save_calibration
from convaccel.graph import parse_network
from convaccel.perf import network_perf

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "data")

NETS = ("squeezenet_v11", "zynqnet", "peleenet", "vgg16")
CONFIGS = ("conf1", "conf2", "conf3", "conf4", "conf5", "conf6")

# Measured references: per-network convolution latency and end-to-end
# latency (ms) on the six shipped configurations, board power (W), and
# DSP usage of the three distinct (ICP, OCP) pairs.
CONV_MS = {
    "squeezenet_v11": (41.541, 26.856, 24.831, 22.096, 14.280, 12.529),
    "zynqnet": (53.566, 34.136, 32.530, 30.327, 20.689, 18.702),
    "peleenet": (62.769, 49.768, 47.217, 45.725, 30.179, 28.071),
    "vgg16": (1251.248, 651.600, 648.315, 347.787, 179.896, 126.520),
}
TOTAL_MS = {
    "squeezenet_v11": (47.517, 32.840, 30.814, 28.119, 20.330, 18.557),
    "zynqnet": (62.690, 43.238, 41.619, 39.533, 29.906, 27.932),
    "peleenet": (75.123, 62.037, 59.516, 58.153, 42.678, 40.511),
    "vgg16": (1421.337, 821.675, 818.449, 517.957, 349.941, 296.807),
}
POWER_W = (2.418, 2.463, 2.481, 2.710, 3.506, 4.259)
DSP = {(16, 8): 74, (16, 16): 138, (32, 16): 266}

K_PIPE_GRID = np.arange(0, 121)
K_LAYER_GRID = np.arange(0, 30001, 200)


def layer_terms(net, cfg):
    """Per-layer (base_compute, windows, transfer, pool, post) cycle terms."""
    zero = Calibration(k_pipe=0, k_layer=0, k_pool=0)
    one = Calibration(k_pipe=1, k_layer=0, k_pool=0)
    rows = []
    rep0 = network_perf(net, cfg, zero)
    rep1 = network_perf(net, cfg, one)
    # table() rows: (node_id, compute, transfer_in, param, writeback, pool, ...).
    for row0, row1 in zip(rep0.table(), rep1.table()):
        _, compute, transfer_in, param, writeback, pool, *_ = row0
        rows.append((compute, row1[1] - compute, transfer_in, pool, param + writeback))
    return np.array(rows, dtype=np.float64)


def predict_ms(terms, k_pipe, k_layer, freq_mhz):
    """Vectorized layer-total model over candidate constant grids."""
    base, win, tin, pool, post = terms.T
    compute = base[None, :] + np.multiply.outer(k_pipe, win) + k_layer
    overlapped = np.maximum(compute, np.maximum(tin, pool)[None, :])
    cycles = (overlapped + post[None, :]).sum(axis=1)
    return cycles / (freq_mhz * 1000.0)


def main():
    nets = {n: parse_network(os.path.join(DATA, "networks", f"{n}.net")) for n in NETS}
    cfgs = {c: load_config(os.path.join(DATA, "configs", f"{c}.cfg")) for c in CONFIGS}

    # --- k_pipe / k_layer over the 24 conv cells -------------------------
    combos = [(kp, kl) for kp in K_PIPE_GRID for kl in K_LAYER_GRID]
    kp_flat = np.array([c[0] for c in combos], dtype=np.float64)
    kl_flat = np.array([c[1] for c in combos], dtype=np.float64)
    rel_err = np.zeros(len(combos))
    for net_name in NETS:
        for ci, cfg_name in enumerate(CONFIGS):
            cfg = cfgs[cfg_name]
            terms = layer_terms(nets[net_name], cfg)
            pred = predict_ms(terms, kp_flat, kl_flat[:, None], cfg.freq_mhz)
            target = CONV_MS[net_name][ci]
            rel_err += np.abs(pred - target) / target
    rel_err /= len(NETS) * len(CONFIGS)
    best = int(np.argmin(rel_err))
    k_pipe, k_layer = int(kp_flat[best]), int(kl_flat[best])
    conv_mre = float(rel_err[best])

    # --- host cost --------------------------------------------------------
    unit_counts = {n: sum(units for _, _, units in net.host_nodes) for n, net in nets.items()}
    host_targets = {
        n: float(np.mean([t - c for t, c in zip(TOTAL_MS[n], CONV_MS[n])])) for n in NETS
    }
    candidates = sorted(host_targets[n] * 1e6 / unit_counts[n] for n in NETS)
    best_c, best_err = None, None
    for c in candidates:
        err = float(
            np.mean(
                [
                    abs(c * unit_counts[n] / 1e6 - host_targets[n]) / host_targets[n]
                    for n in NETS
                ]
            )
        )
        if best_err is None or err < best_err:
            best_c, best_err = c, err
    host_ns = round(best_c, 3)

    # --- power and dsp ------------------------------------------------------
    p0 = round(float(np.mean([POWER_W[i] - 0.8 * cfgs[CONFIGS[i]].freq_mhz / 100.0 for i in (3, 4, 5)])), 3)
    c_dsp_values = {
        dsp - ocp * (icp // 2) for (icp, ocp), dsp in DSP.items()
    }
    assert len(c_dsp_values) == 1, c_dsp_values
    c_dsp = c_dsp_values.pop()

    calib = Calibration(
        k_pipe=k_pipe,
        k_layer=k_layer,
        k_pool=16,
        c_dsp=c_dsp,
        p0_w=p0,
        host_ns_per_unit=host_ns,
    )
    out = os.path.join(DATA, "calibration", "default.cal")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    save_calibration(calib, out)

    print(f"fitted: k_pipe={k_pipe} k_layer={k_layer} c_dsp={c_dsp} "
          f"p0_w={p0} host_ns_per_unit={host_ns}")
    print(f"conv-latency mean relative error over 24 cells: {conv_mre:.3%}")
    print(f"host mean relative error: {best_err:.3%}")
    print()
    header = "net/config      " + "".join(f"{c:>12}" for c in CONFIGS)
    print(header)
    total_mre = []
    for net_name in NETS:
        preds, totals = [], []
        for ci, cfg_name in enumerate(CONFIGS):
            cfg = cfgs[cfg_name]
            rep = network_perf(nets[net_name], cfg, calib)
            preds.append(rep.conv_ms)
            totals.append(rep.end_to_end_ms)
        row = f"{net_name:<16}" + "".join(f"{p:>12.3f}" for p in preds)
        print(row + "   conv predicted")
        meas = CONV_MS[net_name]
        print(f"{'':<16}" + "".join(f"{m:>12.3f}" for m in meas) + "   conv measured")
        errs = [abs(p - m) / m for p, m in zip(preds, meas)]
        total_mre.extend(errs)
        print(f"{'':<16}" + "".join(f"{e:>12.1%}" for e in errs) + "   rel err")
    print(f"\noverall conv mean relative error: {float(np.mean(total_mre)):.3%}")


if __name__ == "__main__":
    main()
