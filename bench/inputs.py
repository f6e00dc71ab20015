"""Seeded inputs for the benchmark: parameter banks, input tensors, a sweep grid.

The repository ships network graphs and configurations but no parameter
banks, so every input the simulator executes is generated here from a
seed.  The same seed always yields the same bytes.  Files are written with
the package's own ``save_bank``/``save_tensor`` into a work directory; each
network file is copied beside its banks so its relative ``params=`` paths
resolve.
"""

from __future__ import annotations

import math
import os
import re
import shutil

import numpy as np

from convaccel.graph import parse_network
from convaccel.tensors import QFilterBank, QTensor3, save_bank, save_tensor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "data")

NETS = ("squeezenet_v11", "zynqnet", "peleenet", "vgg16")
CONFIGS = ("conf1", "conf2", "conf3", "conf4", "conf5", "conf6")

# Fully connected layers run on the host in float64.  Weights and biases in
# {-1, 0, 1} keep every partial sum of fc6..fc8 an integer multiple of one
# power of two below 2**53, so the BLAS summation order cannot change a bit
# and the output digests hold on any machine.
FC_WEIGHT_FRAC = 7
FC_BIAS_FRAC = 7


def net_path(name):
    return os.path.join(DATA, "networks", f"{name}.net")


def config_path(name):
    return os.path.join(DATA, "configs", f"{name}.cfg")


def _conv_amplitude(spec, ci):
    """Uniform weight bound that keeps activations spread over the int8 range.

    The accumulator is shifted right by fi + fp - fo, so weights of standard
    deviation ~2**shift / sqrt(K) leave the output as wide as the input;
    the factor 2 offsets the half of each map that ReLU zeroes.
    """
    s = spec.scheme
    shift = s.input_frac + s.weight_frac - s.output_frac
    k = spec.filter * spec.filter * ci
    return int(min(127, max(1, round(2 * math.sqrt(3) * 2.0**shift / math.sqrt(k)))))


def write_network(name, rng, out_dir, input_hw=None):
    """Copy one network beside freshly generated banks; return (net file, input file).

    ``input_hw`` replaces the graph's input height and width (channels and
    every layer stay as shipped); fully connected banks follow the new
    shapes through the graph's own shape inference.
    """
    with open(net_path(name), encoding="utf-8") as fh:
        text = fh.read()
    if input_hw is not None:
        text = re.sub(
            r"^input \d+ \d+ (\d+)$",
            lambda m: f"input {input_hw} {input_hw} {m.group(1)}",
            text,
            count=1,
            flags=re.M,
        )
    dst = os.path.join(out_dir, f"{name}.net")
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(text)
    net = parse_network(dst)

    by_id = {n.id: n for n in net.nodes}
    for sn in net.shaped_nodes():
        node = by_id[sn.node_id]
        if node.params is None:
            continue
        path = os.path.join(out_dir, node.params)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if sn.spec is not None:
            ci = sn.in_geom[2]
            a = _conv_amplitude(sn.spec, ci)
            geom = (sn.spec.co, sn.spec.filter, sn.spec.filter, ci)
            weights = rng.integers(-a, a, size=math.prod(geom), endpoint=True, dtype=np.int8)
            biases = rng.integers(-16, 16, size=sn.spec.co, endpoint=True, dtype=np.int8)
            bank = QFilterBank(*geom, weights, biases, node.weight_frac, node.bias_frac)
        else:
            ci = math.prod(sn.in_geom)
            weights = rng.integers(-1, 1, size=node.units * ci, endpoint=True, dtype=np.int8)
            biases = rng.integers(-1, 1, size=node.units, endpoint=True, dtype=np.int8)
            bank = QFilterBank(node.units, 1, 1, ci, weights, biases, FC_WEIGHT_FRAC, FC_BIAS_FRAC)
        save_bank(bank, path)

    h, x, c = net.input_geom
    pixels = rng.integers(-128, 127, size=h * x * c, endpoint=True, dtype=np.int8)
    input_file = os.path.join(out_dir, f"{name}.input.qt3")
    save_tensor(QTensor3(h, x, c, pixels, net.input_frac), input_file)
    return dst, input_file


def write_sweep(rng, out_dir, axes, constraints):
    """Write a sweep over all four networks and ``axes`` ({PARAM: values}).

    The seed only permutes the order of each axis's values, so every seed
    enumerates the same set of design points (same work) in another order.
    Parameters not swept come from conf1.  Returns the file's path.
    """
    lines = [f"base {config_path('conf1')}"]
    lines += [f"workload {net_path(n)}" for n in NETS]
    for param, values in axes.items():
        order = rng.permutation(len(values))
        lines.append(f"axis {param} " + " ".join(str(values[i]) for i in order))
    lines += [f"constraint {k} {v}" for k, v in constraints.items()]
    lines.append("objective latency dsp power")
    path = os.path.join(out_dir, "grid.sw")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
