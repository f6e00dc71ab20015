"""Analytical cycle, latency, resource, and power model.

Per layer, the model charges:

  compute    sum over split groups of Ho*Wo*(ceil(g/OCP)*F*F*ceil(Ci/ICP)
             + k_pipe), plus k_layer once
  transfer   restreams * ceil(H*X*Ci / APACK) input beats
  param      ceil(weight_bytes / PPACK) + ceil(Co / APACK), not overlapped
             (parameter load is the initialization step)
  pool       pooled Ho*Wo*window^2*ceil(Co/APACK) + k_pool, overlapped
             with the convolution through the dataflow pipeline
  writeback  ceil(post-pool elements / APACK), not overlapped

Double buffering overlaps input transfer with compute, so the layer
total is max(compute, transfer, pool) + param + writeback.

The compute sum is taken in closed form.  plan_split covers Co with
n = ceil(Co/g) groups, the first n-1 of size g and the last of size
last = Co - (n-1)*g, so the sum is

  Ho*Wo*(((n-1)*ceil(g/OCP) + ceil(last/OCP))*F*F*ceil(Ci/ICP) + n*k_pipe)

by distributivity over integers: the same value, with no SplitPlan
built.  The configuration-independent integers of a network's
convolutions (Co, Ci, F*F, Ho*Wo, H*X*Ci, ...) are computed once, when
the network is parsed, as the rows of a ConvColumns with one column per
layer; layer_cycles evaluates the formula over all columns at once.
validate compares only each row's maximum with its budget; per-layer
masks are formed only when a report's rows are read.

Exactness.  The columns are int64 and NumPy int64 arithmetic wraps
silently, so ConvColumns.select first checks in Python ints that no
value can reach 2**63, and otherwise hands out the same columns as
Python ints (dtype object), over which the same formula is exact.  For
any valid configuration n <= Co, every group and the last one are at
most Co, the OCP passes are at most Co and ceil(Ci/ICP) <= Ci, so every
term and every partial product of a layer is at most

  k_layer + Ho*Wo*Co*(F*F*Ci + k_pipe) + Co*H*X*Ci + Co*F*F*Ci + Co
  + pooled*Co + k_pool + post-pool elements

with pooled the pooled cells Hp*Wp*window^2.  The check also covers
every configuration integer, which enters the formula as an operand.
The rows stacked below the terms (CI..WEIGHTS negated, a has-pool
flag) follow the same rule; they, (n-1)*g - Co, (n-1)*ceil(g/OCP) and
has_pool*k_pool are no larger in magnitude than the bound's terms.
A layer's latency is total / (FREQ*1000): NumPy's int64 -> float64 and
Python's int -> float conversion both round to nearest even, so the
quotient is the same on either path.  Sums over layers are taken with
builtin sum in layer order; np.sum would add pairwise and could round
differently.

Resources: each DSP-mapped PE packs two multiplies per DSP block, so
dsp = pe_dsp * ceil(ICP/2) + c_dsp.  BRAM is reported in bytes as the
sum of the OCM budgets with double-buffered OCMs (Window, OUT-PIXEL)
counted twice.  Power follows a linear trend in frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import AccelConfig, Calibration, DEFAULT_CALIBRATION
from .engine import LayerSpec, conv_out_dims, out_dims, pool_out_dims, split_groups
from .errors import ValidationError

# Rows of ConvColumns.values.  validate compares the first five against
# the buffer budgets; the two pool rows hold 0 for a layer without a pool,
# which no budget (all >= 1) is below.  CI..WEIGHTS are ceil-divided by
# ICP, APACK, APACK, APACK and PPACK in one step.
(
    TAPS,  # F*F
    ROW_BYTES,  # (X + 2*P)*Ci, one padded input row
    PER_OUT,  # F*F*Ci: one output channel's weights, also the window bytes
    POOL_ROW,  # Wo*Co, one pool input row
    POOL_CO,  # Co, one pool pixel
    CI,
    CO,
    IN_ELEMS,  # H*X*Ci
    OUT_ELEMS,  # post-pool Hp*Wp*Co
    WEIGHTS,  # Co*F*F*Ci
    PIXELS,  # Ho*Wo
    POOL_CELLS,  # Hp*Wp*window^2
) = range(12)
N_TERMS = 12
# Rows stacked below the terms for layer_cycles: CI..WEIGHTS negated from
# _NEG on, for the ceil-divisions -(-a // b), and a 0/1 has-pool flag.
_NEG = N_TERMS
_HAS_POOL = _NEG + WEIGHTS - CI + 1


@dataclass(frozen=True)
class LayerCycles:
    """Cycle breakdown of one accelerated layer."""

    compute_cycles: int
    transfer_in_cycles: int
    param_cycles: int
    writeback_cycles: int
    pool_cycles: int
    restreams: int
    total_cycles: int  # max(compute, transfer_in, pool) + param + writeback


@dataclass(frozen=True)
class LayerPerf:
    node_id: str
    cycles: LayerCycles
    latency_ms: float


class PerfReport:
    """Per-layer and end-to-end latency predictions for one network/config pair.

    ``table()`` and ``host_table()`` yield the rows as plain tuples, straight
    from layer_cycles' arrays; ``layers`` is built from the same rows when
    first read.
    """

    def __init__(self, network, node_ids, cycles, layer_ms, host, host_ms):
        self.network = network
        self._node_ids = node_ids
        self._cycles = cycles  # layer_cycles' arrays: LayerCycles' fields in order
        self._layer_ms = layer_ms
        self._host = host  # (node_id, kind, units) per host node
        self._host_ms = host_ms
        self.conv_ms = sum(layer_ms)
        self.host_ms = sum(host_ms)
        self.end_to_end_ms = self.conv_ms + self.host_ms

    def table(self):
        """Per layer: (node_id, the LayerCycles fields in order, latency_ms)."""
        return zip(self._node_ids, *(c.tolist() for c in self._cycles), self._layer_ms)

    def host_table(self):
        """Per host node: (node_id, kind, units, latency_ms)."""
        return ((*h, ms) for h, ms in zip(self._host, self._host_ms))

    @cached_property
    def layers(self) -> tuple[LayerPerf, ...]:
        rows = self.table()
        return tuple(LayerPerf(node_id, LayerCycles(*c), ms) for node_id, *c, ms in rows)


@dataclass(frozen=True)
class ResourceReport:
    dsp: int
    bram_bytes: int
    power_w: float


def conv_terms(in_geom, filter: int, stride: int, padding: int, co: int, pool):
    """(post-pool output geometry, the layer's column of terms in row order).

    Takes a LayerSpec's geometry fields as plain values, so that the
    network parser need not build one.  Raises ShapeError when the input
    is too small for the filter or pool.
    """
    h, x, ci = in_geom
    ho, wo = out_dims(h, x, filter, stride, padding)
    hp, wp, pool_cells, pool_co = ho, wo, 0, 0
    if pool:
        hp, wp = pool_out_dims(ho, wo, pool)
        pool_cells, pool_co = hp * wp * pool.window**2, co
    taps = filter * filter
    per_out = taps * ci
    row = (
        taps, (x + 2 * padding) * ci, per_out, wo * co if pool_co else 0, pool_co,
        ci, co, h * x * ci, hp * wp * co, co * per_out, ho * wo, pool_cells,
    )
    return (hp, wp, co), row


class ConvColumns:
    """Configuration-independent integers of a network's convolution layers.

    ``values[ROW, i]`` is term ROW (the constants above) of the i-th
    convolution in topological order, named ``node_ids[i]``: int64 when
    every term fits, else Python ints (dtype object).  ``maxima[ROW]`` is
    the row's largest term, a Python int (0 without convolutions).
    """

    def __init__(self, node_ids, terms):
        """``terms``: each layer's column of terms (conv_terms), one after another."""
        self.node_ids = tuple(node_ids)
        try:
            values = np.array(terms, dtype=np.int64)
        except OverflowError:
            values = np.array(terms, dtype=object)
        values = values.reshape(len(self.node_ids), N_TERMS).T
        self.maxima = m = values.max(axis=1).tolist() if self.node_ids else [0] * N_TERMS
        # A contiguous row per term: ufuncs over strided rows cost half as much again.
        self._block = np.empty((_HAS_POOL + 1, len(self.node_ids)), dtype=values.dtype)
        self.values = self._block[:N_TERMS]
        self.values[:] = values
        np.negative(values[CI : WEIGHTS + 1], out=self._block[_NEG:_HAS_POOL])
        self._block[_HAS_POOL] = values[POOL_CELLS] > 0
        # The module docstring's bound with every term at its largest over
        # the layers, less the calibration terms: no layer's bound exceeds
        # it, since no term is negative.  _pipe, the factor of k_pipe, is at
        # least 1 so that the bound also covers k_pipe itself.
        self._bound = (
            m[PIXELS] * m[CO] * m[PER_OUT] + m[CO] * m[IN_ELEMS] + m[WEIGHTS] + m[CO]
            + m[POOL_CELLS] * m[CO] + m[OUT_ELEMS]
        )
        self._pipe = max(m[PIXELS] * m[CO], 1)

    def select(self, cfg: AccelConfig, calib: Calibration | None = None):
        """The terms and stacked rows, as Python ints unless every value formed fits int64."""
        bound = self._bound
        if calib is not None:
            bound += self._pipe * calib.k_pipe + calib.k_layer + calib.k_pool
        biggest = max(
            bound, cfg.icp, cfg.ocp, cfg.apack, cfg.ppack, cfg.chout_max,
            cfg.chout_x_filter_x_filter_x_chin_max, cfg.win_x_chin_pad_max,
            cfg.filter_x_filter_x_chin_max, cfg.pwin_x_pch_max, cfg.pch_max,
        )
        if biggest < 2**63 and self._block.dtype != object:
            return self._block
        return self._block.astype(object)


def layer_cycles(
    cols: ConvColumns, cfg: AccelConfig, calib: Calibration = DEFAULT_CALIBRATION
):
    """(compute, transfer_in, param, writeback, pool, restreams, total) arrays over the layers.

    See the module docstring for the compute sum and for exactness.
    Raises ConfigTooSmallError, with split_groups' message, for the first
    layer in order that does not fit even split.
    """
    v = cols.select(cfg, calib)
    per_out = v[PER_OUT]
    budget = cfg.chout_x_filter_x_filter_x_chin_max
    # The group min(CHOUT_MAX, budget // F*F*Ci) is below 1 exactly when
    # F*F*Ci exceeds the budget, because CHOUT_MAX >= 1.
    if cols.maxima[PER_OUT] > budget:
        i = (per_out > budget).tolist().index(True)
        split_groups(int(v[CO][i]), int(per_out[i]), cfg)  # raises
    group = np.minimum(cfg.chout_max, budget // per_out)
    divisors = np.array((cfg.icp, cfg.apack, cfg.apack, cfg.apack, cfg.ppack), dtype=v.dtype)
    ci_tiles, co_beats, in_beats, out_beats, w_beats = -(v[_NEG:_HAS_POOL] // divisors[:, None])
    neg_co = v[_NEG + CO - CI]
    n = -(neg_co // group)
    # (n-1)*ceil(group/OCP) + ceil(last/OCP), last = co - (n-1)*group
    n1, ocp = n - 1, cfg.ocp
    passes = -(n1 * (-group // ocp) + (n1 * group + neg_co) // ocp)
    compute = v[PIXELS] * (passes * v[TAPS] * ci_tiles + n * calib.k_pipe) + calib.k_layer
    transfer_in = n * in_beats
    param = w_beats + co_beats
    pool = v[POOL_CELLS] * co_beats + v[_HAS_POOL] * calib.k_pool
    total = np.maximum(np.maximum(compute, transfer_in), pool) + param + out_beats
    return compute, transfer_in, param, out_beats, pool, n, total


def conv_cycles(
    spec: LayerSpec,
    in_geom: tuple[int, int, int],
    cfg: AccelConfig,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> LayerCycles:
    """Cycle breakdown of one layer under a configuration: layer_cycles over one column.

    Raises ShapeError when the input is too small for the filter, then
    ConfigTooSmallError when the layer does not fit even split, then
    ShapeError when the convolution output is too small for the pool.
    """
    h, x, ci = in_geom
    conv_out_dims(h, x, spec)
    split_groups(spec.co, spec.filter * spec.filter * ci, cfg)
    row = conv_terms(in_geom, spec.filter, spec.stride, spec.padding, spec.co, spec.pool)[1]
    cols = ConvColumns(("",), row)
    return LayerCycles(*(int(c[0]) for c in layer_cycles(cols, cfg, calib)))


def host_units(kind: str, in_elems: int, out_elems: int) -> int:
    """Elementary host-CPU operations charged for one host-executed node."""
    if kind == "concat":
        return out_elems
    if kind == "fully_connected":
        return in_elems * out_elems
    if kind in ("global_avg_pool", "softmax"):
        return in_elems
    raise ValueError(f"unknown host op kind {kind!r}")


def _terms_or_inf(terms):
    """The float ``terms`` as a list, or [inf] when an int among them is too
    large for a float; a float quotient or product that overflows is inf."""
    try:
        return list(terms)
    except OverflowError:
        return [math.inf]


def network_perf(
    net, cfg: AccelConfig, calib: Calibration = DEFAULT_CALIBRATION
) -> PerfReport:
    """Latency prediction for a whole network at batch size one.

    Accelerated layers run sequentially on the accelerator; every other
    node is charged at the flat host cost.  ``net`` must provide ``name``,
    ``conv_columns`` (a ConvColumns over its convolutions in topological
    order) and ``host_nodes`` ((node_id, kind, units) per host node, in
    topological order); see the graph module.  Raises ValidationError when
    the end-to-end latency is not finite, as a tiny FREQ, a huge
    host_ns_per_unit or a total too large for a float can make it.
    """
    cols = net.conv_columns
    cycles = layer_cycles(cols, cfg, calib)
    khz = cfg.freq_mhz * 1000.0
    layer_ms = _terms_or_inf(c / khz for c in cycles[-1].tolist())
    ns = calib.host_ns_per_unit
    host_ms = _terms_or_inf(units * ns / 1e6 for _, _, units in net.host_nodes)
    report = PerfReport(net.name, cols.node_ids, cycles, layer_ms, net.host_nodes, host_ms)
    if not math.isfinite(report.end_to_end_ms):
        raise ValidationError(
            f"{net.name}: latency is not finite: conv {report.conv_ms:g} ms at "
            f"FREQ={cfg.freq_mhz:g}, host {report.host_ms:g} ms at host_ns_per_unit={ns:g}"
        )
    return report


def estimate_resources(
    cfg: AccelConfig, calib: Calibration = DEFAULT_CALIBRATION
) -> ResourceReport:
    """DSP count, on-chip memory bytes, and power of a configuration."""
    dsp = cfg.pe_dsp * -(-cfg.icp // 2) + calib.c_dsp
    power = calib.p0_w + calib.power_slope_w_per_100mhz * (cfg.freq_mhz / 100.0)
    return ResourceReport(dsp, cfg.ocm_bytes, power)
