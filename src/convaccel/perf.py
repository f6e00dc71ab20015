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
built.  The configuration-independent products (Ho*Wo, F*F*Ci, H*X*Ci,
...) are computed once per layer as ConvTerms; the graph module stores
them on each shaped convolution node.

Resources: each DSP-mapped PE packs two multiplies per DSP block, so
dsp = pe_dsp * ceil(ICP/2) + c_dsp.  BRAM is reported in bytes as the
sum of the OCM budgets with double-buffered OCMs (Window, OUT-PIXEL)
counted twice.  Power follows a linear trend in frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AccelConfig, Calibration, DEFAULT_CALIBRATION
from .engine import LayerSpec, conv_out_dims, pool_out_dims, split_groups


@dataclass(frozen=True)
class LayerCycles:
    """Cycle breakdown of one accelerated layer."""

    compute_cycles: int
    transfer_in_cycles: int
    param_cycles: int
    writeback_cycles: int
    pool_cycles: int
    restreams: int

    @property
    def total_cycles(self) -> int:
        overlapped = max(self.compute_cycles, self.transfer_in_cycles, self.pool_cycles)
        return overlapped + self.param_cycles + self.writeback_cycles


@dataclass(frozen=True)
class LayerPerf:
    node_id: str
    cycles: LayerCycles
    latency_ms: float


@dataclass(frozen=True)
class HostPerf:
    node_id: str
    kind: str
    units: int
    latency_ms: float


@dataclass(frozen=True)
class PerfReport:
    """Per-layer and end-to-end latency predictions for one network/config pair."""

    network: str
    layers: tuple[LayerPerf, ...]
    host_ops: tuple[HostPerf, ...]

    @property
    def conv_ms(self) -> float:
        return sum(l.latency_ms for l in self.layers)

    @property
    def host_ms(self) -> float:
        return sum(h.latency_ms for h in self.host_ops)

    @property
    def end_to_end_ms(self) -> float:
        return self.conv_ms + self.host_ms


@dataclass(frozen=True)
class ResourceReport:
    dsp: int
    bram_bytes: int
    power_w: float


@dataclass(frozen=True)
class ConvTerms:
    """Configuration-independent integers of one convolution layer."""

    co: int
    ci: int
    taps: int  # F*F
    pixels: int  # Ho*Wo
    per_out_bytes: int  # F*F*Ci: one output channel's weights, also the window bytes
    in_elems: int  # H*X*Ci
    row_bytes: int  # (X + 2*P)*Ci, one padded input row
    pool_row: int  # Wo*Co, one pool input row
    pool_cells: int  # Hp*Wp*window^2, 0 without a pool
    out_geom: tuple[int, int, int]  # post-pool (Hp, Wp, Co)
    out_elems: int  # Hp*Wp*Co


def conv_terms(spec: LayerSpec, in_geom: tuple[int, int, int]) -> ConvTerms:
    """The layer's terms; raises ShapeError when the input is too small for the filter or pool."""
    h, x, ci = in_geom
    ho, wo = conv_out_dims(h, x, spec)
    hp, wp, pool_cells = ho, wo, 0
    if spec.pool:
        hp, wp = pool_out_dims(ho, wo, spec.pool)
        pool_cells = hp * wp * spec.pool.window**2
    co, taps = spec.co, spec.filter * spec.filter
    return ConvTerms(
        co, ci, taps, ho * wo, taps * ci, h * x * ci, (x + 2 * spec.padding) * ci, wo * co,
        pool_cells, (hp, wp, co), hp * wp * co,
    )


def layer_cycles(
    t: ConvTerms, cfg: AccelConfig, calib: Calibration = DEFAULT_CALIBRATION
) -> LayerCycles:
    """Cycle breakdown of a layer from its terms; see the module docstring for the compute sum.

    Raises ConfigTooSmallError when the layer does not fit even split.
    """
    group, n = split_groups(t.co, t.per_out_bytes, cfg)
    ocp, apack = cfg.ocp, cfg.apack
    # -(-a // b) is ceil(a / b), inline: this runs once per layer per config
    passes = (n - 1) * -(-group // ocp) - (-(t.co - (n - 1) * group) // ocp)
    compute = calib.k_layer + t.pixels * (passes * t.taps * -(-t.ci // cfg.icp) + n * calib.k_pipe)
    co_beats = -(-t.co // apack)
    transfer_in = n * -(-t.in_elems // apack)
    param = -(-t.co * t.per_out_bytes // cfg.ppack) + co_beats
    pool = t.pool_cells * co_beats + calib.k_pool if t.pool_cells else 0
    writeback = -(-t.out_elems // apack)
    return LayerCycles(compute, transfer_in, param, writeback, pool, n)


def conv_cycles(
    spec: LayerSpec,
    in_geom: tuple[int, int, int],
    cfg: AccelConfig,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> LayerCycles:
    """Cycle breakdown of one layer under a configuration.

    Raises ShapeError when the input is too small for the filter, then
    ConfigTooSmallError when the layer does not fit even split, then
    ShapeError when the convolution output is too small for the pool.
    """
    h, x, ci = in_geom
    conv_out_dims(h, x, spec)
    split_groups(spec.co, spec.filter * spec.filter * ci, cfg)
    return layer_cycles(conv_terms(spec, in_geom), cfg, calib)


def host_units(kind: str, in_elems: int, out_elems: int) -> int:
    """Elementary host-CPU operations charged for one host-executed node."""
    if kind == "concat":
        return out_elems
    if kind == "fully_connected":
        return in_elems * out_elems
    if kind in ("global_avg_pool", "softmax"):
        return in_elems
    raise ValueError(f"unknown host op kind {kind!r}")


def network_perf(
    net, cfg: AccelConfig, calib: Calibration = DEFAULT_CALIBRATION
) -> PerfReport:
    """Latency prediction for a whole network at batch size one.

    Accelerated layers run sequentially on the accelerator; every other
    node is charged at the flat host cost.  ``net`` must provide
    ``shaped_nodes()`` yielding shape-resolved nodes in topological order,
    each convolution with its ConvTerms (see the graph module).
    """
    cycles_per_ms = cfg.freq_mhz * 1000.0
    layers = []
    host_ops = []
    for sn in net.shaped_nodes():
        if sn.spec is not None:
            cyc = layer_cycles(sn.terms, cfg, calib)
            layers.append(LayerPerf(sn.node_id, cyc, cyc.total_cycles / cycles_per_ms))
        else:
            in_elems = sn.in_geom[0] * sn.in_geom[1] * sn.in_geom[2]
            out_elems = sn.out_geom[0] * sn.out_geom[1] * sn.out_geom[2]
            units = host_units(sn.kind, in_elems, out_elems)
            host_ops.append(
                HostPerf(sn.node_id, sn.kind, units, units * calib.host_ns_per_unit / 1e6)
            )
    return PerfReport(net.name, tuple(layers), tuple(host_ops))


def estimate_resources(
    cfg: AccelConfig, calib: Calibration = DEFAULT_CALIBRATION
) -> ResourceReport:
    """DSP count, on-chip memory bytes, and power of a configuration."""
    dsp = cfg.pe_dsp * -(-cfg.icp // 2) + calib.c_dsp
    power = calib.p0_w + calib.power_slope_w_per_100mhz * (cfg.freq_mhz / 100.0)
    return ResourceReport(dsp, cfg.ocm_bytes, power)
