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

Resources: each DSP-mapped PE packs two multiplies per DSP block, so
dsp = pe_dsp * ceil(ICP/2) + c_dsp.  BRAM is reported in bytes as the
sum of the OCM budgets with double-buffered OCMs (Window, OUT-PIXEL)
counted twice.  Power follows a linear trend in frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AccelConfig, Calibration, DEFAULT_CALIBRATION
from .engine import LayerSpec, PoolSpec, conv_out_dims, plan_split, pool_out_dims


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


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


def mpool_cycles(
    in_geom: tuple[int, int, int],
    pool: PoolSpec | None,
    cfg: AccelConfig,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> int:
    """Cycles of the pooling stage over its input geometry; 0 when there is no pool."""
    if pool is None:
        return 0
    h, x, c = in_geom
    ho, wo = pool_out_dims(h, x, pool)
    return ho * wo * pool.window**2 * _ceil_div(c, cfg.apack) + calib.k_pool


def conv_cycles(
    spec: LayerSpec,
    in_geom: tuple[int, int, int],
    cfg: AccelConfig,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> LayerCycles:
    """Cycle breakdown of one layer under a configuration.

    Raises ConfigTooSmallError when the layer does not fit even split.
    """
    h, x, ci = in_geom
    ho, wo = conv_out_dims(h, x, spec)
    plan = plan_split((spec.co, spec.filter, spec.filter, ci), cfg)

    tile = spec.filter * spec.filter * _ceil_div(ci, cfg.icp)
    compute = calib.k_layer
    for lo, hi in plan.groups:
        compute += ho * wo * (_ceil_div(hi - lo, cfg.ocp) * tile + calib.k_pipe)

    transfer_in = plan.restreams * _ceil_div(h * x * ci, cfg.apack)
    weight_bytes = spec.co * spec.filter * spec.filter * ci
    param = _ceil_div(weight_bytes, cfg.ppack) + _ceil_div(spec.co, cfg.apack)

    pool = mpool_cycles((ho, wo, spec.co), spec.pool, cfg, calib) if spec.pool else 0
    hp, wp = pool_out_dims(ho, wo, spec.pool) if spec.pool else (ho, wo)
    writeback = _ceil_div(hp * wp * spec.co, cfg.apack)

    return LayerCycles(compute, transfer_in, param, writeback, pool, plan.restreams)


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
    ``shaped_nodes()`` yielding shape-resolved nodes in topological order
    (see the graph module).
    """
    cycles_per_ms = cfg.freq_mhz * 1000.0
    layers = []
    host_ops = []
    for sn in net.shaped_nodes():
        if sn.spec is not None:
            cyc = conv_cycles(sn.spec, sn.in_geom, cfg, calib)
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
    dsp = cfg.pe_dsp * _ceil_div(cfg.icp, 2) + calib.c_dsp
    power = calib.p0_w + calib.power_slope_w_per_100mhz * (cfg.freq_mhz / 100.0)
    return ResourceReport(dsp, cfg.ocm_bytes, power)
