"""Bit-exact functional model of the accelerator pipeline.

One accelerator invocation computes MPOOL(ReLU(CONV(ia, weights, bias)))
with the ReLU and MPOOL stages optional.  The hardware walks output
channels in tiles of OCP and input channels in tiles of ICP; integer
addition is associative, so tiling never changes results and the model
computes each convolution as f*f matrix products through BLAS, one per
filter tap, added into a float64 accumulator.

Both steps are exact.  Every int8 product satisfies |w*a| <= 2**14, so
a tap's product sums ci of them and every partial sum, in whatever order
and with or without FMA, is an integer of magnitude at most ci * 2**14.
float32 holds every integer up to 2**24, so conv_exec runs the tap GEMMs
in float32 when ci <= 1024 (ci * 2**14 <= 2**24) and in float64, exact
up to 2**53, above that.  The choice is made from the bank in each call,
not taken from validate's budgets, because conv_exec is public and runs
whatever layer it is given.  The accumulator adds the f*f tap results in
float64; each partial sum is at most K * 2**14 with K = f*f*ci, exact
while K < 2**39, and validate caps K at the config's
FILTERxFILTERxCHIN_MAX (4608 in conf6).

When a layer's weights exceed the on-chip weight budget, the layer is
split along the output-channel dimension into secondary convolutions
that each re-stream the full input; their outputs concatenate back in
channel order, bit-exactly equal to the unsplit run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .config import AccelConfig
from .errors import ConfigTooSmallError, ShapeError
from .quant import DfpScheme, rescale_block
from .tensors import QFilterBank, QTensor3

# Largest ci whose tap GEMM runs in float32: ci * 2**14 <= 2**24.
F32_EXACT_CI = 1024


@dataclass(frozen=True)
class PoolSpec:
    """Max-pool window fused behind a convolution; only 2x2/s2 and 3x3/s2 exist."""

    window: int
    stride: ClassVar[int] = 2

    def __post_init__(self):
        if self.window not in (2, 3):
            raise ValueError(f"pool window must be 2 or 3, got {self.window}")


@dataclass(frozen=True)
class LayerSpec:
    """Geometry and post-processing flags of one accelerated layer."""

    filter: int
    stride: int
    padding: int
    co: int
    relu: bool
    pool: PoolSpec | None
    scheme: DfpScheme

    def __post_init__(self):
        if self.filter not in (1, 3):
            raise ValueError(f"filter must be 1 or 3, got {self.filter}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.filter == 1 and self.padding != 0:
            raise ValueError("1x1 filters require padding 0")
        if self.padding not in (0, 1):
            raise ValueError(f"padding must be 0 or 1, got {self.padding}")
        if self.co < 1:
            raise ValueError(f"co must be positive, got {self.co}")


def conv_out_dims(h: int, x: int, spec: LayerSpec) -> tuple[int, int]:
    ho = (h + 2 * spec.padding - spec.filter) // spec.stride + 1
    wo = (x + 2 * spec.padding - spec.filter) // spec.stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"{h}x{x} input too small for filter {spec.filter}, "
            f"stride {spec.stride}, padding {spec.padding}"
        )
    return ho, wo


def pool_out_dims(h: int, x: int, pool: PoolSpec) -> tuple[int, int]:
    if h < pool.window or x < pool.window:
        raise ShapeError(f"{h}x{x} input smaller than pool window {pool.window}")
    return (h - pool.window) // pool.stride + 1, (x - pool.window) // pool.stride + 1


def conv_exec(ia: QTensor3, bank: QFilterBank, spec: LayerSpec) -> QTensor3:
    """Quantized convolution with optional fused ReLU; padded positions contribute raw zero."""
    if bank.ci != ia.channels:
        raise ShapeError(f"bank expects {bank.ci} input channels, tensor has {ia.channels}")
    if bank.co != spec.co:
        raise ShapeError(f"bank has {bank.co} output channels, spec wants {spec.co}")
    if bank.fh != spec.filter:
        raise ShapeError(f"bank filter {bank.fh}x{bank.fw}, spec wants {spec.filter}")

    h, x, ci = ia.geom
    co, f, s, p = spec.co, spec.filter, spec.stride, spec.padding
    ho, wo = conv_out_dims(h, x, spec)

    gemm = np.float32 if ci <= F32_EXACT_CI else np.float64
    padded = np.zeros((h + 2 * p, x + 2 * p, ci), dtype=gemm)
    padded[p : p + h, p : p + x] = ia.as_3d()
    taps = bank.as_4d().transpose(1, 2, 3, 0).astype(gemm)  # (f, f, ci, co)

    acc = np.zeros((ho * wo, co))
    for fy in range(f):
        for fx in range(f):
            window = padded[fy : fy + s * ho : s, fx : fx + s * wo : s]
            acc += window.reshape(ho * wo, ci) @ taps[fy, fx]

    out = rescale_block(acc.astype(np.int64), spec.scheme, bank.biases)
    if spec.relu:
        out = np.maximum(out, 0)
    return QTensor3(ho, wo, co, out.reshape(-1), spec.scheme.output_frac)


def mpool_exec(t: QTensor3, window: int) -> QTensor3:
    """Channel-wise max pool.

    Takes the elementwise max of the window*window strided slices of the
    input; max is associative, so this equals the hardware's two-phase
    reduction (window rows into a result row, then pixels within it).
    """
    ho, wo = pool_out_dims(t.height, t.width, PoolSpec(window))
    stride = PoolSpec.stride
    v = t.as_3d()
    out = v[0 : stride * ho : stride, 0 : stride * wo : stride].copy()
    for j in range(window):
        for k in range(window):
            np.maximum(out, v[j : j + stride * ho : stride, k : k + stride * wo : stride], out=out)
    return QTensor3(ho, wo, t.channels, out.reshape(-1), t.frac_bits)


def accel_exec(ia: QTensor3, bank: QFilterBank, spec: LayerSpec) -> QTensor3:
    """Full accelerator invocation: CONV, then optional ReLU, then optional MPOOL."""
    out = conv_exec(ia, bank, spec)
    if spec.pool is not None:
        out = mpool_exec(out, spec.pool.window)
    return out


@dataclass(frozen=True)
class SplitPlan:
    """Contiguous output-channel ranges, one secondary convolution per group."""

    groups: tuple[tuple[int, int], ...]

    @property
    def restreams(self) -> int:
        return len(self.groups)


def split_groups(co: int, per_out_bytes: int, cfg: AccelConfig) -> tuple[int, int]:
    """(group size, group count) of the greedy split of ``co`` output channels.

    The group size is the largest allowed by both the weight byte budget
    and the output-pixel capacity; ``per_out_bytes`` is the weight bytes of
    one output channel.  Raises ConfigTooSmallError when not even one
    channel fits.
    """
    group = min(cfg.chout_max, cfg.chout_x_filter_x_filter_x_chin_max // per_out_bytes)
    if group < 1:
        raise ConfigTooSmallError(
            f"one output channel needs {per_out_bytes} weight bytes but "
            f"CHOUTxFILTERxFILTERxCHIN_MAX is {cfg.chout_x_filter_x_filter_x_chin_max}"
        )
    return group, -(-co // group)


def plan_split(bank_geom: tuple[int, int, int, int], cfg: AccelConfig) -> SplitPlan:
    """Greedy split of a parameter bank across the weight OCM budget.

    Covers [0, co) with chunks of split_groups' group size, the last one
    holding the remainder.
    """
    co, fh, fw, ci = bank_geom
    group, _ = split_groups(co, fh * fw * ci, cfg)
    return SplitPlan(tuple((lo, min(lo + group, co)) for lo in range(0, co, group)))


def exec_with_split(
    ia: QTensor3, bank: QFilterBank, spec: LayerSpec, cfg: AccelConfig
) -> QTensor3:
    """Run a layer as plan_split's secondary convolutions and merge along the channel dim.

    Each group re-streams the full input; outputs concatenate in ascending
    channel order, bit-exact equal to the unsplit accel_exec.
    """
    plan = plan_split(bank.geom, cfg)
    if len(plan.groups) == 1:
        return accel_exec(ia, bank, spec)
    pieces = []
    for lo, hi in plan.groups:
        sub_bank = bank.slice_out_channels(lo, hi)
        pieces.append(accel_exec(ia, sub_bank, replace(spec, co=hi - lo)).as_3d())
    merged = np.concatenate(pieces, axis=2)
    h, x, c = merged.shape
    return QTensor3(h, x, c, merged.reshape(-1), spec.scheme.output_frac)
