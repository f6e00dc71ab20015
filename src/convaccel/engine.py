"""Bit-exact functional model of the accelerator pipeline.

One accelerator invocation computes MPOOL(ReLU(CONV(ia, weights, bias)))
with the ReLU and MPOOL stages optional.  The hardware walks output
channels in tiles of OCP and input channels in tiles of ICP; integer
addition is associative, so tiling never changes results.  The model
lowers each convolution to matrix products through BLAS (im2col, as in
Chellapilla, Puri & Simard 2006): the f*f filter taps, in (fy, fx) order,
are taken in groups of t consecutive taps; a group's shifted windows are
gathered side by side into one (rows * wo, t * ci) operand and multiplied
by the group's t * ci weight rows in one GEMM, whose result goes into a
float64 accumulator: the first group's is stored there, and the later
groups' are added to it.

Both steps are exact.  Every int8 product satisfies |w*a| <= 2**14, so a
group's GEMM sums t * ci of them and every partial sum, in whatever order
and with or without FMA, is an integer of magnitude at most t*ci * 2**14.
float32 holds every integer up to 2**24, so float32 is exact while
t * ci <= F32_EXACT_CI = 1024.  t is at most GROUP_DEPTH // ci, and at
least 1, so with GROUP_DEPTH <= F32_EXACT_CI every group meets that bound
whenever ci <= 1024; conv_exec then runs float32, and float64, exact up
to 2**53, above that.  The choice is made from the bank in each call,
not taken from validate's budgets, because conv_exec is public and runs
whatever layer it is given.  The accumulator adds the group results in
float64; each partial sum is at most K * 2**14 with K = f*f*ci, exact
while K < 2**39, and validate caps K at the config's
FILTERxFILTERxCHIN_MAX (4608 in conf6).

Two caps shape the loop; both are speed or memory choices, measured on
a 2-core Xeon VM with OpenBLAS 0.3.31 on one thread, and neither affects
exactness.
- GROUP_DEPTH = 512 bounds t * ci.  An sgemm of M = 16 rows and N = 64
  columns took 58 us at K = 1024 against 27 us for two at K = 512.
  Layers with ci > 512 therefore run one GEMM per tap; smaller ci gather
  several taps, up to all nine of a 3x3 filter when ci <= 56.
- BLOCK_BYTES bounds the gathered operand: output rows are taken in
  blocks whose operand fills at most BLOCK_BYTES, and the GEMM results
  go through a buffer of one block.  Beyond the padded input and the
  accumulator, a call holds BLOCK_BYTES plus one block's products,
  whatever the input size; all but the accumulator is freed before the
  rescale.
  8 MiB keeps each layer of vgg16 at 64x64 input in one block (conv1_2
  gathers exactly 8 MiB).  On a 224x224x64 -> 64 3x3 layer the time was
  flat from 0.5 to 8 MiB blocks, and conv_exec's tracemalloc peak fell
  from 80.7 MB, with one GEMM per tap over the whole image, to 54.7 MB.
A group of one tap is not gathered: the GEMM reads its window, reshaped.
For a 1x1 stride-1 window that is a view of the padded input, so nothing
is copied.

The epilogue stays exact in float64 too.  quant.rescale_block takes the
accumulator as it is, without an int64 copy: once its first range check
passes, the accumulator is an integer below 2**31 in magnitude; adding
the rounding term 2**(s-1) keeps it below 2**53 for every shift s <= 38
that a scheme allows; scaling by 2**-s and floor are exact; and the fused
ReLU is the final clip's lower bound, since
clip(t, 0, 127) == max(clip(t, -128, 127), 0).

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

# Largest t * ci, and so largest ci, whose GEMM runs in float32:
# t * ci * 2**14 <= 2**24.
F32_EXACT_CI = 1024
# Largest t * ci of a group of t taps in one GEMM (a speed cap); at most
# F32_EXACT_CI, so that float32 group sums stay exact.
GROUP_DEPTH = 512
# Largest bytes of the gathered (rows * wo, t * ci) operand of one row block.
BLOCK_BYTES = 8 << 20


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
        check_layer(self.filter, self.stride, self.padding, self.co)


def check_layer(filter: int, stride: int, padding: int, co: int) -> None:
    """LayerSpec's rules, which the network parser checks through this function too."""
    if filter not in (1, 3):
        raise ValueError(f"filter must be 1 or 3, got {filter}")
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if filter == 1 and padding != 0:
        raise ValueError("1x1 filters require padding 0")
    if padding not in (0, 1):
        raise ValueError(f"padding must be 0 or 1, got {padding}")
    if co < 1:
        raise ValueError(f"co must be positive, got {co}")


def out_dims(h: int, x: int, filter: int, stride: int, padding: int) -> tuple[int, int]:
    """Output rows and columns of a filter x filter convolution over an h x x input."""
    ho = (h + 2 * padding - filter) // stride + 1
    wo = (x + 2 * padding - filter) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"{h}x{x} input too small for filter {filter}, stride {stride}, padding {padding}"
        )
    return ho, wo


def conv_out_dims(h: int, x: int, spec: LayerSpec) -> tuple[int, int]:
    return out_dims(h, x, spec.filter, spec.stride, spec.padding)


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

    ho, wo = conv_out_dims(ia.height, ia.width, spec)
    acc = _mac_sums(ia, bank, spec, ho, wo)
    out = rescale_block(acc, spec.scheme, bank.biases, relu=spec.relu)
    return QTensor3(ho, wo, spec.co, out.reshape(-1), spec.scheme.output_frac)


def _mac_sums(ia: QTensor3, bank: QFilterBank, spec: LayerSpec, ho: int, wo: int):
    """The (ho * wo, co) float64 MAC sums: one GEMM per tap group and row block;
    each block's first group is stored, the later ones added."""
    h, x, ci = ia.geom
    co, f, s, p = spec.co, spec.filter, spec.stride, spec.padding
    gemm = np.float32 if ci <= F32_EXACT_CI else np.float64
    padded = np.zeros((h + 2 * p, x + 2 * p, ci), dtype=gemm)
    padded[p : p + h, p : p + x] = ia.as_3d()
    weights = bank.as_4d().reshape(co, f * f * ci).T.astype(gemm)  # row tap * ci + channel
    t = max(1, min(f * f, GROUP_DEPTH // ci))  # taps per GEMM
    rows = max(1, min(ho, BLOCK_BYTES // (wo * t * ci * padded.itemsize)))
    taps = [divmod(tap, f) for tap in range(f * f)]

    acc = np.empty((ho * wo, co))
    cols = np.empty(rows * wo * t * ci if t > 1 else 0, dtype=gemm)
    product = np.empty((rows * wo, co), dtype=gemm)
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        n = (r1 - r0) * wo
        for g0 in range(0, f * f, t):
            group = taps[g0 : g0 + t]
            k = len(group) * ci
            windows = [padded[fy + s * r0 : fy + s * r1 : s, fx : fx + s * wo : s] for fy, fx in group]
            if len(windows) == 1:  # a view when the window is contiguous (1x1, stride 1)
                lhs = windows[0].reshape(n, ci)
            else:
                lhs = np.concatenate(windows, axis=2, out=cols[: n * k].reshape(r1 - r0, wo, k))
                lhs = lhs.reshape(n, k)
            sums = np.matmul(lhs, weights[g0 * ci : g0 * ci + k], out=product[:n])
            if g0:
                acc[r0 * wo : r1 * wo] += sums
            else:
                acc[r0 * wo : r1 * wo] = sums
    return acc


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
