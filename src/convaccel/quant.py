"""Dynamic fixed-point quantization and the accumulator rescale path.

A tensor's real value is raw * 2**-frac_bits.  Exponent selection is
max-abs driven: the largest f with max|x| * 2**f <= 127.  Rounding is
half-away-from-zero everywhere.  Convolution accumulators are 32-bit;
products are 16-bit; both are assumed never to overflow, and the
simulator raises AccumulatorOverflow instead of wrapping if they do.
``rescale_block`` is the one rescale path, over whole numpy blocks; the
naive scalar oracle it must match bit for bit lives in tests/reference.py.

The rescale runs in float64 on accumulators holding exact integers (the
engine's float64 tap sums, or int64), and every step is exact.  Once the
first range check passes, the accumulator is an integer below 2**31 in
magnitude.  Exponents lie in [FRAC_MIN, FRAC_MAX] = [-8, 15], so the shift
s = fi + fp - fo lies in [-31, 38], and adding 2**(s-1) - (acc < 0) stays
below 2**31 + 2**37 < 2**53.  Scaling by 2**-s only moves the exponent and
``floor`` is exact, so floor((acc + 2**(s-1) - (acc < 0)) * 2**-s) equals
the integer shift (acc + 2**(s-1) - (acc < 0)) >> s, which rounds half away
from zero.  A fused ReLU is the final clip's lower bound:
clip(t, 0, 127) == max(clip(t, -128, 127), 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccumulatorOverflow
from .tensors import FTensor3, I8_MAX, I8_MIN, QTensor3

I32_MIN = -(2**31)
I32_MAX = 2**31 - 1

# Sanity window for scheme exponents; widen here if a workload needs it.
FRAC_MIN = -8
FRAC_MAX = 15

ZERO_DATA_FRAC = 7


@dataclass(frozen=True)
class DfpScheme:
    """Quantization exponents of one convolution: input, weight, bias, output."""

    input_frac: int
    weight_frac: int
    bias_frac: int
    output_frac: int

    def __post_init__(self):
        check_scheme(self.input_frac, self.weight_frac, self.bias_frac, self.output_frac)


def check_scheme(*fracs) -> None:
    """DfpScheme's rules, which the network parser checks through this function too."""
    for name, v in zip(("input_frac", "weight_frac", "bias_frac", "output_frac"), fracs):
        if not isinstance(v, (int, np.integer)) or not FRAC_MIN <= v <= FRAC_MAX:
            raise ValueError(f"{name}={v!r} outside sanity window [{FRAC_MIN}, {FRAC_MAX}]")


def choose_frac_bits(data) -> int:
    """Largest exponent f such that max|x| * 2**f <= 127; 7 for all-zero data."""
    arr = np.asarray(data, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("cannot choose an exponent for empty data")
    _check_finite(arr)
    m = float(np.max(np.abs(arr)))
    if m == 0.0:
        return ZERO_DATA_FRAC
    f = math.floor(math.log2(127.0 / m))
    # Scaling by powers of two is exact in binary floats, so these
    # comparisons pin f down even when log2 was off by one.
    while m * 2.0 ** (f + 1) <= 127.0:
        f += 1
    while m * 2.0**f > 127.0:
        f -= 1
    return f


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("data contains non-finite values")


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, np.floor(x + 0.5), np.ceil(x - 0.5))


def quantize(t: FTensor3, frac_bits: int) -> QTensor3:
    """Quantize to int8 at the given exponent; saturation absorbs overflow."""
    _check_finite(t.values)
    scaled = t.values * 2.0**frac_bits
    q = np.clip(_round_half_away(scaled), I8_MIN, I8_MAX).astype(np.int8)
    return QTensor3(t.height, t.width, t.channels, q, frac_bits)


def dequantize(t: QTensor3) -> FTensor3:
    return FTensor3(
        t.height, t.width, t.channels, t.values.astype(np.float64) * 2.0**-t.frac_bits
    )


def _shift_round_block(values: np.ndarray, shift: int) -> np.ndarray:
    """values * 2**-shift rounded half away from zero, as a new float64 array."""
    if shift <= 0:
        return values * 2.0**-shift
    out = values + 2.0 ** (shift - 1)
    out -= values < 0
    out *= 2.0**-shift
    return np.floor(out, out=out)


def _check_i32(part: np.ndarray, what: str) -> None:
    # Written so that a NaN fails the check too.
    if part.size and not (part.min() >= I32_MIN and part.max() <= I32_MAX):
        raise AccumulatorOverflow(f"{what} outside 32-bit range")


def rescale_block(
    acc: np.ndarray, scheme: DfpScheme, biases: np.ndarray, relu: bool = False
) -> np.ndarray:
    """Bring an (..., co) block of 32-bit MAC sums down to int8 output values.

    ``acc`` is int64 or float64 holding integers, and is not written.  The
    accumulator carries scale 2**-(fi+fp) and the bias 2**-fb; both addends
    are shifted to the output scale, combined in 32 bits, and saturated
    once, at 0 instead of -128 when ``relu`` is set.  ``biases`` broadcasts
    along the last axis.  The accumulator, the shifted accumulator and the
    sum are checked against the 32-bit range, in that order.  The shifted
    bias needs no check of its own: DfpScheme bounds every exponent to
    [FRAC_MIN, FRAC_MAX] = [-8, 15], so the bias shifts left by at most 23
    and |b| <= 2**7 * 2**23 = 2**30.  The module docstring gives the
    exactness argument for the float64 arithmetic.
    """
    _check_i32(acc, "accumulator")
    total = _shift_round_block(acc, scheme.input_frac + scheme.weight_frac - scheme.output_frac)
    _check_i32(total, "rescaled accumulator")
    total += _shift_round_block(biases, scheme.bias_frac - scheme.output_frac)
    _check_i32(total, "rescaled sum")
    np.clip(total, 0 if relu else I8_MIN, I8_MAX, out=total)
    return total.astype(np.int8)
