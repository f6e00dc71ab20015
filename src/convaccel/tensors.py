"""Activation volumes and filter banks in the accelerator's memory layout.

Activations are 3-D volumes stored flat with the channel as the
fastest-changing dimension: element (y, x, c) lives at index
(y*width + x)*channels + c.  Filter banks are stored in
[out_ch][filter_h][filter_w][in_ch] order.  Both carry a power-of-two
scale exponent ``frac_bits``: real value = raw * 2**-frac_bits.

All objects are immutable after construction and safe to share.  Their
int8 arrays are read-only; an int8 source that nothing can write (a
``np.frombuffer`` view of ``bytes``, as the file loaders give, or a view
of another object's read-only array, as ``slice_out_channels`` gives) is
shared without a copy.  Any other source is copied, after a range check
unless its dtype is already int8.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, FormatError, ShapeError, open_input

I8_MIN = -128
I8_MAX = 127

TENSOR_MAGIC = b"QT3\x00"
BANK_MAGIC = b"QFB\x00"
FILE_VERSION = 1
KIND_INT8 = 0
KIND_FLOAT32 = 1


def _positive(name, n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ShapeError(f"{name} must be a positive integer, got {n!r}")


def _check_frac(name, f):
    if not isinstance(f, (int, np.integer)) or not I8_MIN <= f <= I8_MAX:
        raise ValueError(f"{name} must be an integer in [{I8_MIN}, {I8_MAX}], got {f!r}")


def _unwritable(arr):
    """True when no reference can write arr's data: every array on its base
    chain is read-only, and the chain ends in bytes or in an array that
    owns its data.  Whoever holds such an owner could set its flag back;
    the owners this module makes are held only by its own objects."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return isinstance(arr, bytes)


def _as_int8(values, expect_len, what):
    arr = np.asarray(values)
    if arr.size != expect_len:
        raise ShapeError(f"{what} has {arr.size} elements, expected {expect_len}")
    arr = arr.reshape(-1)
    if arr.dtype == np.int8:
        # The dtype bounds the values; a view nobody can write is kept as is.
        if _unwritable(arr):
            return arr
    elif arr.size and (arr.min() < I8_MIN or arr.max() > I8_MAX):
        raise ValueError(f"{what} contains values outside [{I8_MIN}, {I8_MAX}]")
    out = arr.astype(np.int8)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class QTensor3:
    """Quantized 3-D activation volume, channel-fastest layout."""

    height: int
    width: int
    channels: int
    values: np.ndarray
    frac_bits: int = 0

    def __post_init__(self):
        _positive("height", self.height)
        _positive("width", self.width)
        _positive("channels", self.channels)
        _check_frac("frac_bits", self.frac_bits)
        n = self.height * self.width * self.channels
        object.__setattr__(self, "values", _as_int8(self.values, n, "values"))

    def at(self, y: int, x: int, c: int) -> int:
        if not (0 <= y < self.height and 0 <= x < self.width and 0 <= c < self.channels):
            raise IndexError(
                f"index ({y}, {x}, {c}) out of range for "
                f"{self.height}x{self.width}x{self.channels} tensor"
            )
        return int(self.values[(y * self.width + x) * self.channels + c])

    def as_3d(self) -> np.ndarray:
        """Read-only (height, width, channels) view of the flat storage."""
        return self.values.reshape(self.height, self.width, self.channels)

    @property
    def geom(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)

    def __eq__(self, other):
        if not isinstance(other, QTensor3):
            return NotImplemented
        return (
            self.geom == other.geom
            and self.frac_bits == other.frac_bits
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return (
            f"QTensor3({self.height}x{self.width}x{self.channels}, "
            f"frac_bits={self.frac_bits})"
        )


@dataclass(frozen=True, eq=False)
class FTensor3:
    """Real-valued tensor with QTensor3 geometry; the float reference domain."""

    height: int
    width: int
    channels: int
    values: np.ndarray

    def __post_init__(self):
        _positive("height", self.height)
        _positive("width", self.width)
        _positive("channels", self.channels)
        arr = np.asarray(self.values, dtype=np.float64).reshape(-1)
        n = self.height * self.width * self.channels
        if arr.size != n:
            raise ShapeError(f"values has {arr.size} elements, expected {n}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def as_3d(self) -> np.ndarray:
        return self.values.reshape(self.height, self.width, self.channels)

    @property
    def geom(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)

    def __eq__(self, other):
        if not isinstance(other, FTensor3):
            return NotImplemented
        return self.geom == other.geom and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"FTensor3({self.height}x{self.width}x{self.channels})"


@dataclass(frozen=True, eq=False)
class QFilterBank:
    """Quantized convolution parameters: weights [co][fh][fw][ci] plus per-output biases."""

    co: int
    fh: int
    fw: int
    ci: int
    weights: np.ndarray
    biases: np.ndarray
    weight_frac_bits: int = 0
    bias_frac_bits: int = 0

    def __post_init__(self):
        _positive("co", self.co)
        _positive("ci", self.ci)
        if (self.fh, self.fw) not in ((1, 1), (3, 3)):
            raise ShapeError(f"filter dims must be 1x1 or 3x3, got {self.fh}x{self.fw}")
        _check_frac("weight_frac_bits", self.weight_frac_bits)
        _check_frac("bias_frac_bits", self.bias_frac_bits)
        n = self.co * self.fh * self.fw * self.ci
        object.__setattr__(self, "weights", _as_int8(self.weights, n, "weights"))
        object.__setattr__(self, "biases", _as_int8(self.biases, self.co, "biases"))

    def as_4d(self) -> np.ndarray:
        return self.weights.reshape(self.co, self.fh, self.fw, self.ci)

    @property
    def geom(self) -> tuple[int, int, int, int]:
        return (self.co, self.fh, self.fw, self.ci)

    def slice_out_channels(self, start: int, stop: int) -> "QFilterBank":
        """Sub-bank covering output channels [start, stop); used by split-merge."""
        if not 0 <= start < stop <= self.co:
            raise ShapeError(f"bad output-channel range [{start}, {stop}) for co={self.co}")
        return QFilterBank(
            stop - start,
            self.fh,
            self.fw,
            self.ci,
            self.as_4d()[start:stop].reshape(-1),
            self.biases[start:stop],
            self.weight_frac_bits,
            self.bias_frac_bits,
        )

    def __eq__(self, other):
        if not isinstance(other, QFilterBank):
            return NotImplemented
        return (
            self.geom == other.geom
            and self.weight_frac_bits == other.weight_frac_bits
            and self.bias_frac_bits == other.bias_frac_bits
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.biases, other.biases)
        )

    def __repr__(self):
        return f"QFilterBank(co={self.co}, {self.fh}x{self.fw}, ci={self.ci})"


@dataclass(frozen=True, eq=False)
class FFilterBank:
    """Real-valued filter bank; input domain of the quantizer."""

    co: int
    fh: int
    fw: int
    ci: int
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        _positive("co", self.co)
        _positive("ci", self.ci)
        if (self.fh, self.fw) not in ((1, 1), (3, 3)):
            raise ShapeError(f"filter dims must be 1x1 or 3x3, got {self.fh}x{self.fw}")
        n = self.co * self.fh * self.fw * self.ci
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        b = np.asarray(self.biases, dtype=np.float64).reshape(-1)
        if w.size != n:
            raise ShapeError(f"weights has {w.size} elements, expected {n}")
        if b.size != self.co:
            raise ShapeError(f"biases has {b.size} elements, expected {self.co}")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    def as_4d(self) -> np.ndarray:
        return self.weights.reshape(self.co, self.fh, self.fw, self.ci)

    @property
    def geom(self) -> tuple[int, int, int, int]:
        return (self.co, self.fh, self.fw, self.ci)


# ---------------------------------------------------------------------------
# Binary file formats.
#
# Tensor file: magic "QT3\0", u8 version, u8 elem kind (0=int8,
# 1=float32 LE), i8 frac_bits (0 for float), 3x u32 LE (H, X, C), payload of
# H*X*C elements in channel-fastest order.
#
# Filter-bank file: magic "QFB\0", u8 version, u8 elem kind, i8
# weight_frac_bits, i8 bias_frac_bits, 4x u32 LE (Co, Fh, Fw, Ci), weights
# payload, then bias payload.
# ---------------------------------------------------------------------------

_TENSOR_HEADER = struct.Struct("<4sBBb3I")
_BANK_HEADER = struct.Struct("<4sBBbb4I")


def _read_exact(fh, n, path, what):
    data = fh.read(n)
    if len(data) != n:
        raise CorruptionError(f"{path}: truncated {what} ({len(data)} of {n} bytes)")
    return data


def _check_header(path, magic, expected, version, kind, dims):
    if magic != expected:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {expected!r}")
    if version != FILE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if kind not in (KIND_INT8, KIND_FLOAT32):
        raise FormatError(f"{path}: unknown element kind {kind}")
    if min(dims) < 1:
        raise FormatError(f"{path}: zero dimension in header {dims}")


def _payload(fh, kind, count, path):
    # Check the claimed size against a regular file before reading, so a header alone
    # cannot force a large allocation; a pipe has no size, and _read_exact catches it short.
    nbytes = count if kind == KIND_INT8 else 4 * count
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else nbytes
    if nbytes > left:
        raise CorruptionError(f"{path}: truncated payload ({left} of {nbytes} bytes)")
    raw = _read_exact(fh, nbytes, path, "payload")
    if kind == KIND_INT8:
        return np.frombuffer(raw, dtype=np.int8)
    return np.frombuffer(raw, dtype="<f4").astype(np.float64)


def save_tensor(t: QTensor3 | FTensor3, path) -> None:
    quantized = isinstance(t, QTensor3)
    kind = KIND_INT8 if quantized else KIND_FLOAT32
    frac = t.frac_bits if quantized else 0
    with open(path, "wb") as fh:
        fh.write(
            _TENSOR_HEADER.pack(
                TENSOR_MAGIC, FILE_VERSION, kind, frac, t.height, t.width, t.channels
            )
        )
        if quantized:
            fh.write(t.values.tobytes())
        else:
            fh.write(t.values.astype("<f4").tobytes())


def load_tensor_any(path) -> QTensor3 | FTensor3:
    """Load a tensor file of either element kind."""
    with open_input(path) as fh:
        header = _read_exact(fh, _TENSOR_HEADER.size, path, "header")
        magic, version, kind, frac, h, x, c = _TENSOR_HEADER.unpack(header)
        _check_header(path, magic, TENSOR_MAGIC, version, kind, (h, x, c))
        vals = _payload(fh, kind, h * x * c, path)
        if fh.read(1):
            raise CorruptionError(f"{path}: trailing bytes after payload")
    if kind == KIND_INT8:
        return QTensor3(h, x, c, vals, frac)
    return FTensor3(h, x, c, vals)


def load_tensor(path) -> QTensor3:
    t = load_tensor_any(path)
    if not isinstance(t, QTensor3):
        raise FormatError(f"{path}: holds float data, expected a quantized tensor")
    return t


def save_bank(bank: QFilterBank | FFilterBank, path) -> None:
    quantized = isinstance(bank, QFilterBank)
    kind = KIND_INT8 if quantized else KIND_FLOAT32
    wf = bank.weight_frac_bits if quantized else 0
    bf = bank.bias_frac_bits if quantized else 0
    with open(path, "wb") as fh:
        fh.write(
            _BANK_HEADER.pack(
                BANK_MAGIC, FILE_VERSION, kind, wf, bf, bank.co, bank.fh, bank.fw, bank.ci
            )
        )
        if quantized:
            fh.write(bank.weights.tobytes())
            fh.write(bank.biases.tobytes())
        else:
            fh.write(bank.weights.astype("<f4").tobytes())
            fh.write(bank.biases.astype("<f4").tobytes())


def load_bank_any(path) -> QFilterBank | FFilterBank:
    with open_input(path) as fh:
        header = _read_exact(fh, _BANK_HEADER.size, path, "header")
        magic, version, kind, wf, bf, co, fhh, fww, ci = _BANK_HEADER.unpack(header)
        _check_header(path, magic, BANK_MAGIC, version, kind, (co, fhh, fww, ci))
        weights = _payload(fh, kind, co * fhh * fww * ci, path)
        biases = _payload(fh, kind, co, path)
        if fh.read(1):
            raise CorruptionError(f"{path}: trailing bytes after payload")
    if kind == KIND_INT8:
        return QFilterBank(co, fhh, fww, ci, weights, biases, wf, bf)
    return FFilterBank(co, fhh, fww, ci, weights, biases)


def load_bank(path) -> QFilterBank:
    bank = load_bank_any(path)
    if not isinstance(bank, QFilterBank):
        raise FormatError(f"{path}: holds float data, expected a quantized filter bank")
    return bank


def load_any(path) -> QTensor3 | FTensor3 | QFilterBank | FFilterBank:
    """Load a tensor or a filter-bank file; the magic tells which."""
    with open_input(path) as fh:
        magic = fh.read(len(BANK_MAGIC))
    return load_bank_any(path) if magic == BANK_MAGIC else load_tensor_any(path)
