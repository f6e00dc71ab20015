"""Activation volumes and filter banks in the accelerator's memory layout.

Activations are 3-D volumes stored flat with the channel as the
fastest-changing dimension: element (y, x, c) lives at index
(y*width + x)*channels + c.  Filter banks are stored in
[out_ch][filter_h][filter_w][in_ch] order.  Both carry a power-of-two
scale exponent ``frac_bits``: real value = raw * 2**-frac_bits.

The int8 containers and their float twins (QTensor3/FTensor3,
QFilterBank/FFilterBank) share one definition of their geometry checks,
views and equality; they differ in element type and the int8 exponents.

All objects are immutable after construction and safe to share.  Their
int8 arrays are read-only; an int8 source that nothing can write (a
``np.frombuffer`` view of ``bytes``, as the file loaders give, or a view
of another object's read-only array, as ``slice_out_channels`` gives) is
shared without a copy.  Any other source is copied, after a range check
unless its dtype is already int8.

Both binary formats have one writer, which opens its output through
``errors.open_output`` (an unwritable path is a LoadError), and one reader.
The reader opens its path once, so a named pipe loads too.  It reads the
magic, then runs each check once: the header, the payload size against the
bytes the file holds (before the read, so a header alone cannot force a
large allocation), the payload read and the trailing bytes.
"""

from __future__ import annotations

import io
import os
import stat
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CorruptionError, FormatError, ShapeError, open_input, open_output

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
    if arr.ndim != 1:
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


def _as_float64(values, expect_len, what):
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size != expect_len:
        raise ShapeError(f"{what} has {arr.size} elements, expected {expect_len}")
    arr.setflags(write=False)
    return arr


class _Container:
    """What an int8 container and its float twin share.

    A subclass names its geometry (``geom``; ``_geometry`` checks it and
    gives the length of each array in ``_ARRAYS``), the element conversion
    (``_convert``) and the int8 twin's exponents (``_SCALES``).
    """

    _SCALES: tuple[str, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.geom == other.geom
            and all(getattr(self, s) == getattr(other, s) for s in self._SCALES)
            and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self._ARRAYS)
        )


@dataclass(frozen=True, eq=False)
class _Volume(_Container):
    height: int
    width: int
    channels: int
    values: np.ndarray

    _ARRAYS = ("values",)

    def __post_init__(self):
        (n,) = self._geometry(self.height, self.width, self.channels)
        for name in self._SCALES:
            _check_frac(name, getattr(self, name))
        object.__setattr__(self, "values", self._convert(self.values, n, "values"))

    @staticmethod
    def _geometry(height, width, channels):
        _positive("height", height)
        _positive("width", width)
        _positive("channels", channels)
        return (height * width * channels,)

    def as_3d(self) -> np.ndarray:
        """Read-only (height, width, channels) view of the flat storage."""
        return self.values.reshape(self.height, self.width, self.channels)

    @property
    def geom(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)


@dataclass(frozen=True, eq=False)
class QTensor3(_Volume):
    """Quantized 3-D activation volume, channel-fastest layout."""

    frac_bits: int = 0

    _SCALES = ("frac_bits",)
    _convert = staticmethod(_as_int8)

    def at(self, y: int, x: int, c: int) -> int:
        if not (0 <= y < self.height and 0 <= x < self.width and 0 <= c < self.channels):
            raise IndexError(
                f"index ({y}, {x}, {c}) out of range for "
                f"{self.height}x{self.width}x{self.channels} tensor"
            )
        return int(self.values[(y * self.width + x) * self.channels + c])

    def __repr__(self):
        return f"QTensor3({self.height}x{self.width}x{self.channels}, frac_bits={self.frac_bits})"


@dataclass(frozen=True, eq=False)
class FTensor3(_Volume):
    """Real-valued tensor with QTensor3 geometry; the float reference domain."""

    _convert = staticmethod(_as_float64)

    def __repr__(self):
        return f"FTensor3({self.height}x{self.width}x{self.channels})"


@dataclass(frozen=True, eq=False)
class _Bank(_Container):
    co: int
    fh: int
    fw: int
    ci: int
    weights: np.ndarray
    biases: np.ndarray

    _ARRAYS = ("weights", "biases")

    def __post_init__(self):
        nw, nb = self._geometry(self.co, self.fh, self.fw, self.ci)
        for name in self._SCALES:
            _check_frac(name, getattr(self, name))
        object.__setattr__(self, "weights", self._convert(self.weights, nw, "weights"))
        object.__setattr__(self, "biases", self._convert(self.biases, nb, "biases"))

    @staticmethod
    def _geometry(co, fh, fw, ci):
        _positive("co", co)
        _positive("ci", ci)
        if (fh, fw) not in ((1, 1), (3, 3)):
            raise ShapeError(f"filter dims must be 1x1 or 3x3, got {fh}x{fw}")
        return (co * fh * fw * ci, co)

    def as_4d(self) -> np.ndarray:
        return self.weights.reshape(self.co, self.fh, self.fw, self.ci)

    @property
    def geom(self) -> tuple[int, int, int, int]:
        return (self.co, self.fh, self.fw, self.ci)


@dataclass(frozen=True, eq=False)
class QFilterBank(_Bank):
    """Quantized convolution parameters: weights [co][fh][fw][ci] plus per-output biases."""

    weight_frac_bits: int = 0
    bias_frac_bits: int = 0

    _SCALES = ("weight_frac_bits", "bias_frac_bits")
    _convert = staticmethod(_as_int8)

    def slice_out_channels(self, start: int, stop: int) -> "QFilterBank":
        """Sub-bank covering output channels [start, stop); used by split-merge."""
        if not 0 <= start < stop <= self.co:
            raise ShapeError(f"bad output-channel range [{start}, {stop}) for co={self.co}")
        weights = self.as_4d()[start:stop].reshape(-1)
        return QFilterBank(stop - start, self.fh, self.fw, self.ci, weights,
                           self.biases[start:stop], self.weight_frac_bits, self.bias_frac_bits)

    def __repr__(self):
        return f"QFilterBank(co={self.co}, {self.fh}x{self.fw}, ci={self.ci})"


@dataclass(frozen=True, eq=False)
class FFilterBank(_Bank):
    """Real-valued filter bank; input domain of the quantizer."""

    _convert = staticmethod(_as_float64)


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


class _Format(NamedTuple):
    magic: bytes
    header: struct.Struct  # magic, version, kind, the int8 twin's exponents, geometry
    name: str
    kinds: tuple  # the container class of each element kind, by kind number


_TENSOR = _Format(TENSOR_MAGIC, struct.Struct("<4sBBb3I"), "tensor", (QTensor3, FTensor3))
_BANK = _Format(BANK_MAGIC, struct.Struct("<4sBBbb4I"), "filter bank", (QFilterBank, FFilterBank))


def _write(obj, path, fmt: _Format) -> None:
    quantized = isinstance(obj, fmt.kinds[KIND_INT8])
    # A float container has no exponents; its header holds 0 in their place.
    scales = [getattr(obj, s) if quantized else 0 for s in fmt.kinds[KIND_INT8]._SCALES]
    kind = KIND_INT8 if quantized else KIND_FLOAT32
    with open_output(path, "wb") as fh:
        fh.write(fmt.header.pack(fmt.magic, FILE_VERSION, kind, *scales, *obj.geom))
        for name in obj._ARRAYS:
            arr = getattr(obj, name)
            fh.write(arr.tobytes() if quantized else arr.astype("<f4").tobytes())


def _read(path, formats: tuple[_Format, ...], quantized=False):
    """Load a file in one of ``formats``, picked by its magic; a magic that
    matches none is reported against the first.  ``quantized`` refuses
    float data."""
    with open_input(path) as fh:
        head = fh.read(len(TENSOR_MAGIC))
        fmt = next((f for f in formats if f.magic == head), formats[0])
        size = fmt.header.size
        head += fh.read(size - len(head))
        if len(head) != size:
            raise CorruptionError(f"{path}: truncated header ({len(head)} of {size} bytes)")
        magic, version, kind, *fields = fmt.header.unpack(head)
        nscales = len(fmt.kinds[KIND_INT8]._SCALES)
        scales, dims = fields[:nscales], tuple(fields[nscales:])
        if magic != fmt.magic:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {fmt.magic!r}")
        if version != FILE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if kind not in (KIND_INT8, KIND_FLOAT32):
            raise FormatError(f"{path}: unknown element kind {kind}")
        if min(dims) < 1:
            raise FormatError(f"{path}: zero dimension in header {dims}")
        cls = fmt.kinds[kind]
        try:
            lengths = cls._geometry(*dims)
        except ShapeError as exc:
            raise FormatError(f"{path}: {exc}") from None
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            body, left = fh, st.st_size - fh.tell()
        else:  # a pipe has no size: take what it sends, then check against that
            body = io.BytesIO(fh.read())
            left = len(body.getbuffer())
        dtype = np.dtype(np.int8 if kind == KIND_INT8 else "<f4")
        arrays = []
        for count in lengths:
            nbytes = count * dtype.itemsize
            if nbytes > left:
                raise CorruptionError(f"{path}: truncated payload ({left} of {nbytes} bytes)")
            raw = body.read(nbytes)
            if len(raw) != nbytes:
                raise CorruptionError(f"{path}: truncated payload ({len(raw)} of {nbytes} bytes)")
            left -= nbytes
            arr = np.frombuffer(raw, dtype=dtype)
            arrays.append(arr if kind == KIND_INT8 else arr.astype(np.float64))
        if body.read(1):
            raise CorruptionError(f"{path}: trailing bytes after payload")
    if kind == KIND_INT8:
        return cls(*dims, *arrays, *scales)
    if quantized:
        raise FormatError(f"{path}: holds float data, expected a quantized {fmt.name}")
    return cls(*dims, *arrays)


def save_tensor(t: QTensor3 | FTensor3, path) -> None:
    _write(t, path, _TENSOR)


def save_bank(bank: QFilterBank | FFilterBank, path) -> None:
    _write(bank, path, _BANK)


def load_tensor(path) -> QTensor3:
    return _read(path, (_TENSOR,), quantized=True)


def load_bank(path) -> QFilterBank:
    return _read(path, (_BANK,), quantized=True)


def load_any(path) -> QTensor3 | FTensor3 | QFilterBank | FFilterBank:
    """Load a tensor or a filter-bank file; the magic tells which."""
    return _read(path, (_TENSOR, _BANK))
