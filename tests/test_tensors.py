import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bank, random_tensor, seeded
from convaccel import FTensor3, QFilterBank, QTensor3, load_bank, load_tensor, save_bank, save_tensor
from convaccel.errors import CorruptionError, FormatError, ShapeError
from convaccel.tensors import load_bank_any, load_tensor_any


def test_at_single_element():
    t = QTensor3(1, 1, 1, [5], 0)
    assert t.at(0, 0, 0) == 5


def test_at_index_arithmetic():
    t = QTensor3(2, 2, 3, list(range(12)), 0)
    assert t.at(1, 0, 2) == t.values[8] == 8


def test_at_matches_nested_loop_lookup():
    rng = seeded(11)
    t = random_tensor(rng, 4, 5, 7)
    flat = list(t.values)
    idx = 0
    for y in range(4):
        for x in range(5):
            for c in range(7):
                assert t.at(y, x, c) == flat[idx]
                idx += 1


def test_at_bounds():
    t = QTensor3(2, 2, 2, [0] * 8, 0)
    for bad in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (-1, 0, 0)):
        with pytest.raises(IndexError):
            t.at(*bad)


def test_constructors_reject_zero_dims():
    with pytest.raises(ShapeError):
        QTensor3(0, 1, 1, [], 0)
    with pytest.raises(ShapeError):
        QTensor3(1, 0, 1, [], 0)
    with pytest.raises(ShapeError):
        FTensor3(1, 1, 0, [])
    with pytest.raises(ShapeError):
        QFilterBank(0, 1, 1, 1, [], [], 0, 0)


def test_length_and_range_enforced():
    with pytest.raises(ShapeError):
        QTensor3(2, 2, 2, [0] * 7, 0)
    with pytest.raises(ValueError):
        QTensor3(1, 1, 1, [200], 0)
    with pytest.raises(ShapeError):
        QFilterBank(2, 3, 3, 2, [0] * 35, [0, 0], 0, 0)
    with pytest.raises(ShapeError):
        QFilterBank(2, 2, 2, 2, [0] * 16, [0, 0], 0, 0)  # only 1x1 / 3x3


def test_values_immutable():
    t = QTensor3(1, 1, 2, [1, 2], 0)
    with pytest.raises(ValueError):
        t.values[0] = 9


def test_writeable_int8_source_is_copied():
    src = np.array([1, 2, 3, 4], dtype=np.int8)
    t = QTensor3(1, 2, 2, src, 0)
    src[0] = 9
    assert t.values.tolist() == [1, 2, 3, 4]
    assert not np.shares_memory(t.values, src)


def test_read_only_view_of_writeable_array_is_copied():
    src = np.array([1, 2, 3, 4], dtype=np.int8)
    view = src[:]
    view.setflags(write=False)
    t = QTensor3(1, 2, 2, view, 0)
    src[0] = 9
    assert t.values.tolist() == [1, 2, 3, 4]
    assert not np.shares_memory(t.values, src)


def test_int64_outside_int8_still_raises():
    with pytest.raises(ValueError):
        QTensor3(1, 1, 2, np.array([0, 128], dtype=np.int64), 0)
    with pytest.raises(ValueError):
        QFilterBank(1, 1, 1, 1, np.array([-129], dtype=np.int64), [0], 0, 0)


def test_loaded_and_sliced_weights_are_shared_read_only(tmp_path):
    bank = random_bank(seeded(17), 8, 3, 4)
    path = tmp_path / "w.qfb"
    save_bank(bank, path)
    loaded = load_bank(path)
    # np.frombuffer over the file's bytes, kept without a copy
    root = loaded.weights
    while isinstance(root, np.ndarray):
        root = root.base
    assert isinstance(root, bytes)
    sub = loaded.slice_out_channels(2, 5)
    assert np.shares_memory(sub.weights, loaded.weights)
    assert np.shares_memory(sub.biases, loaded.biases)
    for arr in (loaded.weights, loaded.biases, sub.weights, sub.biases):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    # a bank built from lists owns a read-only copy; its slices are views of it
    own = bank.slice_out_channels(1, 3)
    assert np.shares_memory(own.weights, bank.weights)
    assert not own.weights.flags.writeable


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(-8, 15),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_layout_law(h, x, c, frac, data):
    nested = [
        [[data.draw(st.integers(-128, 127)) for _ in range(c)] for _ in range(x)]
        for _ in range(h)
    ]
    flat = [v for plane in nested for pixel in plane for v in pixel]
    t = QTensor3(h, x, c, flat, frac)
    for y in range(h):
        for xx in range(x):
            for cc in range(c):
                assert t.at(y, xx, cc) == nested[y][xx][cc]
    assert np.array_equal(t.as_3d(), np.array(nested))


def test_tensor_roundtrip(tmp_path):
    rng = seeded(3)
    t = random_tensor(rng, 8, 8, 16, frac=5)
    path = tmp_path / "t.qt3"
    save_tensor(t, path)
    assert load_tensor(path) == t


def test_float_tensor_roundtrip(tmp_path):
    vals = np.linspace(-2.0, 2.0, 3 * 4 * 5).astype(np.float32).astype(np.float64)
    t = FTensor3(3, 4, 5, vals)
    path = tmp_path / "t.qt3"
    save_tensor(t, path)
    back = load_tensor_any(path)
    assert isinstance(back, FTensor3)
    assert back == t
    with pytest.raises(FormatError):
        load_tensor(path)  # quantized loader refuses float payloads


def test_exact_payload_size_accepted(tmp_path):
    t = QTensor3(2, 2, 3, list(range(12)), 0)
    path = tmp_path / "t.qt3"
    save_tensor(t, path)
    assert load_tensor(path).geom == (2, 2, 3)


def test_truncated_payload(tmp_path):
    t = QTensor3(4, 4, 4, [1] * 64, 0)
    path = tmp_path / "t.qt3"
    save_tensor(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CorruptionError):
        load_tensor(path)


def test_trailing_garbage(tmp_path):
    t = QTensor3(2, 2, 2, [0] * 8, 0)
    path = tmp_path / "t.qt3"
    save_tensor(t, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CorruptionError):
        load_tensor(path)


def test_bad_magic_and_version(tmp_path):
    t = QTensor3(1, 1, 1, [1], 0)
    path = tmp_path / "t.qt3"
    save_tensor(t, path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_tensor(path)
    save_tensor(t, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_tensor(path)


def test_bank_roundtrip(tmp_path):
    rng = seeded(7)
    bank = random_bank(rng, 6, 3, 5)
    path = tmp_path / "w.qfb"
    save_bank(bank, path)
    assert load_bank(path) == bank


def test_bank_slice_out_channels():
    rng = seeded(9)
    bank = random_bank(rng, 8, 3, 4)
    sub = bank.slice_out_channels(2, 5)
    assert sub.geom == (3, 3, 3, 4)
    assert np.array_equal(sub.as_4d(), bank.as_4d()[2:5])
    assert np.array_equal(sub.biases, bank.biases[2:5])


def test_bank_truncation(tmp_path):
    rng = seeded(13)
    bank = random_bank(rng, 2, 1, 3)
    path = tmp_path / "w.qfb"
    save_bank(bank, path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptionError):
        load_bank_any(path)


def test_payload_size_checked_before_read(tmp_path):
    # Claims beyond addressable memory: only a size check can reject them.
    huge = 2**32 - 1
    path = tmp_path / "t.qt3"
    path.write_bytes(struct.pack("<4sBBb3I", b"QT3\0", 1, 0, 0, huge, huge, huge))
    with pytest.raises(CorruptionError, match="truncated payload"):
        load_tensor_any(path)
    path = tmp_path / "w.qfb"
    path.write_bytes(struct.pack("<4sBBbb4I", b"QFB\0", 1, 1, 0, 0, huge, 1, 1, huge))
    with pytest.raises(CorruptionError, match="truncated payload"):
        load_bank_any(path)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(-8, 15), st.data())
@settings(max_examples=40, deadline=None)
def test_save_load_identity(tmp_path_factory, h, x, c, frac, data):
    vals = [data.draw(st.integers(-128, 127)) for _ in range(h * x * c)]
    t = QTensor3(h, x, c, vals, frac)
    path = tmp_path_factory.mktemp("rt") / "t.qt3"
    save_tensor(t, path)
    assert load_tensor(path) == t
