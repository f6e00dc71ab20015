import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_scheme, seeded
from convaccel import DfpScheme, FTensor3, choose_frac_bits, dequantize, quantize
from convaccel.errors import AccumulatorOverflow
from convaccel.quant import FRAC_MAX, FRAC_MIN, I32_MAX, I32_MIN, _shift_round_block, rescale_block
from reference import rescale_ref, shift_round_ref


def test_choose_frac_all_zero():
    assert choose_frac_bits([0.0]) == 7


def test_choose_frac_unit():
    assert choose_frac_bits([1.0]) == 6  # 64 <= 127, 128 > 127


def test_choose_frac_definition_holds():
    rng = seeded(21)
    for _ in range(200):
        data = [rng.uniform(-10, 10) for _ in range(50)]
        f = choose_frac_bits(data)
        m = max(abs(v) for v in data)
        assert m * 2.0**f <= 127.0
        assert m * 2.0 ** (f + 1) > 127.0


def test_choose_frac_rejects_bad_input():
    with pytest.raises(ValueError):
        choose_frac_bits([])
    with pytest.raises(ValueError):
        choose_frac_bits([1.0, float("nan")])
    with pytest.raises(ValueError):
        choose_frac_bits([float("inf")])


def test_quantize_values():
    t = FTensor3(1, 1, 3, [0.5, 100.0, -0.09375])
    assert list(quantize(t, 4).values[:2]) == [8, 127]
    assert quantize(FTensor3(1, 1, 1, [-0.09375]), 5).values[0] == -3


def test_dequantize_value():
    q = quantize(FTensor3(1, 1, 1, [0.5]), 4)
    assert dequantize(q).values[0] == 0.5


def test_quantize_dequantize_fixed_point():
    rng = seeded(5)
    vals = [rng.randint(-128, 127) for _ in range(64)]
    from convaccel import QTensor3

    q = QTensor3(4, 4, 4, vals, 6)
    again = quantize(dequantize(q), 6)
    assert again == q


def test_quantization_error_bound():
    rng = seeded(17)
    data = np.array([rng.uniform(-10, 10) for _ in range(1000)])
    f = choose_frac_bits(data)
    t = FTensor3(10, 10, 10, data)
    err = np.abs(dequantize(quantize(t, f)).values - data)
    assert (err <= 2.0 ** (-f - 1) + 1e-12).all()


def _rescale_one(acc, scheme, bias=0):
    """rescale_block over a one-element block."""
    out = rescale_block(np.array([acc], dtype=np.int64), scheme, np.array([bias], dtype=np.int8))
    return int(out[0])


def _shift_round_one(value, shift):
    return int(_shift_round_block(np.array([value], dtype=np.int64), shift)[0])


def test_rescale_trivials():
    assert _rescale_one(0, DfpScheme(0, 0, 0, 0)) == 0
    assert _rescale_one(130, DfpScheme(0, 0, 0, 0)) == 127
    assert _rescale_one(256, DfpScheme(4, 4, 0, 4)) == 16


def test_rescale_bias_path():
    # bias shifted from its own exponent to the output exponent
    assert _rescale_one(0, DfpScheme(0, 0, 4, 2), 8) == 2
    assert _rescale_one(0, DfpScheme(0, 0, 0, 2), 8) == 32


@given(st.integers(-(2**31), 2**31 - 1), st.integers(-8, 8))
@settings(max_examples=300, deadline=None)
def test_shift_round_matches_reference(value, shift):
    if shift <= 0 and abs(value) > 2**22:
        value %= 1 << 20  # keep the left-shift result in a sane window
    assert _shift_round_one(value, shift) == shift_round_ref(value, shift)


@given(st.integers(-(2**22), 2**22), st.integers(-8, 0))
@settings(max_examples=200, deadline=None)
def test_shift_round_exact_for_nonpositive_shift(value, shift):
    assert _shift_round_one(value, shift) == value * 2 ** (-shift)


def test_rescale_matches_reference_randomized():
    rng = seeded(31)
    for _ in range(4000):
        scheme = random_scheme(rng)
        acc = rng.randint(-(2**20), 2**20)
        bias = rng.randint(-128, 127)
        assert _rescale_one(acc, scheme, bias) == rescale_ref(acc, scheme, bias)


def test_rescale_monotone_in_acc():
    rng = seeded(37)
    for _ in range(300):
        scheme = random_scheme(rng)
        bias = rng.randint(-128, 127)
        accs = sorted(rng.randint(-(2**18), 2**18) for _ in range(8))
        outs = [_rescale_one(a, scheme, bias) for a in accs]
        assert outs == sorted(outs)


def test_rescale_output_range():
    # acc bounded so the rescaled addends stay inside 32 bits (the scheme
    # window allows at most two doublings); the output is then always int8.
    rng = seeded(41)
    for _ in range(2000):
        scheme = random_scheme(rng)
        out = _rescale_one(rng.randint(-(2**28), 2**28), scheme, rng.randint(-128, 127))
        assert -128 <= out <= 127


def test_rescale_overflow_diagnostics():
    with pytest.raises(AccumulatorOverflow):
        _rescale_one(2**31, DfpScheme(0, 0, 0, 0))
    with pytest.raises(AccumulatorOverflow):
        _rescale_one(I32_MIN - 1, DfpScheme(0, 0, 0, 0))
    # left shift blowing past 32 bits is a diagnostic, not a wrap
    with pytest.raises(AccumulatorOverflow):
        _rescale_one(2**30, DfpScheme(0, 0, 0, 8))
    # both addends in range, their sum not
    with pytest.raises(AccumulatorOverflow):
        _rescale_one(I32_MAX, DfpScheme(0, 0, 0, 0), 1)


def test_rescale_block_matches_reference():
    rng = seeded(43)
    scheme = random_scheme(rng)
    accs = np.array([rng.randint(-(2**20), 2**20) for _ in range(48)], dtype=np.int64)
    biases = np.array([rng.randint(-128, 127) for _ in range(6)], dtype=np.int8)
    block = rescale_block(accs.reshape(2, 4, 6), scheme, biases)
    for i in range(2):
        for j in range(4):
            for c in range(6):
                assert block[i, j, c] == rescale_ref(int(accs[(i * 4 + j) * 6 + c]), scheme, int(biases[c]))


def test_rescale_block_matches_reference_at_ties_and_edges():
    rng = np.random.default_rng(47)
    biases = np.array([-128, -1, 0, 127], dtype=np.int8)
    for shift in range(1, 24):
        # input + weight - output exponent and bias - output exponent both equal shift
        scheme = DfpScheme((shift - 8) // 2, shift - 8 - (shift - 8) // 2, shift - 8, -8)
        ties = np.arange(-81, 81, 2) << (shift - 1)  # v = (2m+1) * 2**(s-1), both signs
        edges = [I32_MIN, I32_MIN + 1, I32_MAX - 1, I32_MAX]
        near = rng.integers(-(128 << shift), 128 << shift, 200)  # mostly unsaturated
        accs = np.concatenate([ties - 1, ties, ties + 1, edges, near]).astype(np.int64)
        block = rescale_block(np.repeat(accs[:, None], 4, axis=1), scheme, biases)
        want = [[rescale_ref(int(a), scheme, int(b)) for b in biases] for a in accs]
        assert block.tolist() == want, shift


_FRACS = st.integers(FRAC_MIN, FRAC_MAX)
_EDGES = (I32_MIN - 1, I32_MIN, I32_MIN + 1, -1, 0, 1, I32_MAX - 1, I32_MAX, I32_MAX + 1)
# (kind, m, d): a tie (2k+1) * 2**(s-1) + d, an int32 edge, a value that
# rescales into the int8 range, or any value within one of the int32 range.
_ACC_PARTS = st.tuples(
    st.sampled_from(("tie", "edge", "near", "any")), st.integers(I32_MIN - 1, I32_MAX + 1), st.integers(-1, 1)
)


def _acc_from(kind, m, d, shift):
    if kind == "tie" and shift > 0:
        span = 1 << max(0, 31 - shift)  # keeps most ties inside 32 bits
        return (2 * (m % span - span // 2) + 1) * 2 ** (shift - 1) + d
    if kind == "edge":
        return _EDGES[m % len(_EDGES)]
    if kind == "near":
        span = 256 << max(0, shift)
        return m % span - span // 2
    return m


def _rescale_oracle(accs, scheme, biases, relu):
    """The expected output list, or the AccumulatorOverflow message, from reference.py."""
    s = scheme.input_frac + scheme.weight_frac - scheme.output_frac
    shifted = [shift_round_ref(a, s) for a in accs]
    totals = [v + shift_round_ref(b, scheme.bias_frac - scheme.output_frac) for v, b in zip(shifted, biases)]
    for part, what in ((accs, "accumulator"), (shifted, "rescaled accumulator"), (totals, "rescaled sum")):
        if any(not I32_MIN <= v <= I32_MAX for v in part):
            return f"{what} outside 32-bit range"
    return [max(v, 0) if relu else v for v in (rescale_ref(a, scheme, b) for a, b in zip(accs, biases))]


@st.composite
def _schemes(draw):
    """Any scheme in the window, drawn so that each shift fi + fp - fo in [-31, 38] is as likely."""
    shift = draw(st.integers(2 * FRAC_MIN - FRAC_MAX, 2 * FRAC_MAX - FRAC_MIN))
    fo = draw(st.integers(max(FRAC_MIN, 2 * FRAC_MIN - shift), min(FRAC_MAX, 2 * FRAC_MAX - shift)))
    fi = draw(st.integers(max(FRAC_MIN, shift + fo - FRAC_MAX), min(FRAC_MAX, shift + fo - FRAC_MIN)))
    return DfpScheme(fi, shift + fo - fi, draw(_FRACS), fo)


@given(
    _schemes(),
    st.lists(st.tuples(_ACC_PARTS, st.integers(-128, 127)), min_size=1, max_size=8),
    st.booleans(),
)
@example(DfpScheme(-8, -8, 15, 15), [(("edge", 7, 0), -128), (("any", -(2**20), 0), 127)], False)
@example(DfpScheme(15, 15, -8, -8), [(("tie", 5, 0), 127), (("edge", 1, 0), -128), (("tie", 0, 1), 3)], True)
@example(DfpScheme(0, 0, 0, 0), [(("edge", 7, 0), 1)], False)
@settings(max_examples=300, deadline=None)
def test_rescale_block_float_and_int_accumulators_match_reference(scheme, cells, relu):
    shift = scheme.input_frac + scheme.weight_frac - scheme.output_frac
    accs = [_acc_from(*parts, shift) for parts, _ in cells]
    biases = np.array([b for _, b in cells], dtype=np.int8)
    want = _rescale_oracle(accs, scheme, biases.tolist(), relu)
    for dtype in (np.int64, np.float64):
        acc = np.array(accs, dtype=dtype)
        before = acc.copy()
        if isinstance(want, str):
            with pytest.raises(AccumulatorOverflow, match=f"^{want}$"):
                rescale_block(acc, scheme, biases, relu=relu)
        else:
            out = rescale_block(acc, scheme, biases, relu=relu)
            assert out.dtype == np.int8 and out.tolist() == want
        assert np.array_equal(acc, before)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_quantize_roundtrip_bound_property(data):
    f = data.draw(st.integers(-2, 10))
    xs = data.draw(
        st.lists(st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=1, max_size=20)
    )
    t = FTensor3(1, 1, len(xs), xs)
    q = quantize(t, f)
    back = dequantize(q).values
    for orig, rec, raw in zip(xs, back, q.values):
        if -128 < raw < 127:  # not saturated
            assert abs(rec - orig) <= 2.0 ** (-f - 1) + 1e-12
