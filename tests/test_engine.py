import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_bank,
    random_instance,
    random_scheme,
    random_tensor,
    seeded,
    wide_open_config,
)
from convaccel import (
    DfpScheme,
    LayerSpec,
    PoolSpec,
    QFilterBank,
    QTensor3,
    SplitPlan,
    accel_exec,
    load_config,
    conv_exec,
    exec_with_split,
    mpool_exec,
    plan_split,
)
from convaccel.engine import F32_EXACT_CI, conv_out_dims, pool_out_dims
from convaccel.errors import ConfigTooSmallError, ShapeError
from reference import check_plan, conv_ref, layer_ref, pool_ref, rescale_ref


def _identity_spec():
    return LayerSpec(1, 1, 0, 1, False, None, DfpScheme(0, 0, 0, 0))


def test_identity_kernel():
    rng = seeded(2)
    ia = random_tensor(rng, 5, 4, 1, frac=0)
    bank = QFilterBank(1, 1, 1, 1, [1], [0], 0, 0)
    out = conv_exec(ia, bank, _identity_spec())
    assert out == ia


def test_zero_input_is_bias_broadcast():
    scheme = DfpScheme(2, 3, 4, 4)
    for relu in (False, True):
        spec = LayerSpec(3, 1, 1, 3, relu, None, scheme)
        ia = QTensor3(4, 4, 2, [0] * 32, 2)
        bank = QFilterBank(3, 3, 3, 2, [7] * 54, [-40, 0, 90], 3, 4)
        out = conv_exec(ia, bank, spec)
        for c, braw in enumerate((-40, 0, 90)):
            want = rescale_ref(0, scheme, braw)
            if relu:
                want = max(0, want)
            assert set(out.as_3d()[:, :, c].reshape(-1).tolist()) == {want}


def test_conv_matches_bruteforce_oracle():
    rng = seeded(101)
    scheme = random_scheme(rng)
    spec = LayerSpec(3, 2, 1, 10, False, None, scheme)
    ia = random_tensor(rng, 7, 9, 6, frac=scheme.input_frac)
    bank = random_bank(rng, 10, 3, 6, wf=scheme.weight_frac, bf=scheme.bias_frac)
    out = conv_exec(ia, bank, spec)
    assert list(out.values) == conv_ref(ia, bank, spec)
    assert out.geom == (4, 5, 10)


def test_conv_randomized_against_oracle():
    rng = seeded(103)
    for _ in range(60):
        ia, bank, spec = random_instance(rng, max_hw=8, max_ch=8, pool_ok=False)
        out = conv_exec(ia, bank, spec)
        assert list(out.values) == conv_ref(ia, bank, spec)


def test_conv_extreme_schemes_against_oracle():
    # exponents spanning the whole sanity window, including negatives
    # (tensor scales above 1.0); fo capped so rescale stays in 32 bits
    rng = seeded(104)
    for _ in range(40):
        fi = rng.randint(-8, 15)
        fp = rng.randint(-8, 15)
        fb = rng.randint(-8, 15)
        # accumulators stay under 2^21 at these sizes, so left shifts up
        # to 10 cannot overflow the 32-bit rescale
        lo = max(-8, min(fi + fp - 14, 15))
        hi = min(15, fi + fp + 10)
        fo = rng.randint(lo, max(lo, hi))
        scheme = DfpScheme(fi, fp, fb, fo)
        f = rng.choice((1, 3))
        p = rng.choice((0, 1)) if f == 3 else 0
        h, x = rng.randint(f, 7), rng.randint(f, 7)
        ci, co = rng.randint(1, 8), rng.randint(1, 8)
        spec = LayerSpec(f, rng.choice((1, 2)), p, co, rng.random() < 0.5, None, scheme)
        ia = QTensor3(h, x, ci, [rng.randint(-128, 127) for _ in range(h * x * ci)], fi)
        bank = QFilterBank(
            co,
            f,
            f,
            ci,
            [rng.randint(-128, 127) for _ in range(co * f * f * ci)],
            [rng.randint(-128, 127) for _ in range(co)],
            fp,
            fb,
        )
        assert list(conv_exec(ia, bank, spec).values) == conv_ref(ia, bank, spec)


def test_conv_large_k_against_oracle():
    # K = 9 * ci up to 4608, the largest FILTERxFILTERxCHIN_MAX of the
    # reference configs; the float64 accumulation must stay exact there
    rng = seeded(103)
    scheme = DfpScheme(4, 5, 5, -4)
    for ci in (64, 200, 512):
        spec = LayerSpec(3, 1, 1, 3, rng.random() < 0.5, None, scheme)
        ia = random_tensor(rng, 3, 2, ci, frac=4)
        bank = random_bank(rng, 3, 3, ci, wf=5, bf=5)
        assert list(conv_exec(ia, bank, spec).values) == conv_ref(ia, bank, spec)


def test_conv_all_min_int8_at_k_4608():
    # every product is +2**14; the centre sum is 4608 * 2**14, exactly
    ci = 512
    scheme = DfpScheme(7, 7, 0, -6)
    spec = LayerSpec(3, 1, 1, 2, False, None, scheme)
    ia = QTensor3(3, 3, ci, [-128] * (9 * ci), 7)
    bank = QFilterBank(2, 3, 3, ci, [-128] * (2 * 9 * ci), [0, 0], 7, 0)
    got = conv_exec(ia, bank, spec)
    assert list(got.values) == conv_ref(ia, bank, spec)
    assert got.at(1, 1, 0) == rescale_ref(4608 * 2**14, scheme, 0)


# A tap GEMM over ci channels sums ci products of magnitude <= 2**14; float32
# holds that exactly up to ci = 1024.  Above it conv_exec must switch to float64.
F32_EDGE_VALUES = (127, -127, -128)


@pytest.mark.parametrize("ci", [F32_EXACT_CI, 1041])
def test_conv_all_max_int8_at_float32_bound(ci):
    # every product is 127*127; at ci = 1041 a tap sums to 16,790,289 > 2**24
    scheme = DfpScheme(7, 7, 0, -7)
    spec = LayerSpec(3, 1, 1, 2, False, None, scheme)
    ia = QTensor3(3, 3, ci, np.full(9 * ci, 127, dtype=np.int8), 7)
    bank = QFilterBank(2, 3, 3, ci, np.full(18 * ci, 127, dtype=np.int8), [0, 0], 7, 0)
    assert list(conv_exec(ia, bank, spec).values) == conv_ref(ia, bank, spec)


def _tap_pair_case(ci, a, w, tail_a, tail_w):
    """A 3x3 valid convolution to one output pixel whose taps (0, 0) and (0, 1) sum
    to about +-ci*a*w each but cancel to a small total; every other input is 0.

    Tap (0, 0) multiplies activation a by weight w in every channel.  Tap (0, 1)
    mirrors that product with a sign flip, except in its last channel, which holds
    tail_a * tail_w.  The bias, shifted left by 8, brings the exact sum near 0
    under an unshifted accumulator, so an error of 1 in either tap sum shows in
    the int8 output.
    """
    if w != -128:
        mirror = (a, -w)
    elif a != -128:
        mirror = (-a, w)
    else:
        mirror = (-128, 127)  # -128 * -128 has no mirror; the sum stays large
    acts = np.zeros((3, 3, ci), dtype=np.int8)
    weights = np.zeros((1, 3, 3, ci), dtype=np.int8)
    acts[0, 0], weights[0, 0, 0] = a, w
    acts[0, 1], weights[0, 0, 1] = mirror
    acts[0, 1, -1], weights[0, 0, 1, -1] = tail_a, tail_w
    exact = ci * a * w + (ci - 1) * mirror[0] * mirror[1] + tail_a * tail_w
    bias = max(-128, min(127, round(-exact / 256)))
    scheme = DfpScheme(0, 7, -1, 7)  # accumulator shift 0, bias shift -8
    spec = LayerSpec(3, 1, 0, 1, False, None, scheme)
    ia = QTensor3(3, 3, ci, acts.reshape(-1), 0)
    bank = QFilterBank(1, 3, 3, ci, weights.reshape(-1), [bias], 7, -1)
    return ia, bank, spec


@pytest.mark.parametrize("ci", [F32_EXACT_CI, 1041])
def test_conv_cancelling_taps_at_float32_bound(ci):
    # 16129 - 16256 = -127; at ci = 1041 the first tap sums to 16,790,289,
    # odd and above 2**24, so a float32 tap GEMM could not return it
    ia, bank, spec = _tap_pair_case(ci, 127, 127, -128, 127)
    got = conv_exec(ia, bank, spec)
    assert list(got.values) == conv_ref(ia, bank, spec) == [-127]


@given(
    st.integers(1000, 1100),
    *[st.sampled_from(F32_EDGE_VALUES) for _ in range(4)],
)
@settings(max_examples=60, deadline=None)
def test_conv_tap_sums_near_float32_bound(ci, a, w, tail_a, tail_w):
    ia, bank, spec = _tap_pair_case(ci, a, w, tail_a, tail_w)
    assert list(conv_exec(ia, bank, spec).values) == conv_ref(ia, bank, spec)


def test_conv_overflow_diagnostic():
    from convaccel.errors import AccumulatorOverflow

    # fo far above fi+fp forces a large left shift of a nonzero sum
    scheme = DfpScheme(-8, -8, 0, 15)
    spec = LayerSpec(1, 1, 0, 1, False, None, scheme)
    ia = QTensor3(1, 1, 1, [127], -8)
    bank = QFilterBank(1, 1, 1, 1, [127], [0], -8, 0)
    with pytest.raises(AccumulatorOverflow):
        conv_exec(ia, bank, spec)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_conv_property_fuzz_vs_oracle(data):
    f = data.draw(st.sampled_from((1, 3)))
    p = data.draw(st.sampled_from((0, 1))) if f == 3 else 0
    s = data.draw(st.sampled_from((1, 2)))
    h = data.draw(st.integers(max(1, f - 2 * p), 6))
    x = data.draw(st.integers(max(1, f - 2 * p), 6))
    ci = data.draw(st.integers(1, 5))
    co = data.draw(st.integers(1, 5))
    relu = data.draw(st.booleans())
    fi = data.draw(st.integers(0, 7))
    fp = data.draw(st.integers(0, 7))
    fb = data.draw(st.integers(0, 7))
    fo = data.draw(st.integers(max(-8, fi + fp - 10), min(15, fi + fp + 4)))
    scheme = DfpScheme(fi, fp, fb, fo)
    spec = LayerSpec(f, s, p, co, relu, None, scheme)
    ia = QTensor3(
        h, x, ci, [data.draw(st.integers(-128, 127)) for _ in range(h * x * ci)], fi
    )
    bank = QFilterBank(
        co,
        f,
        f,
        ci,
        [data.draw(st.integers(-128, 127)) for _ in range(co * f * f * ci)],
        [data.draw(st.integers(-128, 127)) for _ in range(co)],
        fp,
        fb,
    )
    assert list(conv_exec(ia, bank, spec).values) == conv_ref(ia, bank, spec)


def test_conv_shape_errors():
    ia = QTensor3(4, 4, 3, [0] * 48, 0)
    bank = QFilterBank(2, 3, 3, 4, [0] * 72, [0, 0], 0, 0)
    with pytest.raises(ShapeError):
        conv_exec(ia, bank, LayerSpec(3, 1, 0, 2, False, None, DfpScheme(0, 0, 0, 0)))


def test_mpool_constant():
    t = QTensor3(5, 5, 3, [9] * 75, 2)
    out = mpool_exec(t, 3)
    assert out.geom == (2, 2, 3)
    assert set(out.values.tolist()) == {9}
    assert out.frac_bits == 2


def test_mpool_2x2_known_values():
    t = QTensor3(4, 4, 1, list(range(16)), 0)
    out = mpool_exec(t, 2)
    assert out.as_3d()[:, :, 0].tolist() == [[5, 7], [13, 15]]


def test_mpool_matches_oracle():
    rng = seeded(109)
    t = random_tensor(rng, 9, 9, 16)
    out = mpool_exec(t, 3)
    assert list(out.values) == pool_ref(t, 3)
    for _ in range(30):
        h, x = rng.randint(2, 9), rng.randint(2, 9)
        w = rng.choice((2, 3))
        if h < w or x < w:
            continue
        t = random_tensor(rng, h, x, rng.randint(1, 8))
        assert list(mpool_exec(t, w).values) == pool_ref(t, w)


def test_mpool_two_phase_equals_direct_max():
    rng = seeded(113)
    for _ in range(30):
        h, x, c = rng.randint(3, 8), rng.randint(3, 8), rng.randint(1, 6)
        w = rng.choice((2, 3))
        t = random_tensor(rng, h, x, c)
        got = mpool_exec(t, w).as_3d()
        v = t.as_3d()
        ho, wo = (h - w) // 2 + 1, (x - w) // 2 + 1
        direct = np.stack(
            [
                np.stack(
                    [v[yo * 2 : yo * 2 + w, xo * 2 : xo * 2 + w].max(axis=(0, 1)) for xo in range(wo)]
                )
                for yo in range(ho)
            ]
        )
        assert np.array_equal(got, direct)


def test_mpool_too_small():
    with pytest.raises(ShapeError):
        mpool_exec(QTensor3(2, 2, 1, [0] * 4, 0), 3)


def test_accel_exec_composition():
    rng = seeded(127)
    ia, bank, spec = random_instance(rng, pool_ok=False)
    assert accel_exec(ia, bank, spec) == conv_exec(ia, bank, spec)

    for _ in range(25):
        ia, bank, spec = random_instance(rng)
        out = accel_exec(ia, bank, spec)
        assert list(out.values) == layer_ref(ia, bank, spec)
        if spec.relu:
            assert out.values.min() >= 0


def test_relu_flag_forces_nonnegative():
    rng = seeded(131)
    for _ in range(10):
        ia, bank, spec = random_instance(rng)
        spec_on = LayerSpec(
            spec.filter, spec.stride, spec.padding, spec.co, True, spec.pool, spec.scheme
        )
        assert accel_exec(ia, bank, spec_on).values.min() >= 0


def test_relu_is_identity_on_nonnegative_outputs():
    # nonnegative inputs, weights, and biases force nonnegative results,
    # so the ReLU flag must not change anything
    rng = seeded(133)
    for _ in range(10):
        scheme = random_scheme(rng)
        f = rng.choice((1, 3))
        p = rng.choice((0, 1)) if f == 3 else 0
        co, ci = rng.randint(1, 6), rng.randint(1, 6)
        ia = QTensor3(
            5, 5, ci, [rng.randint(0, 127) for _ in range(25 * ci)], scheme.input_frac
        )
        bank = QFilterBank(
            co,
            f,
            f,
            ci,
            [rng.randint(0, 127) for _ in range(co * f * f * ci)],
            [rng.randint(0, 127) for _ in range(co)],
            scheme.weight_frac,
            scheme.bias_frac,
        )
        off = LayerSpec(f, 1, p, co, False, None, scheme)
        on = LayerSpec(f, 1, p, co, True, None, scheme)
        assert conv_exec(ia, bank, off) == conv_exec(ia, bank, on)


def test_output_geometry_formulas():
    scheme = DfpScheme(0, 0, 0, 0)
    for f in (1, 3):
        for s in (1, 2):
            for p in (0, 1) if f == 3 else (0,):
                spec = LayerSpec(f, s, p, 1, False, None, scheme)
                for h in range(1, 12):
                    for x in range(1, 12):
                        if h + 2 * p < f or x + 2 * p < f:
                            continue
                        ho, wo = conv_out_dims(h, x, spec)
                        assert ho == (h + 2 * p - f) // s + 1
                        assert wo == (x + 2 * p - f) // s + 1
    assert pool_out_dims(7, 9, PoolSpec(3)) == (3, 4)
    assert pool_out_dims(4, 4, PoolSpec(2)) == (2, 2)


# ---------------------------------------------------------------------------
# Split-merge
# ---------------------------------------------------------------------------


def test_plan_split_example():
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=16384, chout_max=64)
    plan = plan_split((64, 3, 3, 32), cfg)
    assert plan.groups == ((0, 56), (56, 64))
    assert plan.restreams == 2


def test_plan_split_single_group():
    cfg = wide_open_config()
    plan = plan_split((64, 3, 3, 32), cfg)
    assert plan.groups == ((0, 64),)
    assert plan.restreams == 1


def test_plan_split_too_small():
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=100)
    with pytest.raises(ConfigTooSmallError):
        plan_split((4, 3, 3, 32), cfg)  # one channel needs 288 bytes


@given(
    st.integers(1, 128),
    st.sampled_from((1, 3)),
    st.integers(1, 64),
    st.integers(1, 1 << 16),
    st.integers(1, 256),
)
@settings(max_examples=200, deadline=None)
def test_plan_split_properties(co, f, ci, budget, chout_max):
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=budget, chout_max=chout_max)
    per_out = f * f * ci
    if budget < per_out:
        with pytest.raises(ConfigTooSmallError):
            plan_split((co, f, f, ci), cfg)
        return
    plan = plan_split((co, f, f, ci), cfg)
    check_plan(plan, (co, f, f, ci), cfg)  # contiguity, coverage, both budgets
    assert plan.groups[0][0] == 0 and plan.groups[-1][1] == co


def test_exec_with_split_single_group_identity():
    rng = seeded(137)
    ia, bank, spec = random_instance(rng)
    cfg = wide_open_config()
    assert exec_with_split(ia, bank, spec, cfg) == accel_exec(ia, bank, spec)


def test_exec_with_split_matches_unsplit():
    rng = seeded(139)
    for _ in range(20):
        ia, bank, spec = random_instance(rng, max_hw=7, max_ch=10)
        per_out = spec.filter * spec.filter * ia.channels
        group = rng.randint(1, max(1, spec.co - 1)) if spec.co > 1 else 1
        cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=per_out * group)
        got = exec_with_split(ia, bank, spec, cfg)
        assert got == accel_exec(ia, bank, spec)


def test_exec_with_split_vgg16_conv5_geometry(data_dir):
    # 4x4x512 -> 512 3x3, as vgg16's conv5 layers at a 64x64 input, split
    # by conf6's weight budget
    rng = np.random.default_rng(141)
    cfg = load_config(os.path.join(data_dir, "configs", "conf6.cfg"))
    scheme = DfpScheme(3, 7, 7, 1)
    spec = LayerSpec(3, 1, 1, 512, True, PoolSpec(2), scheme)
    ia = QTensor3(4, 4, 512, rng.integers(-128, 128, 4 * 4 * 512), 3)
    bank = QFilterBank(
        512, 3, 3, 512, rng.integers(-128, 128, 512 * 9 * 512), rng.integers(-128, 128, 512), 7, 7
    )
    assert plan_split(bank.geom, cfg).restreams > 1
    assert exec_with_split(ia, bank, spec, cfg) == accel_exec(ia, bank, spec)


def test_out_of_order_merge_is_detected():
    rng = seeded(157)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=6, pool_ok=False)
    while spec.co < 2:
        ia, bank, spec = random_instance(rng, max_hw=5, max_ch=6, pool_ok=False)
    full = accel_exec(ia, bank, spec)
    mid = spec.co // 2

    def piece(lo, hi):
        sub = bank.slice_out_channels(lo, hi)
        sub_spec = LayerSpec(
            spec.filter, spec.stride, spec.padding, hi - lo, spec.relu, spec.pool, spec.scheme
        )
        return accel_exec(ia, sub, sub_spec).as_3d()

    swapped = np.concatenate([piece(mid, spec.co), piece(0, mid)], axis=2)
    correct = np.concatenate([piece(0, mid), piece(mid, spec.co)], axis=2)
    assert np.array_equal(correct, full.as_3d())
    if not np.array_equal(swapped, correct):  # degenerate symmetric case is possible
        assert not np.array_equal(swapped, full.as_3d())


def test_bad_plans_rejected():
    cfg = wide_open_config()
    with pytest.raises(ValueError):
        check_plan(SplitPlan(((0, 2), (3, 4))), (4, 1, 1, 1), cfg)  # gap
    with pytest.raises(ValueError):
        check_plan(SplitPlan(((0, 2),)), (4, 1, 1, 1), cfg)  # short cover
    small = wide_open_config(chout_max=2)
    with pytest.raises(ValueError):
        check_plan(SplitPlan(((0, 4),)), (4, 1, 1, 1), small)
