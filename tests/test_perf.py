import os
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import seeded, wide_open_config
from convaccel import Calibration, DfpScheme, LayerSpec, PoolSpec, estimate_resources
from convaccel.engine import conv_out_dims
from convaccel.errors import ConfigTooSmallError, ShapeError, ValidationError
from convaccel.graph import ConvNode, HostNode, NetworkGraph, validate
from convaccel.perf import conv_cycles, network_perf
from reference import conv_cycles_ref, validate_ref

ZERO_CAL = Calibration(k_pipe=0, k_layer=0, k_pool=0)
SCHEME = DfpScheme(4, 4, 4, 4)


def _spec(f=1, s=1, p=0, co=8, pool=None):
    return LayerSpec(f, s, p, co, False, pool, SCHEME)


def test_single_tile_is_one_cycle():
    cfg = wide_open_config(icp=16, ocp=8)
    cyc = conv_cycles(_spec(co=8), (1, 1, 16), cfg, ZERO_CAL)
    assert cyc.compute_cycles == 1


def test_doubling_icp_halves_compute():
    spec = _spec(f=3, s=1, p=1, co=32)
    geom = (14, 14, 64)
    lo = conv_cycles(spec, geom, wide_open_config(icp=16, ocp=8), ZERO_CAL)
    hi = conv_cycles(spec, geom, wide_open_config(icp=32, ocp=8, pe_dsp=8), ZERO_CAL)
    assert lo.compute_cycles == 2 * hi.compute_cycles


def test_compute_formula_instantiation():
    # 3x3 pad 1 over 8x8x32 -> 64 windows; co=16 over ocp=8 -> 2 PE passes;
    # 9 taps * ceil(32/16)=2 input tiles -> 18 cycles per pass.
    cfg = wide_open_config(icp=16, ocp=8)
    cyc = conv_cycles(_spec(f=3, s=1, p=1, co=16), (8, 8, 32), cfg, ZERO_CAL)
    assert cyc.compute_cycles == 64 * 2 * 18
    assert cyc.transfer_in_cycles == (8 * 8 * 32) // 8
    assert cyc.param_cycles == (16 * 9 * 32) // 8 + 2
    assert cyc.writeback_cycles == (8 * 8 * 16) // 8
    assert cyc.restreams == 1
    assert cyc.total_cycles == max(cyc.compute_cycles, cyc.transfer_in_cycles) + (
        cyc.param_cycles + cyc.writeback_cycles
    )


def test_pipeline_constants_enter_compute():
    cfg = wide_open_config(icp=16, ocp=8)
    cal = Calibration(k_pipe=5, k_layer=100, k_pool=0)
    base = conv_cycles(_spec(f=3, s=1, p=1, co=16), (8, 8, 32), cfg, ZERO_CAL)
    with_k = conv_cycles(_spec(f=3, s=1, p=1, co=16), (8, 8, 32), cfg, cal)
    assert with_k.compute_cycles == base.compute_cycles + 64 * 5 + 100


def test_pool_cycles_formula():
    # A 1x1 convolution keeps the 4x4 map, so the pool runs over (4, 4, 8).
    cfg = wide_open_config(apack=8)
    assert conv_cycles(_spec(pool=PoolSpec(2)), (4, 4, 1), cfg, ZERO_CAL).pool_cycles == 2 * 2 * 4
    assert conv_cycles(_spec(), (4, 4, 1), cfg, ZERO_CAL).pool_cycles == 0
    cal = Calibration(k_pool=9)
    assert conv_cycles(_spec(pool=PoolSpec(2)), (4, 4, 1), cfg, cal).pool_cycles == 16 + 9


def test_pool_cycles_scale_with_channel_tiles():
    rng = seeded(61)
    cfg = wide_open_config(apack=8)
    for _ in range(40):
        h = rng.randint(3, 12)
        x = rng.randint(3, 12)
        c = rng.randint(1, 64)
        w = rng.choice((2, 3))
        if h < w or x < w:
            continue
        got = conv_cycles(_spec(co=c, pool=PoolSpec(w)), (h, x, 1), cfg, ZERO_CAL).pool_cycles
        ho, wo = (h - w) // 2 + 1, (x - w) // 2 + 1
        assert got == ho * wo * w * w * -(-c // 8)


def test_pool_overlaps_conv_in_total():
    cfg = wide_open_config(icp=16, ocp=8, apack=8)
    spec = _spec(f=3, s=1, p=1, co=8, pool=PoolSpec(2))
    cyc = conv_cycles(spec, (8, 8, 16), cfg, ZERO_CAL)
    assert cyc.total_cycles == max(
        cyc.compute_cycles, cyc.transfer_in_cycles, cyc.pool_cycles
    ) + cyc.param_cycles + cyc.writeback_cycles
    # writeback uses post-pool dims
    assert cyc.writeback_cycles == -(-((8 // 2) * (8 // 2) * 8) // 8)


def test_unsupported_layer_raises():
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=10)
    with pytest.raises(ConfigTooSmallError):
        conv_cycles(_spec(f=3, co=4), (8, 8, 8), cfg, ZERO_CAL)


_POW2 = st.sampled_from((1, 2, 4, 8, 16, 32, 64))


@given(
    co=st.integers(1, 300),
    ci=st.integers(1, 600),
    f=st.sampled_from((1, 3)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1)),
    pool=st.sampled_from((None, 2, 3)),
    h=st.integers(1, 80),
    x=st.integers(1, 80),
    icp=_POW2,
    ocp=_POW2,
    apack=_POW2,
    ppack=_POW2,
    chout_max=st.integers(1, 400),
    budget=st.integers(1, 1 << 18),
    k=st.tuples(st.integers(0, 100), st.integers(0, 10000), st.integers(0, 100)),
)
# The weight budget binds first: ConfigTooSmallError, not the pool's ShapeError.
@example(194, 461, 3, 2, 0, 3, 6, 68, 16, 8, 8, 8, 256, 4000, (12, 6800, 16))
@settings(max_examples=400, deadline=None)
def test_closed_form_matches_group_sum(
    co, ci, f, stride, pad, pool, h, x, icp, ocp, apack, ppack, chout_max, budget, k
):
    pad = pad if f == 3 else 0
    spec = LayerSpec(f, stride, pad, co, False, pool and PoolSpec(pool), SCHEME)
    cfg = wide_open_config(
        icp=icp,
        ocp=ocp,
        pe_dsp=0,
        apack=apack,
        ppack=ppack,
        chout_max=chout_max,
        chout_x_filter_x_filter_x_chin_max=budget,
    )
    cal = Calibration(k_pipe=k[0], k_layer=k[1], k_pool=k[2])
    try:
        want = conv_cycles_ref(spec, (h, x, ci), cfg, cal)
    except (ConfigTooSmallError, ShapeError) as exc:
        with pytest.raises((ConfigTooSmallError, ShapeError)) as got:
            conv_cycles(spec, (h, x, ci), cfg, cal)
        assert got.type is type(exc)
        return
    assert conv_cycles(spec, (h, x, ci), cfg, cal) == want
    # The graph path: terms stored at shape inference, groups counted by validate.
    node = ConvNode("c", f, stride, pad, co, False, spec.pool, 4, 4, 4, None, ("input",))
    net = NetworkGraph("one", (h, x, ci), 4, [node])
    assert network_perf(net, cfg, cal).layers[0].cycles == want
    assert validate(net, cfg).rows[0].groups in (0, want.restreams)


@st.composite
def _graph_and_config(draw):
    """A chain of 1-6 convolutions, maybe with a host tail, and a config with tight budgets."""
    h, x, c = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 300))
    geom, prev, nodes = (h, x, c), "input", []
    for i in range(draw(st.integers(1, 6))):
        f = draw(st.sampled_from((1, 3)))
        stride = draw(st.sampled_from((1, 2)))
        pad = draw(st.sampled_from((0, 1))) if f == 3 else 0
        spec = LayerSpec(f, stride, pad, 1, False, None, SCHEME)
        if min(geom[:2]) + 2 * pad < f:
            spec = LayerSpec(1, 1, 0, 1, False, None, SCHEME)  # fits any input
        ho, wo = conv_out_dims(geom[0], geom[1], spec)
        pool = draw(st.sampled_from([None] + [w for w in (2, 3) if min(ho, wo) >= w]))
        co = draw(st.integers(1, 300))
        nodes.append(
            ConvNode(f"c{i}", spec.filter, spec.stride, spec.padding, co, False,
                     pool and PoolSpec(pool), 4, 4, 4, None, (prev,))
        )
        if pool:
            ho, wo = (ho - pool) // 2 + 1, (wo - pool) // 2 + 1
        geom, prev = (ho, wo, co), f"c{i}"
    if draw(st.booleans()):
        nodes += [
            HostNode("gap", "global_avg_pool", (prev,)),
            HostNode("fc", "fully_connected", ("gap",), draw(st.integers(1, 50))),
            HostNode("sm", "softmax", ("fc",)),
        ]
    # Half the configs leave the five buffer budgets wide open, so that the
    # split and ConfigTooSmallError paths are reached as often as the checks.
    budgets = {}
    if draw(st.booleans()):
        budgets = dict(
            filter_max=draw(st.sampled_from((1, 3))),
            win_x_chin_pad_max=draw(st.integers(1, 20000)),
            filter_x_filter_x_chin_max=draw(st.integers(1, 3000)),
            pwin_x_pch_max=draw(st.integers(1, 20000)),
            pch_max=draw(st.integers(1, 400)),
        )
    cfg = wide_open_config(
        freq_mhz=draw(st.sampled_from((100.0, 150.0, 233.0))),
        icp=draw(_POW2),
        ocp=draw(_POW2),
        pe_dsp=0,
        apack=draw(_POW2),
        ppack=draw(_POW2),
        chout_x_filter_x_filter_x_chin_max=draw(st.integers(1, 1 << 17)),
        chout_max=draw(st.integers(1, 400)),
        **budgets,
    )
    cal = Calibration(
        k_pipe=draw(st.integers(0, 100)),
        k_layer=draw(st.integers(0, 10000)),
        k_pool=draw(st.integers(0, 100)),
    )
    return NetworkGraph("g", (h, x, c), 4, nodes), cfg, cal


SHIPPED_NETS = ("squeezenet_v11", "zynqnet", "peleenet", "vgg16")


def _shipped(data_dir, name):
    from convaccel.graph import parse_network

    return parse_network(os.path.join(data_dir, "networks", f"{name}.net"))


def _reference_cycles(net, cfg, cal):
    """conv_cycles_ref per convolution in order, or the first ConfigTooSmallError's text."""
    want = []
    for sn in net.shaped_nodes():
        if sn.spec is not None:
            try:
                want.append(conv_cycles_ref(sn.spec, sn.in_geom, cfg, cal))
            except ConfigTooSmallError as exc:
                return str(exc)
    return want


@given(_graph_and_config())
@settings(max_examples=300, deadline=None)
def test_network_columns_match_scalar_oracles(case):
    net, cfg, cal = case
    ok, rows, text = validate_ref(net, cfg)
    report = validate(net, cfg)
    assert report.ok == ok
    assert report.rows == rows
    assert str(report) == text

    convs = [sn for sn in net.shaped_nodes() if sn.spec is not None]
    want = _reference_cycles(net, cfg, cal)
    if isinstance(want, str):
        # the first failing layer in topological order names the error
        with pytest.raises(ConfigTooSmallError) as got:
            network_perf(net, cfg, cal)
        assert str(got.value) == want
        return
    perf = network_perf(net, cfg, cal)
    assert [lp.node_id for lp in perf.layers] == [sn.node_id for sn in convs]
    assert [lp.cycles for lp in perf.layers] == want
    conv_ms = 0
    for cyc in want:
        conv_ms += cyc.total_cycles / (cfg.freq_mhz * 1000.0)
    assert perf.conv_ms == conv_ms
    assert [row[0] for row in perf.host_table()] == [
        sn.node_id for sn in net.shaped_nodes() if sn.spec is None
    ]


def _budget_maxima(net):
    """Per budget field, the largest value the network's convolutions put under it."""
    top = dict.fromkeys(("win_x_chin_pad_max", "filter_x_filter_x_chin_max",
                         "pwin_x_pch_max", "pch_max"), 0)
    for sn in net.shaped_nodes():
        if sn.spec is None:
            continue
        (h, x, ci), spec = sn.in_geom, sn.spec
        f, p = spec.filter, spec.padding
        top["win_x_chin_pad_max"] = max(top["win_x_chin_pad_max"], (x + 2 * p) * ci)
        top["filter_x_filter_x_chin_max"] = max(top["filter_x_filter_x_chin_max"], f * f * ci)
        if spec.pool is not None:
            wo = (x + 2 * p - f) // spec.stride + 1
            top["pwin_x_pch_max"] = max(top["pwin_x_pch_max"], wo * spec.co)
            top["pch_max"] = max(top["pch_max"], spec.co)
    # The weight budget must hold one output channel's weights, F*F*Ci.
    top["chout_x_filter_x_filter_x_chin_max"] = top["filter_x_filter_x_chin_max"]
    return top


@pytest.mark.parametrize("name", SHIPPED_NETS)
def test_legality_boundary_at_each_column_maximum(data_dir, name):
    """Each budget at the network's largest value passes, one less fails, as in the oracle."""
    net = _shipped(data_dir, name)
    # A budget is at least 1: zynqnet has no pooled convolution, so no pool budget binds.
    cases = [(f, top, top - d) for f, top in _budget_maxima(net).items() for d in (0, 1) if top > d]
    cases += [("filter_max", 3, 3), ("filter_max", 3, 1)]  # every shipped network has a 3x3 layer
    for field, top, limit in cases:
        cfg = wide_open_config(**{field: limit})
        ok, rows, text = validate_ref(net, cfg)
        report = validate(net, cfg)
        assert (report.ok, report.rows, str(report)) == (ok, rows, text), (field, limit)
        assert ok == (limit == top), (field, limit)
        want = _reference_cycles(net, cfg, Calibration())
        if isinstance(want, str):
            assert (field, limit) == ("chout_x_filter_x_filter_x_chin_max", top - 1)
            with pytest.raises(ConfigTooSmallError) as got:
                network_perf(net, cfg)
            assert str(got.value) == want
        else:
            assert [lp.cycles for lp in network_perf(net, cfg).layers] == want


@pytest.mark.parametrize("name", ("squeezenet_v11", "vgg16"))
def test_cycles_at_the_int64_bound_match_the_oracle(data_dir, name):
    # conf6 splits 8 of vgg16's 13 layers; both networks have pooled layers.
    # The largest k_layer whose bound is 2**63 - 1 is costed in int64 bit
    # for bit as the Python-int oracle costs it; one more is an error.
    from convaccel.config import load_config

    net = _shipped(data_dir, name)
    cols = net.conv_columns
    cfg = load_config(os.path.join(data_dir, "configs", "conf6.cfg"))
    k_pipe, k_pool = 2**20, 2**10
    top = 2**63 - 1 - (cols._bound + cols._pipe * k_pipe + k_pool)
    cal = Calibration(k_pipe=k_pipe, k_layer=top, k_pool=k_pool)
    want = _reference_cycles(net, cfg, cal)
    layers = network_perf(net, cfg, cal).layers
    assert [lp.cycles for lp in layers] == want
    assert [lp.latency_ms for lp in layers] == [c.total_cycles / (cfg.freq_mhz * 1000.0) for c in want]
    with pytest.raises(ValidationError) as got:
        network_perf(net, cfg, replace(cal, k_layer=top + 1))
    assert str(got.value) == (
        f"{name}: cycle bound {cols._bound} + {cols._pipe}*k_pipe + k_layer + k_pool reaches "
        f"2**63 at k_pipe={k_pipe}, k_layer={top + 1}, k_pool={k_pool}"
    )


def test_split_coherence_transfer_proportional_to_restreams():
    geom = (10, 10, 16)
    spec = _spec(f=3, s=1, p=1, co=24)
    per_out = 9 * 16
    one = conv_cycles(spec, geom, wide_open_config(), ZERO_CAL)
    three = conv_cycles(
        spec, geom, wide_open_config(chout_x_filter_x_filter_x_chin_max=8 * per_out), ZERO_CAL
    )
    assert one.restreams == 1 and three.restreams == 3
    assert three.transfer_in_cycles == 3 * one.transfer_in_cycles


def test_lower_bound_soundness():
    rng = seeded(67)
    for _ in range(150):
        h, x = rng.randint(3, 20), rng.randint(3, 20)
        ci, co = rng.randint(1, 96), rng.randint(1, 96)
        f = rng.choice((1, 3))
        s = rng.choice((1, 2))
        p = rng.choice((0, 1)) if f == 3 else 0
        spec = LayerSpec(f, s, p, co, False, None, SCHEME)
        icp = rng.choice((8, 16, 32))
        ocp = rng.choice((4, 8, 16))
        cal = Calibration(
            k_pipe=rng.randint(0, 50), k_layer=rng.randint(0, 5000), k_pool=rng.randint(0, 50)
        )
        cfg = wide_open_config(icp=icp, ocp=ocp, pe_dsp=min(4, ocp))
        cyc = conv_cycles(spec, (h, x, ci), cfg, cal)
        ho, wo = conv_out_dims(h, x, spec)
        macs = ho * wo * co * f * f * ci
        assert cyc.compute_cycles * icp * ocp >= macs
        assert cyc.total_cycles >= cyc.compute_cycles


def test_latency_monotone_in_each_parameter():
    # Divisibility held: ci, co multiples of the largest tile sizes swept.
    geom = (16, 16, 64)
    spec = LayerSpec(3, 1, 1, 64, False, PoolSpec(2), SCHEME)
    cal = Calibration(k_pipe=7, k_layer=123, k_pool=11)

    def total(**kw):
        cfg = wide_open_config(pe_dsp=4, **kw)
        return conv_cycles(spec, geom, cfg, cal).total_cycles / cfg.freq_mhz

    for axis, values in (
        ("icp", (8, 16, 32, 64)),
        ("ocp", (8, 16, 32, 64)),
        ("apack", (4, 8, 16, 32)),
        ("ppack", (4, 8, 16, 32)),
        ("freq_mhz", (100.0, 200.0, 300.0)),
    ):
        series = [total(**{axis: v}) for v in values]
        assert series == sorted(series, reverse=True) or all(
            a >= b for a, b in zip(series, series[1:])
        ), axis


def test_resource_regression_dsp():
    base = dict(filter_max=3)
    assert estimate_resources(wide_open_config(icp=16, ocp=8, pe_dsp=8, **base)).dsp == 74
    assert estimate_resources(wide_open_config(icp=16, ocp=16, pe_dsp=16, **base)).dsp == 138
    assert estimate_resources(wide_open_config(icp=32, ocp=16, pe_dsp=16, **base)).dsp == 266


def test_all_lut_pes():
    cfg = wide_open_config(icp=16, ocp=8, pe_dsp=0)
    assert estimate_resources(cfg).dsp == 10  # control overhead only


def test_power_trend():
    for freq, want in ((100.0, 2.710), (200.0, 3.506), (300.0, 4.259)):
        got = estimate_resources(wide_open_config(freq_mhz=freq)).power_w
        assert got == pytest.approx(want, abs=0.15)
    # slope is 0.8 W per 100 MHz by construction
    lo = estimate_resources(wide_open_config(freq_mhz=100.0)).power_w
    hi = estimate_resources(wide_open_config(freq_mhz=200.0)).power_w
    assert hi - lo == pytest.approx(0.8)


def test_bram_bytes_accounting():
    cfg = wide_open_config(
        filter_max=3,
        win_x_chin_pad_max=100,
        filter_x_filter_x_chin_max=50,
        chout_x_filter_x_filter_x_chin_max=1000,
        chout_max=20,
        pwin_x_pch_max=60,
        pch_max=10,
    )
    want = 2 * 50 + 2 * 20 + 3 * 100 + 1000 + 20 + 2 * 60 + 2 * 10
    assert estimate_resources(cfg).bram_bytes == want


def test_network_perf_composition():
    from convaccel.graph import ConvNode, NetworkGraph
    from convaccel.perf import network_perf

    cfg = wide_open_config(icp=16, ocp=8)
    empty = NetworkGraph("empty", (4, 4, 2), 4, [])
    report = network_perf(empty, cfg)
    assert report.conv_ms == 0.0 and report.host_ms == 0.0 and report.end_to_end_ms == 0.0

    one = NetworkGraph(
        "one",
        (8, 8, 16),
        4,
        [ConvNode("c", 3, 1, 1, 16, False, None, 4, 4, 4, None, ("input",))],
    )
    report = network_perf(one, cfg)
    direct = conv_cycles(_spec(f=3, s=1, p=1, co=16), (8, 8, 16), cfg)
    assert len(report.layers) == 1
    assert report.layers[0].cycles == direct
    assert report.conv_ms == report.layers[0].latency_ms
    assert report.end_to_end_ms == report.conv_ms


def test_reports_deterministic():
    cfg = wide_open_config(icp=16, ocp=8)
    a = conv_cycles(_spec(f=3, s=2, p=1, co=20, pool=PoolSpec(3)), (17, 13, 24), cfg)
    b = conv_cycles(_spec(f=3, s=2, p=1, co=20, pool=PoolSpec(3)), (17, 13, 24), cfg)
    assert a == b
    assert estimate_resources(cfg) == estimate_resources(cfg)
