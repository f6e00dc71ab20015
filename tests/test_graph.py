import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_bank, random_instance, random_scheme, random_tensor, seeded, wide_open_config
from convaccel import (
    DfpScheme,
    LayerSpec,
    PoolSpec,
    QTensor3,
    accel_exec,
    dequantize,
    exec_with_split,
    parse_network,
    reshape_first_layer,
    run_network,
    save_bank,
    validate,
)
from convaccel.engine import plan_split
from convaccel.errors import LoadError, ParseError, ValidationError
from convaccel.graph import ConvNode, HostNode, NetworkGraph, fc_block_rows, save_network
from reference import (
    FOLD_TAP_MAPS,
    fold_bank_ref,
    fold_geometry_ref,
    fold_input_ref,
    fold_macs_ref,
    layer_ref,
)


def _conv_node(node_id, inputs, *, f=1, s=1, p=0, co=4, relu=False, pool=None,
               fo=4, fp=4, fb=4, params=None, emit=False):
    return ConvNode(node_id, f, s, p, co, relu, pool, fo, fp, fb, params, tuple(inputs), emit)


def _write_bank(rng, path, co, f, ci, wf, bf):
    bank = random_bank(rng, co, f, ci, wf=wf, bf=bf)
    save_bank(bank, path)
    return bank


# ---------------------------------------------------------------------------
# Construction, parsing, shapes
# ---------------------------------------------------------------------------


def test_shapes_and_frac_chain():
    net = NetworkGraph(
        "t",
        (8, 8, 3),
        4,
        [
            _conv_node("c1", ["input"], f=3, s=1, p=1, co=8, fo=5, pool=PoolSpec(2)),
            _conv_node("c2", ["c1"], co=6, fo=3),
            HostNode("gap", "global_avg_pool", ("c2",)),
            HostNode("fc", "fully_connected", ("gap",), units=10),
            HostNode("sm", "softmax", ("fc",)),
        ],
    )
    shapes = {sn.node_id: sn.out_geom for sn in net.shaped_nodes()}
    assert shapes == {
        "c1": (4, 4, 8),
        "c2": (4, 4, 6),
        "gap": (1, 1, 6),
        "fc": (1, 1, 10),
        "sm": (1, 1, 10),
    }
    c2 = next(sn for sn in net.shaped_nodes() if sn.node_id == "c2")
    assert c2.spec.scheme == DfpScheme(5, 4, 4, 3)
    assert net.terminal_ids() == ("sm",)
    assert net.mac_count() == 8 * 8 * 8 * 9 * 3 + 4 * 4 * 6 * 1 * 8


def test_graph_rejects_malformed():
    with pytest.raises(ValidationError):
        NetworkGraph("t", (4, 4, 2), 4, [_conv_node("a", ["missing"])])
    with pytest.raises(ValidationError):
        NetworkGraph("t", (4, 4, 2), 4, [_conv_node("a", ["a"])])  # self-cycle
    with pytest.raises(ValidationError):
        NetworkGraph(
            "t",
            (4, 4, 2),
            4,
            [
                _conv_node("a", ["b"]),
                _conv_node("b", ["a"]),
            ],
        )
    with pytest.raises(ValidationError):  # concat frac mismatch
        NetworkGraph(
            "t",
            (4, 4, 2),
            4,
            [
                _conv_node("a", ["input"], fo=3),
                _conv_node("b", ["input"], fo=5),
                HostNode("cat", "concat", ("a", "b")),
            ],
        )


def test_topological_order_ignores_declaration_order(tmp_path):
    rng = seeded(71)
    ci = 3
    scheme_frac = 4
    bank_a = _write_bank(rng, tmp_path / "a.qfb", 4, 1, ci, scheme_frac, scheme_frac)
    bank_b = _write_bank(rng, tmp_path / "b.qfb", 5, 1, 4, scheme_frac, scheme_frac)

    nodes_fwd = [
        _conv_node("a", ["input"], co=4, params="a.qfb"),
        _conv_node("b", ["a"], co=5, params="b.qfb"),
    ]
    n1 = NetworkGraph("t", (5, 5, ci), scheme_frac, nodes_fwd, str(tmp_path))
    n2 = NetworkGraph("t", (5, 5, ci), scheme_frac, list(reversed(nodes_fwd)), str(tmp_path))
    ia = random_tensor(rng, 5, 5, ci, frac=scheme_frac)
    cfg = wide_open_config()
    out1, _ = run_network(n1, cfg, ia)
    out2, _ = run_network(n2, cfg, ia)
    assert out1.keys() == out2.keys()
    assert out1["b"] == out2["b"]


def test_topo_order_respects_inputs_under_shuffles(data_dir):
    net = parse_network(os.path.join(data_dir, "networks", "peleenet.net"))
    for seed in range(10):
        nodes = list(net.nodes)
        seeded(seed).shuffle(nodes)
        order = NetworkGraph(net.name, net.input_geom, net.input_frac, nodes).topo_order()
        position = {n.id: i for i, n in enumerate(order)}
        assert len(order) == len(nodes)
        for node in nodes:
            assert all(r == "input" or position[r] < position[node.id] for r in node.inputs)


@pytest.mark.parametrize("name", ["peleenet", "squeezenet_v11", "vgg16", "zynqnet"])
def test_shipped_network_topo_order_is_declaration_order(data_dir, name):
    net = parse_network(os.path.join(data_dir, "networks", f"{name}.net"))
    assert net.topo_order() == net.nodes


def test_cycle_error_names_sorted_stuck_ids():
    nodes = [
        _conv_node("a", ["input"]),
        _conv_node("z", ["x"]),
        _conv_node("x", ["y"]),
        _conv_node("y", ["z"]),
    ]
    with pytest.raises(ValidationError, match="cycle involving x, y, z$"):
        NetworkGraph("t", (4, 4, 2), 4, nodes)


def test_parse_roundtrip(tmp_path):
    path = tmp_path / "net.net"
    path.write_text(
        "# demo\n"
        "network demo\n"
        "input 8 8 3\n"
        "input_frac 4\n"
        "node c1 conv filter=3 stride=2 pad=1 co=8 relu=1 pool=3x3s2 fo=4 fp=6 fb=5 "
        "params=c1.qfb inputs=input emit=1\n"
        "node gap global_avg_pool inputs=c1\n"
    )
    net = parse_network(str(path))
    assert net.name == "demo"
    assert net.input_geom == (8, 8, 3)
    c1 = net.nodes[0]
    assert (c1.filter, c1.stride, c1.padding, c1.co) == (3, 2, 1, 8)
    assert c1.pool == PoolSpec(3) and c1.relu and c1.emit
    out = tmp_path / "again.net"
    save_network(net, str(out))
    assert parse_network(str(out)).shaped_nodes()[-1].out_geom == net.shaped_nodes()[-1].out_geom


def test_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("network x\ninput 4 4 2\ninput_frac 4\nnode a conv inputs=input\n")
    with pytest.raises(ParseError) as err:
        parse_network(str(path))
    assert "bad.net" in str(err.value)
    path.write_text("bogus directive\n")
    with pytest.raises(ParseError):
        parse_network(str(path))


_CONV_LINE = {
    "filter": "3", "stride": "1", "pad": "1", "co": "4", "relu": "1", "fo": "4", "fp": "4", "fb": "4",
}


@pytest.mark.parametrize("fault", ["missing", "malformed"])
@pytest.mark.parametrize("key", list(_CONV_LINE))
def test_conv_integer_field_errors_name_the_key(tmp_path, key, fault):
    fields = dict(_CONV_LINE)
    if fault == "missing":
        del fields[key]
    else:
        fields[key] = "x"
    kv = " ".join(f"{k}={v}" for k, v in fields.items())
    path = tmp_path / "bad.net"
    path.write_text(f"network x\ninput 4 4 2\ninput_frac 4\nnode a conv {kv} inputs=input\n")
    with pytest.raises(ParseError) as err:
        parse_network(str(path))
    expected = f"missing {key}" if fault == "missing" else f"bad integer for {key}"
    assert str(err.value) == f"{path}:4: {expected}"


_HEADER = "network x\ninput 4 4 2\ninput_frac 4\n"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("network x\ninput 4 4 2\ninput_frac 4 junk\n", 3, "input_frac takes one integer"),
        (_HEADER + "node a concat params=a.qfb inputs=input\n", 4, "unknown keys for 'a': ['params']"),
        (_HEADER + "node a global_avg_pool params=a.qfb inputs=input\n", 4,
         "unknown keys for 'a': ['params']"),
        (_HEADER + "node a softmax params=a.qfb inputs=input\n", 4,
         "unknown keys for 'a': ['params']"),
        # A repeated key or header would otherwise keep its last value:
        # "filter=3 filter=1" would run as a 1x1 layer.
        (_HEADER + "node a conv filter=3 filter=1 stride=1 pad=0 co=4 relu=1 fo=4 fp=4 fb=4"
         " inputs=input\n", 4, "filter given twice for 'a'"),
        (_HEADER + "node a concat inputs=input inputs=a\n", 4, "inputs given twice for 'a'"),
        (_HEADER + "network y\n", 4, "network given twice"),
        ("network x\ninput 4 4 2\ninput 8 8 2\ninput_frac 4\n", 3, "input given twice"),
        (_HEADER + "input_frac 5\n", 4, "input_frac given twice"),
    ],
    ids=[
        "input_frac_extra", "concat_params", "global_avg_pool_params", "softmax_params",
        "node_key_twice", "node_inputs_twice", "network_twice", "input_twice", "input_frac_twice",
    ],
)
def test_unread_network_input_is_parse_error(tmp_path, text, line_no, message):
    path = tmp_path / "bad.net"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_network(str(path))
    assert str(err.value) == f"{path}:{line_no}: {message}"


def _conv(node_id, inputs, **fields):
    kv = {**dict(filter=3, stride=1, pad=1, co=4, relu=1, fo=4, fp=4, fb=4), **fields}
    return f"node {node_id} conv {' '.join(f'{k}={v}' for k, v in kv.items())} inputs={inputs}\n"


_FC = "node fc fully_connected units=4 inputs=input\n"

# One case per check of parse_network and NetworkGraph, and cases where two
# checks fail at once and the earlier one must win.  The expected texts were
# recorded from the node-object parser that the column parser replaced.
_PARSE_ERRORS = {
    "network_arity": ("network x y\ninput 4 4 2\ninput_frac 4\n", 1, "network takes one name"),
    "input_arity": ("network x\ninput 4 4\ninput_frac 4\n", 2, "input takes H X C"),
    "input_not_int": ("network x\ninput 4 four 2\ninput_frac 4\n", 2,
                      "input dims must be integers"),
    "input_frac_not_int": ("network x\ninput 4 4 2\ninput_frac four\n", 3,
                           "input_frac takes one integer"),
    "input_frac_no_value": ("network x\ninput 4 4 2\ninput_frac\n", 3,
                            "input_frac takes one integer"),
    "unknown_directive": (_HEADER + "layer a conv\n", 4, "unknown directive 'layer'"),
    "node_without_kind": (_HEADER + "node a\n", 4, "node needs an id and a kind"),
    "not_key_value": (_HEADER + "node a conv filter=3 x inputs=input\n", 4,
                      "expected key=value, got 'x'"),
    "missing_inputs": (_HEADER + "node a conv filter=3\n", 4, "node 'a' missing inputs"),
    "unknown_pool": (_HEADER + _conv("a", "input", pool="4x4s2"), 4, "unknown pool '4x4s2'"),
    "fc_missing_units": (_HEADER + "node fc fully_connected inputs=input\n", 4, "missing units"),
    "fc_bad_units": (_HEADER + "node fc fully_connected units=ten inputs=input\n", 4,
                     "bad integer for units"),
    "unknown_kind": (_HEADER + "node a deconv inputs=input\n", 4, "unknown node kind 'deconv'"),
    "unknown_keys": (_HEADER + _conv("a", "input", bogus=1, extra=2), 4,
                     "unknown keys for 'a': ['bogus', 'extra']"),
    "missing_headers": ("network x\ninput 4 4 2\n", 0,
                        "network, input, and input_frac headers are required"),
    "not_key_value_beats_missing_inputs": (_HEADER + "node a conv x\n", 4,
                                           "expected key=value, got 'x'"),
    "missing_inputs_beats_unknown_kind": (_HEADER + "node a deconv filter=3\n", 4,
                                          "node 'a' missing inputs"),
    "unknown_pool_beats_missing_integer": (_HEADER + "node a conv pool=9x9 inputs=input\n", 4,
                                           "unknown pool '9x9'"),
    "missing_integer_beats_unknown_keys": (_HEADER + "node a conv bogus=1 inputs=input\n", 4,
                                           "missing filter"),
    "line_error_beats_graph_error": (_HEADER + _conv("a", "input") * 2 + "bogus\n", 6,
                                     "unknown directive 'bogus'"),
    "zero_dim": ("network x\ninput 0 4 2\ninput_frac 4\n" + _conv("a", "input"), 0,
                 "x: input geometry (0, 4, 2) has a zero dim"),
    "duplicate_id": (_HEADER + _conv("a", "input") * 2, 0, "x: duplicate or reserved node id 'a'"),
    "reserved_id": (_HEADER + _conv("input", "input"), 0,
                    "x: duplicate or reserved node id 'input'"),
    "duplicate_beats_unknown_input": (_HEADER + _conv("a", "zz") + _conv("b", "a") * 2, 0,
                                      "x: duplicate or reserved node id 'b'"),
    "no_inputs": (_HEADER + _conv("a", ""), 0, "x: node 'a' has no inputs"),
    "no_inputs_commas": (_HEADER + _conv("a", ",,"), 0, "x: node 'a' has no inputs"),
    "unknown_input": (_HEADER + _conv("a", "input") + _conv("b", "zz"), 0,
                      "x: node 'b' references unknown input 'zz'"),
    "no_inputs_beats_later_unknown": (_HEADER + _conv("a", "") + _conv("b", "zz"), 0,
                                      "x: node 'a' has no inputs"),
    "no_consumer": (_HEADER + _conv("a", "b") + _conv("b", "a"), 0,
                    "x: no node consumes the graph input"),
    "cycle": (_HEADER + _conv("a", "input") + _conv("z", "y") + _conv("y", "z"), 0,
              "x: cycle involving y, z"),
    "self_cycle": (_HEADER + _conv("a", "input") + _conv("b", "b"), 0, "x: cycle involving b"),
    "cycle_beats_layer": (
        _HEADER + _conv("a", "input", filter=5) + _conv("b", "c") + _conv("c", "b"), 0,
        "x: cycle involving b, c"),
    "conv_arity": (_HEADER + _conv("a", "input") + _conv("b", "input,a"), 0,
                   "b: conv takes exactly one input"),
    "conv_real_input": (_HEADER + _FC + _conv("a", "fc"), 0, "a: conv input 'fc' is real-valued"),
    "arity_beats_real_input": (_HEADER + _FC + _conv("a", "fc,input"), 0,
                               "a: conv takes exactly one input"),
    "real_input_beats_layer": (_HEADER + _FC + _conv("a", "fc", filter=5), 0,
                               "a: conv input 'fc' is real-valued"),
    "filter_range": (_HEADER + _conv("a", "input", filter=5), 0, "filter must be 1 or 3, got 5"),
    "stride_range": (_HEADER + _conv("a", "input", stride=3), 0, "stride must be 1 or 2, got 3"),
    "pointwise_padding": (_HEADER + _conv("a", "input", filter=1, pad=1), 0,
                          "1x1 filters require padding 0"),
    "padding_range": (_HEADER + _conv("a", "input", pad=2), 0, "padding must be 0 or 1, got 2"),
    "co_range": (_HEADER + _conv("a", "input", co=0), 0, "co must be positive, got 0"),
    "input_frac_range": ("network x\ninput 4 4 2\ninput_frac 16\n" + _conv("a", "input"), 0,
                         "input_frac=16 outside sanity window [-8, 15]"),
    "weight_frac_range": (_HEADER + _conv("a", "input", fp=-9), 0,
                          "weight_frac=-9 outside sanity window [-8, 15]"),
    "bias_frac_range": (_HEADER + _conv("a", "input", fb=16), 0,
                        "bias_frac=16 outside sanity window [-8, 15]"),
    "output_frac_range": (_HEADER + _conv("a", "input", fo=99), 0,
                          "output_frac=99 outside sanity window [-8, 15]"),
    "scheme_beats_layer": (_HEADER + _conv("a", "input", filter=5, fo=99), 0,
                           "output_frac=99 outside sanity window [-8, 15]"),
    "layer_beats_shape": ("network x\ninput 2 2 2\ninput_frac 4\n" + _conv("a", "input", filter=5),
                          0, "filter must be 1 or 3, got 5"),
    "conv_input_too_small": ("network x\ninput 2 2 2\ninput_frac 4\n" + _conv("a", "input", pad=0),
                             0, "a: 2x2 input too small for filter 3, stride 1, padding 0"),
    "pool_input_too_small": (_HEADER + _conv("a", "input", pool="3x3s2", stride=2), 0,
                             "a: 2x2 input smaller than pool window 3"),
    "topological_order_sets_first_fault": (
        _HEADER + _conv("b", "a", filter=5) + "node a concat inputs=input\n", 0,
        "a: concat needs at least two inputs"),
    "concat_arity": (_HEADER + _conv("a", "input") + "node cat concat inputs=a\n", 0,
                     "cat: concat needs at least two inputs"),
    "concat_real": (_HEADER + _FC + _conv("a", "input") + "node cat concat inputs=a,fc\n", 0,
                    "cat: concat of real-valued inputs"),
    "concat_spatial": (_HEADER + _conv("a", "input") + _conv("b", "input", stride=2)
                       + "node cat concat inputs=a,b\n", 0, "cat: concat inputs differ spatially"),
    "concat_frac": (_HEADER + _conv("a", "input") + _conv("b", "input", fo=5)
                    + "node cat concat inputs=a,b\n", 0, "cat: concat inputs differ in frac_bits"),
    "gap_arity": (_HEADER + _conv("a", "input") + "node g global_avg_pool inputs=a,input\n", 0,
                  "g: global_avg_pool takes one quantized input"),
    "gap_real": (_HEADER + _FC + "node g global_avg_pool inputs=fc\n", 0,
                 "g: global_avg_pool takes one quantized input"),
    "fc_arity": (_HEADER + _conv("a", "input") + "node fc fully_connected units=4 inputs=a,input\n",
                 0, "fc: fully_connected takes one input"),
    "fc_units_zero": (_HEADER + "node fc fully_connected units=0 inputs=input\n", 0,
                      "fc: fully_connected needs units >= 1"),
    "softmax_arity": (_HEADER + _conv("a", "input") + "node s softmax inputs=a,input\n", 0,
                      "s: softmax takes one input"),
}


@pytest.mark.parametrize("case", list(_PARSE_ERRORS))
def test_parse_error_texts(tmp_path, case):
    text, line_no, message = _PARSE_ERRORS[case]
    path = tmp_path / "bad.net"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_network(str(path))
    assert str(err.value) == f"{path}:{line_no}: {message}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("relu=2", "relu must be 0 or 1, got '2'"),
        ("relu=-7", "relu must be 0 or 1, got '-7'"),
        ("relu=01", "relu must be 0 or 1, got '01'"),
        ("relu=0 emit=no", "emit must be 0 or 1, got 'no'"),
        ("relu=0 emit=2", "emit must be 0 or 1, got '2'"),
        ("relu=0 emit=", "emit must be 0 or 1, got ''"),
    ],
)
def test_relu_and_emit_take_only_0_or_1(tmp_path, line, message):
    fields = "filter=3 stride=1 pad=1 co=4 pool=none fo=4 fp=4 fb=4"
    path = tmp_path / "bad.net"
    path.write_text(_HEADER + f"node a conv {fields} {line} params=a.qfb inputs=input\n")
    with pytest.raises(ParseError) as err:
        parse_network(str(path))
    assert str(err.value) == f"{path}:4: {message}"


def test_repeated_fields_parse_as_written(tmp_path):
    """Lines that share their leading fields parse as if each were read alone."""
    fields = "filter=1 stride=1 pad=0 co=4 relu=0 pool=none fo=4 fp=4 fb=4"
    path = tmp_path / "net.net"
    path.write_text(
        _HEADER
        + f"node a conv {fields} emit=1 params=a.qfb inputs=input\n"
        + f"node b conv {fields} emit=1 params=b.qfb inputs=a,\n"
        + f"node c conv {fields} params=c.qfb inputs=b\n"
        + f"node d conv {fields} params=d.qfb inputs=c\n"
        + "node cat concat inputs=c,d\n"
    )
    net = parse_network(str(path))
    assert net.nodes == (
        ConvNode("a", 1, 1, 0, 4, False, None, 4, 4, 4, "a.qfb", ("input",), True),
        ConvNode("b", 1, 1, 0, 4, False, None, 4, 4, 4, "b.qfb", ("a",), True),
        ConvNode("c", 1, 1, 0, 4, False, None, 4, 4, 4, "c.qfb", ("b",)),
        ConvNode("d", 1, 1, 0, 4, False, None, 4, 4, 4, "d.qfb", ("c",)),
        HostNode("cat", "concat", ("c", "d")),
    )
    again = NetworkGraph(net.name, net.input_geom, net.input_frac, net.nodes)
    assert again.shaped_nodes() == net.shaped_nodes()
    assert again.conv_columns.values.tolist() == net.conv_columns.values.tolist()


def _records(lines, pattern=True):
    """parse_network's node records of ``lines`` after the headers, before any shape check.

    With ``pattern=False`` the node-line pattern never matches, so every line
    takes the general line parser.
    """
    from convaccel import graph

    with pytest.MonkeyPatch.context() as m:
        numbered = list(enumerate(_HEADER.splitlines() + lines, start=1))
        m.setattr(graph, "text_lines", lambda path: numbered)
        m.setattr(graph.NetworkGraph, "from_records", classmethod(lambda cls, *args: args[3]))
        if not pattern:
            m.setattr(graph, "_NODE_LINE", lambda line: None)
        return parse_network("n.net")


_TOKEN = st.text(st.characters(exclude_categories=("Z", "C"), exclude_characters="#"),
                 min_size=1, max_size=5)
_NAT = st.from_regex(r"[0-9]{1,4}", fullmatch=True)
_INT = st.from_regex(r"-?[0-9]{1,3}", fullmatch=True)
_INPUTS = st.lists(st.one_of(_TOKEN, st.just("")), min_size=1, max_size=4).map(",".join).filter(bool)


@st.composite
def _canonical_node_line(draw):
    """A node line as save_network spells it, with any values the pattern admits."""
    kind = draw(st.sampled_from(["conv", "fully_connected", "concat", "global_avg_pool", "softmax"]))
    fields = ""
    if kind == "conv":
        f, s, p, co = (draw(_NAT) for _ in range(4))
        relu, pool = draw(st.sampled_from("01")), draw(st.sampled_from(["none", "2x2s2", "3x3s2"]))
        fo, fp, fb = (draw(_INT) for _ in range(3))
        fields = (f" filter={f} stride={s} pad={p} co={co} relu={relu} pool={pool}"
                  f" fo={fo} fp={fp} fb={fb} params={draw(_TOKEN)}")
    elif kind == "fully_connected":
        fields = f" units={draw(_NAT)} params={draw(_TOKEN)}"
    return f"node {draw(_TOKEN)} {kind}{fields} inputs={draw(_INPUTS)}"


@given(st.lists(_canonical_node_line(), min_size=1, max_size=6))
@example([
    "node x conv filter=3 stride=2 pad=0 co=8 relu=0 pool=3x3s2 fo=-1 fp=-8 fb=15"
    " params=x.qfb inputs=a,,b",
    "node f fully_connected units=10 params=f.qfb inputs=x",
    "node g softmax inputs=f,",
])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_node_line_pattern_gives_the_line_parser_records(lines):
    from convaccel import graph

    assert all(graph._NODE_LINE(line) for line in lines)
    fast, general = _records(lines), _records(lines, pattern=False)
    # repr tells a bool relu from an int, which == does not.
    assert repr(fast) == repr(general)


@pytest.mark.parametrize("name", ["peleenet", "squeezenet_v11", "vgg16", "zynqnet"])
def test_shipped_networks_parse_alike_with_and_without_the_pattern(monkeypatch, data_dir, name):
    from convaccel import graph

    path = os.path.join(data_dir, "networks", f"{name}.net")
    fast = parse_network(path)
    monkeypatch.setattr(graph, "_NODE_LINE", lambda line: None)
    general = parse_network(path)
    assert repr(fast._records) == repr(general._records)
    assert fast.conv_columns.node_ids == general.conv_columns.node_ids
    assert fast.conv_columns.values.tolist() == general.conv_columns.values.tolist()
    assert fast.host_nodes == general.host_nodes


_CANONICAL_CONV = ("node a conv filter=3 stride=1 pad=1 co=4 relu=1 pool=none fo=4 fp=5 fb=6"
                   " params=a.qfb inputs=input")
_CANONICAL_RECORD = ("a", "conv", ("input",), (3, 1, 1, 4, True, None, 4, 5, 6), "a.qfb", False)


@pytest.mark.parametrize(
    "line, record",
    [
        (_CANONICAL_CONV.replace("filter=3 stride=1", "stride=1 filter=3"), _CANONICAL_RECORD),
        (_CANONICAL_CONV.replace("co=4", " co=4"), _CANONICAL_RECORD),
        (_CANONICAL_CONV.replace(" co=4", "\tco=4"), _CANONICAL_RECORD),
        (_CANONICAL_CONV + " emit=1", _CANONICAL_RECORD[:5] + (True,)),
        (_CANONICAL_CONV.replace("filter=3", "filter=+3"), _CANONICAL_RECORD),
        (_CANONICAL_CONV.replace("filter=3", "filter=٣"), _CANONICAL_RECORD),
        (_CANONICAL_CONV.replace("filter=3", "filter=03"), _CANONICAL_RECORD),
        (_CANONICAL_CONV.replace(" params=a.qfb", ""), _CANONICAL_RECORD[:4] + (None, False)),
    ],
    ids=["reordered", "double_space", "tab", "emit", "plus", "arabic_indic_digit",
         "leading_zero", "no_params"],
)
def test_other_spellings_of_a_node_line_parse_as_written(tmp_path, line, record):
    from convaccel import graph

    assert (graph._NODE_LINE(line) is None) == ("filter=03" not in line)
    path = tmp_path / "net.net"
    path.write_text(_HEADER + line + "\n", encoding="utf-8")
    assert repr(parse_network(str(path))._records) == repr([record])
    assert repr(_records([line], pattern=False)) == repr([record])


@pytest.mark.parametrize("key", ["filter", "stride", "pad", "co", "fo", "fp", "fb", "units"])
def test_a_value_past_the_int_digit_limit_is_a_bad_integer_both_ways(tmp_path, key):
    # int() refuses more than 4300 digits; such a value takes the line
    # parser, whose error names the field.
    fc = "node a fully_connected units=3 params=a.qfb inputs=input"
    line = (fc if key == "units" else _CANONICAL_CONV).replace(f" {key}=", f" {key}={'9' * 5000}")
    path = tmp_path / "net.net"
    path.write_text(_HEADER + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as fast:
        parse_network(str(path))
    assert str(fast.value) == f"{path}:4: bad integer for {key}"
    with pytest.raises(ParseError) as general:
        _records([line], pattern=False)
    assert str(general.value) == f"n.net:4: bad integer for {key}"


def _count_node_objects(monkeypatch):
    """A list that gets the class name of every ConvNode, HostNode and ShapedNode built."""
    from convaccel import graph

    built = []
    for cls in (graph.ConvNode, graph.HostNode, graph.ShapedNode):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@pytest.mark.parametrize("name", ["peleenet", "squeezenet_v11", "vgg16", "zynqnet"])
def test_estimate_builds_no_node_objects(monkeypatch, capsys, data_dir, name):
    from convaccel.cli import EXIT_OK, main

    built = _count_node_objects(monkeypatch)
    net_path = os.path.join(data_dir, "networks", f"{name}.net")
    cfg_path = os.path.join(data_dir, "configs", "conf6.cfg")
    assert main(["estimate", "--net", net_path, "--config", cfg_path]) == EXIT_OK
    assert built == []
    parse_network(net_path).shaped_nodes()  # the counters do see objects built on demand
    assert "ShapedNode" in built


# sha256 of the stdout of a command under conf6 with one budget cut so that
# some layers are unsupported, recorded while legality rows were still built
# from node objects.
FAILING_OUTPUT_SHA256 = {
    ("FILTER_MAX=1", "peleenet", "estimate"): "ca12dad0fae5622ed72219d7ea1f670b810ade9dc850a8bf63fd94a1d1ca1864",
    ("FILTER_MAX=1", "peleenet", "validate"): "3ea18564d79726f11e7cf429ac0321c6c6caf8eddc48f3d36ecae193649c0e50",
    ("FILTER_MAX=1", "squeezenet_v11", "estimate"): "0fc622039ddebc6187676a9519c2c50d2cab5e76870487310f1eb7ff9c527ac1",
    ("FILTER_MAX=1", "squeezenet_v11", "validate"): "40fece19d3cc3dce1e4ea0904eb92d2770eddf70075fe2a3dd286cfa17235268",
    ("FILTER_MAX=1", "vgg16", "estimate"): "72f18be33e4b71fd5186aafa83faf9aaecf144eb309ad3c936a70276a541a147",
    ("FILTER_MAX=1", "vgg16", "validate"): "7e2c04190ab79108e6ce7a9649fae5dda143928e1290e42d54629a74a6d157c4",
    ("FILTER_MAX=1", "zynqnet", "estimate"): "0fc622039ddebc6187676a9519c2c50d2cab5e76870487310f1eb7ff9c527ac1",
    ("FILTER_MAX=1", "zynqnet", "validate"): "cf9b5158b57b783a3cb76010c6f2f9c84f4cb25a2586e3bf22986e0d5a61dbf7",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "peleenet", "estimate"): "ea76361ce07eb82a26f0c289f8c26f537804fe4e44fdc4b0893919ec70ff917d",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "peleenet", "validate"): "2275dcf2be91ced57c3c68e49ab98e3061307933518d756c9506c906118b98a8",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "squeezenet_v11", "estimate"): "4c5b9d60bc630feaeebf1817230c35588319033db6e7f1f827dbb4f94a74791c",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "squeezenet_v11", "validate"): "42efd698bf380dc928281c50996f8528c2ec83fb7011eac82dc0740a8c2a6735",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "vgg16", "estimate"): "a91002067b870bb9a40bbd64317d2f8dc767354c3d1ac54e3c9f5486fd892ec4",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "vgg16", "validate"): "6334b7a09df5f02a80ade3eb7925a4c6401457b4e72a154469b0e7bb69cc5e13",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "zynqnet", "estimate"): "faf09bc763077a0d43515c6b5279ba1f1b1386703d7a01c4247b00bb4dbd771f",
    ("CHOUTxFILTERxFILTERxCHIN_MAX=100", "zynqnet", "validate"): "72fb1378bea597a941f60f9257a42c87cce2c6407c7fbc643c411dd5c71a3589",
}


@pytest.mark.parametrize("cut, name, command", list(FAILING_OUTPUT_SHA256))
def test_failing_config_builds_no_node_objects(
    monkeypatch, capsys, tmp_path, data_dir, cut, name, command
):
    """Unsupported layers are reported from the cost columns alone, with unchanged text."""
    import hashlib

    from convaccel.cli import EXIT_VALIDATION, main

    key = cut.split("=")[0]
    with open(os.path.join(data_dir, "configs", "conf6.cfg"), encoding="utf-8") as fh:
        lines = [cut if line.startswith(key + "=") else line for line in fh.read().splitlines()]
    cfg_path = tmp_path / "cut.cfg"
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    net_path = os.path.join(data_dir, "networks", f"{name}.net")
    built = _count_node_objects(monkeypatch)
    assert main([command, "--net", net_path, "--config", str(cfg_path)]) == EXIT_VALIDATION
    assert built == []
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_OUTPUT_SHA256[(cut, name, command)]


# Python function calls (sys.setprofile "call" events) in one parse of
# peleenet.net: 2375 with a node object per line, 696 when this guard was
# set, 466 once every shipped node line is read by the node-line pattern.
# A per-node object or call that creeps back in, or a shipped line that
# falls back to the line parser, shows here first.
PELEENET_PARSE_CALLS = 466


def test_parse_call_count_stays_low(data_dir):
    import gc
    import sys

    path = os.path.join(data_dir, "networks", "peleenet.net")
    parse_network(path)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    # A collection during the parse would also count other code's calls: the
    # gc callbacks hypothesis registers, and finalizers of objects left over
    # from earlier tests.
    gc.disable()
    sys.setprofile(count)
    try:
        parse_network(path)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert calls <= PELEENET_PARSE_CALLS


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def test_validate_tiny_net_fits():
    net = NetworkGraph("t", (6, 6, 4), 4, [_conv_node("c", ["input"], co=4)])
    report = validate(net, wide_open_config())
    assert report.ok and report.rows[0].verdict == "fits"


def test_validate_unsupported_names_budget():
    net = NetworkGraph("t", (6, 6, 64), 4, [_conv_node("c", ["input"], f=3, s=1, p=1, co=4)])
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=100)
    report = validate(net, cfg)
    assert not report.ok
    assert "CHOUTxFILTERxFILTERxCHIN_MAX" in report.rows[0].detail

    cfg = wide_open_config(win_x_chin_pad_max=10)
    report = validate(net, cfg)
    assert "WINxCHIN_PAD_MAX" in report.rows[0].detail

    cfg = wide_open_config(filter_max=1)
    assert "FILTER_MAX" in validate(net, cfg).rows[0].detail


def test_validate_agrees_with_plan_split():
    rng = seeded(73)
    for _ in range(40):
        ci = rng.randint(1, 32)
        co = rng.randint(1, 64)
        f = rng.choice((1, 3))
        p = rng.choice((0, 1)) if f == 3 else 0
        net = NetworkGraph(
            "t", (8, 8, ci), 4, [_conv_node("c", ["input"], f=f, s=1, p=p, co=co)]
        )
        budget = rng.randint(1, 4096)
        cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=budget)
        row = validate(net, cfg).rows[0]
        try:
            groups = plan_split((co, f, f, ci), cfg).restreams
        except Exception:
            groups = None
        if groups is None:
            assert row.verdict == "unsupported"
        elif groups == 1:
            assert row.verdict == "fits"
        else:
            assert row.verdict == "split" and row.groups == groups


def test_validate_soundness_legal_layers_run(tmp_path):
    rng = seeded(79)
    for trial in range(10):
        ia, bank, spec = random_instance(rng, max_hw=6, max_ch=8)
        save_bank(bank, tmp_path / f"w{trial}.qfb")
        net = NetworkGraph(
            "t",
            ia.geom,
            spec.scheme.input_frac,
            [
                ConvNode(
                    "c",
                    spec.filter,
                    spec.stride,
                    spec.padding,
                    spec.co,
                    spec.relu,
                    spec.pool,
                    spec.scheme.output_frac,
                    spec.scheme.weight_frac,
                    spec.scheme.bias_frac,
                    f"w{trial}.qfb",
                    ("input",),
                )
            ],
            str(tmp_path),
        )
        cfg = wide_open_config(
            chout_x_filter_x_filter_x_chin_max=rng.randint(
                spec.filter**2 * ia.channels, 4 * spec.filter**2 * ia.channels * spec.co
            )
        )
        if validate(net, cfg).ok:
            run_network(net, cfg, ia)  # must not raise


# ---------------------------------------------------------------------------
# First-layer reshaping
# ---------------------------------------------------------------------------


def test_reshape_fold_geometry():
    spec = LayerSpec(3, 2, 1, 4, False, None, DfpScheme(4, 4, 4, 4))
    t = reshape_first_layer(spec, (8, 8, 3), icp=16)
    assert t is not None
    assert t.reshaped_geom == (4, 4, 12)
    assert t.fold_kernel == 2  # taps span a 2x2 folded window
    assert t.reshaped_spec.stride == 1


def test_reshape_trigger_rule():
    spec = LayerSpec(3, 2, 1, 4, False, None, DfpScheme(4, 4, 4, 4))
    assert reshape_first_layer(spec, (8, 8, 3), icp=32) is not None  # 3 < 16
    assert reshape_first_layer(spec, (8, 8, 16), icp=32) is None  # 16 == icp/2
    s1 = LayerSpec(3, 1, 1, 4, False, None, DfpScheme(4, 4, 4, 4))
    assert reshape_first_layer(s1, (8, 8, 3), icp=32) is None  # stride 1
    s1x1 = LayerSpec(1, 1, 0, 4, False, None, DfpScheme(4, 4, 4, 4))
    assert reshape_first_layer(s1x1, (8, 8, 2), icp=16) is None  # stride 1, 1x1


def test_reshape_execution_bit_exact():
    rng = seeded(83)
    for _ in range(40):
        f = rng.choice((1, 3))
        p = rng.choice((0, 1)) if f == 3 else 0
        h = rng.randint(f, 11)
        x = rng.randint(f, 11)
        ci = rng.randint(1, 6)
        co = rng.randint(1, 8)
        scheme = random_scheme(rng)
        pool = None
        spec = LayerSpec(f, 2, p, co, rng.random() < 0.5, pool, scheme)
        ia = random_tensor(rng, h, x, ci, frac=scheme.input_frac)
        bank = random_bank(rng, co, f, ci, wf=scheme.weight_frac, bf=scheme.bias_frac)
        t = reshape_first_layer(spec, (h, x, ci), icp=32)
        assert t is not None
        assert t.run(ia, bank) == accel_exec(ia, bank, spec)


def test_reshape_with_pool_and_relu():
    rng = seeded(89)
    scheme = DfpScheme(4, 5, 5, 4)
    spec = LayerSpec(3, 2, 0, 6, True, PoolSpec(3), scheme)
    ia = random_tensor(rng, 13, 13, 3, frac=4)
    bank = random_bank(rng, 6, 3, 3, wf=5, bf=5)
    t = reshape_first_layer(spec, (13, 13, 3), icp=32)
    assert t.run(ia, bank) == accel_exec(ia, bank, spec)


def test_reshape_mac_conservation():
    rng = seeded(97)
    for _ in range(30):
        f = rng.choice((1, 3))
        p = rng.choice((0, 1)) if f == 3 else 0
        h = rng.randint(f, 12)
        x = rng.randint(f, 12)
        ci = rng.randint(1, 6)
        co = rng.randint(1, 10)
        spec = LayerSpec(f, 2, p, co, False, None, DfpScheme(4, 4, 4, 4))
        t = reshape_first_layer(spec, (h, x, ci), icp=32)
        assert t.mac_count_original() == t.mac_count_reshaped()
        assert t.reshaped_geom[2] >= ci


def test_reshape_activation_map_hits_real_data():
    spec = LayerSpec(3, 2, 1, 2, False, None, DfpScheme(4, 4, 4, 4))
    t = reshape_first_layer(spec, (5, 7, 2), icp=32)
    folded_h, folded_x, folded_c = t.reshaped_geom
    rng = seeded(3)
    ia = random_tensor(rng, 5, 7, 2, frac=4)
    folded = t.fold_input(ia)
    for fy in range(folded_h):
        for fx in range(folded_x):
            for fc in range(folded_c):
                src = t.map_activation(fy, fx, fc)
                got = folded.at(fy, fx, fc)
                if src is None:
                    assert got == 0
                else:
                    assert got == ia.at(*src)


def test_reshape_matches_the_fold_oracle_over_a_grid():
    """Every fold shape up to 13x13: 822 cases against tests/reference.py."""
    rng = seeded(101)
    cases = 0
    for (f, p), table in FOLD_TAP_MAPS.items():
        for h in range(f, 14):
            for x in range(f, 14):
                for ci in (1, 3):
                    spec = LayerSpec(f, 2, p, 2, False, None, DfpScheme(4, 4, 4, 4))
                    t = reshape_first_layer(spec, (h, x, ci), icp=32)
                    k, pad, geom, crop = fold_geometry_ref(spec, (h, x, ci))
                    assert t.tap_map == table
                    assert (t.reshaped_spec.filter, t.reshaped_spec.padding) == (k, pad)
                    assert (t.reshaped_geom, t.crop) == (geom, crop)
                    assert (t.mac_count_original(), t.mac_count_reshaped()) == fold_macs_ref(
                        spec, (h, x, ci)
                    )
                    ia = random_tensor(rng, h, x, ci, frac=4)
                    assert t.fold_input(ia).values.tolist() == fold_input_ref(ia)
                    bank = random_bank(rng, 2, f, ci, wf=4, bf=4)
                    assert t.fold_bank(bank).weights.tolist() == fold_bank_ref(bank, p)
                    cases += 1
    assert cases == 822


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _single_conv_net(tmp_path, rng, ia, bank, spec, node_id="c"):
    save_bank(bank, tmp_path / f"{node_id}.qfb")
    return NetworkGraph(
        "one",
        ia.geom,
        spec.scheme.input_frac,
        [
            ConvNode(
                node_id,
                spec.filter,
                spec.stride,
                spec.padding,
                spec.co,
                spec.relu,
                spec.pool,
                spec.scheme.output_frac,
                spec.scheme.weight_frac,
                spec.scheme.bias_frac,
                f"{node_id}.qfb",
                ("input",),
            )
        ],
        str(tmp_path),
    )


def test_run_single_conv_equals_engine(tmp_path):
    rng = seeded(201)
    ia, bank, spec = random_instance(rng, max_hw=7, max_ch=8)
    net = _single_conv_net(tmp_path, rng, ia, bank, spec)
    cfg = wide_open_config()
    outputs, report = run_network(net, cfg, ia)
    assert outputs["c"] == exec_with_split(ia, bank, spec, cfg)
    assert report.layers[0].node_id == "c"
    assert report.conv_ms > 0


def test_run_two_branch_concat_duplicates_channels(tmp_path):
    rng = seeded(203)
    scheme = DfpScheme(4, 4, 4, 4)
    spec = LayerSpec(1, 1, 0, 3, False, None, scheme)
    ia = random_tensor(rng, 4, 4, 2, frac=4)
    bank = random_bank(rng, 3, 1, 2, wf=4, bf=4)
    save_bank(bank, tmp_path / "w.qfb")

    def conv(node_id):
        return ConvNode("%s" % node_id, 1, 1, 0, 3, False, None, 4, 4, 4, "w.qfb", ("input",))

    net = NetworkGraph(
        "twin",
        (4, 4, 2),
        4,
        [conv("a"), conv("b"), HostNode("cat", "concat", ("a", "b"))],
        str(tmp_path),
    )
    outputs, _ = run_network(net, wide_open_config(), ia)
    merged = outputs["cat"]
    assert merged.channels == 6
    half = accel_exec(ia, bank, spec)
    assert np.array_equal(merged.as_3d()[:, :, :3], half.as_3d())
    assert np.array_equal(merged.as_3d()[:, :, 3:], half.as_3d())


def test_run_pipeline_matches_oracle_composition(tmp_path):
    rng = seeded(207)
    scheme1 = DfpScheme(4, 5, 5, 3)
    scheme2 = DfpScheme(3, 4, 4, 3)
    ia = random_tensor(rng, 9, 9, 3, frac=4)
    bank1 = random_bank(rng, 5, 3, 3, wf=5, bf=5)
    bank2 = random_bank(rng, 4, 3, 5, wf=4, bf=4)
    save_bank(bank1, tmp_path / "w1.qfb")
    save_bank(bank2, tmp_path / "w2.qfb")
    spec1 = LayerSpec(3, 1, 1, 5, True, None, scheme1)
    spec2 = LayerSpec(3, 1, 0, 4, False, PoolSpec(2), scheme2)
    net = NetworkGraph(
        "pipe",
        (9, 9, 3),
        4,
        [
            ConvNode("c1", 3, 1, 1, 5, True, None, 3, 5, 5, "w1.qfb", ("input",)),
            ConvNode("c2", 3, 1, 0, 4, False, PoolSpec(2), 3, 4, 4, "w2.qfb", ("c1",)),
            HostNode("cat", "concat", ("c2", "c2")),
        ],
        str(tmp_path),
    )
    outputs, _ = run_network(net, wide_open_config(), ia, emits=("c1",))
    mid_vals = layer_ref(ia, bank1, spec1)
    assert list(outputs["c1"].values) == mid_vals
    mid = QTensor3(9, 9, 5, mid_vals, 3)
    end_vals = layer_ref(mid, bank2, spec2)
    end = np.array(end_vals).reshape(3, 3, 4)  # 9x9 -> conv pad0 7x7 -> pool 3x3
    expect = np.concatenate([end, end], axis=2).reshape(-1)
    assert list(outputs["cat"].values) == expect.tolist()


def test_fire_module_with_forced_splits_matches_oracle(tmp_path):
    # squeeze -> (expand1x1 | expand3x3, pools fused) -> concat, with the
    # weight budget forcing every conv into multiple groups
    rng = seeded(215)
    fi, fp, fb = 4, 5, 5
    ia = random_tensor(rng, 12, 12, 6, frac=fi)
    sq = random_bank(rng, 4, 1, 6, wf=fp, bf=fb)
    e1 = random_bank(rng, 8, 1, 4, wf=fp, bf=fb)
    e3 = random_bank(rng, 8, 3, 4, wf=fp, bf=fb)
    for name, bank in (("sq", sq), ("e1", e1), ("e3", e3)):
        save_bank(bank, tmp_path / f"{name}.qfb")
    net = NetworkGraph(
        "fire",
        (12, 12, 6),
        fi,
        [
            ConvNode("sq", 1, 1, 0, 4, True, None, 4, fp, fb, "sq.qfb", ("input",)),
            ConvNode("e1", 1, 1, 0, 8, True, PoolSpec(3), 4, fp, fb, "e1.qfb", ("sq",)),
            ConvNode("e3", 3, 1, 1, 8, True, PoolSpec(3), 4, fp, fb, "e3.qfb", ("sq",)),
            HostNode("cat", "concat", ("e1", "e3")),
        ],
        str(tmp_path),
    )
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=3 * 9 * 6)
    report = validate(net, cfg)
    assert report.ok and any(r.verdict == "split" for r in report.rows)
    outputs, _ = run_network(net, cfg, ia)

    sq_spec = LayerSpec(1, 1, 0, 4, True, None, DfpScheme(fi, fp, fb, 4))
    mid_vals = layer_ref(ia, sq, sq_spec)
    mid = QTensor3(12, 12, 4, mid_vals, 4)
    e1_spec = LayerSpec(1, 1, 0, 8, True, PoolSpec(3), DfpScheme(4, fp, fb, 4))
    e3_spec = LayerSpec(3, 1, 1, 8, True, PoolSpec(3), DfpScheme(4, fp, fb, 4))
    a = np.array(layer_ref(mid, e1, e1_spec)).reshape(5, 5, 8)
    b = np.array(layer_ref(mid, e3, e3_spec)).reshape(5, 5, 8)
    want = np.concatenate([a, b], axis=2).reshape(-1)
    assert list(outputs["cat"].values) == want.tolist()


def test_intermediate_equals_prefix_recomputation(tmp_path):
    rng = seeded(211)
    ia, bank, spec = random_instance(rng, max_hw=6, max_ch=6)
    net = _single_conv_net(tmp_path, rng, ia, bank, spec)
    outputs, _ = run_network(net, wide_open_config(), ia, emits=("input", "c"))
    assert outputs["input"] == ia
    assert outputs["c"] == accel_exec(ia, bank, spec)


def test_global_avg_pool_rounding(tmp_path):
    vals = [7, -7, 6, -6, 5, -5, 1, 2]  # two channels over 2x2
    ia = QTensor3(2, 2, 2, vals, 4)
    net = NetworkGraph("g", (2, 2, 2), 4, [HostNode("gap", "global_avg_pool", ("input",))])
    outputs, _ = run_network(net, wide_open_config(), ia)
    # channel 0: (7+6+5+1)/4 = 4.75 -> 5; channel 1: (-7-6-5+2)/4 = -4 -> -4
    assert outputs["gap"].values.tolist() == [5, -4]
    assert outputs["gap"].frac_bits == 4


def test_fully_connected_real_domain(tmp_path):
    rng = seeded(223)
    ia = random_tensor(rng, 2, 2, 3, frac=4)
    fc_bank = random_bank(rng, 4, 1, 12, wf=5, bf=5)
    save_bank(fc_bank, tmp_path / "fc.qfb")
    net = NetworkGraph(
        "f",
        (2, 2, 3),
        4,
        [
            HostNode("fc", "fully_connected", ("input",), units=4, params="fc.qfb"),
            HostNode("sm", "softmax", ("fc",)),
        ],
        str(tmp_path),
    )
    outputs, _ = run_network(net, wide_open_config(), ia, emits=("fc",))
    flat = dequantize(ia).values
    w = fc_bank.as_4d().reshape(4, 12) * 2.0**-5
    b = fc_bank.biases.astype(float) * 2.0**-5
    want = w @ flat + b
    assert np.allclose(outputs["fc"].values, want)
    sm = outputs["sm"].values
    assert sm.shape == (4,) and abs(sm.sum() - 1.0) < 1e-12
    e = np.exp(want - want.max())
    assert np.allclose(sm, e / e.sum())


def test_fully_connected_blocked_matches_plain_formula(tmp_path):
    # a unit count that is not a multiple of the conversion block size
    rng = seeded(225)
    units = fc_block_rows(12) + 3
    ia = random_tensor(rng, 2, 2, 3, frac=4)
    fc_bank = random_bank(rng, units, 1, 12, wf=6, bf=5)
    save_bank(fc_bank, tmp_path / "fc.qfb")
    net = NetworkGraph(
        "f",
        (2, 2, 3),
        4,
        [HostNode("fc", "fully_connected", ("input",), units=units, params="fc.qfb")],
        str(tmp_path),
    )
    outputs, _ = run_network(net, wide_open_config(), ia)
    w = fc_bank.as_4d().reshape(units, 12) * 2.0**-6
    b = fc_bank.biases.astype(float) * 2.0**-5
    assert np.array_equal(outputs["fc"].values, w @ dequantize(ia).values + b)


def _fc_in_512_row_blocks(bank, flat):
    """The fully_connected formula as computed with fixed 512-row weight blocks."""
    w = bank.as_4d().reshape(bank.co, flat.size)
    acc = np.concatenate([w[r : r + 512].astype(np.float64) @ flat for r in range(0, bank.co, 512)])
    b = bank.biases.astype(np.float64) * 2.0**-bank.bias_frac_bits
    return acc * 2.0**-bank.weight_frac_bits + b


@pytest.mark.parametrize("tail", [3, 1])
def test_fully_connected_chain_keeps_512_row_block_bits(tmp_path, tail):
    # fc2 reads a float input: the softmax of fc1.  A fixed-point or one-hot input
    # would keep every partial sum exact and hide the summation order.
    # Blocks whose row counts are multiples of 8 sum every row as a 512-row
    # block does; blocks of 1, 3, 5, 7 or 10 rows do not.  A unit count of
    # 3 mod 8 ends in a short block, and one of 1 mod the block size would
    # end in a one-row block, which run_network joins to the block before it.
    rng = seeded(226)
    units1 = 1027
    units2 = 2 * fc_block_rows(units1) + tail
    assert units2 % 8 == tail and units2 < 512
    ia = random_tensor(rng, 2, 2, 3, frac=4)
    bank1 = random_bank(rng, units1, 1, 12, wf=12, bf=12)  # small logits, spread softmax
    bank2 = random_bank(rng, units2, 1, units1, wf=0, bf=15)  # biases too small to round the sums away
    save_bank(bank1, tmp_path / "fc1.qfb")
    save_bank(bank2, tmp_path / "fc2.qfb")
    net = NetworkGraph(
        "f",
        (2, 2, 3),
        4,
        [
            HostNode("fc1", "fully_connected", ("input",), units=units1, params="fc1.qfb"),
            HostNode("sm", "softmax", ("fc1",)),
            HostNode("fc2", "fully_connected", ("sm",), units=units2, params="fc2.qfb"),
        ],
        str(tmp_path),
    )
    outputs, _ = run_network(net, wide_open_config(), ia, emits=("fc1", "sm"))
    assert np.array_equal(outputs["fc1"].values, _fc_in_512_row_blocks(bank1, dequantize(ia).values))
    assert np.array_equal(outputs["fc2"].values, _fc_in_512_row_blocks(bank2, outputs["sm"].values))


def test_missing_params_is_load_error(tmp_path):
    rng = seeded(227)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=5)
    net = _single_conv_net(tmp_path, rng, ia, bank, spec)
    (tmp_path / "c.qfb").unlink()
    with pytest.raises(LoadError):
        run_network(net, wide_open_config(), ia)


def test_bank_exponent_mismatch_is_load_error(tmp_path):
    rng = seeded(229)
    scheme = DfpScheme(4, 4, 4, 4)
    spec = LayerSpec(1, 1, 0, 2, False, None, scheme)
    ia = random_tensor(rng, 3, 3, 2, frac=4)
    bank = random_bank(rng, 2, 1, 2, wf=6, bf=4)  # fp disagrees with the node
    net = _single_conv_net(tmp_path, rng, ia, bank, spec)
    with pytest.raises(LoadError):
        run_network(net, wide_open_config(), ia)


def test_illegal_net_is_validation_error(tmp_path):
    rng = seeded(233)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=5, pool_ok=False)
    net = _single_conv_net(tmp_path, rng, ia, bank, spec)
    cfg = wide_open_config(chout_x_filter_x_filter_x_chin_max=1)
    with pytest.raises(ValidationError):
        run_network(net, cfg, ia)
