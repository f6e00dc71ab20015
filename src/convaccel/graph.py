"""CNN graph description, legality checking, first-layer reshaping, execution.

A network is a DAG over one reserved input ("input") whose nodes are
either accelerated convolution layers or host-executed reference ops
(concat, global_avg_pool, fully_connected, softmax).  Convolutions run
on the accelerator model with split-merge scheduling; host ops run in
exact integer or real arithmetic on the CPU side.

Network description file, line oriented ('#' starts a comment):

    network <name>
    input <H> <X> <C>
    input_frac <f>
    node <id> conv filter=3 stride=2 pad=0 co=64 relu=1 pool=3x3s2 \
        fo=4 fp=7 fb=7 params=<qfb path> inputs=<id>[,<id>...] [emit=1]
    node <id> concat inputs=a,b
    node <id> global_avg_pool inputs=a
    node <id> fully_connected units=1000 params=<qfb path> inputs=a
    node <id> softmax inputs=a

relu= and emit= take 0 or 1; a header or a node key given twice is a
parse error.  A convolution's input exponent is inherited from its
producer, so the quantization chain is consistent by construction.

parse_network reads a file in one pass over its lines into plain records:
one pattern reads a node line spelled as save_network writes it, and the
general line parser any other spelling, to the same record.  Then one
shape pass over them, in declaration order when the file is in order,
gives the shape chain, the conv cost columns and the host nodes.
Layer fields are checked by the rule functions LayerSpec and DfpScheme
use themselves (engine.check_layer, quant.check_scheme).  ConvNode,
HostNode, ShapedNode and LayerSpec objects are built only when read.

reshape_first_layer folds the input and the bank of a stride-2 layer by
one space-to-depth step; no command applies it (README gives the cycles).
"""

from __future__ import annotations

import math
import operator
import os
import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from . import perf
from .config import AccelConfig, Calibration, DEFAULT_CALIBRATION, text_lines
from .engine import (
    LayerSpec,
    PoolSpec,
    check_layer,
    conv_exec,
    conv_out_dims,
    exec_with_split,
    mpool_exec,
    # Unused here; bound because bench/test_bench.py checks the tracer patches it.
    plan_split,  # noqa: F401
    split_groups,
)
from .errors import (
    AccumulatorOverflow,
    ConfigTooSmallError,
    LoadError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .quant import DfpScheme, check_scheme, dequantize
from .tensors import FTensor3, QFilterBank, QTensor3, load_bank

INPUT_ID = "input"

HOST_KINDS = ("concat", "global_avg_pool", "fully_connected", "softmax")

# A fully_connected node converts its int8 weights to float64 in row blocks
# of about this many bytes, so that a block stays in a core's L2 cache while
# BLAS reads it.  256 KB to 512 KB ran fastest on a 2 MB-L2 Xeon; 16 MB
# blocks (512 rows of fc6 at 64x64) took twice as long.
FC_BLOCK_BYTES = 512 * 1024


def fc_block_rows(k: int) -> int:
    """Weight rows per float64 block of a fully_connected node with ``k`` inputs.

    FC_BLOCK_BYTES of float64 rounded down to a multiple of 8 rows, and at
    least 8.  The alignment, not the size, keeps the output bits: on the
    shipped OpenBLAS with one thread the float64 GEMV sums each row in an
    order set by the row's position in its block, and blocks of 1, 3, 5, 7
    or 10 rows change bits where blocks of any multiple of 8 rows give the
    bits of one GEMV over the whole matrix.
    """
    return max(8, FC_BLOCK_BYTES // (8 * k) // 8 * 8)


@dataclass(frozen=True)
class ConvNode:
    """An accelerated convolution layer with optional fused ReLU / max-pool."""

    id: str
    filter: int
    stride: int
    padding: int
    co: int
    relu: bool
    pool: PoolSpec | None
    out_frac: int
    weight_frac: int
    bias_frac: int
    params: str | None
    inputs: tuple[str, ...]
    emit: bool = False

    kind = "conv"


@dataclass(frozen=True)
class HostNode:
    """A node executed by the host CPU."""

    id: str
    kind: str
    inputs: tuple[str, ...]
    units: int = 0
    params: str | None = None
    emit: bool = False


@dataclass(frozen=True)
class ShapedNode:
    """A node with its resolved geometry and, for convolutions, its LayerSpec."""

    node_id: str
    kind: str
    in_geom: tuple[int, int, int]
    out_geom: tuple[int, int, int]
    spec: LayerSpec | None


# A node as the parser and the shape pass hold it, a plain tuple
# (id, kind, inputs, attrs, params, emit): attrs is a conv's ConvNode fields
# from filter to bias_frac and a host node's units.
_CONV_ATTRS = ("filter", "stride", "padding", "co", "relu", "pool", "out_frac",
               "weight_frac", "bias_frac")


def _record(node):
    conv = node.kind == "conv"
    attrs = tuple(map(node.__getattribute__, _CONV_ATTRS)) if conv else node.units
    return (node.id, node.kind, node.inputs, attrs, node.params, node.emit)


def _node(record):
    node_id, kind, inputs, attrs, params, emit = record
    if kind == "conv":
        return ConvNode(node_id, *attrs, params, inputs, emit)
    return HostNode(node_id, kind, inputs, attrs, params, emit)


class NetworkGraph:
    """Immutable layer DAG plus the graph input geometry and exponent.

    Shape inference also fixes what the cost model reads: ``conv_columns``,
    the perf.ConvColumns of the convolutions in topological order, and
    ``host_nodes``, (node_id, kind, units) per host node in that order.
    The node objects (``nodes``, ``topo_order()``, ``shaped_nodes()``) are
    built when first read, as PerfReport builds its rows.
    """

    def __init__(self, name, input_geom, input_frac, nodes, base_dir="."):
        self.nodes = tuple(nodes)
        self._build(name, input_geom, input_frac, [_record(n) for n in self.nodes], base_dir)

    @classmethod
    def from_records(cls, name, input_geom, input_frac, records, base_dir="."):
        """The graph of node records (see _record), as parse_network reads them."""
        net = cls.__new__(cls)
        net._build(name, input_geom, input_frac, records, base_dir)
        return net

    def _build(self, name, input_geom, input_frac, records, base_dir):
        self.name = name
        self.input_geom = tuple(input_geom)
        self.input_frac = input_frac
        self.base_dir = base_dir
        self._records = records
        if min(self.input_geom) < 1:
            raise ValidationError(f"{name}: input geometry {self.input_geom} has a zero dim")
        # Shape the nodes in declaration order.  That fails on any fault and
        # on a node declared before its inputs; then _toposort reports the
        # first fault of the structure, or gives an order in which shaping
        # again reports the first fault of a node.  A file in which every
        # node follows its inputs has no fault of the structure.
        try:
            self._infer_shapes(range(len(records)))
        except (ValidationError, ValueError, KeyError):
            self._infer_shapes(self._toposort())

    def _toposort(self):
        records, name = self._records, self.name
        known = {INPUT_ID}
        for node_id, *_ in records:
            if node_id in known:
                raise ValidationError(f"{name}: duplicate or reserved node id {node_id!r}")
            known.add(node_id)
        for node_id, _, inputs, *_ in records:
            if not inputs:
                raise ValidationError(f"{name}: node {node_id!r} has no inputs")
            for ref in inputs:
                if ref not in known:
                    raise ValidationError(
                        f"{name}: node {node_id!r} references unknown input {ref!r}"
                    )
        if records and not any(INPUT_ID in r[2] for r in records):
            raise ValidationError(f"{name}: no node consumes the graph input")
        # Repeatedly take the first declared node whose inputs are all done:
        # declaration order breaks every tie.
        done, order, pending = {INPUT_ID}, [], list(range(len(records)))
        while pending:
            k = next((k for k, i in enumerate(pending) if done.issuperset(records[i][2])), None)
            if k is None:
                stuck = sorted(records[i][0] for i in pending)
                raise ValidationError(f"{name}: cycle involving {', '.join(stuck)}")
            order.append(pending.pop(k))
            done.add(records[order[-1]][0])
        return order

    def _infer_shapes(self, order):
        # geometry and quantization exponent per producer; frac None = real domain
        geom = {INPUT_ID: self.input_geom}
        frac = {INPUT_ID: self.input_frac}
        conv_ids, conv_terms, host = [], [], []
        # Exponents and layers repeat (zynqnet: one scheme in 26 convolutions).
        schemes, layers = set(), set()
        for node_id, kind, inputs, attrs, _, _ in map(self._records.__getitem__, order):
            if node_id in geom:
                raise ValidationError(f"{self.name}: duplicate or reserved node id {node_id!r}")
            if kind == "conv":
                if len(inputs) != 1:
                    raise ValidationError(f"{node_id}: conv takes exactly one input")
                src = inputs[0]
                in_frac = frac[src]
                if in_frac is None:
                    raise ValidationError(f"{node_id}: conv input {src!r} is real-valued")
                f, s, p, co, _, pool, out_frac, fp, fb = attrs
                # DfpScheme's rules first, as LayerSpec takes a built scheme.
                if (in_frac, fp, fb, out_frac) not in schemes:
                    check_scheme(in_frac, fp, fb, out_frac)
                    schemes.add((in_frac, fp, fb, out_frac))
                if (f, s, p, co) not in layers:
                    check_layer(f, s, p, co)
                    layers.add((f, s, p, co))
                try:
                    out_geom, terms = perf.conv_terms(geom[src], f, s, p, co, pool)
                except ShapeError as exc:
                    raise ValidationError(f"{node_id}: {exc}") from None
                conv_ids.append(node_id)
                conv_terms += terms
            else:
                in_geoms = [geom[r] for r in inputs]
                in_fracs = [frac[r] for r in inputs]
                out_geom, out_frac = _host_shape(node_id, kind, attrs, in_geoms, in_fracs)
                (h, x, c), (oh, ox, oc) = in_geoms[0], out_geom
                host.append((node_id, kind, perf.host_units(kind, h * x * c, oh * ox * oc)))
            geom[node_id] = out_geom
            frac[node_id] = out_frac
        self._order, self._geom, self._frac = order, geom, frac
        self.conv_columns = perf.ConvColumns(conv_ids, conv_terms)
        self.host_nodes = tuple(host)

    @cached_property
    def nodes(self):
        return tuple(map(_node, self._records))

    def topo_order(self):
        return tuple(map(self.nodes.__getitem__, self._order))

    @cached_property
    def _shaped(self):
        specs, shaped = {}, []  # one LayerSpec per distinct layer
        for node_id, kind, inputs, attrs, _, _ in map(self._records.__getitem__, self._order):
            spec = None
            if kind == "conv":
                key = (attrs, self._frac[inputs[0]])
                if key not in specs:
                    f, s, p, co, relu, pool, out_frac, fp, fb = attrs
                    scheme = DfpScheme(key[1], fp, fb, out_frac)
                    specs[key] = LayerSpec(f, s, p, co, relu, pool, scheme)
                spec = specs[key]
            in_geom, out_geom = self._geom[inputs[0]], self._geom[node_id]
            shaped.append(ShapedNode(node_id, kind, in_geom, out_geom, spec))
        return tuple(shaped)

    def shaped_nodes(self):
        return self._shaped

    def terminal_ids(self):
        consumed = {ref for r in self._records for ref in r[2]}
        return tuple(r[0] for r in self._records if r[0] not in consumed)

    def mac_count(self) -> int:
        """Multiply-accumulate count of the accelerated layers."""
        v = self.conv_columns.values
        return sum(p * w for p, w in zip(v[perf.PIXELS].tolist(), v[perf.WEIGHTS].tolist()))


def _host_shape(node_id, kind, units, in_geoms, in_fracs):
    """(output geometry, output exponent) of a host node; exponent None = real."""
    if kind == "concat":
        if len(in_geoms) < 2:
            raise ValidationError(f"{node_id}: concat needs at least two inputs")
        if None in in_fracs:
            raise ValidationError(f"{node_id}: concat of real-valued inputs")
        if len({g[:2] for g in in_geoms}) != 1:
            raise ValidationError(f"{node_id}: concat inputs differ spatially")
        if len(set(in_fracs)) != 1:
            raise ValidationError(f"{node_id}: concat inputs differ in frac_bits")
        h, x, _ = in_geoms[0]
        return (h, x, sum(g[2] for g in in_geoms)), in_fracs[0]
    if kind == "global_avg_pool":
        if len(in_geoms) != 1 or in_fracs[0] is None:
            raise ValidationError(f"{node_id}: global_avg_pool takes one quantized input")
        return (1, 1, in_geoms[0][2]), in_fracs[0]
    if kind == "fully_connected":
        if len(in_geoms) != 1:
            raise ValidationError(f"{node_id}: fully_connected takes one input")
        if units < 1:
            raise ValidationError(f"{node_id}: fully_connected needs units >= 1")
        return (1, 1, units), None
    if kind == "softmax":
        if len(in_geoms) != 1:
            raise ValidationError(f"{node_id}: softmax takes one input")
        h, x, c = in_geoms[0]
        return (1, 1, h * x * c), None
    raise ValidationError(f"{node_id}: unknown node kind {kind!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_POOLS = {"none": None, "2x2s2": PoolSpec(2), "3x3s2": PoolSpec(3)}

# The node line as save_network writes it.  parse_network builds its record
# from the groups, as _node_fields would; every other spelling goes there,
# a value longer than 18 digits too (int() refuses one past its digit limit).
_N, _Z = "([0-9]{1,18})", "(-?[0-9]{1,18})"
_NODE_LINE = re.compile(
    rf"node (\S+) (?:(?:conv filter={_N} stride={_N} pad={_N} co={_N} relu=([01])"
    rf" pool=(none|2x2s2|3x3s2) fo={_Z} fp={_Z} fb={_Z}"
    rf"|fully_connected units={_N}) params=(\S+)|(concat|global_avg_pool|softmax))"
    r" inputs=(\S+)"
).fullmatch


# The integer fields of a conv node, in the order their errors are reported.
_CONV_INTS = ("filter", "stride", "pad", "co", "relu", "fo", "fp", "fb")


def _take_ints(kv, keys, path, line_no):
    """Pop each of ``keys`` from ``kv`` as an int; name the first missing or malformed one."""
    n = len(kv)
    try:
        return list(map(int, map(kv.pop, keys)))
    except KeyError as exc:
        raise ParseError(path, line_no, f"missing {exc.args[0]}") from None
    except ValueError:  # raised by the last key popped
        raise ParseError(path, line_no, f"bad integer for {keys[n - len(kv) - 1]}") from None


def _flag(text, key, path, line_no):
    """relu= and emit= take 0 or 1 only."""
    if text not in ("0", "1"):
        raise ParseError(path, line_no, f"{key} must be 0 or 1, got {text!r}")
    return text == "1"


def _node_fields(parts, path, line_no):
    """The record of the node line split into ``parts``, "node" first."""
    if len(parts) < 3:
        raise ParseError(path, line_no, "node needs an id and a kind")
    node_id, kind = parts[1], parts[2]
    try:
        kv = dict(map(str.split, parts[3:], repeat("="), repeat(1)))
    except ValueError:
        bad = next(item for item in parts[3:] if "=" not in item)
        raise ParseError(path, line_no, f"expected key=value, got {bad!r}") from None
    if len(kv) < len(parts) - 3:
        keys = [item.split("=", 1)[0] for item in parts[3:]]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ParseError(path, line_no, f"{repeated} given twice for {node_id!r}")
    if "inputs" not in kv:
        raise ParseError(path, line_no, f"node {node_id!r} missing inputs")
    inputs = kv.pop("inputs")
    emit = _flag(kv.pop("emit", "0"), "emit", path, line_no)
    # Only conv and fully_connected nodes read a parameter bank.
    params = kv.pop("params", None) if kind in ("conv", "fully_connected") else None
    if kind == "conv":
        pool_key = kv.pop("pool", "none")
        if pool_key not in _POOLS:
            raise ParseError(path, line_no, f"unknown pool {pool_key!r}")
        relu = kv.get("relu")
        f, s, p, co, _, fo, fp, fb = _take_ints(kv, _CONV_INTS, path, line_no)
        attrs = (f, s, p, co, _flag(relu, "relu", path, line_no), _POOLS[pool_key], fo, fp, fb)
    elif kind in HOST_KINDS:
        attrs = _take_ints(kv, ("units",), path, line_no)[0] if kind == "fully_connected" else 0
    else:
        raise ParseError(path, line_no, f"unknown node kind {kind!r}")
    if kv:
        raise ParseError(path, line_no, f"unknown keys for {node_id!r}: {sorted(kv)}")
    return (node_id, kind, tuple(filter(None, inputs.split(","))), attrs, params, emit)


def parse_network(path) -> NetworkGraph:
    name = None
    input_geom = None
    input_frac = None
    records, headers = [], set()
    for line_no, line in text_lines(path):
        m = _NODE_LINE(line)
        if m:
            node_id, f, s, p, co, relu, pool, fo, fp, fb, units, params, host, inputs = m.groups()
            if f:
                kind = "conv"
                attrs = (int(f), int(s), int(p), int(co), relu == "1", _POOLS[pool],
                         int(fo), int(fp), int(fb))
            else:
                kind, attrs = (host, 0) if host else ("fully_connected", int(units))
            inputs = tuple(filter(None, inputs.split(",")))
            records.append((node_id, kind, inputs, attrs, params, False))
            continue
        parts = line.split()
        head = parts[0]
        if head == "node":
            records.append(_node_fields(parts, path, line_no))
            continue
        if head in headers:
            raise ParseError(path, line_no, f"{head} given twice")
        headers.add(head)
        if head == "network":
            if len(parts) != 2:
                raise ParseError(path, line_no, "network takes one name")
            name = parts[1]
        elif head == "input":
            if len(parts) != 4:
                raise ParseError(path, line_no, "input takes H X C")
            try:
                input_geom = tuple(int(v) for v in parts[1:])
            except ValueError:
                raise ParseError(path, line_no, "input dims must be integers") from None
        elif head == "input_frac":
            try:
                (input_frac,) = map(int, parts[1:])
            except ValueError:
                raise ParseError(path, line_no, "input_frac takes one integer") from None
        else:
            raise ParseError(path, line_no, f"unknown directive {head!r}")
    if name is None or input_geom is None or input_frac is None:
        raise ParseError(path, 0, "network, input, and input_frac headers are required")
    base_dir = os.path.dirname(path) or "."
    try:
        return NetworkGraph.from_records(name, input_geom, input_frac, records, base_dir)
    except (ValidationError, ValueError) as exc:
        raise ParseError(path, 0, str(exc)) from None


def save_network(net: NetworkGraph, path) -> None:
    lines = [f"network {net.name}", "input {} {} {}".format(*net.input_geom), f"input_frac {net.input_frac}"]
    pool_names = {spec: name for name, spec in _POOLS.items()}
    for node in net.nodes:
        if node.kind == "conv":
            fields = (
                f"filter={node.filter} stride={node.stride} pad={node.padding} "
                f"co={node.co} relu={int(node.relu)} pool={pool_names[node.pool]} "
                f"fo={node.out_frac} fp={node.weight_frac} fb={node.bias_frac}"
            )
            if node.params:
                fields += f" params={node.params}"
        else:
            fields = f"units={node.units}" if node.kind == "fully_connected" else ""
            if node.params:
                fields += f" params={node.params}"
        inputs = ",".join(node.inputs)
        emit = " emit=1" if node.emit else ""
        entry = f"node {node.id} {node.kind} {fields} inputs={inputs}{emit}".replace("  ", " ")
        lines.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Legality checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerVerdict:
    node_id: str
    verdict: str  # fits | split | unsupported
    groups: int
    detail: str


class LegalityReport:
    """Per-layer verdicts of validate.

    ``ok`` comes from validate; ``rows`` and their problem strings are
    built when first read, from the cost columns alone.
    """

    def __init__(self, cols, cfg, ok):
        self._cols = cols  # the network's perf.ConvColumns
        self._cfg = cfg
        self.ok = ok

    @cached_property
    def rows(self) -> tuple[LayerVerdict, ...]:
        cfg = self._cfg
        v = self._cols.values.tolist()
        limits = _budgets(cfg)
        rows = []
        for i, node_id in enumerate(self._cols.node_ids):
            co, per_out = v[perf.CO][i], v[perf.PER_OUT][i]
            checks = (
                f"filter {math.isqrt(v[perf.TAPS][i])} exceeds FILTER_MAX={cfg.filter_max}",
                f"input row of {v[perf.ROW_BYTES][i]} bytes exceeds "
                f"WINxCHIN_PAD_MAX={cfg.win_x_chin_pad_max}",
                f"window of {per_out} bytes exceeds "
                f"FILTERxFILTERxCHIN_MAX={cfg.filter_x_filter_x_chin_max}",
                f"pool row of {v[perf.POOL_ROW][i]} bytes exceeds "
                f"PWINxPCH_MAX={cfg.pwin_x_pch_max}",
                f"pool pixel of {co} bytes exceeds PCH_MAX={cfg.pch_max}",
            )
            problems = [text for text, row, limit in zip(checks, v, limits) if row[i] > limit]
            groups = 0
            if not problems:
                try:
                    groups = split_groups(co, per_out, cfg)[1]
                except ConfigTooSmallError as exc:
                    problems.append(str(exc))
            if problems:
                rows.append(LayerVerdict(node_id, "unsupported", 0, "; ".join(problems)))
            elif groups == 1:
                rows.append(LayerVerdict(node_id, "fits", 1, ""))
            else:
                rows.append(LayerVerdict(node_id, "split", groups, f"{groups} groups"))
        return tuple(rows)

    def __str__(self):
        lines = []
        for r in self.rows:
            extra = f" ({r.detail})" if r.detail else ""
            lines.append(f"{r.node_id}: {r.verdict}{extra}")
        return "\n".join(lines)


def _budgets(cfg: AccelConfig):
    """Limits of rows perf.TAPS..POOL_CO; F, FILTER_MAX are 1 or 3, so F*F vs FILTER_MAX**2."""
    return (
        cfg.filter_max**2, cfg.win_x_chin_pad_max, cfg.filter_x_filter_x_chin_max,
        cfg.pwin_x_pch_max, cfg.pch_max,
    )


def validate(net: NetworkGraph, cfg: AccelConfig) -> LegalityReport:
    """Per-layer verdict against the configuration's buffer budgets.

    The split group min(CHOUT_MAX, budget // F*F*Ci) is at least 1 exactly
    when F*F*Ci is within the weight budget, since CHOUT_MAX >= 1; and a row
    is within a limit at every layer exactly when its maximum is.
    """
    m = net.conv_columns.maxima
    ok = m[perf.PER_OUT] <= cfg.chout_x_filter_x_filter_x_chin_max and all(
        map(operator.le, m, _budgets(cfg))
    )
    return LegalityReport(net.conv_columns, cfg, ok)


# ---------------------------------------------------------------------------
# First-layer reshaping
# ---------------------------------------------------------------------------

# Spatial fold factor: only stride-2 layers are folded.
FOLD = 2


def _space_to_depth(arr: np.ndarray, offset: int, rows: int, cols: int) -> np.ndarray:
    """Fold FOLD x FOLD spatial blocks of an (..., h, x, c) array into channels.

    The array sits at (offset, offset) in a zero canvas of FOLD*rows x
    FOLD*cols.  Channel k of block sub-position (dy, dx) lands at channel
    (dy*FOLD + dx)*c + k of the (..., rows, cols, FOLD*FOLD*c) result.
    """
    *lead, h, x, c = arr.shape
    canvas = np.zeros((*lead, FOLD * rows, FOLD * cols, c), dtype=arr.dtype)
    canvas[..., offset : offset + h, offset : offset + x, :] = arr
    blocks = canvas.reshape(*lead, rows, FOLD, cols, FOLD, c).swapaxes(-4, -3)
    return blocks.reshape(*lead, rows, cols, FOLD * FOLD * c)


@dataclass(frozen=True)
class ReshapeTransform:
    """Equivalence-preserving fold of a small-channel stride-2 layer.

    The input and the filter bank are folded by one space-to-depth step:
    channel c of sub-position (dy, dx) lands at (dy*2+dx)*ci + c.  The
    bank sits FOLD*new_pad - pad taps into its canvas, so original tap f
    moves to ``tap_map[f]`` = (folded kernel row, fold sub-row); columns
    map the same way.  For pad-0 layers the folded output carries extra
    border rows that are cropped away.  Execution of the folded layer is
    bit-exact equal to the original.
    """

    original_spec: LayerSpec
    original_geom: tuple[int, int, int]
    reshaped_spec: LayerSpec
    reshaped_geom: tuple[int, int, int]
    tap_map: dict
    crop: tuple[int, int]
    fold_kernel: int

    def map_activation(self, fy, fx, fc):
        """Folded coordinate -> original (y, x, c), or None for fold padding."""
        h, x, ci = self.original_geom
        block, c = divmod(fc, ci)
        dy, dx = divmod(block, FOLD)
        y, xx = FOLD * fy + dy, FOLD * fx + dx
        if y >= h or xx >= x:
            return None
        return (y, xx, c)

    def fold_input(self, t: QTensor3) -> QTensor3:
        if t.geom != self.original_geom:
            raise ShapeError(f"expected input {self.original_geom}, got {t.geom}")
        fh, fx, fc = self.reshaped_geom
        out = _space_to_depth(t.as_3d(), 0, fh, fx)
        return replace(t, height=fh, width=fx, channels=fc, values=out.reshape(-1))

    def fold_bank(self, bank: QFilterBank) -> QFilterBank:
        f, ci = self.original_spec.filter, self.original_geom[2]
        if bank.geom != (self.original_spec.co, f, f, ci):
            raise ShapeError(f"bank {bank.geom} does not match the original layer")
        k = self.reshaped_spec.filter
        g, d = self.tap_map[0]  # tap 0 sits FOLD*new_pad - pad cells into the canvas
        out = _space_to_depth(bank.as_4d(), FOLD * g + d, k, k)
        return replace(bank, fh=k, fw=k, ci=self.reshaped_geom[2], weights=out.reshape(-1))

    def run(self, ia: QTensor3, bank: QFilterBank) -> QTensor3:
        """Execute the folded layer; bit-exact equal to accel_exec on the original."""
        folded = self.fold_input(ia)
        folded_bank = self.fold_bank(bank)
        out = conv_exec(folded, folded_bank, replace(self.reshaped_spec, pool=None))
        ho, wo = self.crop
        if (out.height, out.width) != (ho, wo):
            out = replace(out, height=ho, width=wo, values=out.as_3d()[:ho, :wo].reshape(-1))
        if self.original_spec.pool is not None:
            out = mpool_exec(out, self.original_spec.pool.window)
        return out

    # A tap reads real data exactly when its row and its column both do, so
    # each count is (row hits) x (column hits) x ci x co.

    def mac_count_original(self) -> int:
        """Multiplies touching real (non-padding) input positions."""
        spec, (h, x, ci) = self.original_spec, self.original_geom
        s, p, taps = spec.stride, spec.padding, range(spec.filter)

        def hits(n_out, n_in):
            return sum(0 <= s * o + f - p < n_in for o in range(n_out) for f in taps)

        ho, wo = conv_out_dims(h, x, spec)
        return hits(ho, h) * hits(wo, x) * ci * spec.co

    def mac_count_reshaped(self) -> int:
        """Multiplies of the folded layer hitting real data via the index maps."""
        (fh, fx, _), (h, x, ci) = self.reshaped_geom, self.original_geom
        p, taps = self.reshaped_spec.padding, self.tap_map.values()

        def hits(n_out, n_fold, n_in):
            cells = ((o - p + g, d) for o in range(n_out) for g, d in taps)
            return sum(0 <= c < n_fold and FOLD * c + d < n_in for c, d in cells)

        ho, wo = self.crop
        return hits(ho, fh, h) * hits(wo, fx, x) * ci * self.reshaped_spec.co


def reshape_first_layer(
    spec: LayerSpec, in_geom: tuple[int, int, int], icp: int
) -> ReshapeTransform | None:
    """Build the fold transform for a first layer, or None when not applicable.

    Folding applies to stride-2 layers whose input channels underfill the
    multiplier array (Ci < ICP/2).  It turns a stride-2 kxk layer over
    (H, X, C) into a stride-1 layer over (ceil(H/2), ceil(X/2), 4C) whose
    kernel spans ceil(k/2) folded cells; MAC count over real positions is
    conserved.
    """
    if spec.stride < 2 or in_geom[2] >= icp / 2:
        return None
    h, x, ci = in_geom
    crop = conv_out_dims(h, x, spec)  # geometry sanity before transforming
    new_filter, new_pad = (1, 0) if spec.filter == 1 else (3, 1)
    tap_map = {f: divmod(f + FOLD * new_pad - spec.padding, FOLD) for f in range(spec.filter)}
    folded_geom = (-(-h // FOLD), -(-x // FOLD), ci * FOLD * FOLD)
    reshaped = LayerSpec(new_filter, 1, new_pad, spec.co, spec.relu, spec.pool, spec.scheme)
    gs = [g for g, _ in tap_map.values()]
    return ReshapeTransform(
        spec, in_geom, reshaped, folded_geom, tap_map, crop, max(gs) - min(gs) + 1
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _round_half_away_int(total: int, n: int) -> int:
    mag = (2 * abs(total) + n) // (2 * n)
    return mag if total >= 0 else -mag


def _load_params(node, base_dir) -> QFilterBank:
    if not node.params:
        raise LoadError(f"{node.id}: no parameter file declared")
    return load_bank(os.path.join(base_dir, node.params))


def _load_conv_bank(node: ConvNode, base_dir, in_ci: int) -> QFilterBank:
    bank = _load_params(node, base_dir)
    if bank.geom != (node.co, node.filter, node.filter, in_ci):
        raise LoadError(
            f"{node.id}: bank {bank.geom} does not match layer "
            f"({node.co}, {node.filter}, {node.filter}, {in_ci})"
        )
    if bank.weight_frac_bits != node.weight_frac or bank.bias_frac_bits != node.bias_frac:
        raise LoadError(
            f"{node.id}: bank exponents ({bank.weight_frac_bits}, {bank.bias_frac_bits}) "
            f"disagree with declared (fp={node.weight_frac}, fb={node.bias_frac})"
        )
    return bank


def run_network(
    net: NetworkGraph,
    cfg: AccelConfig,
    input_tensor: QTensor3,
    *,
    calib: Calibration = DEFAULT_CALIBRATION,
    emits: tuple[str, ...] = (),
):
    """Execute a network; returns ({node_id: tensor}, PerfReport).

    Accelerated nodes run through split-merge scheduling; host ops run in
    reference arithmetic.  Returned tensors cover emit-flagged nodes,
    explicitly requested ids, and all terminal nodes.
    """
    legality = validate(net, cfg)
    if not legality.ok:
        raise ValidationError(f"{net.name} is not legal under {cfg.name or 'config'}:\n{legality}")
    if input_tensor.geom != net.input_geom:
        raise ValidationError(
            f"input tensor {input_tensor.geom} does not match graph input {net.input_geom}"
        )
    if input_tensor.frac_bits != net.input_frac:
        raise ValidationError(
            f"input frac_bits {input_tensor.frac_bits} != declared {net.input_frac}"
        )
    known = {INPUT_ID, *(n.id for n in net.nodes)}
    for want in emits:
        if want not in known:
            raise ValidationError(f"requested output {want!r} is not a node id")

    report = perf.network_perf(net, cfg, calib)
    results = {INPUT_ID: input_tensor}
    for node, sn in zip(net.topo_order(), net.shaped_nodes()):
        sources = [results[r] for r in node.inputs]
        if node.kind == "conv":
            bank = _load_conv_bank(node, net.base_dir, sn.in_geom[2])
            try:
                out = exec_with_split(sources[0], bank, sn.spec, cfg)
            except AccumulatorOverflow as exc:
                raise AccumulatorOverflow(f"{node.id}: {exc}") from None
        elif node.kind == "concat":
            merged = np.concatenate([s.as_3d() for s in sources], axis=2)
            h, x, c = merged.shape
            out = QTensor3(h, x, c, merged.reshape(-1), sources[0].frac_bits)
        elif node.kind == "global_avg_pool":
            src = sources[0]
            sums = src.as_3d().astype(np.int64).sum(axis=(0, 1))
            n = src.height * src.width
            vals = [_round_half_away_int(int(s), n) for s in sums]
            out = QTensor3(1, 1, src.channels, vals, src.frac_bits)
        elif node.kind == "fully_connected":
            src = sources[0]
            flat = (
                dequantize(src).values if isinstance(src, QTensor3) else src.values
            )
            bank = _load_params(node, net.base_dir)
            if bank.co != node.units or bank.ci != flat.size or (bank.fh, bank.fw) != (1, 1):
                raise LoadError(
                    f"{node.id}: bank {bank.geom} does not match fully_connected "
                    f"({node.units} units on {flat.size} inputs)"
                )
            # Converting the int8 weights in row blocks bounds the float64
            # copy.  Scaling by the power of two 2**-weight_frac_bits after
            # the matvec instead of before it commutes with every rounding,
            # so the result is the same as (w * 2**-fp) @ flat.  A last
            # block of one row would go to a dot product, which sums in
            # another order, so it joins the block before it.
            w = bank.as_4d().reshape(node.units, flat.size)
            rows = fc_block_rows(flat.size)
            blocks = np.split(w, range(rows, node.units - 1, rows))
            acc = np.concatenate([blk.astype(np.float64) @ flat for blk in blocks])
            b = bank.biases.astype(np.float64) * 2.0**-bank.bias_frac_bits
            out = FTensor3(1, 1, node.units, acc * 2.0**-bank.weight_frac_bits + b)
        elif node.kind == "softmax":
            src = sources[0]
            flat = dequantize(src).values if isinstance(src, QTensor3) else src.values
            e = np.exp(flat - flat.max())
            out = FTensor3(1, 1, flat.size, e / e.sum())
        else:  # pragma: no cover - parse rejects unknown kinds
            raise ValidationError(f"{node.id}: unknown node kind {node.kind!r}")
        results[node.id] = out

    wanted = set(emits) | set(net.terminal_ids())
    wanted.update(n.id for n in net.nodes if n.emit)
    return {node_id: results[node_id] for node_id in sorted(wanted)}, report
