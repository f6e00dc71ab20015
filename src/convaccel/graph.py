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

A convolution's input exponent is inherited from its producer, so the
quantization chain is consistent by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import perf
from .config import AccelConfig, Calibration, DEFAULT_CALIBRATION, text_lines
from .engine import (
    LayerSpec,
    PoolSpec,
    conv_exec,
    conv_out_dims,
    exec_with_split,
    mpool_exec,
    # Unused here; bound because bench/test_bench.py checks the tracer patches it.
    plan_split,  # noqa: F401
    split_groups,
)
from .errors import (
    ConfigTooSmallError,
    LoadError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .quant import DfpScheme, dequantize
from .tensors import FTensor3, QFilterBank, QTensor3, load_bank

INPUT_ID = "input"

HOST_KINDS = ("concat", "global_avg_pool", "fully_connected", "softmax")

# Weight rows converted to float64 at a time by a fully_connected node.
FC_BLOCK_ROWS = 512


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


class NetworkGraph:
    """Immutable layer DAG plus the graph input geometry and exponent.

    Shape inference also fixes what the cost model reads: ``conv_columns``,
    the perf.ConvColumns of the convolutions in topological order, and
    ``host_nodes``, (node_id, kind, units) per host node in that order.
    """

    def __init__(self, name, input_geom, input_frac, nodes, base_dir="."):
        self.name = name
        self.input_geom = tuple(input_geom)
        self.input_frac = input_frac
        self.nodes = tuple(nodes)
        self.base_dir = base_dir
        if min(self.input_geom) < 1:
            raise ValidationError(f"{name}: input geometry {self.input_geom} has a zero dim")
        self._by_id = {}
        for node in self.nodes:
            if node.id == INPUT_ID or node.id in self._by_id:
                raise ValidationError(f"{name}: duplicate or reserved node id {node.id!r}")
            self._by_id[node.id] = node
        self._order = self._toposort()
        self._shaped = self._infer_shapes()

    def _toposort(self):
        known = set(self._by_id)
        for node in self.nodes:
            if not node.inputs:
                raise ValidationError(f"{self.name}: node {node.id!r} has no inputs")
            for ref in node.inputs:
                if ref != INPUT_ID and ref not in known:
                    raise ValidationError(
                        f"{self.name}: node {node.id!r} references unknown input {ref!r}"
                    )
        if self.nodes and not any(INPUT_ID in n.inputs for n in self.nodes):
            raise ValidationError(f"{self.name}: no node consumes the graph input")
        # Repeatedly take the first declared node whose inputs are all done:
        # declaration order breaks every tie, so an ordered file keeps its order.
        done, order, pending = {INPUT_ID}, [], list(self.nodes)
        while pending:
            i = next((i for i, n in enumerate(pending) if done.issuperset(n.inputs)), None)
            if i is None:
                stuck = sorted(n.id for n in pending)
                raise ValidationError(f"{self.name}: cycle involving {', '.join(stuck)}")
            node = pending.pop(i)
            done.add(node.id)
            order.append(node)
        return tuple(order)

    def _infer_shapes(self):
        # geometry and quantization exponent per producer; frac None = real domain
        geom = {INPUT_ID: self.input_geom}
        frac = {INPUT_ID: self.input_frac}
        shaped, conv_ids, conv_rows, host = [], [], [], []
        # Layers repeat (vgg16 has 8 distinct of 13): one LayerSpec per distinct layer.
        specs = {}
        for node in self._order:
            if node.kind == "conv":
                if len(node.inputs) != 1:
                    raise ValidationError(f"{node.id}: conv takes exactly one input")
                src = node.inputs[0]
                in_geom, in_frac = geom[src], frac[src]
                if in_frac is None:
                    raise ValidationError(f"{node.id}: conv input {src!r} is real-valued")
                key = (
                    node.filter, node.stride, node.padding, node.co, node.relu, node.pool,
                    in_frac, node.weight_frac, node.bias_frac, node.out_frac,
                )
                spec = specs.get(key)
                if spec is None:
                    spec = specs[key] = LayerSpec(*key[:6], DfpScheme(*key[6:]))
                try:
                    out_geom, row = perf.conv_terms(spec, in_geom)
                except ShapeError as exc:
                    raise ValidationError(f"{node.id}: {exc}") from None
                out_frac = node.out_frac
                conv_ids.append(node.id)
                conv_rows.append(row)
            else:
                in_geoms = [geom[r] for r in node.inputs]
                in_fracs = [frac[r] for r in node.inputs]
                out_geom, out_frac = self._host_shape(node, in_geoms, in_fracs)
                in_geom, spec = in_geoms[0], None
                (h, x, c), (oh, ox, oc) = in_geom, out_geom
                units = perf.host_units(node.kind, h * x * c, oh * ox * oc)
                host.append((node.id, node.kind, units))
            geom[node.id] = out_geom
            frac[node.id] = out_frac
            shaped.append(ShapedNode(node.id, node.kind, in_geom, out_geom, spec))
        self.conv_columns = perf.ConvColumns(conv_ids, conv_rows)
        self.host_nodes = tuple(host)
        return tuple(shaped)

    @staticmethod
    def _host_shape(node, in_geoms, in_fracs):
        """(output geometry, output exponent) of a host node; exponent None = real."""
        if node.kind == "concat":
            if len(node.inputs) < 2:
                raise ValidationError(f"{node.id}: concat needs at least two inputs")
            if any(f is None for f in in_fracs):
                raise ValidationError(f"{node.id}: concat of real-valued inputs")
            if len({g[:2] for g in in_geoms}) != 1:
                raise ValidationError(f"{node.id}: concat inputs differ spatially")
            if len(set(in_fracs)) != 1:
                raise ValidationError(f"{node.id}: concat inputs differ in frac_bits")
            h, x, _ = in_geoms[0]
            return (h, x, sum(g[2] for g in in_geoms)), in_fracs[0]
        if node.kind == "global_avg_pool":
            if len(node.inputs) != 1 or in_fracs[0] is None:
                raise ValidationError(f"{node.id}: global_avg_pool takes one quantized input")
            return (1, 1, in_geoms[0][2]), in_fracs[0]
        if node.kind == "fully_connected":
            if len(node.inputs) != 1:
                raise ValidationError(f"{node.id}: fully_connected takes one input")
            if node.units < 1:
                raise ValidationError(f"{node.id}: fully_connected needs units >= 1")
            return (1, 1, node.units), None
        if node.kind == "softmax":
            if len(node.inputs) != 1:
                raise ValidationError(f"{node.id}: softmax takes one input")
            h, x, c = in_geoms[0]
            return (1, 1, h * x * c), None
        raise ValidationError(f"{node.id}: unknown node kind {node.kind!r}")

    def topo_order(self):
        return self._order

    def shaped_nodes(self):
        return self._shaped

    def shaped(self, node_id) -> ShapedNode:
        for sn in self._shaped:
            if sn.node_id == node_id:
                return sn
        raise KeyError(node_id)

    def terminal_ids(self):
        consumed = {r for n in self.nodes for r in n.inputs}
        return tuple(n.id for n in self.nodes if n.id not in consumed)

    def mac_count(self) -> int:
        """Multiply-accumulate count of the accelerated layers."""
        v = self.conv_columns.values
        return sum(p * w for p, w in zip(v[perf.PIXELS].tolist(), v[perf.WEIGHTS].tolist()))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_POOLS = {"none": None, "2x2s2": PoolSpec(2), "3x3s2": PoolSpec(3)}


# The integer fields of a conv node, in the order their errors are reported.
_CONV_INTS = ("filter", "stride", "pad", "co", "relu", "fo", "fp", "fb")


def _parse_kv(pairs, path, line_no):
    try:
        return dict([item.split("=", 1) for item in pairs])
    except ValueError:
        bad = next(item for item in pairs if "=" not in item)
        raise ParseError(path, line_no, f"expected key=value, got {bad!r}") from None


def _take_int(kv, key, path, line_no):
    if key not in kv:
        raise ParseError(path, line_no, f"missing {key}")
    try:
        return int(kv.pop(key))
    except ValueError:
        raise ParseError(path, line_no, f"bad integer for {key}") from None


def _parse_node(parts, path, line_no):
    if len(parts) < 2:
        raise ParseError(path, line_no, "node needs an id and a kind")
    node_id, kind = parts[0], parts[1]
    kv = _parse_kv(parts[2:], path, line_no)
    if "inputs" not in kv:
        raise ParseError(path, line_no, f"node {node_id!r} missing inputs")
    inputs = tuple(s for s in kv.pop("inputs").split(",") if s)
    emit = kv.pop("emit", "0") not in ("0", "", "false")
    params = kv.pop("params", None)
    if kind == "conv":
        pool_key = kv.pop("pool", "none")
        if pool_key not in _POOLS:
            raise ParseError(path, line_no, f"unknown pool {pool_key!r}")
        try:
            filt, stride, pad, co, relu, fo, fp, fb = map(int, map(kv.pop, _CONV_INTS))
        except (KeyError, ValueError):
            # Name the first missing or malformed field, in _CONV_INTS order.
            fresh = _parse_kv(parts[2:], path, line_no)
            for key in _CONV_INTS:
                _take_int(fresh, key, path, line_no)
            raise
        node = ConvNode(
            node_id, filt, stride, pad, co, relu != 0, _POOLS[pool_key],
            fo, fp, fb, params, inputs, emit,
        )
    elif kind in HOST_KINDS:
        units = _take_int(kv, "units", path, line_no) if kind == "fully_connected" else 0
        node = HostNode(node_id, kind, inputs, units, params, emit)
    else:
        raise ParseError(path, line_no, f"unknown node kind {kind!r}")
    if kv:
        raise ParseError(path, line_no, f"unknown keys for {node_id!r}: {sorted(kv)}")
    return node


def parse_network(path) -> NetworkGraph:
    name = None
    input_geom = None
    input_frac = None
    nodes = []
    for line_no, line in text_lines(path):
        parts = line.split()
        head = parts[0]
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
                input_frac = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError(path, line_no, "input_frac takes one integer") from None
        elif head == "node":
            nodes.append(_parse_node(parts[1:], path, line_no))
        else:
            raise ParseError(path, line_no, f"unknown directive {head!r}")
    if name is None or input_geom is None or input_frac is None:
        raise ParseError(path, 0, "network, input, and input_frac headers are required")
    try:
        return NetworkGraph(name, input_geom, input_frac, nodes, os.path.dirname(path) or ".")
    except (ValidationError, ValueError) as exc:
        raise ParseError(path, 0, str(exc)) from None


def save_network(net: NetworkGraph, path) -> None:
    lines = [f"network {net.name}", "input {} {} {}".format(*net.input_geom), f"input_frac {net.input_frac}"]
    pool_names = {None: "none", PoolSpec(2): "2x2s2", PoolSpec(3): "3x3s2"}
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

    ``ok`` comes from validate's masks; ``rows`` and their problem
    strings are built when first read.
    """

    def __init__(self, net, cfg, over, ok):
        self._net = net
        self._cfg = cfg
        self._over = over  # rows perf.TAPS..perf.POOL_CO over their budgets, per layer
        self.ok = ok

    @cached_property
    def rows(self) -> tuple[LayerVerdict, ...]:
        cfg = self._cfg
        v = self._net.conv_columns.values.tolist()
        over = self._over.T.tolist()
        convs = [sn for sn in self._net.shaped_nodes() if sn.spec is not None]
        rows = []
        for i, sn in enumerate(convs):
            co, per_out = v[perf.CO][i], v[perf.PER_OUT][i]
            checks = (
                f"filter {sn.spec.filter} exceeds FILTER_MAX={cfg.filter_max}",
                f"input row of {v[perf.ROW_BYTES][i]} bytes exceeds "
                f"WINxCHIN_PAD_MAX={cfg.win_x_chin_pad_max}",
                f"window of {per_out} bytes exceeds "
                f"FILTERxFILTERxCHIN_MAX={cfg.filter_x_filter_x_chin_max}",
                f"pool row of {v[perf.POOL_ROW][i]} bytes exceeds "
                f"PWINxPCH_MAX={cfg.pwin_x_pch_max}",
                f"pool pixel of {co} bytes exceeds PCH_MAX={cfg.pch_max}",
            )
            problems = [text for text, bad in zip(checks, over[i]) if bad]
            groups = 0
            if not problems:
                try:
                    groups = split_groups(co, per_out, cfg)[1]
                except ConfigTooSmallError as exc:
                    problems.append(str(exc))
            if problems:
                rows.append(LayerVerdict(sn.node_id, "unsupported", 0, "; ".join(problems)))
            elif groups == 1:
                rows.append(LayerVerdict(sn.node_id, "fits", 1, ""))
            else:
                rows.append(LayerVerdict(sn.node_id, "split", groups, f"{groups} groups"))
        return tuple(rows)

    def __str__(self):
        lines = []
        for r in self.rows:
            extra = f" ({r.detail})" if r.detail else ""
            lines.append(f"{r.node_id}: {r.verdict}{extra}")
        return "\n".join(lines)


def validate(net: NetworkGraph, cfg: AccelConfig) -> LegalityReport:
    """Per-layer verdict against the configuration's buffer budgets, all layers in one pass."""
    v = net.conv_columns.select(cfg)
    # F and FILTER_MAX are 1 or 3, so F > FILTER_MAX exactly when F*F > FILTER_MAX**2.
    limits = [
        [cfg.filter_max**2],
        [cfg.win_x_chin_pad_max],
        [cfg.filter_x_filter_x_chin_max],
        [cfg.pwin_x_pch_max],
        [cfg.pch_max],
    ]
    over = v[: perf.POOL_CO + 1] > np.array(limits, dtype=v.dtype)
    # split_groups' group min(CHOUT_MAX, budget // F*F*Ci) is below 1 exactly
    # when F*F*Ci exceeds the budget, because CHOUT_MAX >= 1.
    tight = v[perf.PER_OUT] > cfg.chout_x_filter_x_filter_x_chin_max
    ok = not (np.count_nonzero(over) or np.count_nonzero(tight))
    return LegalityReport(net, cfg, over, ok)


# ---------------------------------------------------------------------------
# First-layer reshaping
# ---------------------------------------------------------------------------

# Spatial fold factor: only stride-2 layers are folded.
FOLD = 2

# Tap relocation tables: original filter row index -> (folded kernel row,
# fold sub-row).  Column mapping is identical by symmetry.
_TAP_MAPS = {
    (1, 0): {0: (0, 0)},
    (3, 1): {0: (0, 1), 1: (1, 0), 2: (1, 1)},
    (3, 0): {0: (1, 0), 1: (1, 1), 2: (2, 0)},
}


@dataclass(frozen=True)
class ReshapeTransform:
    """Equivalence-preserving fold of a small-channel stride-2 layer.

    Spatial 2x2 blocks of the input fold into the channel dimension
    (channel c of sub-position (dy, dx) lands at (dy*2+dx)*ci + c), the
    filter taps relocate per ``tap_map``, and for pad-0 layers the folded
    output carries extra border rows that are cropped away.  Execution of
    the folded layer is bit-exact equal to the original.
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
        h, x, ci = t.geom
        fh, fx, fc = self.reshaped_geom
        src = t.as_3d()
        out = np.zeros((fh, fx, fc), dtype=np.int8)
        for dy in range(FOLD):
            for dx in range(FOLD):
                rows = (h - dy + FOLD - 1) // FOLD
                cols = (x - dx + FOLD - 1) // FOLD
                block = (dy * FOLD + dx) * ci
                out[:rows, :cols, block : block + ci] = src[dy :: FOLD, dx :: FOLD]
        return QTensor3(fh, fx, fc, out.reshape(-1), t.frac_bits)

    def fold_bank(self, bank: QFilterBank) -> QFilterBank:
        if bank.geom != (
            self.original_spec.co,
            self.original_spec.filter,
            self.original_spec.filter,
            self.original_geom[2],
        ):
            raise ShapeError(f"bank {bank.geom} does not match the original layer")
        ci = bank.ci
        k = self.reshaped_spec.filter
        out = np.zeros((bank.co, k, k, self.reshaped_geom[2]), dtype=np.int8)
        w4 = bank.as_4d()
        for fy, (gy, dy) in self.tap_map.items():
            for fx, (gx, dx) in self.tap_map.items():
                block = (dy * FOLD + dx) * ci
                out[:, gy, gx, block : block + ci] = w4[:, fy, fx, :]
        return QFilterBank(
            bank.co,
            k,
            k,
            self.reshaped_geom[2],
            out.reshape(-1),
            bank.biases,
            bank.weight_frac_bits,
            bank.bias_frac_bits,
        )

    def run(self, ia: QTensor3, bank: QFilterBank) -> QTensor3:
        """Execute the folded layer; bit-exact equal to accel_exec on the original."""
        folded = self.fold_input(ia)
        folded_bank = self.fold_bank(bank)
        out = conv_exec(folded, folded_bank, replace(self.reshaped_spec, pool=None))
        ho, wo = self.crop
        if (out.height, out.width) != (ho, wo):
            cropped = out.as_3d()[:ho, :wo]
            out = QTensor3(ho, wo, out.channels, cropped.reshape(-1), out.frac_bits)
        if self.original_spec.pool is not None:
            out = mpool_exec(out, self.original_spec.pool.window)
        return out

    def mac_count_original(self) -> int:
        """Multiplies touching real (non-padding) input positions."""
        spec, (h, x, ci) = self.original_spec, self.original_geom
        ho, wo = conv_out_dims(h, x, spec)
        taps = 0
        for yo in range(ho):
            for xo in range(wo):
                for fy in range(spec.filter):
                    if not 0 <= spec.stride * yo + fy - spec.padding < h:
                        continue
                    for fx in range(spec.filter):
                        if 0 <= spec.stride * xo + fx - spec.padding < x:
                            taps += 1
        return taps * ci * spec.co

    def mac_count_reshaped(self) -> int:
        """Multiplies of the folded layer hitting real data via the index maps."""
        spec = self.reshaped_spec
        fh, fx, _ = self.reshaped_geom
        h, x, ci = self.original_geom
        ho, wo = self.crop
        pad = spec.padding
        taps = 0
        for yo in range(ho):
            for xo in range(wo):
                for _, (gy, dy) in self.tap_map.items():
                    fy = yo - pad + gy
                    if not 0 <= fy < fh or FOLD * fy + dy >= h:
                        continue
                    for _, (gx, dx) in self.tap_map.items():
                        fxx = xo - pad + gx
                        if 0 <= fxx < fx and FOLD * fxx + dx < x:
                            taps += 1
        return taps * ci * spec.co


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
    conv_out_dims(h, x, spec)  # geometry sanity before transforming
    tap_map = _TAP_MAPS[(spec.filter, spec.padding)]
    folded_geom = (-(-h // FOLD), -(-x // FOLD), ci * FOLD * FOLD)
    if spec.filter == 1:
        new_filter, new_pad = 1, 0
    else:
        new_filter, new_pad = 3, 1
    reshaped = LayerSpec(new_filter, 1, new_pad, spec.co, spec.relu, spec.pool, spec.scheme)
    crop = conv_out_dims(h, x, spec)
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
            out = exec_with_split(sources[0], bank, sn.spec, cfg)
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
            # so the result is the same as (w * 2**-fp) @ flat.
            w = bank.as_4d().reshape(node.units, flat.size)
            rows = range(0, node.units, FC_BLOCK_ROWS)
            acc = np.concatenate([w[r : r + FC_BLOCK_ROWS].astype(np.float64) @ flat for r in rows])
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
