"""Independent oracles used across the test suite.

Everything here is deliberately naive pure Python over flat lists:
nested loops, divmod-based rounding, no numpy and no shared code with
the package. The engine must match these bit-exactly.  The one exception
is conv_cycles_ref, which walks engine.plan_split's groups on purpose:
the cost model's closed-form compute term must equal the sum over the
secondary convolutions that execution actually runs; validate_ref counts
groups through plan_split for the same reason.
"""

from convaccel import DfpScheme, LayerSpec, QFilterBank, QTensor3, plan_split
from convaccel.errors import ConfigTooSmallError, ShapeError
from convaccel.graph import LayerVerdict
from convaccel.perf import LayerCycles


def shift_round_ref(value: int, shift: int) -> int:
    if shift <= 0:
        return value * (2 ** (-shift))
    q, r = divmod(abs(value), 2**shift)
    if 2 * r >= 2**shift:
        q += 1
    return q if value >= 0 else -q


def rescale_ref(acc: int, scheme: DfpScheme, bias_raw: int) -> int:
    a = shift_round_ref(acc, scheme.input_frac + scheme.weight_frac - scheme.output_frac)
    b = shift_round_ref(bias_raw, scheme.bias_frac - scheme.output_frac)
    return max(-128, min(127, a + b))


def conv_ref(ia: QTensor3, bank: QFilterBank, spec: LayerSpec) -> list[int]:
    """Six-nested-loop integer convolution plus rescale and optional ReLU."""
    h, x, ci = ia.height, ia.width, ia.channels
    f, s, p, co = spec.filter, spec.stride, spec.padding, spec.co
    ho = (h + 2 * p - f) // s + 1
    wo = (x + 2 * p - f) // s + 1
    a = [int(v) for v in ia.values]
    w = [int(v) for v in bank.weights]
    biases = [int(v) for v in bank.biases]
    out = []
    for yo in range(ho):
        for xo in range(wo):
            for c in range(co):
                acc = 0
                for fy in range(f):
                    yi = yo * s + fy - p
                    if yi < 0 or yi >= h:
                        continue
                    for fx in range(f):
                        xi = xo * s + fx - p
                        if xi < 0 or xi >= x:
                            continue
                        abase = (yi * x + xi) * ci
                        wbase = ((c * f + fy) * f + fx) * ci
                        for k in range(ci):
                            acc += a[abase + k] * w[wbase + k]
                v = rescale_ref(acc, spec.scheme, biases[c])
                if spec.relu and v < 0:
                    v = 0
                out.append(v)
    return out


def pool_ref(t: QTensor3, window: int, stride: int = 2) -> list[int]:
    """Direct per-channel window max."""
    h, x, c = t.height, t.width, t.channels
    ho = (h - window) // stride + 1
    wo = (x - window) // stride + 1
    vals = [int(v) for v in t.values]
    out = []
    for yo in range(ho):
        for xo in range(wo):
            for ch in range(c):
                best = None
                for j in range(window):
                    for k in range(window):
                        v = vals[((yo * stride + j) * x + (xo * stride + k)) * c + ch]
                        if best is None or v > best:
                            best = v
                out.append(best)
    return out


def layer_ref(ia: QTensor3, bank: QFilterBank, spec: LayerSpec) -> list[int]:
    """Full pipeline oracle: conv (+ReLU) then optional pool."""
    f, s, p = spec.filter, spec.stride, spec.padding
    ho = (ia.height + 2 * p - f) // s + 1
    wo = (ia.width + 2 * p - f) // s + 1
    conv = conv_ref(ia, bank, spec)
    if spec.pool is None:
        return conv
    return pool_ref(QTensor3(ho, wo, spec.co, conv, spec.scheme.output_frac), spec.pool.window)


def pareto_ref(metric_rows: list[tuple]) -> set[int]:
    """Indices of non-dominated rows under minimize-everything dominance."""
    keep = set()
    for i, a in enumerate(metric_rows):
        dominated = False
        for j, b in enumerate(metric_rows):
            if i == j:
                continue
            if all(bv <= av for bv, av in zip(b, a)) and any(bv < av for bv, av in zip(b, a)):
                dominated = True
                break
        if not dominated:
            keep.add(i)
    return keep


def check_plan(plan, bank_geom: tuple[int, int, int, int], cfg) -> None:
    """Split invariants: contiguous groups covering [0, co), each within both budgets."""
    co, fh, fw, ci = bank_geom
    per_out_bytes = fh * fw * ci
    cursor = 0
    for lo, hi in plan.groups:
        if lo != cursor or hi <= lo:
            raise ValueError(f"groups are not contiguous ranges covering [0, {co})")
        size = hi - lo
        if size > cfg.chout_max:
            raise ValueError(f"group [{lo}, {hi}) exceeds CHOUT_MAX={cfg.chout_max}")
        if size * per_out_bytes > cfg.chout_x_filter_x_filter_x_chin_max:
            raise ValueError(f"group [{lo}, {hi}) exceeds the weight OCM budget")
        cursor = hi
    if cursor != co:
        raise ValueError(f"groups cover [0, {cursor}) but co={co}")


def conv_cycles_ref(spec: LayerSpec, in_geom, cfg, calib) -> LayerCycles:
    """The per-layer cycle model, with compute summed group by group over plan_split.

    Raises what the model raises, in its order: ShapeError for the filter,
    ConfigTooSmallError from plan_split, then ShapeError for the pool.
    """

    def ceil_div(a, b):
        return (a + b - 1) // b

    h, x, ci = in_geom
    f, s, p, co = spec.filter, spec.stride, spec.padding, spec.co
    ho = (h + 2 * p - f) // s + 1
    wo = (x + 2 * p - f) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError("input too small for the filter")
    plan = plan_split((co, f, f, ci), cfg)

    tile = f * f * ceil_div(ci, cfg.icp)
    compute = calib.k_layer
    for lo, hi in plan.groups:
        compute += ho * wo * (ceil_div(hi - lo, cfg.ocp) * tile + calib.k_pipe)

    transfer_in = plan.restreams * ceil_div(h * x * ci, cfg.apack)
    param = ceil_div(co * f * f * ci, cfg.ppack) + ceil_div(co, cfg.apack)

    hp, wp, pool = ho, wo, 0
    if spec.pool is not None:
        w = spec.pool.window
        if ho < w or wo < w:
            raise ShapeError("convolution output smaller than the pool window")
        hp, wp = (ho - w) // 2 + 1, (wo - w) // 2 + 1
        pool = hp * wp * w * w * ceil_div(co, cfg.apack) + calib.k_pool
    writeback = ceil_div(hp * wp * co, cfg.apack)
    total = max(compute, transfer_in, pool) + param + writeback
    return LayerCycles(compute, transfer_in, param, writeback, pool, plan.restreams, total)


def validate_ref(net, cfg):
    """(ok, rows, text) of graph.validate, one convolution at a time from its spec and input."""
    rows = []
    for sn in net.shaped_nodes():
        if sn.spec is None:
            continue
        spec = sn.spec
        h, x, ci = sn.in_geom
        f, p, co = spec.filter, spec.padding, spec.co
        wo = (x + 2 * p - f) // spec.stride + 1
        problems = []
        if f > cfg.filter_max:
            problems.append(f"filter {f} exceeds FILTER_MAX={cfg.filter_max}")
        if (x + 2 * p) * ci > cfg.win_x_chin_pad_max:
            problems.append(
                f"input row of {(x + 2 * p) * ci} bytes exceeds "
                f"WINxCHIN_PAD_MAX={cfg.win_x_chin_pad_max}"
            )
        if f * f * ci > cfg.filter_x_filter_x_chin_max:
            problems.append(
                f"window of {f * f * ci} bytes exceeds "
                f"FILTERxFILTERxCHIN_MAX={cfg.filter_x_filter_x_chin_max}"
            )
        if spec.pool is not None:
            if wo * co > cfg.pwin_x_pch_max:
                problems.append(
                    f"pool row of {wo * co} bytes exceeds PWINxPCH_MAX={cfg.pwin_x_pch_max}"
                )
            if co > cfg.pch_max:
                problems.append(f"pool pixel of {co} bytes exceeds PCH_MAX={cfg.pch_max}")
        groups = 0
        if not problems:
            try:
                groups = plan_split((co, f, f, ci), cfg).restreams
            except ConfigTooSmallError as exc:
                problems.append(str(exc))
        if problems:
            rows.append(LayerVerdict(sn.node_id, "unsupported", 0, "; ".join(problems)))
        elif groups == 1:
            rows.append(LayerVerdict(sn.node_id, "fits", 1, ""))
        else:
            rows.append(LayerVerdict(sn.node_id, "split", groups, f"{groups} groups"))
    ok = all(r.verdict != "unsupported" for r in rows)
    text = "\n".join(
        f"{r.node_id}: {r.verdict}" + (f" ({r.detail})" if r.detail else "") for r in rows
    )
    return ok, tuple(rows), text


# The first-layer fold's tap relocation as a literal table, keyed by the
# original (filter, padding): original filter row -> (folded kernel row,
# fold sub-row).  Columns map the same way.
FOLD_TAP_MAPS = {
    (1, 0): {0: (0, 0)},
    (3, 1): {0: (0, 1), 1: (1, 0), 2: (1, 1)},
    (3, 0): {0: (1, 0), 1: (1, 1), 2: (2, 0)},
}


def fold_geometry_ref(spec: LayerSpec, in_geom):
    """(folded kernel size, folded padding, folded (h, x, c), crop) of a stride-2 fold."""
    h, x, ci = in_geom
    f, s, p = spec.filter, spec.stride, spec.padding
    crop = ((h + 2 * p - f) // s + 1, (x + 2 * p - f) // s + 1)
    k, pad = (1, 0) if f == 1 else (3, 1)
    return k, pad, ((h + 1) // 2, (x + 1) // 2, 4 * ci), crop


def fold_input_ref(ia: QTensor3) -> list[int]:
    """Folded activations, element by element: (y, x, c) lands at
    (y // 2, x // 2, ((y % 2) * 2 + x % 2) * ci + c)."""
    h, x, ci = ia.height, ia.width, ia.channels
    fx, fc = (x + 1) // 2, 4 * ci
    out = [0] * ((h + 1) // 2 * fx * fc)
    for y in range(h):
        for xx in range(x):
            for c in range(ci):
                block = (y % 2) * 2 + xx % 2
                out[((y // 2) * fx + xx // 2) * fc + block * ci + c] = ia.at(y, xx, c)
    return out


def fold_bank_ref(bank: QFilterBank, padding: int) -> list[int]:
    """Folded weights, scattered tap by tap through FOLD_TAP_MAPS."""
    co, f, _, ci = bank.geom
    tap_map = FOLD_TAP_MAPS[(f, padding)]
    k, fc = (1 if f == 1 else 3), 4 * ci
    w = [int(v) for v in bank.weights]
    out = [0] * (co * k * k * fc)
    for o in range(co):
        for fy, (gy, dy) in tap_map.items():
            for fx, (gx, dx) in tap_map.items():
                for c in range(ci):
                    dst = ((o * k + gy) * k + gx) * fc + (dy * 2 + dx) * ci + c
                    out[dst] = w[((o * f + fy) * f + fx) * ci + c]
    return out


def fold_macs_ref(spec: LayerSpec, in_geom) -> tuple[int, int]:
    """(original, folded) multiplies that touch real input data, tap by tap."""
    h, x, ci = in_geom
    _, pad, (fh, fx, _), (ho, wo) = fold_geometry_ref(spec, in_geom)
    original = 0
    for yo in range(ho):
        for xo in range(wo):
            for fy in range(spec.filter):
                if not 0 <= spec.stride * yo + fy - spec.padding < h:
                    continue
                for fxx in range(spec.filter):
                    if 0 <= spec.stride * xo + fxx - spec.padding < x:
                        original += 1
    tap_map = FOLD_TAP_MAPS[(spec.filter, spec.padding)]
    folded = 0
    for yo in range(ho):
        for xo in range(wo):
            for gy, dy in tap_map.values():
                cy = yo - pad + gy
                if not 0 <= cy < fh or 2 * cy + dy >= h:
                    continue
                for gx, dx in tap_map.values():
                    cx = xo - pad + gx
                    if 0 <= cx < fx and 2 * cx + dx < x:
                        folded += 1
    return original * ci * spec.co, folded * ci * spec.co
