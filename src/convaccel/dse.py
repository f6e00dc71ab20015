"""Design-space exploration: enumerate configurations, evaluate, Pareto-filter.

Sweep description file, line oriented ('#' starts a comment):

    base <config file>                  # defaults for parameters not swept
    workload <network file>             # repeatable
    axis <PARAM> <v1> <v2> ...          # cartesian axis over a parameter
    point <PARAM>=<v> ...               # explicit extra design point
    constraint <max_dsp|max_bram_bytes|max_power_w|max_latency_ms> <value>
    objective <latency|dsp|bram|power>  # repeatable, ordered
    cap <n>                             # enumeration cap (default 100000)

PE_DSP accepts the literal value ``ocp`` to track the OCP of each point.
Each parameter takes at most one axis line and each objective appears at
most once; a repeat is a parse error, as is anything after cap's value.
Every axis combination becomes one design point; combinations that fail
configuration validation or whose workloads are not legal are emitted as
infeasible rows.  The latency objective is the summed end-to-end latency
over the workloads; max_latency_ms constrains each workload separately.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

from .config import CONFIG_KEYS, DEFAULT_CALIBRATION, AccelConfig, Calibration
from .config import load_config, text_lines
from .errors import ParseError, SweepCapError
from .graph import NetworkGraph, parse_network, validate
from .perf import estimate_resources, network_perf

OBJECTIVES = ("latency", "dsp", "bram", "power")
# Each resource constraint and the metric it bounds, in the order they are checked.
RESOURCE_LIMITS = {"max_dsp": "dsp", "max_bram_bytes": "bram", "max_power_w": "power"}
CONSTRAINT_KEYS = (*RESOURCE_LIMITS, "max_latency_ms")

DEFAULT_CAP = 100000


@dataclass(frozen=True)
class SweepSpec:
    axes: dict[str, tuple]
    points: tuple[dict, ...]
    base: AccelConfig
    constraints: dict[str, float]
    objectives: tuple[str, ...]
    workloads: tuple[NetworkGraph, ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if not self.objectives:
            raise ValueError("at least one objective is required")
        if not self.workloads:
            raise ValueError("at least one workload is required")
        if not self.axes and not self.points:
            raise ValueError("a sweep needs at least one axis or explicit point")
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis} has no values")


@dataclass(frozen=True)
class DesignPoint:
    """One parameter assignment with its metrics and feasibility flags."""

    fields: dict
    metrics: dict | None
    feasible: bool
    dominated: bool = False
    note: str = ""


def _evaluate(cfg: AccelConfig, spec: SweepSpec, calib: Calibration):
    """Metrics dict plus a feasibility problem list for one valid config."""
    resources = estimate_resources(cfg, calib)
    metrics = {"dsp": resources.dsp, "bram": resources.bram_bytes, "power": resources.power_w}
    problems = []
    max_ms = spec.constraints.get("max_latency_ms")
    total = 0.0
    for net in spec.workloads:
        legality = validate(net, cfg)
        if not legality.ok:
            bad = [r.node_id for r in legality.rows if r.verdict == "unsupported"]
            problems.append(f"{net.name}: unsupported layers {', '.join(bad)}")
            continue
        ms = network_perf(net, cfg, calib).end_to_end_ms
        metrics[f"latency:{net.name}"] = ms
        total += ms
        if max_ms is not None and ms > max_ms:
            problems.append(f"{net.name}: latency {ms:.3f} ms over max_latency_ms")
    metrics["latency"] = total
    if problems:
        return metrics, problems
    for key, metric in RESOURCE_LIMITS.items():
        limit = spec.constraints.get(key)
        if limit is not None and metrics[metric] > limit:
            problems.append(f"{key} exceeded ({metrics[metric]} > {limit})")
    return metrics, problems


def _non_dominated(points, objectives) -> list[DesignPoint]:
    """Points that no other point dominates, in stable objective-tuple order.

    A point dominates another when it is no worse in every objective and
    better in one.  After a stable sort by the objective tuple every
    dominator of a point precedes it, and a dominated dominator has a kept
    dominator earlier still, so each point is checked only against the
    points kept before it.  Equal tuples never dominate each other.
    """
    keyed = sorted(
        ((tuple(p.metrics[obj] for obj in objectives), p) for p in points), key=lambda kp: kp[0]
    )
    kept = []
    for key, p in keyed:
        if not any(k != key and all(a <= b for a, b in zip(k, key)) for k, _ in kept):
            kept.append((key, p))
    return [p for _, p in kept]


def enumerate_points(
    spec: SweepSpec, calib: Calibration = DEFAULT_CALIBRATION
) -> list[DesignPoint]:
    """One evaluated DesignPoint per axis combination plus explicit points.

    The cap is checked before any point is built; each point is then
    evaluated as the axis product yields it.
    """
    size = math.prod(len(values) for values in spec.axes.values()) if spec.axes else 0
    if size + len(spec.points) > spec.cap:
        raise SweepCapError(
            f"sweep enumerates {size + len(spec.points)} points, cap is {spec.cap}"
        )

    base = spec.base.param_values()
    combos = itertools.product(*spec.axes.values()) if spec.axes else ()
    assigned = itertools.chain((dict(zip(spec.axes, c)) for c in combos), spec.points)
    points = []
    for idx, overrides in enumerate(assigned):
        fields = {**base, **overrides}
        if fields["PE_DSP"] == "ocp":
            fields["PE_DSP"] = fields["OCP"]
        try:
            cfg = AccelConfig.from_params(fields, f"point{idx}")
        except ValueError as exc:
            points.append(DesignPoint(fields, None, False, note=str(exc)))
            continue
        metrics, problems = _evaluate(cfg, spec, calib)
        points.append(DesignPoint(fields, metrics, not problems, note="; ".join(problems)))

    front = {id(p) for p in _non_dominated([p for p in points if p.feasible], spec.objectives)}
    return [replace(p, dominated=True) if p.feasible and id(p) not in front else p for p in points]


def pareto_front(points, objectives) -> list[DesignPoint]:
    """Non-dominated feasible points, sorted by the objectives then config order.

    Points that enumerate_points marked ``dominated`` over these same points
    are skipped.  Dominance is a strict partial order on a finite set, so each
    marked point has an unmarked dominator, which also dominates all that the
    marked one does: the front is unchanged.  So a sweep filters only its front
    again, and points without marks get the full filter.
    """
    front = _non_dominated(
        [p for p in points if p.feasible and not p.dominated and p.metrics is not None], objectives
    )

    def sort_key(p):
        cfg_order = tuple(float(p.fields.get(k, 0)) for k in CONFIG_KEYS)
        return tuple(p.metrics[obj] for obj in objectives) + cfg_order

    return sorted(front, key=sort_key)


def csv_header(spec: SweepSpec) -> list[str]:
    cols = list(CONFIG_KEYS)
    cols += [f"latency_ms:{net.name}" for net in spec.workloads]
    cols += ["dsp", "bram_bytes", "power_w", "feasible", "pareto"]
    return cols


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_csv(points, spec: SweepSpec, fh) -> None:
    """Fixed-column CSV: config fields, metrics, feasible/pareto flags."""
    fh.write(",".join(csv_header(spec)) + "\n")
    for p in points:
        row = [_fmt(p.fields.get(key)) for key in CONFIG_KEYS]
        m = p.metrics or {}
        for net in spec.workloads:
            row.append(_fmt(m.get(f"latency:{net.name}")))
        row.append(_fmt(m.get("dsp")))
        row.append(_fmt(m.get("bram")))
        row.append(_fmt(m.get("power")))
        row.append("1" if p.feasible else "0")
        row.append("1" if p.feasible and not p.dominated else "0")
        fh.write(",".join(row) + "\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_sweep(path) -> SweepSpec:
    axes: dict[str, tuple] = {}
    points: list[dict] = []
    base = None
    constraints: dict[str, float] = {}
    objectives: list[str] = []
    workloads: list[NetworkGraph] = []
    cap = DEFAULT_CAP
    base_dir = os.path.dirname(path) or "."

    def parse_value(param, text, line_no):
        if param == "PE_DSP" and text == "ocp":
            return "ocp"
        try:
            return _finite(text) if param == "FREQ" else int(text)
        except ValueError:
            raise ParseError(path, line_no, f"bad value {text!r} for {param}") from None

    for line_no, line in text_lines(path):
        parts = line.split()
        head, rest = parts[0], parts[1:]
        if head == "base":
            base = load_config(os.path.join(base_dir, " ".join(rest)))
        elif head == "workload":
            workloads.append(parse_network(os.path.join(base_dir, " ".join(rest))))
        elif head == "axis":
            if len(rest) < 2:
                raise ParseError(path, line_no, "axis needs a parameter and values")
            param = rest[0]
            if param not in CONFIG_KEYS:
                raise ParseError(path, line_no, f"unknown parameter {param!r}")
            if param in axes:
                raise ParseError(path, line_no, f"axis {param} given twice")
            axes[param] = tuple(parse_value(param, v, line_no) for v in rest[1:])
        elif head == "point":
            fields = {}
            for item in rest:
                if "=" not in item:
                    raise ParseError(path, line_no, f"expected PARAM=value, got {item!r}")
                param, value = item.split("=", 1)
                if param not in CONFIG_KEYS:
                    raise ParseError(path, line_no, f"unknown parameter {param!r}")
                fields[param] = parse_value(param, value, line_no)
            points.append(fields)
        elif head == "constraint":
            if len(rest) != 2 or rest[0] not in CONSTRAINT_KEYS:
                raise ParseError(
                    path, line_no, f"constraint takes one of {CONSTRAINT_KEYS} and a value"
                )
            try:
                constraints[rest[0]] = _finite(rest[1])
            except ValueError:
                raise ParseError(path, line_no, f"bad constraint value {rest[1]!r}") from None
        elif head == "objective":
            for obj in rest:
                if obj not in OBJECTIVES:
                    raise ParseError(path, line_no, f"unknown objective {obj!r}")
                if obj in objectives:
                    raise ParseError(path, line_no, f"objective {obj!r} given twice")
                objectives.append(obj)
        elif head == "cap":
            try:
                (cap,) = map(int, rest)
            except ValueError:
                raise ParseError(path, line_no, "cap takes one integer") from None
        else:
            raise ParseError(path, line_no, f"unknown directive {head!r}")
    if base is None:
        raise ParseError(path, 0, "a base config is required")
    if not objectives:
        objectives = ["latency", "dsp"]
    try:
        return SweepSpec(
            axes, tuple(points), base, constraints, tuple(objectives), tuple(workloads), cap
        )
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from None
