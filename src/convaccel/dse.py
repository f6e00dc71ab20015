"""Design-space exploration: enumerate configurations, evaluate, Pareto-filter.

Sweep description file, line oriented ('#' starts a comment):

    base <config file>                  # defaults for parameters not swept
    workload <network file>             # repeatable, one per network name
    axis <PARAM> <v1> <v2> ...          # cartesian axis over a parameter
    point <PARAM>=<v> ...               # explicit extra design point
    constraint <max_dsp|max_bram_bytes|max_power_w|max_latency_ms> <value>
    objective <latency|dsp|bram|power>  # repeatable, ordered
    cap <n>                             # enumeration cap (default 100000)

PE_DSP accepts the literal value ``ocp`` to track the OCP of each point.
Each parameter takes at most one axis line and at most one value per
point line, each objective and each constraint appears at most once,
base and cap take one line each, and each network name names one
workload; a repeat is a parse error, as is anything after cap's value.
Every axis combination becomes one design point; combinations that fail
configuration validation, or whose workloads are not legal or have a
latency that is not finite, are emitted as infeasible rows.  The latency
objective is the summed end-to-end latency over the workloads;
max_latency_ms constrains each workload separately.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from .config import CONFIG_KEYS, DEFAULT_CALIBRATION, AccelConfig, Calibration
from .config import load_config, text_lines
from .errors import ParseError, SweepCapError, ValidationError
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


def _evaluate(cfg: AccelConfig, spec: SweepSpec, calib: Calibration, workloads):
    """Metrics dict plus problem list for one valid config; ``workloads``: (net, metric key)."""
    resources = estimate_resources(cfg, calib)
    metrics = {"dsp": resources.dsp, "bram": resources.bram_bytes, "power": resources.power_w}
    problems = []
    max_ms = spec.constraints.get("max_latency_ms")
    total = 0.0
    for net, key in workloads:
        legality = validate(net, cfg)
        if not legality.ok:
            bad = [r.node_id for r in legality.rows if r.verdict == "unsupported"]
            problems.append(f"{net.name}: unsupported layers {', '.join(bad)}")
            continue
        try:
            ms = network_perf(net, cfg, calib).end_to_end_ms
        except ValidationError as exc:  # a latency that overflows
            problems.append(str(exc))
            continue
        metrics[key] = ms
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


def _non_dominated(metrics, objectives) -> list[int]:
    """Indices of the metrics dicts that no other dominates, in stable objective-tuple order.

    A point dominates another when it is no worse in every objective and
    better in one.  After a stable sort by the objective tuple every
    dominator of a point precedes it, and a dominated dominator has a kept
    dominator earlier still, so each point is checked only against the
    points kept before it.  Equal tuples never dominate each other.
    """
    keyed = sorted((tuple(m[obj] for obj in objectives), i) for i, m in enumerate(metrics))
    kept = []
    for key, i in keyed:
        if not any(k != key and all(a <= b for a, b in zip(k, key)) for k, _ in kept):
            kept.append((key, i))
    return [i for _, i in kept]


def enumerate_points(
    spec: SweepSpec, calib: Calibration = DEFAULT_CALIBRATION
) -> list[DesignPoint]:
    """One evaluated DesignPoint per axis combination plus explicit points.

    The cap is checked before any point is built; each point is then
    evaluated as the axis product yields it, and built once the front
    among the feasible points is known.
    """
    size = math.prod(len(values) for values in spec.axes.values()) if spec.axes else 0
    if size + len(spec.points) > spec.cap:
        raise SweepCapError(
            f"sweep enumerates {size + len(spec.points)} points, cap is {spec.cap}"
        )

    base = spec.base.param_values()
    workloads = [(net, f"latency:{net.name}") for net in spec.workloads]
    combos = itertools.product(*spec.axes.values()) if spec.axes else ()
    assigned = itertools.chain((dict(zip(spec.axes, c)) for c in combos), spec.points)
    evaluated = []  # (fields, metrics, feasible, note) per point
    for idx, overrides in enumerate(assigned):
        fields = {**base, **overrides}
        if fields["PE_DSP"] == "ocp":
            fields["PE_DSP"] = fields["OCP"]
        try:
            cfg = AccelConfig.from_params(fields, f"point{idx}")
        except ValueError as exc:
            evaluated.append((fields, None, False, str(exc)))
            continue
        metrics, problems = _evaluate(cfg, spec, calib, workloads)
        evaluated.append((fields, metrics, not problems, "; ".join(problems)))

    feasible = [i for i, e in enumerate(evaluated) if e[2]]
    kept = _non_dominated([evaluated[i][1] for i in feasible], spec.objectives)
    front = {feasible[j] for j in kept}
    return [
        DesignPoint(fields, metrics, ok, ok and i not in front, note)
        for i, (fields, metrics, ok, note) in enumerate(evaluated)
    ]


def pareto_front(points, objectives) -> list[DesignPoint]:
    """Non-dominated feasible points, sorted by the objectives then config order.

    Points that enumerate_points marked ``dominated`` over these same points
    are skipped.  Dominance is a strict partial order on a finite set, so each
    marked point has an unmarked dominator, which also dominates all that the
    marked one does: the front is unchanged.  So a sweep filters only its front
    again, and points without marks get the full filter.
    """
    candidates = [p for p in points if p.feasible and not p.dominated and p.metrics is not None]
    front = [candidates[i] for i in _non_dominated([p.metrics for p in candidates], objectives)]

    def sort_key(p):
        cfg_order = tuple(float(p.fields.get(k, 0)) for k in CONFIG_KEYS)
        return tuple(p.metrics[obj] for obj in objectives) + cfg_order

    return sorted(front, key=sort_key)


def csv_header(spec: SweepSpec) -> list[str]:
    cols = list(CONFIG_KEYS)
    cols += [f"latency_ms:{net.name}" for net in spec.workloads]
    cols += ["dsp", "bram_bytes", "power_w", "feasible", "pareto"]
    return cols


def write_csv(points, spec: SweepSpec, fh) -> None:
    """Fixed-column CSV: config fields, metrics, feasible/pareto flags."""
    metric_keys = [f"latency:{net.name}" for net in spec.workloads] + ["dsp", "bram", "power"]
    fh.write(",".join(csv_header(spec)) + "\n")
    for p in points:
        m = p.metrics or {}
        cells = [p.fields.get(key) for key in CONFIG_KEYS] + [m.get(key) for key in metric_keys]
        row = ["" if c is None else f"{c:.3f}" if isinstance(c, float) else str(c) for c in cells]
        row += ["1" if p.feasible else "0", "1" if p.feasible and not p.dominated else "0"]
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
    once = set()  # the directives that may appear only once
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
        if head in ("base", "cap"):
            if head in once:
                raise ParseError(path, line_no, f"{head} given twice")
            once.add(head)
        if head == "base":
            base = load_config(os.path.join(base_dir, " ".join(rest)))
        elif head == "workload":
            net = parse_network(os.path.join(base_dir, " ".join(rest)))
            if any(w.name == net.name for w in workloads):
                raise ParseError(path, line_no, f"workload network {net.name!r} given twice")
            workloads.append(net)
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
                if param in fields:
                    raise ParseError(path, line_no, f"parameter {param} given twice")
                fields[param] = parse_value(param, value, line_no)
            points.append(fields)
        elif head == "constraint":
            if len(rest) != 2 or rest[0] not in CONSTRAINT_KEYS:
                raise ParseError(
                    path, line_no, f"constraint takes one of {CONSTRAINT_KEYS} and a value"
                )
            if rest[0] in constraints:
                raise ParseError(path, line_no, f"constraint {rest[0]} given twice")
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
