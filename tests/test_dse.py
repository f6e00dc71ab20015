import io
import os
import random
from dataclasses import replace

import pytest

from conftest import DATA_DIR, seeded, wide_open_config
from convaccel import dse
from convaccel.cli import EXIT_OK, EXIT_PARSE, main
from convaccel.dse import (
    DesignPoint,
    SweepSpec,
    enumerate_points,
    load_sweep,
    pareto_front,
    write_csv,
)
from convaccel.errors import ParseError, SweepCapError
from convaccel.graph import ConvNode, NetworkGraph
from reference import pareto_ref

OBJS = ("latency", "dsp", "power")


def _tiny_net():
    return NetworkGraph(
        "tiny", (6, 6, 4), 4, [ConvNode("c", 3, 1, 1, 8, True, None, 4, 4, 4, None, ("input",))]
    )


def _spec(axes=None, points=(), constraints=None, objectives=OBJS, cap=100000):
    return SweepSpec(
        axes or {},
        tuple(points),
        wide_open_config(),
        constraints or {},
        tuple(objectives),
        (_tiny_net(),),
        cap,
    )


def _synthetic_points(rng: random.Random, n: int):
    points = []
    for i in range(n):
        metrics = {
            "latency": round(rng.uniform(1, 100), 3),
            "dsp": rng.randint(10, 500),
            "power": round(rng.uniform(1, 6), 3),
            "bram": rng.randint(1000, 100000),
        }
        points.append(DesignPoint({"FREQ": 100 + i}, metrics, True))
    return points


def test_single_value_axes_give_one_point():
    spec = _spec(axes={"FREQ": (100.0,), "ICP": (16,)})
    points = enumerate_points(spec)
    assert len(points) == 1
    assert points[0].feasible
    assert points[0].metrics["dsp"] == 8 * 8 + 10


def test_six_reference_configs_dsp_column():
    pts = []
    for freq, icp, ocp, pack in (
        (100.0, 16, 8, 8),
        (100.0, 16, 16, 8),
        (100.0, 16, 16, 16),
        (100.0, 32, 16, 16),
        (200.0, 32, 16, 16),
        (300.0, 32, 16, 16),
    ):
        pts.append(
            {"FREQ": freq, "ICP": icp, "OCP": ocp, "APACK": pack, "PPACK": pack, "PE_DSP": "ocp"}
        )
    spec = _spec(points=pts)
    points = enumerate_points(spec)
    assert [p.metrics["dsp"] for p in points] == [74, 138, 138, 266, 266, 266]
    buf = io.StringIO()
    write_csv(points, spec, buf)
    rows = buf.getvalue().strip().split("\n")
    header = rows[0].split(",")
    dsp_col = header.index("dsp")
    assert [row.split(",")[dsp_col] for row in rows[1:]] == ["74", "138", "138", "266", "266", "266"]
    assert header.index("FREQ") == 0  # config fields lead the row
    assert header[-2:] == ["feasible", "pareto"]


def test_cartesian_enumeration_and_determinism():
    spec = _spec(axes={"FREQ": (100.0, 200.0), "ICP": (16, 32), "PE_DSP": (8,)})
    a = enumerate_points(spec)
    b = enumerate_points(spec)
    assert len(a) == 4
    assert a == b
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_csv(a, spec, buf_a)
    write_csv(b, spec, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_invalid_combos_are_infeasible_rows():
    spec = _spec(axes={"ICP": (16,), "OCP": (8,), "PE_DSP": (16,)})  # pe_dsp > ocp
    points = enumerate_points(spec)
    assert len(points) == 1
    assert not points[0].feasible
    assert points[0].metrics is None
    assert "PE_DSP" in points[0].note


def test_unsupported_workload_marks_infeasible():
    spec = _spec(axes={"CHOUTxFILTERxFILTERxCHIN_MAX": (4, 1 << 20)})
    points = enumerate_points(spec)
    assert [p.feasible for p in points] == [False, True]
    assert "tiny" in points[0].note


def test_non_finite_latency_marks_infeasible(tmp_path, capsys):
    # FREQ=1e-310 overflows every layer's latency to inf: that point is
    # infeasible with network_perf's message, and the sweep goes on.
    from convaccel.config import save_config
    from convaccel.graph import save_network

    points = enumerate_points(_spec(axes={"FREQ": (1e-310, 100.0)}))
    assert [p.feasible for p in points] == [False, True]
    assert points[0].note.startswith("tiny: latency is not finite: conv inf ms at FREQ=1e-310")
    assert "latency:tiny" not in points[0].metrics

    save_config(wide_open_config(), tmp_path / "base.cfg")
    save_network(_tiny_net(), tmp_path / "tiny.net")
    sweep = tmp_path / "s.sw"
    sweep.write_text("base base.cfg\nworkload tiny.net\naxis FREQ 1e-310 100\n")
    csv = tmp_path / "s.csv"
    assert main(["sweep", "--sweep", str(sweep), "--csv", str(csv)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("2 points, 1 feasible, 1 on the Pareto front\n")
    assert [row.split(",")[-2:] for row in csv.read_text().splitlines()[1:]] == [
        ["0", "0"], ["1", "1"],
    ]


def test_cap_enforced():
    spec = _spec(axes={"FREQ": tuple(float(f) for f in range(100, 160))}, cap=10)
    with pytest.raises(SweepCapError):
        enumerate_points(spec)


def test_constraint_soundness():
    rng = seeded(301)
    spec = _spec(
        axes={"ICP": (8, 16, 32), "OCP": (8, 16), "PE_DSP": ("ocp",), "FREQ": (100.0, 300.0)},
        constraints={"max_dsp": 150, "max_power_w": 4.0},
    )
    points = enumerate_points(spec)
    assert any(p.feasible for p in points) and any(not p.feasible for p in points)
    for p in points:
        if p.feasible:
            assert p.metrics["dsp"] <= 150
            assert p.metrics["power"] <= 4.0


def test_dominance_marks_match_bruteforce():
    rng = seeded(307)
    pts = _synthetic_points(rng, 120)
    rows = [tuple(p.metrics[o] for o in OBJS) for p in pts]
    keep = pareto_ref(rows)
    front = pareto_front(pts, OBJS)
    got = {pts.index(p) for p in front}
    assert got == keep


def test_pareto_front_with_ties_matches_bruteforce():
    # Few distinct values per objective: duplicate tuples and one-objective ties.
    rng = seeded(317)
    pts = []
    for i in range(60):
        metrics = {
            "latency": rng.choice((1.0, 2.0, 3.0)),
            "dsp": rng.choice((10, 20)),
            "power": rng.choice((1.5, 2.5)),
        }
        pts.append(DesignPoint({"FREQ": 100 + i}, metrics, True))
    rows = [tuple(p.metrics[o] for o in OBJS) for p in pts]
    front = pareto_front(pts, OBJS)
    assert {pts.index(p) for p in front} == pareto_ref(rows)
    assert len(front) > len({tuple(p.metrics[o] for o in OBJS) for p in front})
    assert front == sorted(front, key=lambda p: (*(p.metrics[o] for o in OBJS), p.fields["FREQ"]))


def test_enumerated_dominated_flags_with_ties_match_bruteforce():
    # PE_DSP moves dsp but not latency, OCP both, WINxCHIN_PAD_MAX neither.
    spec = _spec(
        axes={
            "OCP": (8, 16),
            "PE_DSP": (4, 8),
            "ICP": (16, 32),
            "WINxCHIN_PAD_MAX": (1 << 20, 1 << 21),
        },
        objectives=("latency", "dsp"),
    )
    points = enumerate_points(spec)
    feasible = [p for p in points if p.feasible]
    rows = [tuple(p.metrics[o] for o in spec.objectives) for p in feasible]
    assert len(set(rows)) < len(rows)
    assert {i for i, p in enumerate(feasible) if not p.dominated} == pareto_ref(rows)
    unmarked = [replace(p, dominated=False) for p in points]
    assert pareto_front(points, spec.objectives) == pareto_front(unmarked, spec.objectives)


def test_pareto_trivials():
    rng = seeded(311)
    one = _synthetic_points(rng, 1)
    assert pareto_front(one, OBJS) == one

    a = DesignPoint({"FREQ": 1}, {"latency": 1.0, "dsp": 10, "power": 1.0}, True)
    b = DesignPoint({"FREQ": 2}, {"latency": 2.0, "dsp": 20, "power": 2.0}, True)
    assert pareto_front([a, b], OBJS) == [a]


def test_pareto_sorted_and_deterministic():
    rng = seeded(313)
    pts = _synthetic_points(rng, 50)
    front = pareto_front(pts, OBJS)
    lats = [p.metrics["latency"] for p in front]
    assert lats == sorted(lats)
    assert front == pareto_front(list(reversed(pts)), OBJS)


def test_no_feasible_point_dominates_enumerated_front():
    spec = _spec(
        axes={
            "ICP": (8, 16, 32),
            "OCP": (8, 16),
            "PE_DSP": ("ocp",),
            "FREQ": (100.0, 200.0, 300.0),
        }
    )
    points = enumerate_points(spec)
    feasible = [p for p in points if p.feasible]
    undominated = [p for p in feasible if not p.dominated]
    rows = [tuple(p.metrics[o] for o in spec.objectives) for p in feasible]
    keep = pareto_ref(rows)
    assert {feasible.index(p) for p in undominated} == keep


def test_sweep_file_parsing(tmp_path, data_dir):
    from convaccel.config import save_config

    cfg_path = tmp_path / "base.cfg"
    save_config(wide_open_config(), cfg_path)
    net_path = tmp_path / "tiny.net"
    from convaccel.graph import save_network

    save_network(_tiny_net(), net_path)
    sweep = tmp_path / "s.sw"
    sweep.write_text(
        "# demo sweep\n"
        f"base base.cfg\n"
        f"workload tiny.net\n"
        "axis FREQ 100 200\n"
        "axis ICP 16 32\n"
        "point FREQ=300 ICP=32 OCP=16 PE_DSP=ocp\n"
        "constraint max_dsp 400\n"
        "objective latency dsp\n"
        "cap 50\n"
    )
    spec = load_sweep(str(sweep))
    assert spec.axes == {"FREQ": (100.0, 200.0), "ICP": (16, 32)}
    assert spec.points == ({"FREQ": 300.0, "ICP": 32, "OCP": 16, "PE_DSP": "ocp"},)
    assert spec.constraints == {"max_dsp": 400.0}
    assert spec.objectives == ("latency", "dsp")
    assert spec.cap == 50
    points = enumerate_points(spec)
    assert len(points) == 5


def test_sweep_filters_the_feasible_set_once(monkeypatch, data_dir):
    sweep = os.path.join(data_dir, "sweeps", "parallelism_grid.sw")
    feasible = sum(p.feasible for p in enumerate_points(load_sweep(sweep)))
    sizes = []
    inner = dse._non_dominated

    def counting(points, objectives):
        sizes.append(len(points))
        return inner(points, objectives)

    monkeypatch.setattr(dse, "_non_dominated", counting)
    assert main(["sweep", "--sweep", sweep]) == EXIT_OK
    assert sizes.count(feasible) == 1


@pytest.mark.parametrize(
    "lines, line_no, message",
    [
        (["axis ICP 8 16", "axis ICP 32"], 4, "axis ICP given twice"),
        (["axis ICP 8 16", "objective latency latency"], 4, "objective 'latency' given twice"),
        (["axis ICP 8 16", "objective latency", "objective dsp latency"], 5,
         "objective 'latency' given twice"),
        (["axis ICP 8 16", "cap 10 junk"], 4, "cap takes one integer"),
        (["point ICP=16 ICP=32"], 3, "parameter ICP given twice"),
        (["axis ICP 8 16", "constraint max_dsp 100", "constraint max_dsp 200"], 5,
         "constraint max_dsp given twice"),
        (["axis ICP 8 16", f"base {os.path.join(DATA_DIR, 'configs', 'conf2.cfg')}"], 4,
         "base given twice"),
        (["axis ICP 8 16", "cap 10", "cap 20"], 5, "cap given twice"),
    ],
    ids=[
        "axis_twice", "objective_twice", "objective_twice_across_lines", "cap_extra",
        "point_key_twice", "constraint_twice", "base_twice", "cap_twice",
    ],
)
def test_sweep_input_that_would_be_dropped_is_parse_error(
    tmp_path, capsys, data_dir, lines, line_no, message
):
    sweep = tmp_path / "bad.sw"
    sweep.write_text(
        f"base {os.path.join(data_dir, 'configs', 'conf1.cfg')}\n"
        f"workload {os.path.join(data_dir, 'networks', 'squeezenet_v11.net')}\n"
        + "".join(line + "\n" for line in lines)
    )
    with pytest.raises(ParseError) as err:
        load_sweep(str(sweep))
    assert str(err.value) == f"{sweep}:{line_no}: {message}"
    assert main(["sweep", "--sweep", str(sweep)]) == EXIT_PARSE
    assert f"{sweep}:{line_no}: {message}" in capsys.readouterr().err


def test_sweep_workloads_sharing_a_network_name_is_parse_error(tmp_path, capsys, data_dir):
    # Metrics and CSV columns are keyed by network name, so a second workload
    # of the same name would overwrite the first's latency column.
    for name in ("squeezenet_v11", "zynqnet"):
        with open(os.path.join(data_dir, "networks", f"{name}.net"), encoding="utf-8") as fh:
            text = fh.read()
        (tmp_path / f"{name}.net").write_text(text.replace(f"network {name}\n", "network twin\n"))
    sweep = tmp_path / "twin.sw"
    sweep.write_text(
        f"base {os.path.join(data_dir, 'configs', 'conf6.cfg')}\n"
        "workload squeezenet_v11.net\n"
        "workload zynqnet.net\n"
        "axis ICP 16 32\n"
    )
    message = f"{sweep}:3: workload network 'twin' given twice"
    with pytest.raises(ParseError) as err:
        load_sweep(str(sweep))
    assert str(err.value) == message
    assert main(["sweep", "--sweep", str(sweep)]) == EXIT_PARSE
    assert message in capsys.readouterr().err


def test_sweep_calls_validate_and_network_perf_once_per_pair(monkeypatch, tmp_path, data_dir):
    """One validate per (valid config, workload), one network_perf per legal pair.

    ICP 12 is not a power of two, so half the grid is invalid; a weight
    budget of 2000 bytes holds every squeezenet layer (at most 3*3*64 = 576)
    but not vgg16's 3*3*512 = 4608, so one pair per budget is illegal.
    """
    from convaccel.config import AccelConfig, load_config
    from convaccel.graph import parse_network
    from reference import validate_ref

    nets = [os.path.join(data_dir, "networks", f"{n}.net") for n in ("squeezenet_v11", "vgg16")]
    axes = {"ICP": (12, 16), "CHOUTxFILTERxFILTERxCHIN_MAX": (2000, 147456)}
    sweep = tmp_path / "grid.sw"
    sweep.write_text(
        f"base {os.path.join(data_dir, 'configs', 'conf1.cfg')}\n"
        + "".join(f"workload {net}\n" for net in nets)
        + "".join(f"axis {k} {' '.join(map(str, v))}\n" for k, v in axes.items())
    )

    base = load_config(os.path.join(data_dir, "configs", "conf1.cfg")).param_values()
    configs = []
    for icp in axes["ICP"]:
        for budget in axes["CHOUTxFILTERxFILTERxCHIN_MAX"]:
            try:
                fields = dict(base, ICP=icp, CHOUTxFILTERxFILTERxCHIN_MAX=budget)
                configs.append(AccelConfig.from_params(fields))
            except ValueError:
                pass
    graphs = [parse_network(net) for net in nets]
    legal = sum(validate_ref(g, cfg)[0] for cfg in configs for g in graphs)
    assert (len(configs), legal) == (2, 3)

    counts = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("validate", "network_perf", "enumerate_points", "pareto_front"):
        counted(dse, name)
    assert main(["sweep", "--sweep", str(sweep)]) == EXIT_OK
    assert counts == {
        "validate": len(configs) * len(nets),
        "network_perf": legal,
        "enumerate_points": 1,
        "pareto_front": 1,
    }
