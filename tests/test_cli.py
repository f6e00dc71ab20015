import contextlib
import io
import os
import struct
import subprocess
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convaccel
from conftest import DATA_DIR, random_instance, random_tensor, seeded, wide_open_config
from convaccel import (
    DfpScheme,
    FFilterBank,
    FTensor3,
    LayerSpec,
    PoolSpec,
    QTensor3,
    choose_frac_bits,
    load_tensor,
    run_network,
    save_bank,
    save_tensor,
)
from convaccel import cli, errors
from convaccel.cli import EXIT_INTERNAL, EXIT_LOAD, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from convaccel.config import load_config, save_config
from convaccel.quant import FRAC_MAX, FRAC_MIN, quantize
from convaccel.graph import ConvNode, HostNode, NetworkGraph, save_network
from convaccel.tensors import QFilterBank, load_bank


def _write_single_conv_net(dirpath, ia, bank, spec, params_name="c.qfb"):
    save_bank(bank, os.path.join(dirpath, params_name))
    net = NetworkGraph(
        "one",
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
                params_name,
                ("input",),
            )
        ],
        str(dirpath),
    )
    net_path = os.path.join(dirpath, "net.net")
    save_network(net, net_path)
    return net_path


def test_quantize_zero_tensor(tmp_path, capsys):
    save_tensor(FTensor3(2, 2, 2, [0.0] * 8), tmp_path / "z.qt3")
    rc = main(["quantize", str(tmp_path / "z.qt3"), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "frac_bits=7" in out
    q = load_tensor(tmp_path / "out" / "z.qt3")
    assert q.frac_bits == 7 and set(q.values.tolist()) == {0}


def test_quantize_unit_max(tmp_path, capsys):
    save_tensor(FTensor3(1, 1, 4, [1.0, -0.5, 0.25, 0.125]), tmp_path / "u.qt3")
    rc = main(["quantize", str(tmp_path / "u.qt3"), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    assert "frac_bits=6" in capsys.readouterr().out


def test_quantize_matches_library_rule(tmp_path, capsys):
    rng = seeded(401)
    vals = [rng.uniform(-9, 9) for _ in range(60)]
    save_tensor(FTensor3(3, 4, 5, vals), tmp_path / "r.qt3")
    rc = main(["quantize", str(tmp_path / "r.qt3"), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    q = load_tensor(tmp_path / "out" / "r.qt3")
    assert q.frac_bits == choose_frac_bits(vals)


def test_quantize_filter_bank(tmp_path, capsys):
    rng = seeded(403)
    w = [rng.uniform(-2, 2) for _ in range(4 * 9 * 3)]
    b = [rng.uniform(-1, 1) for _ in range(4)]
    save_bank(FFilterBank(4, 3, 3, 3, w, b), tmp_path / "w.qfb")
    rc = main(["quantize", str(tmp_path / "w.qfb"), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    bank = load_bank(tmp_path / "out" / "w.qfb")
    assert bank.weight_frac_bits == choose_frac_bits(w)
    assert bank.bias_frac_bits == choose_frac_bits(b)


def test_quantize_nan_rejected(tmp_path, capsys):
    save_tensor(FTensor3(1, 1, 2, [1.0, float("nan")]), tmp_path / "bad.qt3")
    rc = main(["quantize", str(tmp_path / "bad.qt3"), "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_LOAD
    assert "bad.qt3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, obj",
    [
        ("bad.qt3", FTensor3(1, 1, 3, [float("nan"), 1.0, float("inf")])),
        ("bad.qfb", FFilterBank(1, 1, 1, 2, [0.5, float("-inf")], [0.25])),
    ],
    ids=["tensor", "bank"],
)
def test_quantize_forced_exponent_rejects_non_finite_data(tmp_path, capsys, name, obj):
    path = tmp_path / name
    (save_bank if isinstance(obj, FFilterBank) else save_tensor)(obj, path)
    out = tmp_path / "out"
    assert main(["quantize", str(path), "--out-dir", str(out), "--frac-bits", "3"]) == EXIT_LOAD
    captured = capsys.readouterr()
    assert f"{name}: data contains non-finite values" in captured.err
    assert captured.out == ""
    assert not (out / name).exists()


# Exponents no DfpScheme accepts, chosen from the data or forced by the flag.
@pytest.mark.parametrize(
    "name, obj, flags, exponent",
    [
        ("huge.qt3", FTensor3(1, 1, 2, [1e38, -1e38]), [], -120),
        ("subnormal.qt3", FTensor3(1, 1, 2, [1e-40, 1e-40]), [], 139),
        ("small.qfb", FFilterBank(2, 1, 1, 2, [1e-6, -1e-6, 1e-6, 0.0], [0.5, -0.5]), [], 26),
        ("t.qt3", FTensor3(1, 1, 2, [0.5, -0.25]), ["--frac-bits", str(FRAC_MAX + 5)], 20),
        ("t.qt3", FTensor3(1, 1, 2, [0.5, -0.25]), ["--frac-bits", str(FRAC_MIN - 1)], -9),
    ],
    ids=["max-1e38", "max-1e-40", "bank-weights-1e-6", "forced-20", "forced--9"],
)
def test_quantize_exponent_outside_scheme_window_is_load_error(
    tmp_path, capsys, name, obj, flags, exponent
):
    path = tmp_path / name
    (save_bank if isinstance(obj, FFilterBank) else save_tensor)(obj, path)
    out = tmp_path / "out"
    assert main(["quantize", str(path), "--out-dir", str(out), *flags]) == EXIT_LOAD
    err = capsys.readouterr().err
    assert f"{path}: exponent {exponent} outside the scheme window [-8, 15]" in err
    assert not (out / name).exists()


@pytest.mark.parametrize("forced", [5, FRAC_MIN, FRAC_MAX])
def test_quantize_honours_forced_frac_bits(tmp_path, capsys, forced):
    t = FTensor3(1, 2, 2, [1.0, -0.5, 0.03, 3.0])
    bank = FFilterBank(1, 1, 1, 2, [0.75, -0.125], [0.5])
    save_tensor(t, tmp_path / "t.qt3")
    save_bank(bank, tmp_path / "w.qfb")
    argv = ["quantize", str(tmp_path / "t.qt3"), str(tmp_path / "w.qfb")]
    assert main(argv + ["--out-dir", str(tmp_path / "out"), "--frac-bits", str(forced)]) == EXIT_OK
    assert load_tensor(tmp_path / "out" / "t.qt3") == quantize(t, forced)
    q = load_bank(tmp_path / "out" / "w.qfb")
    assert (q.weight_frac_bits, q.bias_frac_bits) == (forced, forced)
    assert q.weights.tolist() == quantize(FTensor3(1, 1, 2, bank.weights), forced).values.tolist()
    assert q.biases.tolist() == quantize(FTensor3(1, 1, 1, bank.biases), forced).values.tolist()
    assert f"frac_bits={forced}" in capsys.readouterr().out


def test_run_identity_net_payload(tmp_path, capsys):
    rng = seeded(407)
    scheme = DfpScheme(3, 0, 0, 3)  # weight 1 at exponent 0 is an exact identity
    spec = LayerSpec(1, 1, 0, 1, False, None, scheme)
    ia = random_tensor(rng, 6, 5, 1, frac=3)
    bank = QFilterBank(1, 1, 1, 1, [1], [0], 0, 0)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")
    rc = main(
        [
            "run",
            "--net",
            net_path,
            "--config",
            str(cfg_path),
            "--input",
            str(tmp_path / "in.qt3"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_OK
    out_t = load_tensor(tmp_path / "out" / "c.qt3")
    assert out_t == ia
    assert (tmp_path / "out" / "report.txt").exists()


def test_run_tensors_match_library(tmp_path):
    rng = seeded(409)
    ia, bank, spec = random_instance(rng, max_hw=7, max_ch=8)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    cfg = wide_open_config()
    cfg_path = tmp_path / "cfg.cfg"
    save_config(cfg, cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")
    rc = main(
        [
            "run",
            "--net",
            net_path,
            "--config",
            str(cfg_path),
            "--input",
            str(tmp_path / "in.qt3"),
            "--out-dir",
            str(tmp_path / "out"),
            "--emit",
            "input",
        ]
    )
    assert rc == EXIT_OK
    from convaccel import parse_network

    outputs, _ = run_network(parse_network(net_path), cfg, ia)
    assert load_tensor(tmp_path / "out" / "c.qt3") == outputs["c"]
    assert load_tensor(tmp_path / "out" / "input.qt3") == ia


def test_run_missing_params_exit_code(tmp_path, capsys):
    rng = seeded(411)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=5)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    os.unlink(tmp_path / "c.qfb")
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")
    rc = main(
        [
            "run",
            "--net",
            net_path,
            "--config",
            str(cfg_path),
            "--input",
            str(tmp_path / "in.qt3"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_LOAD
    assert "c.qfb" in capsys.readouterr().err


def test_run_accumulator_overflow_is_validation_error(tmp_path, capsys):
    # Every exponent is inside [FRAC_MIN, FRAC_MAX], but fo = 15 far above
    # fi + fp = -16 shifts the sum 31 bits left, out of the 32-bit range.
    spec = LayerSpec(1, 1, 0, 1, False, None, DfpScheme(-8, -8, 0, 15))
    ia = QTensor3(1, 1, 1, [127], -8)
    bank = QFilterBank(1, 1, 1, 1, [127], [0], -8, 0)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    save_config(wide_open_config(), tmp_path / "cfg.cfg")
    save_tensor(ia, tmp_path / "in.qt3")
    argv = ["run", "--net", net_path, "--config", str(tmp_path / "cfg.cfg"),
            "--input", str(tmp_path / "in.qt3"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: c: rescaled accumulator outside 32-bit range\n"


@pytest.mark.parametrize("cause", ["FREQ", "host_ns_per_unit", "k_layer", "units"])
def test_estimate_non_finite_latency_is_validation_error(tmp_path, capsys, data_dir, cause):
    # A FREQ this small overflows each layer's cycles / FREQ to inf, with no
    # NumPy warning (pytest turns one into an error); host_ns_per_unit this
    # large overflows each host node's charge.  A k_layer or a units value
    # past the float range makes a total that no float holds.
    cfg = load_config(os.path.join(data_dir, "configs", "conf6.cfg"))
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    name, huge = "squeezenet_v11", "1" + "0" * 400
    if cause == "FREQ":
        cfg = replace(cfg, freq_mhz=1e-310)
        detail = "conv inf ms at FREQ=1e-310, host 1.6477 ms at host_ns_per_unit=1.376"
    elif cause == "host_ns_per_unit":
        (tmp_path / "c.cal").write_text("host_ns_per_unit=1e308\n")
        detail = "conv 6.88337 ms at FREQ=300, host inf ms at host_ns_per_unit=1e+308"
    elif cause == "k_layer":
        (tmp_path / "c.cal").write_text(f"k_layer={huge}\n")
        detail = "conv inf ms at FREQ=300, host 1.6477 ms at host_ns_per_unit=1.376"
    else:
        net, name = str(tmp_path / "fc.net"), "fc"
        (tmp_path / "fc.net").write_text(
            f"network fc\ninput 2 2 1\ninput_frac 4\n"
            f"node f fully_connected units={huge} params=f.qfb inputs=input\n"
        )
        detail = "conv 0 ms at FREQ=300, host inf ms at host_ns_per_unit=1.376"
    save_config(cfg, tmp_path / "c.cfg")
    argv = ["estimate", "--net", net, "--config", str(tmp_path / "c.cfg")]
    if (tmp_path / "c.cal").exists():
        argv += ["--calibration", str(tmp_path / "c.cal")]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {name}: latency is not finite: {detail}\n"


def test_run_non_finite_latency_is_validation_error_and_writes_nothing(tmp_path, capsys):
    rng = seeded(421)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=5)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    save_config(wide_open_config(freq_mhz=1e-310), tmp_path / "cfg.cfg")
    save_tensor(ia, tmp_path / "in.qt3")
    argv = ["run", "--net", net_path, "--config", str(tmp_path / "cfg.cfg"),
            "--input", str(tmp_path / "in.qt3"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: one: latency is not finite: conv inf ms")
    assert not (tmp_path / "out").exists()


# The exit code of each concrete AccelError subclass raised inside a command.
# A new subclass fails test_exit_code_per_error_class until it has a row.
EXIT_BY_ERROR = {
    errors.FormatError: EXIT_PARSE,
    errors.CorruptionError: EXIT_PARSE,
    errors.ParseError: EXIT_PARSE,
    errors.ShapeError: EXIT_INTERNAL,
    errors.AccumulatorOverflow: EXIT_VALIDATION,
    errors.ConfigTooSmallError: EXIT_VALIDATION,
    errors.ValidationError: EXIT_VALIDATION,
    errors.LoadError: EXIT_LOAD,
    errors.SweepCapError: EXIT_VALIDATION,
}


def _error_classes():
    found, todo = [], [errors.AccelError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__ == errors.__name__:
                found.append(sub)
                todo.append(sub)
    return found


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_per_error_class(monkeypatch, capsys, cls):
    assert cls in EXIT_BY_ERROR, f"no exit code in EXIT_BY_ERROR for {cls.__name__}"
    exc = cls("x.net", 1, "boom") if cls is errors.ParseError else cls("boom")

    def failing_parse(path):
        raise exc

    monkeypatch.setattr(cli, "parse_network", failing_parse)
    want = EXIT_BY_ERROR[cls]
    assert main(["estimate", "--net", "x.net", "--config", "x.cfg"]) == want
    prefix = "internal error" if want == EXIT_INTERNAL else "error"
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


def test_validate_command(tmp_path, capsys):
    rng = seeded(413)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=5, pool_ok=False)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    good = tmp_path / "good.cfg"
    save_config(wide_open_config(), good)
    assert main(["validate", "--net", net_path, "--config", str(good)]) == EXIT_OK
    assert "legal" in capsys.readouterr().out
    bad = tmp_path / "bad.cfg"
    save_config(wide_open_config(chout_x_filter_x_filter_x_chin_max=1), bad)
    assert main(["validate", "--net", net_path, "--config", str(bad)]) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "unsupported" in out and "CHOUTxFILTERxFILTERxCHIN_MAX" in out


def test_estimate_command_and_config_comparison(tmp_path, capsys, data_dir):
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    cfg1 = os.path.join(data_dir, "configs", "conf1.cfg")
    cfg2 = os.path.join(data_dir, "configs", "conf2.cfg")
    assert main(["estimate", "--net", net, "--config", cfg1]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert main(["estimate", "--net", net, "--config", cfg2]) == EXIT_OK
    out2 = capsys.readouterr().out

    def grab(out, key):
        for line in out.splitlines():
            if line.startswith(key):
                return float(line.split()[1])
        raise AssertionError(key)

    assert grab(out1, "dsp") == 74 and grab(out2, "dsp") == 138
    assert grab(out2, "conv_total_ms") < grab(out1, "conv_total_ms")


def test_estimate_illegal_layer_names_budget(tmp_path, capsys):
    rng = seeded(417)
    ia, bank, spec = random_instance(rng, max_hw=5, max_ch=5, pool_ok=False)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    cfg_path = tmp_path / "small.cfg"
    save_config(wide_open_config(chout_x_filter_x_filter_x_chin_max=1), cfg_path)
    rc = main(["estimate", "--net", net_path, "--config", str(cfg_path)])
    assert rc == EXIT_VALIDATION
    assert "CHOUTxFILTERxFILTERxCHIN_MAX" in capsys.readouterr().out


def test_estimate_empty_net(tmp_path, capsys):
    path = tmp_path / "empty.net"
    path.write_text("network empty\ninput 4 4 2\ninput_frac 4\n")
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    assert main(["estimate", "--net", str(path), "--config", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "conv_total_ms 0.000" in out
    assert "end_to_end_ms 0.000" in out


def test_estimate_report_equals_run_report(tmp_path, capsys):
    rng = seeded(419)
    ia, bank, spec = random_instance(rng, max_hw=6, max_ch=6)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")
    assert main(["estimate", "--net", net_path, "--config", str(cfg_path)]) == EXIT_OK
    est_out = capsys.readouterr().out
    rc = main(
        [
            "run",
            "--net",
            net_path,
            "--config",
            str(cfg_path),
            "--input",
            str(tmp_path / "in.qt3"),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == EXIT_OK
    run_report = (tmp_path / "out" / "report.txt").read_text()
    for line in run_report.strip().splitlines():
        assert line in est_out


def test_estimate_honors_calibration_flag(tmp_path, capsys, data_dir):
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    cfg = os.path.join(data_dir, "configs", "conf1.cfg")
    zero_cal = tmp_path / "zero.cal"
    zero_cal.write_text("k_pipe=0\nk_layer=0\nk_pool=0\n")
    assert main(["estimate", "--net", net, "--config", cfg]) == EXIT_OK
    default_out = capsys.readouterr().out
    rc = main(["estimate", "--net", net, "--config", cfg, "--calibration", str(zero_cal)])
    assert rc == EXIT_OK
    zero_out = capsys.readouterr().out

    def conv_ms(out):
        for line in out.splitlines():
            if line.startswith("conv_total_ms"):
                return float(line.split()[1])
        raise AssertionError

    assert conv_ms(zero_out) < conv_ms(default_out)


def test_bad_calibration_file_is_parse_error(tmp_path, capsys, data_dir):
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    cfg = os.path.join(data_dir, "configs", "conf1.cfg")
    bad = tmp_path / "bad.cal"
    bad.write_text("k_wrong=3\n")
    rc = main(["estimate", "--net", net, "--config", cfg, "--calibration", str(bad)])
    assert rc == EXIT_PARSE
    assert "bad.cal" in capsys.readouterr().err


def test_bad_network_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.net"
    path.write_text("network x\ninput 4 4 2\ninput_frac 4\nnode a conv inputs=input\n")
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    assert main(["validate", "--net", str(path), "--config", str(cfg_path)]) == EXIT_PARSE
    assert "broken.net" in capsys.readouterr().err


@pytest.mark.parametrize("flags", ["relu=2 emit=0", "relu=-7 emit=0", "relu=1 emit=no"])
def test_flag_other_than_0_or_1_is_parse_error(tmp_path, capsys, data_dir, flags):
    path = tmp_path / "flags.net"
    path.write_text(
        "network x\ninput 4 4 2\ninput_frac 4\n"
        f"node a conv filter=3 stride=1 pad=1 co=4 {flags} pool=none fo=4 fp=4 fb=4 inputs=input\n"
    )
    cfg = os.path.join(data_dir, "configs", "conf6.cfg")
    assert main(["estimate", "--net", str(path), "--config", cfg]) == EXIT_PARSE
    key, value = next(f.split("=") for f in flags.split() if f not in ("relu=1", "emit=0"))
    assert capsys.readouterr().err == f"error: {path}:4: {key} must be 0 or 1, got {value!r}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_freq_is_parse_error(tmp_path, capsys, data_dir, value):
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    with open(os.path.join(data_dir, "configs", "conf1.cfg"), encoding="utf-8") as fh:
        lines = [f"FREQ={value}\n" if line.startswith("FREQ=") else line for line in fh]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(lines))
    assert main(["estimate", "--net", net, "--config", str(cfg)]) == EXIT_PARSE
    assert "FREQ" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["host_ns_per_unit=nan", "p0_w=inf", "power_slope_w_per_100mhz=-inf"]
)
def test_non_finite_calibration_is_parse_error(tmp_path, capsys, data_dir, line):
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    cfg = os.path.join(data_dir, "configs", "conf1.cfg")
    cal = tmp_path / "bad.cal"
    cal.write_text(line + "\n")
    rc = main(["estimate", "--net", net, "--config", cfg, "--calibration", str(cal)])
    assert rc == EXIT_PARSE
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["axis FREQ 100 nan", "point FREQ=inf ICP=16", "constraint max_power_w nan"]
)
def test_non_finite_sweep_value_is_parse_error(tmp_path, capsys, data_dir, line):
    sweep = tmp_path / "bad.sw"
    sweep.write_text(
        f"base {os.path.join(data_dir, 'configs', 'conf1.cfg')}\n"
        f"workload {os.path.join(data_dir, 'networks', 'squeezenet_v11.net')}\n"
        f"axis ICP 16 32\n{line}\n"
    )
    assert main(["sweep", "--sweep", str(sweep)]) == EXIT_PARSE
    assert "bad.sw" in capsys.readouterr().err


def _cli_env(**extra):
    """The environment for running ``python -m convaccel`` from this checkout."""
    env = dict(os.environ, **extra)
    src_dir = os.path.dirname(os.path.dirname(convaccel.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_quietly(data_dir, unbuffered):
    # squeezenet's report fits the stdout buffer, so with PYTHONUNBUFFERED
    # unset only the final flush meets the closed pipe
    env = _cli_env(PYTHONUNBUFFERED=unbuffered)
    argv = [
        sys.executable, "-m", "convaccel", "estimate",
        "--net", os.path.join(data_dir, "networks", "squeezenet_v11.net"),
        "--config", os.path.join(data_dir, "configs", "conf6.cfg"),
    ]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


def test_sweep_command(tmp_path, capsys, data_dir):
    sweep = os.path.join(data_dir, "sweeps", "reference_points.sw")
    csv_path = tmp_path / "points.csv"
    assert main(["sweep", "--sweep", sweep, "--csv", str(csv_path)]) == EXIT_OK
    rows = csv_path.read_text().strip().splitlines()
    header = rows[0].split(",")
    dsp = header.index("dsp")
    assert [r.split(",")[dsp] for r in rows[1:]] == ["74", "138", "138", "266", "266", "266"]
    out = capsys.readouterr().out
    assert "Pareto front" in out or "pareto front" in out


def test_cli_outputs_are_deterministic(tmp_path, capsys, data_dir):
    rng = seeded(421)
    ia, bank, spec = random_instance(rng, max_hw=6, max_ch=6)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")

    def run_once(out_dir):
        rc = main(
            [
                "run",
                "--net",
                net_path,
                "--config",
                str(cfg_path),
                "--input",
                str(tmp_path / "in.qt3"),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == EXIT_OK
        return capsys.readouterr().out

    out_a = run_once(tmp_path / "a")
    out_b = run_once(tmp_path / "b")
    assert out_a.replace(str(tmp_path / "a"), "X") == out_b.replace(str(tmp_path / "b"), "X")
    assert (tmp_path / "a" / "report.txt").read_bytes() == (
        tmp_path / "b" / "report.txt"
    ).read_bytes()
    assert (tmp_path / "a" / "c.qt3").read_bytes() == (tmp_path / "b" / "c.qt3").read_bytes()


def test_public_api_names_resolve():
    for name in convaccel.__all__:
        assert getattr(convaccel, name, None) is not None, name
    assert "rescale_acc" not in convaccel.__all__


def _estimate_argv(data_dir, flag, path):
    argv = {
        "--net": os.path.join(data_dir, "networks", "squeezenet_v11.net"),
        "--config": os.path.join(data_dir, "configs", "conf1.cfg"),
    }
    argv[flag] = path
    return ["estimate"] + [item for pair in argv.items() for item in pair]


def _sweep_text(data_dir):
    return (
        f"base {os.path.join(data_dir, 'configs', 'conf1.cfg')}\n"
        f"workload {os.path.join(data_dir, 'networks', 'squeezenet_v11.net')}\n"
        "axis ICP 16 32\nobjective latency\n"
    )


@pytest.mark.parametrize("ext", ["net", "cfg", "sw", "cal"])
def test_undecodable_text_input_is_parse_error(tmp_path, capsys, data_dir, ext):
    sources = {
        "net": os.path.join(data_dir, "networks", "squeezenet_v11.net"),
        "cfg": os.path.join(data_dir, "configs", "conf1.cfg"),
        "cal": os.path.join(data_dir, "calibration", "default.cal"),
    }
    if ext == "sw":
        lines = _sweep_text(data_dir).encode().splitlines(keepends=True)
    else:
        with open(sources[ext], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    lines.insert(1, b"# caf\xff\n")  # a 0xff byte is never valid UTF-8, even in a comment
    bad = tmp_path / f"bad.{ext}"
    bad.write_bytes(b"".join(lines))
    if ext == "sw":
        argv = ["sweep", "--sweep", str(bad)]
    else:
        flag = {"net": "--net", "cfg": "--config", "cal": "--calibration"}[ext]
        argv = _estimate_argv(data_dir, flag, str(bad))
    assert main(argv) == EXIT_PARSE
    assert f"{bad}:2: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--net", "--config", "--calibration", "--sweep"])
def test_directory_as_text_input_is_load_error(tmp_path, capsys, data_dir, flag):
    if flag == "--sweep":
        argv = ["sweep", "--sweep", str(tmp_path)]
    else:
        argv = _estimate_argv(data_dir, flag, str(tmp_path))
    assert main(argv) == EXIT_LOAD
    assert str(tmp_path) in capsys.readouterr().err


def test_directory_as_binary_input_is_load_error(tmp_path, capsys, data_dir):
    net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
    cfg = os.path.join(data_dir, "configs", "conf1.cfg")
    out = str(tmp_path / "out")
    run = ["run", "--net", net, "--config", cfg, "--input", str(tmp_path), "--out-dir", out]
    assert main(run) == EXIT_LOAD
    assert main(["quantize", str(tmp_path), "--out-dir", out]) == EXIT_LOAD
    assert capsys.readouterr().err.count(str(tmp_path)) == 2


# (2**32 - 1) in every dimension: no host can allocate the payload such a
# header claims, so the loader must refuse it from the file size alone.
HUGE = 2**32 - 1


@pytest.mark.parametrize(
    "name, header, command",
    [
        ("t.qt3", struct.pack("<4sBBb3I", b"QT3\0", 1, 1, 0, HUGE, HUGE, HUGE), "quantize"),
        ("t.qt3", struct.pack("<4sBBb3I", b"QT3\0", 1, 0, 0, HUGE, HUGE, HUGE), "run"),
        ("w.qfb", struct.pack("<4sBBbb4I", b"QFB\0", 1, 1, 0, 0, HUGE, 3, 3, HUGE), "quantize"),
    ],
    ids=["float-qt3-quantize", "int8-qt3-run", "float-qfb-quantize"],
)
def test_oversize_binary_header_is_corruption(tmp_path, capsys, data_dir, name, header, command):
    path = tmp_path / name
    path.write_bytes(header)
    out = str(tmp_path / "out")
    if command == "run":
        net = os.path.join(data_dir, "networks", "squeezenet_v11.net")
        cfg = os.path.join(data_dir, "configs", "conf1.cfg")
        argv = ["run", "--net", net, "--config", cfg, "--input", str(path), "--out-dir", out]
    else:
        argv = ["quantize", str(path), "--out-dir", out]
    assert main(argv) == EXIT_PARSE
    assert "truncated payload" in capsys.readouterr().err


def test_quantize_truncated_float_tensor_reports_truncation(tmp_path, capsys):
    path = tmp_path / "f.qt3"
    save_tensor(FTensor3(2, 2, 2, [0.5] * 8), path)
    path.write_bytes(path.read_bytes()[:-3])
    assert main(["quantize", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "truncated payload" in err and "bad magic" not in err


def test_sweep_csv_into_directory_is_load_error(tmp_path, capsys, data_dir):
    sweep = tmp_path / "s.sw"
    sweep.write_text(_sweep_text(data_dir))
    assert main(["sweep", "--sweep", str(sweep), "--csv", str(tmp_path)]) == EXIT_LOAD
    assert f"cannot write {tmp_path}" in capsys.readouterr().err


def test_run_out_dir_on_a_file_is_load_error(tmp_path, capsys):
    ia, bank, spec = random_instance(seeded(421), max_hw=5, max_ch=5)
    net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
    cfg_path = tmp_path / "cfg.cfg"
    save_config(wide_open_config(), cfg_path)
    save_tensor(ia, tmp_path / "in.qt3")
    blocker = tmp_path / "out"
    blocker.write_text("")
    argv = ["run", "--net", net_path, "--config", str(cfg_path), "--input"]
    argv += [str(tmp_path / "in.qt3"), "--out-dir", str(blocker)]
    assert main(argv) == EXIT_LOAD
    assert f"cannot write {blocker}" in capsys.readouterr().err


def test_quantize_out_dir_on_a_file_is_load_error(tmp_path, capsys):
    save_tensor(FTensor3(1, 1, 2, [0.5, -0.25]), tmp_path / "t.qt3")
    blocker = tmp_path / "out"
    blocker.write_text("")
    assert main(["quantize", str(tmp_path / "t.qt3"), "--out-dir", str(blocker)]) == EXIT_LOAD
    assert f"cannot write {blocker}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quantize-qt3", "quantize-qfb", "run-emit"])
def test_output_name_taken_by_a_directory_is_load_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "run-emit":
        ia, bank, spec = random_instance(seeded(423), max_hw=5, max_ch=5)
        net_path = _write_single_conv_net(tmp_path, ia, bank, spec)
        save_config(wide_open_config(), tmp_path / "cfg.cfg")
        save_tensor(ia, tmp_path / "in.qt3")
        argv = ["run", "--net", net_path, "--config", str(tmp_path / "cfg.cfg"), "--input"]
        argv += [str(tmp_path / "in.qt3"), "--out-dir", str(out), "--emit", "input"]
        blocked = out / "input.qt3"
    elif command == "quantize-qt3":
        save_tensor(FTensor3(1, 1, 2, [0.5, -0.25]), tmp_path / "t.qt3")
        argv = ["quantize", str(tmp_path / "t.qt3"), "--out-dir", str(out)]
        blocked = out / "t.qt3"
    else:
        save_bank(FFilterBank(1, 1, 1, 2, [0.5, -0.25], [1.0]), tmp_path / "w.qfb")
        argv = ["quantize", str(tmp_path / "w.qfb"), "--out-dir", str(out)]
        blocked = out / "w.qfb"
    blocked.mkdir(parents=True)
    assert main(argv) == EXIT_LOAD
    assert f"cannot write {blocked}" in capsys.readouterr().err


def _feed_fifo(path, data):
    """Make path a named pipe that a daemon thread writes data into once."""
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    threading.Thread(target=write, daemon=True).start()


# Run as a child process with a timeout, so a reader that blocks on the
# pipe fails the test instead of hanging the suite.
@pytest.mark.parametrize("case", ["float-qt3", "float-qfb", "oversize-int8-qt3-run"])
def test_binary_input_from_a_named_pipe(tmp_path, data_dir, case):
    out = tmp_path / "out"
    if case == "oversize-int8-qt3-run":
        fifo = tmp_path / "in.qt3"
        _feed_fifo(fifo, struct.pack("<4sBBb3I", b"QT3\0", 1, 0, 0, HUGE, HUGE, HUGE))
        argv = ["run", "--net", os.path.join(data_dir, "networks", "squeezenet_v11.net")]
        argv += ["--config", os.path.join(data_dir, "configs", "conf1.cfg")]
        argv += ["--input", str(fifo), "--out-dir", str(out)]
    else:
        name = "t.qt3" if case == "float-qt3" else "w.qfb"
        regular = tmp_path / "regular" / name
        regular.parent.mkdir()
        if case == "float-qt3":
            save_tensor(FTensor3(2, 1, 3, [0.5, -1.5, 2.0, 0.125, 3.0, -0.75]), regular)
        else:
            save_bank(FFilterBank(2, 1, 1, 2, [0.5, -1.5, 2.0, 0.125], [3.0, -0.75]), regular)
        assert main(["quantize", str(regular), "--out-dir", str(tmp_path / "want")]) == EXIT_OK
        fifo = tmp_path / name
        _feed_fifo(fifo, regular.read_bytes())
        argv = ["quantize", str(fifo), "--out-dir", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "convaccel", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    if case == "oversize-int8-qt3-run":
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert f"{fifo}: truncated payload (0 of " in proc.stderr
    else:
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


# Cost-model inputs whose integers pass 2**63, each with the estimate report
# the scalar Python-int model printed for it.
_TINY_NET = """network tiny
input 12 12 8
input_frac 4
node c1 conv filter=3 stride=1 pad=1 co=24 relu=1 pool=2x2s2 fo=4 fp=4 fb=4 inputs=input
node c2 conv filter=1 stride=1 pad=0 co=40 relu=0 pool=none fo=4 fp=4 fb=4 inputs=c1
node gap global_avg_pool inputs=c2
node fc fully_connected units=10 inputs=gap
node sm softmax inputs=fc
"""
# Its layer's cycle total is about 8.3e19, past 2**63 on its own.
_HUGE_NET = """network huge
input 16777216 16777216 1024
input_frac 4
node c1 conv filter=3 stride=1 pad=1 co=4096 relu=0 pool=2x2s2 fo=4 fp=4 fb=4 inputs=input
"""
_HUGE_BUDGETS = {
    "WINxCHIN_PAD_MAX": 2**40,
    "FILTERxFILTERxCHIN_MAX": 2**40,
    "CHOUTxFILTERxFILTERxCHIN_MAX": 2**50,
    "CHOUT_MAX": 4096,
    "PWINxPCH_MAX": 2**50,
    "PCH_MAX": 4096,
}
_TINY_HOST = """\
gap                                                      host:global_avg_pool units=1440     0.002
fc                                                        host:fully_connected units=400     0.001
sm                                                                 host:softmax units=10     0.000
"""
_HEADER = """\
layer                    compute     xfer_in     param  writeback  restreams       total        ms
"""
_OVERFLOW_CASES = {
    "weight-budget-1e30": (
        _TINY_NET,
        {"CHOUTxFILTERxFILTERxCHIN_MAX": 10**30},
        None,
        "network tiny\n" + _HEADER
        + "c1                         12416         144       219        108          1       12743     0.127\n"
        + "c2                          7592         108       125        180          1        7897     0.079\n"
        + _TINY_HOST
        + "conv_total_ms 0.206\nhost_total_ms 0.003\nend_to_end_ms 0.209\n"
        + "dsp 74\nbram_bytes 1000000000000000000000000089600\npower_w 2.692\n",
    ),
    "k_layer-2**62": (
        _TINY_NET,
        {},
        f"k_layer={2**62}\n",
        "network tiny\n" + _HEADER
        + "c1                  4611686018427393520         144       219        108          1"
        + "461168601842739384746116860184273.938\n"
        + "c2                  4611686018427388696         108       125        180          1"
        + "461168601842738900146116860184273.891\n"
        + _TINY_HOST
        + "conv_total_ms 92233720368547.828\nhost_total_ms 0.003\n"
        + "end_to_end_ms 92233720368547.828\n"
        + "dsp 74\nbram_bytes 384512\npower_w 2.692\n",
    ),
    # k_layer alone fits int64; with each layer's compute added it does not.
    "k_layer-2**63-1": (
        _TINY_NET,
        {},
        f"k_layer={2**63 - 1}\n",
        "network tiny\n" + _HEADER
        + "c1                  9223372036854781423         144       219        108          1"
        + "922337203685478175092233720368547.812\n"
        + "c2                  9223372036854776599         108       125        180          1"
        + "922337203685477690492233720368547.781\n"
        + _TINY_HOST
        + "conv_total_ms 184467440737095.594\nhost_total_ms 0.003\n"
        + "end_to_end_ms 184467440737095.594\n"
        + "dsp 74\nbram_bytes 384512\npower_w 2.692\n",
    ),
    "network-bound": (
        _HUGE_NET,
        _HUGE_BUDGETS,
        None,
        "network huge\n" + _HEADER
        + "c1                  8301372603141351694436028797018963968   "
        + "471910436028797018963968          183049754828437200016830497548284371.875\n"
        + "conv_total_ms 830497548284371.875\nhost_total_ms 0.000\n"
        + "end_to_end_ms 830497548284371.875\n"
        + "dsp 74\nbram_bytes 3383197278687232\npower_w 2.692\n",
    ),
}


@pytest.mark.parametrize("case", list(_OVERFLOW_CASES))
def test_estimate_past_int64_matches_python_int_model(tmp_path, capsys, data_dir, case):
    net_text, overrides, calib_text, want = _OVERFLOW_CASES[case]
    net = tmp_path / "n.net"
    net.write_text(net_text)
    lines = []
    with open(os.path.join(data_dir, "configs", "conf1.cfg"), encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            key = line.split("=", 1)[0]
            lines.append(f"{key}={overrides[key]}" if key in overrides else line)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    argv = ["estimate", "--net", str(net), "--config", str(cfg)]
    if calib_text:
        cal = tmp_path / "k.cal"
        cal.write_text(calib_text)
        argv += ["--calibration", str(cal)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == want
    assert captured.err == ""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A conv + fully_connected + softmax network on a 4x4x3 input, written as files."""
    d = tmp_path_factory.mktemp("tiny_run")
    rng = seeded(433)
    save_bank(QFilterBank(4, 3, 3, 3, [rng.randint(-128, 127) for _ in range(108)],
                          [rng.randint(-128, 127) for _ in range(4)], 5, 4), d / "c.qfb")
    save_bank(QFilterBank(3, 1, 1, 16, [rng.randint(-128, 127) for _ in range(48)],
                          [rng.randint(-128, 127) for _ in range(3)], 6, 3), d / "fc.qfb")
    save_tensor(random_tensor(rng, 4, 4, 3, frac=4), d / "in.qt3")
    net = NetworkGraph(
        "tiny",
        (4, 4, 3),
        4,
        [
            ConvNode("c", 3, 1, 1, 4, True, PoolSpec(2), 3, 5, 4, "c.qfb", ("input",)),
            HostNode("fc", "fully_connected", ("c",), units=3, params="fc.qfb"),
            HostNode("sm", "softmax", ("fc",)),
        ],
        str(d),
    )
    save_network(net, d / "tiny.net")
    save_config(wide_open_config(), d / "cfg.cfg")
    argv = ["run", "--net", str(d / "tiny.net"), "--config", str(d / "cfg.cfg"),
            "--input", str(d / "in.qt3"), "--out-dir", str(d / "out")]
    return d, argv


# (position, byte) replacements, then an optional cut or extension; small
# positions, which Hypothesis favours, land in the headers.
def _edits(*names):
    return st.tuples(
        st.sampled_from(names),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
        st.one_of(st.none(), st.integers(0, 200), st.binary(min_size=1, max_size=8)),
    )


@contextlib.contextmanager
def _mutated(path, replacements, tail):
    """Apply one _edits example to the file at path, and restore it afterwards."""
    original = path.read_bytes()
    data = bytearray(original)
    for pos, byte in replacements:
        data[pos % len(data)] = byte
    if isinstance(tail, int):
        del data[tail:]
    elif tail is not None:
        data += tail
    path.write_bytes(bytes(data))
    try:
        yield
    finally:
        path.write_bytes(original)


def _assert_exits_cleanly(argv):
    """A documented exit code, no traceback, and no nan in a successful report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_LOAD), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == EXIT_OK:
        assert "nan" not in out.getvalue()
    return rc, out.getvalue()


@given(_edits("c.qfb", "fc.qfb", "in.qt3"))
@example(("c.qfb", [(12, 1), (16, 9)], None))  # a 1x9 filter of the same payload size
@settings(max_examples=150, deadline=None)
def test_run_on_mutated_bank_or_input_exits_cleanly(tiny_run, edits):
    # Every header field a mutation can set is checked against the file size
    # before anything is allocated, so no example can claim a large buffer.
    d, argv = tiny_run
    name, replacements, tail = edits
    with _mutated(d / name, replacements, tail):
        _assert_exits_cleanly(argv)


@pytest.fixture(scope="module")
def float_inputs(tmp_path_factory):
    """A float tensor and a float filter bank, as quantize takes them."""
    d = tmp_path_factory.mktemp("float_inputs")
    rng = seeded(437)
    save_tensor(FTensor3(2, 2, 3, [rng.uniform(-4, 4) for _ in range(12)]), d / "f.qt3")
    save_bank(FFilterBank(2, 3, 3, 2, [rng.uniform(-1, 1) for _ in range(36)],
                          [rng.uniform(-2, 2) for _ in range(2)]), d / "f.qfb")
    return d


@given(_edits("f.qt3", "f.qfb"))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_quantize_on_mutated_float_file_exits_cleanly(float_inputs, edits):
    # As in the run fuzzer, payload sizes are checked against the file size
    # before any read, so no example can claim a large buffer.
    name, replacements, tail = edits
    path = float_inputs / name
    with _mutated(path, replacements, tail):
        _assert_exits_cleanly(["quantize", str(path), "--out-dir", str(float_inputs / "out")])


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    """The tiny network, conf1 and the shipped calibration, as files."""
    d = tmp_path_factory.mktemp("text_inputs")
    (d / "tiny.net").write_text(_TINY_NET)
    for sub, name in (("configs", "conf1.cfg"), ("calibration", "default.cal")):
        with open(os.path.join(DATA_DIR, sub, name), "rb") as fh:
            (d / name).write_bytes(fh.read())
    return d


@given(_edits("tiny.net", "conf1.cfg", "default.cal"))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_estimate_on_mutated_text_inputs_exits_cleanly(text_inputs, edits):
    name, replacements, tail = edits
    argv = ["estimate", "--net", str(text_inputs / "tiny.net")]
    argv += ["--config", str(text_inputs / "conf1.cfg")]
    argv += ["--calibration", str(text_inputs / "default.cal")]
    with _mutated(text_inputs / name, replacements, tail):
        _assert_exits_cleanly(argv)


# A 27-point grid over the files above.  No line is longer than an axis line,
# and only the axis lines name a parameter, so no mix of these lines and
# tokens can make a larger grid.
_SWEEP_LINES = (
    "base conf1.cfg\nworkload tiny.net\naxis FREQ 100 200 300\naxis ICP 8 16 32\n"
    "axis OCP 8 16 32\nconstraint max_dsp 280\nobjective latency dsp\ncap 27"
).split("\n")
_SWEEP_TOKENS = sorted({tok for line in _SWEEP_LINES for tok in line.split()})
# Each edit drops a line, swaps two lines, or puts one of the file's own
# tokens in place of another; indices wrap around.
_SWEEP_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), st.integers(0, 20)),
        st.tuples(st.just("swap"), st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.just("token"), st.integers(0, 20), st.integers(0, 5),
                  st.sampled_from(_SWEEP_TOKENS)),
    ),
    max_size=4,
)


@given(_SWEEP_EDITS)
@example([])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sweep_on_mutated_sweep_file_exits_cleanly(text_inputs, edits):
    lines = [line.split() for line in _SWEEP_LINES]
    for op, i, *rest in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "swap":
            j = rest[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i][rest[0] % len(lines[i])] = rest[1]
    path = text_inputs / "mutated.sw"
    path.write_text("".join(" ".join(line) + "\n" for line in lines))
    rc, out = _assert_exits_cleanly(["sweep", "--sweep", str(path)])
    if not edits:
        assert rc == EXIT_OK and out.startswith("27 points")
