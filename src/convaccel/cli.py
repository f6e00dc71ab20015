"""Command-line interface: quantize, validate, run, estimate, sweep.

Exit codes: 0 success, 2 parse/format error (also an integer at 2**63:
a config or calibration field, a network's cost term or host units), 3
validation error (also a run whose accumulator leaves the 32-bit range,
a latency or power that is not finite, and calibration terms that take
a network's cycle bound to 2**63), 4 load error (missing, unreadable or
mismatched artifact, an output that cannot be written, or quantize data
that is not finite or whose exponent leaves the scheme window), 5
internal error.
A reader that closes stdout early (``convaccel estimate ... | head``)
ends the command quietly with exit 0.
All reports are deterministic: fixed float precision, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import dse as dse_mod
from .config import DEFAULT_CALIBRATION, load_calibration, load_config
from .errors import (
    AccelError,
    AccumulatorOverflow,
    ConfigTooSmallError,
    FormatError,
    LoadError,
    ParseError,
    SweepCapError,
    ValidationError,
    make_output_dir,
    open_output,
)
from .graph import parse_network, run_network, validate
from .perf import estimate_resources, network_perf
from .quant import FRAC_MAX, FRAC_MIN, choose_frac_bits, quantize
from .tensors import (
    FFilterBank,
    FTensor3,
    QFilterBank,
    load_any,
    load_tensor,
    save_bank,
    save_tensor,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_LOAD = 4
EXIT_INTERNAL = 5


def _calibration(path):
    return load_calibration(path) if path else DEFAULT_CALIBRATION


def _perf_lines(report):
    lines = [f"network {report.network}"]
    header = (
        f"{'layer':<20}{'compute':>12}{'xfer_in':>12}{'param':>10}"
        f"{'writeback':>11}{'restreams':>11}{'total':>12}{'ms':>10}"
    )
    lines.append(header)
    # "%.0s" prints nothing: the pool cycles are not a column of the report.
    lines.extend("%-20s%12d%12d%10d%11d%.0s%11d%12d%10.3f" % r for r in report.table())
    for node_id, kind, units, ms in report.host_table():
        desc = f"host:{kind} units={units}"
        lines.append(f"{node_id:<20}{desc:>68}{ms:>10.3f}")
    lines.append(f"conv_total_ms {report.conv_ms:.3f}")
    lines.append(f"host_total_ms {report.host_ms:.3f}")
    lines.append(f"end_to_end_ms {report.end_to_end_ms:.3f}")
    return lines


def _resource_lines(res):
    return [f"dsp {res.dsp}", f"bram_bytes {res.bram_bytes}", f"power_w {res.power_w:.3f}"]


def cmd_quantize(args) -> int:
    def frac_bits(data):
        f = args.frac_bits if args.frac_bits is not None else choose_frac_bits(data)
        if not FRAC_MIN <= f <= FRAC_MAX:
            raise ValueError(f"exponent {f} outside the scheme window [{FRAC_MIN}, {FRAC_MAX}]")
        return f

    make_output_dir(args.out_dir)
    for path in args.files:
        obj = load_any(path)
        out_path = os.path.join(args.out_dir, os.path.basename(path))
        try:
            if isinstance(obj, FTensor3):
                f = frac_bits(obj.values)
                q = quantize(obj, f)
                save_tensor(q, out_path)
                m = float(abs(obj.values).max()) if obj.values.size else 0.0
                print(f"{path}: tensor max_abs={m:.6g} frac_bits={f}")
            elif isinstance(obj, FFilterBank):
                wf = frac_bits(obj.weights)
                bf = frac_bits(obj.biases)
                wq = quantize(FTensor3(1, 1, obj.weights.size, obj.weights), wf)
                bq = quantize(FTensor3(1, 1, obj.co, obj.biases), bf)
                bank = QFilterBank(obj.co, obj.fh, obj.fw, obj.ci, wq.values, bq.values, wf, bf)
                save_bank(bank, out_path)
                wm = float(abs(obj.weights).max())
                bm = float(abs(obj.biases).max()) if obj.biases.size else 0.0
                print(
                    f"{path}: bank weights max_abs={wm:.6g} frac_bits={wf}; "
                    f"biases max_abs={bm:.6g} frac_bits={bf}"
                )
            else:
                print(f"{path}: already quantized, skipped")
        except ValueError as exc:
            raise LoadError(f"{path}: {exc}") from None
    return EXIT_OK


def cmd_validate(args) -> int:
    net = parse_network(args.net)
    cfg = load_config(args.config)
    report = validate(net, cfg)
    print(f"network {net.name} under {cfg.name or args.config}:")
    print(str(report))
    if not report.ok:
        print("verdict: unsupported")
        return EXIT_VALIDATION
    print("verdict: legal")
    return EXIT_OK


def cmd_run(args) -> int:
    net = parse_network(args.net)
    cfg = load_config(args.config)
    calib = _calibration(args.calibration)
    input_tensor = load_tensor(args.input)
    outputs, report = run_network(net, cfg, input_tensor, calib=calib, emits=tuple(args.emit or ()))
    make_output_dir(args.out_dir)
    for node_id, tensor in outputs.items():
        save_tensor(tensor, os.path.join(args.out_dir, f"{node_id}.qt3"))
    lines = _perf_lines(report)
    with open_output(os.path.join(args.out_dir, "report.txt"), encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {len(outputs)} tensors to {args.out_dir}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    net = parse_network(args.net)
    cfg = load_config(args.config)
    calib = _calibration(args.calibration)
    legality = validate(net, cfg)
    if not legality.ok:
        bad = [r for r in legality.rows if r.verdict == "unsupported"]
        for r in bad:
            print(f"{r.node_id}: {r.detail}")
        return EXIT_VALIDATION
    report = network_perf(net, cfg, calib)
    resources = estimate_resources(cfg, calib)
    print("\n".join(_perf_lines(report)))
    print("\n".join(_resource_lines(resources)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = dse_mod.load_sweep(args.sweep)
    calib = _calibration(args.calibration)
    points = dse_mod.enumerate_points(spec, calib)
    if args.csv:
        with open_output(args.csv, encoding="utf-8") as fh:
            dse_mod.write_csv(points, spec, fh)
    front = dse_mod.pareto_front(points, spec.objectives)
    feasible = sum(1 for p in points if p.feasible)
    print(f"{len(points)} points, {feasible} feasible, {len(front)} on the Pareto front")
    print("pareto front (objectives: " + ", ".join(spec.objectives) + "):")
    for p in front:
        desc = " ".join(
            f"{k}={p.fields[k]:g}" if isinstance(p.fields[k], float) else f"{k}={p.fields[k]}"
            for k in ("FREQ", "ICP", "OCP", "APACK", "PPACK", "PE_DSP")
        )
        objs = " ".join(f"{obj}={p.metrics[obj]:.3f}" for obj in spec.objectives)
        print(f"  {desc}  {objs}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="convaccel",
        description="Bit-exact simulator and cost model for the convolution accelerator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize float tensor/filter files")
    p.add_argument("files", nargs="+", help="float .qt3/.qfb files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frac-bits", type=int, default=None, help="force a fixed exponent")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("validate", help="check a network against a configuration")
    p.add_argument("--net", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a network and write outputs plus a report")
    p.add_argument("--net", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emit", action="append", help="also write this node's feature map")
    p.add_argument("--calibration", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("estimate", help="predict latency and resources, no execution")
    p.add_argument("--net", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--calibration", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="enumerate a design space and report the Pareto front")
    p.add_argument("--sweep", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--calibration", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's exit flush
        return status
    except BrokenPipeError:
        # As the Python docs' SIGPIPE note advises: point stdout at devnull
        # so the final flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, ConfigTooSmallError, SweepCapError, AccumulatorOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LoadError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except (AccelError, ValueError, OSError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
