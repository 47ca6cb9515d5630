"""Command-line interface: predict, autocorr, slice, verify.

Times cross the CLI boundary in SI seconds; computation runs in atomic
units and data files carry both.  Identical flags produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import DEFAULT_THRESHOLD, DEFAULT_TOLERANCE, verify
from .autocorr import PhaseModel, Signal, TimeGrid, autocorrelation
from .circular import AngularGrid, angular_slice
from .packet import gaussian_packet
from .spectrum import AtomSpec, from_si, timescales, to_si
from .superrevival import prediction_table

# q values checked by `verify` when none are given: the pair claimed for
# packets all the way down to the experimentally accessible nbar ~ 48.
DEFAULT_VERIFY_Q = (12, 6)

# Grid density: 20 samples per classical period resolves the fastest
# oscillation present for the |k| range of any sane packet.
SAMPLES_PER_CLASSICAL_PERIOD = 20

# Largest |A|^2 grid a command evaluates.  The samples themselves are cheap,
# but formatting 10^7 rows already takes a few GB; larger grids are usage
# errors rather than a MemoryError halfway through.
MAX_SAMPLES = 10**7


def _fmt(x: float) -> str:
    """Decimal scientific notation, 12 significant digits."""
    return format(x, ".11e")


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _atom_spec(parser: argparse.ArgumentParser, args) -> AtomSpec:
    try:
        return AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    except ValueError as exc:
        parser.error(str(exc))


def _signal_csv(signal: Signal) -> str:
    lines = ["t_au,t_si,a2"]
    for t, v in zip(signal.times, signal.values):
        lines.append(f"{_fmt(t)},{_fmt(to_si(t))},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _signal_json(signal: Signal) -> str:
    record = {
        "t_au": [float(t) for t in signal.times],
        "t_si": [to_si(float(t)) for t in signal.times],
        "a2": [float(v) for v in signal.values],
    }
    return json.dumps(record, indent=2) + "\n"


def cmd_predict(parser, args) -> int:
    spec = _atom_spec(parser, args)
    qs = args.q if args.q else list(DEFAULT_VERIFY_Q)
    try:
        preds = prediction_table(spec, qs)
    except ValueError as exc:
        parser.error(str(exc))
    record = {
        "nbar": args.nbar,
        "sigma": args.sigma,
        "defect": args.defect,
        "predictions": [p.to_dict() for p in preds],
    }
    _write_text(args.out, json.dumps(record, indent=2) + "\n")
    return 0


def cmd_autocorr(parser, args) -> int:
    spec = _atom_spec(parser, args)
    if not 1 <= args.samples <= MAX_SAMPLES:
        parser.error(f"--samples must be in [1, {MAX_SAMPLES}], got {args.samples}")
    if args.tmax < args.tmin:
        parser.error(f"--tmax ({args.tmax}) must be >= --tmin ({args.tmin})")
    if args.samples > 1 and args.tmax == args.tmin:
        parser.error("--tmax must exceed --tmin when --samples > 1")
    t0 = from_si(args.tmin)
    if args.samples == 1:
        dt = 1.0
    else:
        dt = from_si(args.tmax - args.tmin) / (args.samples - 1)
    try:
        grid = TimeGrid(t0=t0, dt=dt, count=args.samples)
    except ValueError as exc:
        parser.error(str(exc))
    coeffs = gaussian_packet(spec)
    signal = autocorrelation(coeffs, PhaseModel(args.model), spec, grid)
    if args.format == "csv":
        _write_text(args.out, _signal_csv(signal))
    else:
        _write_text(args.out, _signal_json(signal))
    return 0


def cmd_slice(parser, args) -> int:
    spec = _atom_spec(parser, args)
    if args.points < 1:
        parser.error(f"--points must be >= 1, got {args.points}")
    grid = AngularGrid(phi0=-math.pi, dphi=2.0 * math.pi / args.points,
                       count=args.points)
    coeffs = gaussian_packet(spec)
    try:
        result = angular_slice(coeffs, spec, from_si(args.t), grid, r=args.radius)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "csv":
        lines = ["phi,re,im,abs"]
        for phi, val in zip(result.phis, result.values):
            lines.append(
                f"{_fmt(phi)},{_fmt(val.real)},{_fmt(val.imag)},{_fmt(abs(val))}"
            )
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        record = {
            "t_si": args.t,
            "r_au": result.r,
            "phi": [float(p) for p in result.phis],
            "re": [float(v.real) for v in result.values],
            "im": [float(v.imag) for v in result.values],
            "abs": [float(abs(v)) for v in result.values],
        }
        _write_text(args.out, json.dumps(record, indent=2) + "\n")
    return 0


def cmd_verify(parser, args) -> int:
    spec = _atom_spec(parser, args)
    if not (0.0 < args.threshold <= 1.0):
        parser.error(f"--threshold must be in (0, 1], got {args.threshold}")
    if args.tolerance <= 0.0:
        parser.error(f"--tolerance must be > 0, got {args.tolerance}")
    qs = args.q if args.q else list(DEFAULT_VERIFY_Q)
    try:
        preds = prediction_table(spec, qs)
    except ValueError as exc:
        parser.error(str(exc))
    scales = timescales(spec)
    t_end = max(p.time_center for p in preds) + scales.t_rev
    dt = scales.t_cl / SAMPLES_PER_CLASSICAL_PERIOD
    count = int(math.ceil(t_end / dt)) + 2
    if count > MAX_SAMPLES:
        parser.error(
            f"verify would need {count} samples to reach t_sr/{min(qs)}, more than "
            f"the {MAX_SAMPLES} sample budget; use larger --q or smaller --nbar"
        )
    coeffs = gaussian_packet(spec)
    signal = autocorrelation(coeffs, PhaseModel(args.model), spec,
                             TimeGrid(t0=0.0, dt=dt, count=count))
    entries = verify(preds, signal, threshold=args.threshold,
                     tolerance=args.tolerance)
    all_pass = all(e.status == "pass" for e in entries if e.status != "not evaluated")
    record = {
        "nbar": args.nbar,
        "sigma": args.sigma,
        "defect": args.defect,
        "tolerance": args.tolerance,
        "result": "pass" if all_pass else "fail",
        "entries": [e.to_dict() for e in entries],
    }
    _write_text(args.out, json.dumps(record, indent=2) + "\n")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydlab",
        description="Long-term revival structure of Rydberg wave packets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_atom_flags(p):
        p.add_argument("--nbar", type=float, required=True,
                       help="central principal quantum number")
        p.add_argument("--sigma", type=float, required=True,
                       help="excitation distribution width (units of n)")
        p.add_argument("--defect", type=float, default=0.0,
                       help="quantum defect (default 0)")
        p.add_argument("--out", default=None,
                       help="output file (default: stdout)")

    p = sub.add_parser("predict", help="superrevival prediction table (JSON)")
    add_atom_flags(p)
    p.add_argument("--q", type=int, action="append",
                   help="fraction denominator q (repeatable, multiple of 3); "
                        f"default {' '.join(map(str, DEFAULT_VERIFY_Q))}")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("autocorr", help="|A(t)|^2 time series")
    add_atom_flags(p)
    p.add_argument("--tmin", type=float, required=True, help="start time (seconds)")
    p.add_argument("--tmax", type=float, required=True, help="end time (seconds)")
    p.add_argument("--samples", type=int, required=True, help="number of samples")
    p.add_argument("--model", choices=[m.value for m in PhaseModel],
                   default="exact", help="phase model (default exact)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_autocorr)

    p = sub.add_parser("slice", help="angular slice of the circular packet")
    add_atom_flags(p)
    p.add_argument("--t", type=float, required=True, help="evaluation time (seconds)")
    p.add_argument("--points", type=int, default=4096,
                   help="azimuthal samples over [-pi, pi) (default 4096)")
    p.add_argument("--radius", type=float, default=None,
                   help="ring radius in a.u. (default: expectation radius)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("verify", help="simulate, measure, and check predictions")
    add_atom_flags(p)
    p.add_argument("--q", type=int, action="append",
                   help="fraction denominator q (repeatable); "
                        f"default {' '.join(map(str, DEFAULT_VERIFY_Q))}")
    p.add_argument("--model", choices=[m.value for m in PhaseModel],
                   default="exact")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="relative periodicity tolerance "
                        f"(default {DEFAULT_TOLERANCE:.2f})")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="peak threshold as fraction of window max "
                        f"(default {DEFAULT_THRESHOLD:g})")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
