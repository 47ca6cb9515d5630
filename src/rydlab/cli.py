"""Command-line interface: predict, autocorr, slice, verify.

Times cross the CLI boundary in SI seconds; computation runs in atomic
units and data files carry both.  Every command writes through one
streaming writer.  `autocorr` evaluates, formats and writes |A|^2 in chunks
of CHUNK_ROWS rows, `slice` formats and writes Psi(phi) and `predict` each
weight list b the same way: one format call per chunk, each chunk written
before the next is formed, so memory does not grow with the size of the
text.  Identical flags produce byte-identical output, whatever the chunk
size.
Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import replace
from itertools import chain

import numpy as np

from .analysis import DEFAULT_THRESHOLD, DEFAULT_TOLERANCE, verify
from .autocorr import PhaseModel, TimeGrid, _a2_chunks, _check_a2, autocorrelation
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

# Largest size a command evaluates: |A|^2 samples, slice points, and the
# weight count l of each prediction (l <= q, so --q is bounded too).
# `autocorr` and `predict` stream their text, but `verify` holds the whole
# signal and its peak search, `slice` the whole Psi(phi), and every
# prediction its b_s array (16 bytes per weight, never their text); larger
# sizes are usage errors rather than a MemoryError halfway through.
MAX_SAMPLES = 10**7

# Rows evaluated, formatted and written at a time.
CHUNK_ROWS = 1 << 14


def _chunks(count: int) -> list[tuple[int, int]]:
    """Consecutive index ranges of CHUNK_ROWS rows covering [0, count)."""
    return [(lo, min(lo + CHUNK_ROWS, count)) for lo in range(0, count, CHUNK_ROWS)]


def _csv(columns: dict):
    """CSV text of float columns, each an iterable of equal-length chunks
    (lists of floats): the header, then one %-format call per chunk."""
    yield ",".join(columns) + "\n"
    row = ",".join(["%.11e"] * len(columns)) + "\n"
    for chunk in zip(*columns.values()):
        yield (row * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk)))


def _json(scalars: dict, columns: dict):
    """json.dumps({**scalars, **columns}, indent=2) + "\n" in pieces, each
    column an iterable of chunks (lists of finite floats) streamed in turn."""
    sep = "{\n"
    for key, value in scalars.items():
        yield f"{sep}  {json.dumps(key)}: {json.dumps(value)}"
        sep = ",\n"
    for key, chunks in columns.items():
        yield f"{sep}  {json.dumps(key)}: ["
        sep = "\n    "
        for chunk in chunks:
            yield sep + ",\n    ".join(map(float.__repr__, chunk))
            sep = ",\n    "
        yield "\n  ]"
        sep = ",\n"
    yield "\n}\n"


def _write(out_path: str | None, pieces) -> None:
    """Write each text piece to out_path (stdout when None or "-") before
    the next one is formed."""
    if out_path is None or out_path == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(out_path, "w", encoding="utf-8", newline="")
    with target as fh:
        fh.writelines(pieces)


def _atom_spec(parser: argparse.ArgumentParser, args) -> AtomSpec:
    try:
        return AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    except ValueError as exc:
        parser.error(str(exc))


def _predictions(parser: argparse.ArgumentParser, args, spec: AtomSpec) -> list:
    qs = args.q if args.q else list(DEFAULT_VERIFY_Q)
    if max(qs) > MAX_SAMPLES:
        parser.error(f"--q must be <= {MAX_SAMPLES}, got {max(qs)}")
    try:
        return prediction_table(spec, qs)
    except ValueError as exc:
        parser.error(str(exc))


def _predict_json(head: dict, preds) -> Iterator[str]:
    """json.dumps({**head, "predictions": [p.to_dict() for p in preds]},
    indent=2) + "\n" in pieces, each prediction's b streamed as CHUNK_ROWS
    [re, im] pairs per format call instead of held as nested lists."""
    yield "{\n" + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items())
    yield '  "predictions": ['
    pair = ",\n        [\n          %s,\n          %s\n        ]"
    for n, p in enumerate(preds):
        yield ",\n    {" if n else "\n    {"
        # to_dict of a copy without weights: every other field, in order
        for m, (key, value) in enumerate(replace(p, b=p.b[:0]).to_dict().items()):
            yield f"{',' if m else ''}\n      {json.dumps(key)}: "
            if key != "b":
                yield json.dumps(value)
                continue
            yield "["
            for lo, hi in _chunks(p.b.size):
                pairs = zip(p.b.real[lo:hi].tolist(), p.b.imag[lo:hi].tolist())
                text = (pair * (hi - lo)) % tuple(map(float.__repr__, chain.from_iterable(pairs)))
                yield text if lo else text[1:]
            yield "\n      ]"
        yield "\n    }"
    yield "\n  ]\n}\n"


def cmd_predict(parser, args) -> int:
    spec = _atom_spec(parser, args)
    preds = _predictions(parser, args, spec)
    head = {"nbar": args.nbar, "sigma": args.sigma, "defect": args.defect}
    _write(args.out, _predict_json(head, preds))
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
    a2 = _a2_chunks(coeffs, PhaseModel(args.model), spec, grid, 0, grid.count, CHUNK_ROWS)
    parts = _chunks(grid.count)
    columns = {
        "t_au": ((grid.t0 + grid.dt * np.arange(lo, hi)).tolist() for lo, hi in parts),
        "t_si": (to_si(grid.t0 + grid.dt * np.arange(lo, hi)).tolist() for lo, hi in parts),
        "a2": (_check_a2(values).tolist() for values in a2),
    }
    _write(args.out, _csv(columns) if args.format == "csv" else _json({}, columns))
    return 0


def cmd_slice(parser, args) -> int:
    spec = _atom_spec(parser, args)
    if not 1 <= args.points <= MAX_SAMPLES:
        parser.error(f"--points must be in [1, {MAX_SAMPLES}], got {args.points}")
    grid = AngularGrid(phi0=-math.pi, dphi=2.0 * math.pi / args.points,
                       count=args.points)
    coeffs = gaussian_packet(spec)
    try:
        result = angular_slice(coeffs, spec, from_si(args.t), grid, r=args.radius)
    except ValueError as exc:
        parser.error(str(exc))
    values = result.values
    parts = _chunks(values.size)
    columns = {
        "phi": ((grid.phi0 + grid.dphi * np.arange(lo, hi)).tolist() for lo, hi in parts),
        "re": (values.real[lo:hi].tolist() for lo, hi in parts),
        "im": (values.imag[lo:hi].tolist() for lo, hi in parts),
        # hypot is abs(complex) bitwise; numpy's abs differs in the last bit
        "abs": (np.hypot(values.real[lo:hi], values.imag[lo:hi]).tolist()
                for lo, hi in parts),
    }
    scalars = {"t_si": args.t, "r_au": result.r}
    _write(args.out, _csv(columns) if args.format == "csv" else _json(scalars, columns))
    return 0


def cmd_verify(parser, args) -> int:
    spec = _atom_spec(parser, args)
    if not (0.0 < args.threshold <= 1.0):
        parser.error(f"--threshold must be in (0, 1], got {args.threshold}")
    if args.tolerance <= 0.0:
        parser.error(f"--tolerance must be > 0, got {args.tolerance}")
    preds = _predictions(parser, args, spec)
    scales = timescales(spec)
    t_end = max(p.time_center for p in preds) + scales.t_rev
    dt = scales.t_cl / SAMPLES_PER_CLASSICAL_PERIOD
    count = int(math.ceil(t_end / dt)) + 2
    if count > MAX_SAMPLES:
        parser.error(
            f"verify would need {count} samples to reach t_sr/{preds[-1].q}, more than "
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
    _write(args.out, [json.dumps(record, indent=2) + "\n"])
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
    try:
        code = args.func(parser, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`rydlab autocorr ... | head`).  Point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
