"""Command-line interface: predict, autocorr, slice, verify.

Times cross the CLI boundary in SI seconds; computation runs in atomic
units and data files carry both.  Every command writes through one
streaming writer.  `autocorr` evaluates, formats and writes |A|^2 in chunks
of CHUNK_ROWS rows, `slice` formats and writes Psi(phi) and `predict` each
weight list b the same way, each chunk written before the next is formed,
so memory does not grow with the size of the text.  CSV fields are the
bytes of '%.11e' % x, formatted in numpy (rydlab._sciformat), and so are
the numbers of the `autocorr` and `slice` JSON arrays, the bytes of
float.__repr__(x) (rydlab._reprformat); each module is imported on the
first write that needs it.  `predict` calls float.__repr__ itself: its b
lists are at most q long, and loading the formatter there would only add
import time.  Identical flags produce byte-identical output, whatever the
chunk size.  `verify` evaluates only the windows t_sr/q +- t_rev it
searches, each bitwise as on the whole grid from t = 0.
The process entry (`rydlab`, `python -m rydlab.cli`) is run(): it freezes
the heap the imports built (gc.freeze) before the command, so neither the
collector nor interpreter teardown walks it again; main() called
in-process freezes nothing.
Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure (also a `verify` that evaluates no prediction), 2
usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import replace
from itertools import chain

import numpy as np

from .analysis import DEFAULT_THRESHOLD, DEFAULT_TOLERANCE, _judge, _search_window
from .autocorr import (
    PhaseModel, Signal, TimeGrid, _a2_chunks, _check_a2, _kernel_bytes, _window_indices,
)
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

# Largest size a command evaluates: |A|^2 samples and slice points.
# `autocorr` streams its text, but `verify` holds one window's samples and
# its peak search (~27*nbar samples at 20 per Kepler period, whatever the
# grid) and `slice` the whole Psi(phi); larger sizes are usage errors
# rather than a MemoryError halfway through.
MAX_SAMPLES = 10**7

# Largest grid `verify` indexes: sample indices and grid times stay exact
# in double arithmetic below 2^53.
MAX_GRID_INDEX = 2**53

# Largest --q.  A prediction holds l <= q weights, and their inverse FFT
# peaks at ~176 bytes per weight when l has a large prime factor (measured
# at l = 999,993 = 3 x 333,331: 197 MB), so no admitted q needs much more
# than 200 MB.
MAX_Q = 10**6

# Largest amplitude-kernel table, in bytes.  For K terms on an N-point grid
# the kernel holds ~(2*K + 32)*isqrt(N) complex values (autocorr._kernel_bytes;
# for `verify`, K*isqrt(N) plus the rows of one window), and peaks at ~3x
# that while it forms them (373 MB peak RSS for 130 MB of tables on a 2-vCPU
# Xeon), so no admitted request needs much more than 400 MB.  It binds for
# wide packets, and for `verify` at large nbar (isqrt(N) grows as nbar): 37
# terms at 10^7 samples hold 5.4 MB, sigma = 10^3 (14,263 terms at
# nbar = 10^6) is admitted up to ~8x10^4 samples, and `verify` at
# sigma = 2.5 and q = 3 up to nbar ~ 7x10^4.
MAX_KERNEL_BYTES = 1 << 27

# Rows evaluated, formatted and written at a time.
CHUNK_ROWS = 1 << 14


def _chunks(count: int) -> list[tuple[int, int]]:
    """Consecutive index ranges of CHUNK_ROWS rows covering [0, count)."""
    return [(lo, min(lo + CHUNK_ROWS, count)) for lo in range(0, count, CHUNK_ROWS)]


def _csv(columns: dict):
    """CSV text of float columns, each an iterable of equal-length chunks
    (float arrays): the header, then the rows of each chunk, every field
    the bytes of '%.11e' % x."""
    # Imported here, so that commands that write no CSV neither compile it
    # nor build its tables.
    from ._sciformat import csv_rows

    yield ",".join(columns) + "\n"
    for chunk in zip(*columns.values()):
        yield from csv_rows(chunk)


def _json(scalars: dict, columns: dict):
    """json.dumps({**scalars, **columns}, indent=2) + "\n" in pieces, each
    column an iterable of chunks (arrays of finite floats) streamed in turn,
    every number the bytes of float.__repr__(x)."""
    # Imported here, so that commands that write no JSON column neither
    # compile it nor build its tables.
    from ._reprformat import json_values

    sep = "{\n"
    for key, value in scalars.items():
        yield f"{sep}  {json.dumps(key)}: {json.dumps(value)}"
        sep = ",\n"
    for key, chunks in columns.items():
        yield f"{sep}  {json.dumps(key)}: ["
        # every value comes after ",\n    "; the first one's comma goes
        first = True
        for chunk in chunks:
            for piece in json_values(chunk):
                yield piece[1:] if first else piece
                first = False
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
    if max(qs) > MAX_Q:
        parser.error(f"--q must be <= {MAX_Q}, got {max(qs)}")
    try:
        return prediction_table(spec, qs)
    except ValueError as exc:
        parser.error(str(exc))


def _check_kernel(parser: argparse.ArgumentParser, coeffs, count: int,
                  start: int = 0, stop: int | None = None) -> None:
    """Usage error when the kernel tables for coeffs over [start, stop)
    (default all) of a count-point grid would pass MAX_KERNEL_BYTES."""
    size = _kernel_bytes(coeffs.offsets.size, count, start, stop)
    if size > MAX_KERNEL_BYTES:
        parser.error(
            f"{coeffs.offsets.size} terms on a {count}-point grid need {size} bytes of "
            f"kernel tables, more than the {MAX_KERNEL_BYTES} byte budget; use smaller "
            "--sigma, --nbar or fewer samples"
        )


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
    _check_kernel(parser, coeffs, grid.count)
    a2 = _a2_chunks(coeffs, PhaseModel(args.model), spec, grid, 0, grid.count, CHUNK_ROWS)
    parts = _chunks(grid.count)
    columns = {
        "t_au": (grid.t0 + grid.dt * np.arange(lo, hi) for lo, hi in parts),
        "t_si": (to_si(grid.t0 + grid.dt * np.arange(lo, hi)) for lo, hi in parts),
        "a2": (_check_a2(values) for values in a2),
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
    _check_kernel(parser, coeffs, grid.count)
    try:
        result = angular_slice(coeffs, spec, from_si(args.t), grid, r=args.radius)
    except ValueError as exc:
        parser.error(str(exc))
    values = result.values
    parts = _chunks(values.size)
    columns = {
        "phi": (grid.phi0 + grid.dphi * np.arange(lo, hi) for lo, hi in parts),
        "re": (values.real[lo:hi] for lo, hi in parts),
        "im": (values.imag[lo:hi] for lo, hi in parts),
        # hypot is abs(complex) bitwise; numpy's abs differs in the last bit
        "abs": (np.hypot(values.real[lo:hi], values.imag[lo:hi]) for lo, hi in parts),
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
    # The grid runs from t = 0 to the last window; only the windows are
    # evaluated, each bitwise as a run over the whole grid would give it.
    t_end = max(p.time_center for p in preds) + scales.t_rev
    dt = scales.t_cl / SAMPLES_PER_CLASSICAL_PERIOD
    count = int(math.ceil(t_end / dt)) + 2
    if count > MAX_GRID_INDEX:
        parser.error(
            f"verify would index {count} samples to reach t_sr/{preds[-1].q}, more than "
            f"{MAX_GRID_INDEX}; use larger --q or smaller --nbar"
        )
    grid = TimeGrid(t0=0.0, dt=dt, count=count)
    coeffs = gaussian_packet(spec)
    ranges = []  # per prediction, the index range [start, stop) of its window
    for pred in preds:
        span = _search_window(pred, grid.t0, grid.dt, grid.count)
        if span is None:
            ranges.append(None)
            continue
        first, last = _window_indices(grid.t0, grid.dt, grid.count, *span)
        if last + 1 - first > MAX_SAMPLES:
            parser.error(
                f"verify would hold {last + 1 - first} samples in the window at "
                f"t_sr/{pred.q}, more than the {MAX_SAMPLES} sample budget; use "
                "smaller --nbar"
            )
        _check_kernel(parser, coeffs, grid.count, first, last + 1)
        ranges.append((first, last + 1))
    model = PhaseModel(args.model)
    entries = []
    for pred, window_range in zip(preds, ranges):
        window = None
        if window_range is not None:
            start, stop = window_range
            values = next(_a2_chunks(coeffs, model, spec, grid, start, stop, stop - start))
            window = Signal(t0=grid.t0 + grid.dt * start, dt=grid.dt, values=values)
        entries.append(_judge(pred, window, args.threshold, args.tolerance))
    judged = [e.status for e in entries if e.status != "not evaluated"]
    all_pass = bool(judged) and all(status == "pass" for status in judged)
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


def run() -> None:
    """Process entry (`rydlab`, `python -m rydlab.cli`): freeze the heap
    built by the imports, so the collector never walks it again, not even at
    exit, then exit with main()'s code.  main() itself freezes nothing, so
    calling it in-process leaves the caller's collector as it was."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
