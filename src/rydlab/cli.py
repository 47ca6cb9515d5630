"""Command-line interface: predict, autocorr, slice, verify.

Times cross the CLI boundary in SI seconds; computation runs in atomic
units and data files carry both.  This module lays out the `predict` and
`verify` records (_prediction_record, _entry_record), so the library types
hold atomic units only.  Every command writes through one streaming writer,
and `autocorr` and `slice` through one table writer
(_table) that asks each column, a function of a row range, for the
CHUNK_ROWS-row ranges of _chunks, once each and in order: `autocorr`'s
|A|^2 is its kernel's evaluate(lo, hi), and `slice`'s Psi(phi) the
evaluate(lo, hi) of the ring kernel its AngularSlice holds, so neither
command holds its whole output; `predict` streams each weight list b in
the same blocks.  The formatters format exactly the block they get, each
written before the next is formed, so memory does not grow with the size
of the text.  json.dumps lays out every JSON document (_json); only the
items of its arrays are streamed into that layout.  CSV fields are the
bytes of '%.11e' % x, formatted in numpy (rydlab._sciformat), and so are
the numbers of the `autocorr` and `slice` JSON arrays, the bytes of
float.__repr__(x) (rydlab._reprformat); each module is imported by the
writer of its format.  `predict` calls
float.__repr__ itself on its b, a tuple of complex at most q long: loading
the formatter there would add numpy and its import time.  Identical flags
produce byte-identical output, whatever the chunk size.  `verify` forms each q's
time and periodicity only (rydlab.superrevival.timing_table), no weights,
so it runs no FFT and loads no numpy.fft.  It evaluates only the windows
t_sr/q +- t_rev it searches, each by its own kernel on its own grid, freed
before the window is judged, so its entries are bitwise those of
rydlab.verify on autocorrelation over each window's grid (analysis._verify).
A process imports only the layers its command runs: this module imports
the argparse stack only (argparse, gc, math, os, re, sys), each function
imports the modules it uses, json and rydlab.spectrum included, and the
parser builds the flags of the command being run only.  So `predict` loads
spectrum and superrevival, and no numpy unless some q has l past
superrevival._DIRECT_MAX_L (its weights are then one FFT), and no inspect.
No command loads dataclasses (the records derive from spectrum._Record),
and `rydlab --help` loads no rydlab layer, no json and no numpy.
The process entry (`rydlab`, `python -m rydlab.cli`) is run(): it freezes
the heap (gc.freeze) after the command, just before exit, so interpreter
teardown does not walk what the command and its imports built; main()
called in-process freezes nothing.
Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure (also a `verify` that evaluates no prediction), 2
usage error (also an --out that cannot be opened).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys

# typing.TYPE_CHECKING, which type checkers recognise by its name: where site
# has not loaded typing (python -S), importing it adds ~8 ms to
# `rydlab --help` on a 2-vCPU Xeon host.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    from .spectrum import AtomSpec

# q values checked by `verify` when none are given: the pair claimed for
# packets all the way down to the experimentally accessible nbar ~ 48.
DEFAULT_VERIFY_Q = (12, 6)

# Grid density: 20 samples per classical period resolves the fastest
# oscillation present for the |k| range of any sane packet.
SAMPLES_PER_CLASSICAL_PERIOD = 20

# Largest size a command evaluates: |A|^2 samples and slice points.
# `autocorr` and `slice` stream their text block by block from the kernel,
# so this bounds their run time, but `verify` holds one window's samples
# and its peak search (~27*nbar samples at 20 per Kepler period, whatever
# the grid); larger sizes are usage errors rather than a MemoryError
# halfway through.
MAX_SAMPLES = 10**7

# Largest --q.  `predict` forms l <= q weights per q, and their inverse FFT
# peaks at ~176 bytes per weight when l has a large prime factor (measured
# at l = 999,993 = 3 x 333,331: 197 MB, with b then held as a tuple of
# complex at ~40 bytes per weight), so no admitted q needs much more than
# 200 MB there.  `verify` forms each q's time and periodicity only, at
# any q; it keeps the bound as an input check.
MAX_Q = 10**6

# Largest |time| a command takes, in seconds: the grid ends of `autocorr`
# and the time of `slice`.  The kernel splits every time in atomic units by
# the Veltkamp factor 2**27 + 1 (_ddmath.two_prod), which overflows past
# ~1.3e300 a.u. (3.2e283 s).  This check runs before the layers' own limits,
# the precision floor and the kernel budget (rydlab.autocorr).
MAX_SECONDS = 1e280

# A token that starts with "-" and matches this is a value, not an option.
# argparse's own pattern has no exponent, so it would read `--t -1e-9` as a
# flag without its value, although `--t=-1e-9` parses.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# Rows evaluated, formatted and written at a time, one format call per
# column (JSON) or per chunk (CSV).  On the dump's columns (2-vCPU Xeon,
# interleaved medians) a CSV field took 49/46 ns and a JSON value 218/205 ns
# at 2048/4096 rows, and both were slower at 1024 and 8192; 2048 is the
# largest block whose temporaries stay inside the kernel's: a 2x10^5-point
# slice CSV peaks 19 kB below its kernel phase (traced), 555 kB above at 4096.
CHUNK_ROWS = 1 << 11


def _chunks(count: int) -> list[tuple[int, int]]:
    """Consecutive index ranges of CHUNK_ROWS rows covering [0, count)."""
    return [(lo, min(lo + CHUNK_ROWS, count)) for lo in range(0, count, CHUNK_ROWS)]


# The list entry json.dumps writes as "\u0000", which no record value holds:
# _json streams an array's items in its place.
_ITEMS = "\0"


def _json(record: dict, arrays) -> Iterator[str]:
    """json.dumps(record, indent=2) + "\n" in pieces, where the n-th list
    [_ITEMS] in the text holds the items of arrays[n], an iterable of text
    pieces that lead every item with ",\n" and its indent."""
    import json

    *heads, tail = (json.dumps(record, indent=2) + "\n").split(json.dumps(_ITEMS))
    for head, items in zip(heads, arrays, strict=True):
        # the placeholder's line break and indent go, and the first item's comma
        yield head.rstrip()
        for n, piece in enumerate(items):
            yield piece if n else piece[1:]
    yield tail


def _table(fmt: str, count: int, columns: dict, scalars: dict) -> Iterator[str]:
    """The CSV or JSON text of count rows of float columns, each a function
    (lo, hi) -> its values at rows [lo, hi), asked for each _chunks(count)
    range once, in order.  CSV: the header, then every field the bytes of
    '%.11e' % x.  JSON: _json of scalars and one array per column, every
    number the bytes of float.__repr__(x)."""
    los, his = zip(*_chunks(count))
    blocks = [map(column, los, his) for column in columns.values()]
    # Each formatter is imported here, so that commands that write neither
    # format neither compile it nor build its tables.
    if fmt == "csv":
        from ._sciformat import csv_rows

        yield ",".join(columns) + "\n"
        yield from map(csv_rows, zip(*blocks))
    else:
        from ._reprformat import json_values

        arrays = [map(json_values, block) for block in blocks]
        yield from _json({**scalars, **dict.fromkeys(columns, [_ITEMS])}, arrays)


def _write(parser: argparse.ArgumentParser, out_path: str | None, pieces) -> None:
    """Write each text piece to out_path (stdout when None or "-") before
    the next one is formed; an out_path that cannot be opened is a usage
    error."""
    if out_path is None or out_path == "-":
        sys.stdout.writelines(pieces)
        return
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        parser.error(f"argument --out: can't open {out_path!r}: {exc.strerror}")
    with fh:
        fh.writelines(pieces)


def _usage(parser: argparse.ArgumentParser, make, *args, **kwargs):
    """make(*args, **kwargs), a layer call made before the first byte of
    output, with the ValueError it raises turned into a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _atom_spec(parser: argparse.ArgumentParser, args) -> AtomSpec:
    from .spectrum import AtomSpec

    return _usage(parser, AtomSpec, nbar=args.nbar, sigma=args.sigma, defect=args.defect)


def _per_q(parser: argparse.ArgumentParser, args, spec: AtomSpec, table) -> list:
    """table(spec, qs) of rydlab.superrevival for the --q list (default
    DEFAULT_VERIFY_Q), once every q passes MAX_Q."""
    qs = args.q if args.q else list(DEFAULT_VERIFY_Q)
    if max(qs) > MAX_Q:
        parser.error(f"--q must be <= {MAX_Q}, got {max(qs)}")
    return _usage(parser, table, spec, qs)


def _check_seconds(parser: argparse.ArgumentParser, flag: str, value: float) -> None:
    """Usage error unless the time flag is finite and within +-MAX_SECONDS."""
    if not abs(value) <= MAX_SECONDS:
        parser.error(f"{flag} must be finite and within +-{MAX_SECONDS:g} s, got {value}")


def _prediction_record(p) -> dict:
    """The JSON record of a SuperrevivalPrediction, times in seconds; its b
    is the [_ITEMS] placeholder that _predict_json streams the weights into."""
    from .spectrum import to_si

    return {"q": p.q, "l": p.l, "alpha": p.alpha, "N": p.N, "b": [_ITEMS],
            "time_center_si": to_si(p.time_center),
            "periodicity_si": to_si(p.periodicity), "kind": p.kind}


def _entry_record(e) -> dict:
    """The JSON record of a VerificationEntry, times in seconds."""
    from .spectrum import to_si

    return {"q": e.q, "predicted_si": to_si(e.predicted),
            "measured_si": None if e.measured is None else to_si(e.measured),
            "deviation": e.deviation, "peak_height": e.peak_height,
            "n_peaks": e.n_peaks, "status": e.status}


def _predict_json(head: dict, preds) -> Iterator[str]:
    """json.dumps({**head, "predictions": records}, indent=2) + "\n" in pieces,
    each record _prediction_record(p) with b, a sequence of complex, as its
    [re, im] pairs, streamed CHUNK_ROWS pairs per format call instead of
    held as nested lists."""
    pair = ",\n        [\n          %s,\n          %s\n        ]"

    def pairs(b):
        for lo, hi in _chunks(len(b)):
            parts = [x for v in b[lo:hi] for x in (v.real, v.imag)]
            yield (pair * (hi - lo)) % tuple(map(float.__repr__, parts))

    record = {**head, "predictions": [_prediction_record(p) for p in preds]}
    return _json(record, (pairs(p.b) for p in preds))


def cmd_predict(parser, args) -> int:
    from .superrevival import prediction_table

    spec = _atom_spec(parser, args)
    preds = _per_q(parser, args, spec, prediction_table)
    head = {"nbar": args.nbar, "sigma": args.sigma, "defect": args.defect}
    _write(parser, args.out, _predict_json(head, preds))
    return 0


def cmd_autocorr(parser, args) -> int:
    import numpy as np

    from .autocorr import PhaseModel, TimeGrid, _a2_kernel, _check_a2
    from .packet import gaussian_packet
    from .spectrum import from_si, to_si

    spec = _atom_spec(parser, args)
    if not 1 <= args.samples <= MAX_SAMPLES:
        parser.error(f"--samples must be in [1, {MAX_SAMPLES}], got {args.samples}")
    _check_seconds(parser, "--tmin", args.tmin)
    _check_seconds(parser, "--tmax", args.tmax)
    if args.tmax < args.tmin:
        parser.error(f"--tmax ({args.tmax}) must be >= --tmin ({args.tmin})")
    if args.samples > 1 and args.tmax == args.tmin:
        parser.error("--tmax must exceed --tmin when --samples > 1")
    t0 = from_si(args.tmin)
    if args.samples == 1:
        dt = 1.0
    else:
        dt = from_si(args.tmax - args.tmin) / (args.samples - 1)
    grid = _usage(parser, TimeGrid, t0=t0, dt=dt, count=args.samples)
    coeffs = gaussian_packet(spec)
    # the kernel is formed here, so its limits are usage errors
    kernel = _usage(parser, _a2_kernel, coeffs, PhaseModel(args.model), spec, grid)
    columns = {
        "t_au": lambda lo, hi: grid.t0 + grid.dt * np.arange(lo, hi),
        "t_si": lambda lo, hi: to_si(grid.t0 + grid.dt * np.arange(lo, hi)),
        "a2": lambda lo, hi: _check_a2(kernel.evaluate(lo, hi)),
    }
    _write(parser, args.out, _table(args.format, grid.count, columns, {}))
    return 0


def cmd_slice(parser, args) -> int:
    import functools

    import numpy as np

    from .circular import AngularGrid, angular_slice
    from .packet import gaussian_packet
    from .spectrum import from_si

    spec = _atom_spec(parser, args)
    if not 1 <= args.points <= MAX_SAMPLES:
        parser.error(f"--points must be in [1, {MAX_SAMPLES}], got {args.points}")
    _check_seconds(parser, "--t", args.t)
    grid = AngularGrid(phi0=-math.pi, dphi=2.0 * math.pi / args.points,
                       count=args.points)
    coeffs = gaussian_packet(spec)
    # the ring kernel is formed here, so its limits are usage errors
    result = _usage(parser, angular_slice, coeffs, spec, from_si(args.t), grid, r=args.radius)
    # The last block of Psi, for CSV, which asks re, im and abs for each block
    # in turn: without it a block that straddles two of the kernel's 32-row
    # products forms both again for each column (66 products instead of 14
    # at 2x10^5 points).
    psi = functools.lru_cache(maxsize=1)(result.evaluate)
    columns = {
        "phi": lambda lo, hi: grid.phi0 + grid.dphi * np.arange(lo, hi),
        "re": lambda lo, hi: psi(lo, hi).real,
        "im": lambda lo, hi: psi(lo, hi).imag,
        # hypot is abs(complex) bitwise; numpy's abs differs in the last bit
        "abs": lambda lo, hi: np.hypot(psi(lo, hi).real, psi(lo, hi).imag),
    }
    scalars = {"t_si": args.t, "r_au": result.r}
    _write(parser, args.out, _table(args.format, grid.count, columns, scalars))
    return 0


def cmd_verify(parser, args) -> int:
    from .analysis import _check_detection, _verify
    from .autocorr import PhaseModel, TimeGrid, _a2_kernel
    from .packet import gaussian_packet
    from .spectrum import timescales
    from .superrevival import timing_table

    spec = _atom_spec(parser, args)
    _usage(parser, _check_detection, args.threshold, args.tolerance)
    # the windows and their verdicts need each q's time and periodicity only
    timings = _per_q(parser, args, spec, timing_table)
    scales = timescales(spec)
    # The windows are planned on the grid from t = 0 to the last window, and
    # each is evaluated on its own grid, by a kernel freed when it returns.
    dt = scales.t_cl / SAMPLES_PER_CLASSICAL_PERIOD
    count = int(math.ceil((timings[-1].time_center + scales.t_rev) / dt)) + 2
    grid = TimeGrid(t0=0.0, dt=dt, count=count)
    coeffs, model = gaussian_packet(spec), PhaseModel(args.model)

    def samples(start, stop):
        if stop - start > MAX_SAMPLES:
            parser.error(f"verify would hold {stop - start} samples in a window t_sr/q +- "
                         f"t_rev, more than the {MAX_SAMPLES} sample budget; use smaller --nbar")
        window = TimeGrid(grid.t0 + grid.dt * start, grid.dt, stop - start)
        # the window's tables: their limits are usage errors
        return _usage(parser, _a2_kernel, coeffs, model, spec, window).evaluate(0, stop - start)

    entries = _verify(timings, grid, samples, args.threshold, args.tolerance)
    judged = [e.status for e in entries if e.status != "not evaluated"]
    all_pass = bool(judged) and all(status == "pass" for status in judged)
    record = {
        "nbar": args.nbar,
        "sigma": args.sigma,
        "defect": args.defect,
        "tolerance": args.tolerance,
        "result": "pass" if all_pass else "fail",
        "entries": [_entry_record(e) for e in entries],
    }
    _write(parser, args.out, _json(record, ()))
    return 0 if all_pass else 1


def _atom_flags(p) -> None:
    p.add_argument("--nbar", type=float, required=True,
                   help="central principal quantum number")
    p.add_argument("--sigma", type=float, required=True,
                   help="excitation distribution width (units of n)")
    p.add_argument("--defect", type=float, default=0.0,
                   help="quantum defect (default 0)")
    p.add_argument("--out", default=None,
                   help="output file (default: stdout)")


def _q_flag(p) -> None:
    p.add_argument("--q", type=int, action="append",
                   help="fraction denominator q (repeatable, multiple of 3); "
                        f"default {' '.join(map(str, DEFAULT_VERIFY_Q))}")


def _model_flag(p) -> None:
    from .autocorr import PhaseModel

    p.add_argument("--model", choices=[m.value for m in PhaseModel],
                   default="exact", help="phase model (default exact)")


def _autocorr_flags(p) -> None:
    p.add_argument("--tmin", type=float, required=True, help="start time (seconds)")
    p.add_argument("--tmax", type=float, required=True, help="end time (seconds)")
    p.add_argument("--samples", type=int, required=True, help="number of samples")
    _model_flag(p)


def _slice_flags(p) -> None:
    p.add_argument("--t", type=float, required=True, help="evaluation time (seconds)")
    p.add_argument("--points", type=int, default=4096,
                   help="azimuthal samples over [-pi, pi) (default 4096)")
    p.add_argument("--radius", type=float, default=None,
                   help="ring radius in a.u. (default: expectation radius)")


def _verify_flags(p) -> None:
    from .analysis import DEFAULT_THRESHOLD, DEFAULT_TOLERANCE

    _q_flag(p)
    _model_flag(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="relative periodicity tolerance "
                        f"(default {DEFAULT_TOLERANCE:.2f})")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="peak threshold as fraction of window max "
                        f"(default {DEFAULT_THRESHOLD:g})")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The rydlab parser with all four subcommands.  Flags are built for
    every subcommand when command is None, else for the one it names only
    (none when it names no subcommand): the autocorr and verify flags import
    their layers, and with them numpy."""
    parser = argparse.ArgumentParser(
        prog="rydlab",
        description="Long-term revival structure of Rydberg wave packets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_flags, formats, func in (
        ("predict", "superrevival prediction table (JSON)", _q_flag, ("json",), cmd_predict),
        ("autocorr", "|A(t)|^2 time series", _autocorr_flags, ("csv", "json"), cmd_autocorr),
        ("slice", "angular slice of the circular packet", _slice_flags, ("csv", "json"),
         cmd_slice),
        ("verify", "simulate, measure, and check predictions", _verify_flags, ("json",),
         cmd_verify),
    ):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        if command in (None, name):
            _atom_flags(p)
            add_flags(p)
            p.add_argument("--format", choices=formats, default=formats[0],
                           help=f"output format (default {formats[0]})")
        # each command reports its usage errors through its own parser, as
        # argparse reports the errors it finds in that command's flags
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option with a value, so its first
    # non-option argument names the subcommand.
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), ""))
    args = parser.parse_args(argv)
    try:
        code = args.func(args.parser, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`rydlab autocorr ... | head`).  Point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def run() -> None:
    """Process entry (`rydlab`, `python -m rydlab.cli`): run main(), then
    freeze the heap (gc.freeze) just before exit with main()'s code, so
    interpreter teardown does not walk the objects that the command and the
    layers it imported built.  main() itself freezes nothing, so calling it
    in-process leaves the caller's collector as it was."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
