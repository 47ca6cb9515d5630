"""Traced child: wrap rydlab's public functions, run one command, dump spans.

    python benchmarks/tracer.py --record spans.json --spots 0,9,77 \
        cli verify --nbar 48 --sigma 1.5
    python benchmarks/tracer.py --record spans.json peaks --nbar 320 ...

Every public function of a rydlab module is replaced, in every rydlab
namespace that holds it, by a wrapper that records a span (name, layer,
start, end, parent).  That is where callers look functions up, so calls
between modules are caught.  Spectrum helpers run once per output row, so
they are tallied (count and time, charged to the enclosing span) instead of
stored as spans.  Spans stay in memory; the record is written at exit,
together with the sizes each layer worked on, which are read from the
arguments and results kept by the wrappers once the command has finished.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

LAYERS = ("cli", "spectrum", "packet", "autocorr", "superrevival", "circular", "analysis")
TALLIED = ("spectrum",)


def layer_of(fn) -> str | None:
    """The layer a rydlab function belongs to: its module's name.  _ddmath is
    reached only through its module object, so its time stays in autocorr."""
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if len(parts) == 2 and parts[0] == "rydlab" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """In-memory spans and tallies of one child process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, covered]
        self.stack: list[int] = []
        self.tallies: dict[str, list] = {}  # name -> [layer, calls, seconds]
        self.calls: list[tuple] = []  # (span index, args, kwargs, result)
        self._in_tally = False

    def span(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            record = [name, layer, 0.0, 0.0, parent, 0.0]
            self.spans.append(record)
            self.stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += record[3] - record[2]
            self.calls.append((index, args, kwargs, result))
            return result

        return wrapper

    def tally(self, fn, layer: str):
        entry = self.tallies.setdefault(f"{layer}.{fn.__name__}", [layer, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry[1] += 1
            if self._in_tally:
                return fn(*args, **kwargs)
            self._in_tally = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_tally = False
                entry[2] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][5] += elapsed

        return wrapper

    def install(self, modules) -> None:
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                layer = layer_of(fn)
                if attr.startswith("_") or not inspect.isfunction(fn) or layer is None:
                    continue
                if id(fn) not in wrapped:
                    make = self.tally if layer in TALLIED else self.span
                    wrapped[id(fn)] = make(fn, layer)
                setattr(module, attr, wrapped[id(fn)])


def _arg(call, position: int, name: str):
    _, args, kwargs, _ = call
    return args[position] if len(args) > position else kwargs[name]


def _candidates(values: np.ndarray, threshold: float) -> int:
    """Local maxima at or above threshold * max, as find_peaks defines them."""
    if values.size < 3 or float(values.max()) <= 0.0:
        return 0
    mid = values[1:-1]
    is_max = (mid > values[:-2]) & (mid >= values[2:]) & (mid >= threshold * float(values.max()))
    return int(np.count_nonzero(is_max))


def summarize(tracer: Tracer, spots: list[int]) -> dict:
    """Sizes each traced call worked on, read after the command finished."""
    sizes = []
    for call in tracer.calls:
        index, args, kwargs, result = call
        name = tracer.spans[index][0]
        item = {"span": index}
        if name == "cli.main":
            item["command"] = _arg(call, 0, "argv")[0]
        elif name == "autocorr.autocorrelation":
            coeffs, spec = _arg(call, 0, "coeffs"), _arg(call, 2, "spec")
            values = result.values
            item.update(
                terms=int(coeffs.offsets.size), samples=int(values.size),
                nbar=spec.nbar, sigma=spec.sigma, model=_arg(call, 1, "model").value,
                t0=result.t0, dt=result.dt,
                spots={str(i): float(values[i]) for i in spots if i < values.size},
            )
        elif name == "analysis.find_peaks":
            signal = _arg(call, 0, "signal")
            item.update(
                samples=int(signal.values.size), kept=len(result),
                candidates=_candidates(signal.values, _arg(call, 1, "threshold")),
            )
        elif name == "superrevival.weights":
            item.update(
                nbar=int(_arg(call, 0, "nbar")), q=result.q, l=result.l,
                b=[[float(v.real), float(v.imag)] for v in result.b],
            )
        elif name == "packet.gaussian_packet":
            spec = _arg(call, 0, "spec")
            item.update(nbar=spec.nbar, sigma=spec.sigma,
                        offsets=[int(result.offsets[0]), int(result.offsets[-1])])
        elif name == "circular.angular_slice":
            item.update(terms=int(_arg(call, 0, "coeffs").offsets.size),
                        points=int(result.values.size))
        else:
            continue
        sizes.append(item)
    return {"spans": tracer.spans, "tallies": tracer.tallies, "sizes": sizes}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="tracer")
    parser.add_argument("--record", required=True)
    parser.add_argument("--spots", default="")
    parser.add_argument("target", choices=["cli", "peaks"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import peaks_scan
    import rydlab.cli  # binds the package, which holds every layer module

    tracer = Tracer()
    tracer.install([rydlab, *(getattr(rydlab, name) for name in LAYERS)])
    try:
        if args.target == "cli":
            code = rydlab.cli.main(args.rest)
        else:
            code = peaks_scan.run(args.rest)
    finally:
        spots = [int(i) for i in args.spots.split(",") if i]
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(summarize(tracer, spots), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
