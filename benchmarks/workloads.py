"""The four workloads: fixed command lists, their item counts and output checks.

Every workload is a closed loop: one client runs its commands one at a time,
each in its own child process.  The seed picks the command order of each
pass, the spot samples the oracles check, and small shifts of --tmin, --t
and the scan window start.  Sizes never depend on the seed, so neither does
the cost.

Every command takes about 1.5 s or less at the host's full speed, so the
host-speed probes the launcher takes right before and after it describe the
host it ran on (see run.py).  Longer cases are therefore split into commands
over parts of their work.

Why these four:

* verify         the README's reproduction path; the |A|^2 kernel dominates.
                 Varies nbar (samples grow as nbar^2), sigma (terms) and the
                 phase model, with order2 as a negative control (exit 1).
* dump           write-heavy: per-row formatting and whole-list JSON in the
                 CLI, peak RSS, and the circular slice.
* predict-table  the O(l^2) weight loop for every q = 3..150; never touches
                 the kernel, so it is the control for kernel work.
* peaks-scan     a long scan where find_peaks' candidate-by-kept selection
                 shows; verify's narrow windows hide it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

NAMES = ("verify", "dump", "predict-table", "peaks-scan")
SIZES = ("full", "tiny")

FIVE_Q = (36, 18, 12, 9, 6)
THREE_Q = (36, 18, 12)  # nbar = 640: q = 9 and 6 would take the window to 6.9e5 samples
PREDICT_COMMANDS = 4  # the q list is dealt out over this many predict commands
CSV_COMMANDS = 4  # the dump CSV window is cut into this many autocorr commands
DEFAULT_VERIFY_Q = (12, 6)
SAMPLES_PER_PERIOD = 20
SPOTS_PER_SIGNAL = 8
SHIFT_S = 20e-9  # largest seeded shift of a start time, seconds


@dataclass
class Command:
    """One child process: `python -m rydlab.cli ARGS` or the peak-scan script."""

    label: str
    target: str  # "cli" or "peaks"
    args: list[str]
    expect: int
    check: Callable[[], list[str]]  # reads the outputs; returns errors
    spots: list[int] = field(default_factory=list)  # |A|^2 samples to trace


@dataclass
class Workload:
    name: str
    commands: list[Command]
    items: int
    item: str
    inputs: dict
    largest: int  # most samples, points or weights one command holds at once


def _flags(**kwargs) -> list[str]:
    out = []
    for key, value in kwargs.items():
        for v in value if isinstance(value, (list, tuple)) else [value]:
            out.append(f"--{key}={v}")
    return out


def _spots(rng: random.Random, count: int) -> list[int]:
    picks = rng.sample(range(1, count - 1), min(SPOTS_PER_SIGNAL, count - 2))
    return sorted({0, count - 1, *picks})


def a2_errors(where, nbar, sigma, model, t0, dt, values: dict[int, float]) -> list[str]:
    tol = oracles.a2_tolerance(nbar, sigma)
    errors = []
    for i, v in values.items():
        want = oracles.a2_exact(nbar, sigma, model, t0, dt, i)
        if not abs(v - want) <= tol:
            errors.append(f"{where}: |A|^2[{i}] = {v!r}, oracle {want!r}, tol {tol:.1e}")
    return errors


def _verify_samples(nbar: float, qs) -> int:
    """|A|^2 samples covering [0, t_sr/q_min + t_rev] at 20 per Kepler period."""
    t_cl = oracles.kepler_period(nbar)
    t_rev = 2.0 * nbar / 3.0 * t_cl
    t_end = 0.75 * nbar * t_rev / min(qs) + t_rev
    return int(math.ceil(t_end / (t_cl / SAMPLES_PER_PERIOD))) + 2


def verify(rng, out: Path, size: str) -> Workload:
    if size == "tiny":
        cases = [(48, 1.5, (), "exact", 0), (48, 1.5, (), "order1", 1)]
    else:
        cases = [
            (48, 1.5, (), "exact", 0),
            (320, 2.5, FIVE_Q, "exact", 0),
            (320, 2.5, FIVE_Q, "order3", 0),
            (320, 2.5, FIVE_Q, "order2", 1),  # negative control
            (640, 5.0, THREE_Q, "exact", 0),
        ]
    sizes = [_verify_samples(case[0], case[2] or DEFAULT_VERIFY_Q) for case in cases]
    commands = []
    for n, ((nbar, sigma, qs, model, expect), samples) in enumerate(zip(cases, sizes)):
        path = out / f"verify{n}.json"
        verdict = "pass" if expect == 0 else "fail"

        def check(path=path, verdict=verdict):
            record = json.loads(path.read_text())
            if record["result"] != verdict:
                return [f"{path.name}: result {record['result']}, expected {verdict}"]
            return []

        commands.append(Command(
            label=f"verify nbar={nbar} sigma={sigma} model={model}",
            target="cli",
            args=["verify"] + _flags(nbar=nbar, sigma=sigma, q=list(qs), model=model,
                                     out=str(path)),
            expect=expect, check=check, spots=_spots(rng, samples),
        ))
    return Workload("verify", commands, sum(sizes), "|A|^2 samples evaluated",
                    {"cases": cases}, max(sizes))


def _csv_rows(path: Path, wanted: list[int]) -> tuple[list[str], int, dict[int, list[str]]]:
    """Header, data row count, and the wanted data rows of a CSV file."""
    lines = path.read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    rows = {i: lines[i + 1].decode().split(",") for i in wanted if i + 1 < len(lines)}
    return lines[0].decode().split(","), len(lines) - 1, rows


def dump(rng, out: Path, size: str) -> Workload:
    nbar, sigma = 320, 2.5
    n_csv, n_json, n_slice = (2000, 500, 500) if size == "tiny" else (10**6, 2 * 10**5, 2 * 10**5)
    tmin = rng.uniform(0.0, SHIFT_S)
    tmax = tmin + 45e-6
    t_slice = 42.48e-6 + rng.uniform(0.0, SHIFT_S)
    # the CSV case: CSV_COMMANDS commands of n_part samples over consecutive parts
    n_part = n_csv // CSV_COMMANDS
    edges = [tmin + (tmax - tmin) * k / CSV_COMMANDS for k in range(CSV_COMMANDS + 1)]
    parts = [(edges[k], edges[k + 1], out / f"dump{k}.csv") for k in range(CSV_COMMANDS)]
    json_path, slice_path = out / "dump.json", out / "slice.csv"
    json_spots, slice_spots = (_spots(rng, n) for n in (n_json, n_slice))
    atom = _flags(nbar=nbar, sigma=sigma)

    def csv_command(lo: float, hi: float, path: Path) -> Command:
        spots = _spots(rng, n_part)

        def check():
            t0, dt = oracles.grid_from_si(lo, hi, n_part)
            header, count, rows = _csv_rows(path, spots)
            errors = []
            if header != ["t_au", "t_si", "a2"] or count != n_part:
                return [f"{path.name}: header {header}, {count} rows, expected {n_part}"]
            for i, (t_au, _, _) in rows.items():
                if abs(float(t_au) - (t0 + dt * i)) > 1e-10 * abs(t0 + dt * i) + 1e-300:
                    errors.append(f"{path.name}: t_au[{i}] = {t_au}")
            values = {i: float(row[2]) for i, row in rows.items()}
            return errors + a2_errors(path.name, nbar, sigma, "exact", t0, dt, values)

        return Command(f"autocorr csv {path.stem}", "cli",
                       ["autocorr"] + atom + _flags(tmin=lo, tmax=hi, samples=n_part,
                                                    format="csv", out=str(path)),
                       0, check, spots)

    def check_json():
        t0, dt = oracles.grid_from_si(tmin, tmax, n_json)
        record = json.loads(json_path.read_text())
        if sorted(record) != ["a2", "t_au", "t_si"] or len(record["a2"]) != n_json:
            return [f"dump.json: keys {sorted(record)}, expected {n_json} samples"]
        values = {i: record["a2"][i] for i in json_spots}
        return a2_errors("dump.json", nbar, sigma, "exact", t0, dt, values)

    def check_slice():
        t_au = t_slice / oracles.ATOMIC_UNIT_OF_TIME
        header, count, rows = _csv_rows(slice_path, slice_spots)
        if header != ["phi", "re", "im", "abs"] or count != n_slice:
            return [f"slice.csv: header {header}, {count} rows, expected {n_slice}"]
        tol = oracles.slice_tolerance(nbar, sigma, t_au)
        errors = []
        for i, row in rows.items():
            phi, re, im, mag = map(float, row)
            want = oracles.slice_exact(nbar, sigma, t_au, -math.pi + i * 2.0 * math.pi / n_slice)
            if not (abs(complex(re, im) - want) <= tol and abs(mag - abs(complex(re, im))) <= tol):
                errors.append(f"slice.csv: Psi[{i}] = {re}+{im}j, oracle {want}, tol {tol:.1e}")
        return errors

    commands = [csv_command(*part) for part in parts] + [
        Command("autocorr json", "cli",
                ["autocorr"] + atom + _flags(tmin=tmin, tmax=tmax, samples=n_json,
                                             format="json", out=str(json_path)),
                0, check_json, json_spots),
        Command("slice csv", "cli",
                ["slice"] + atom + _flags(t=t_slice, points=n_slice, format="csv",
                                          out=str(slice_path)),
                0, check_slice),
    ]
    return Workload("dump", commands, n_csv + n_json + n_slice, "rows written",
                    {"tmin": tmin, "tmax": tmax, "t_slice": t_slice,
                     "samples": [n_part] * CSV_COMMANDS + [n_json], "points": n_slice},
                    max(n_part, n_json))


def predict_table(rng, out: Path, size: str) -> Workload:
    nbar, sigma = 320, 2.5
    qs = list(range(3, 31 if size == "tiny" else 151, 3))
    checked = {6, max(qs), *rng.sample(qs, 2)}
    commands = []
    for k in range(PREDICT_COMMANDS):
        # every PREDICT_COMMANDS-th q, so the commands cost about the same
        group = sorted(qs)[k::PREDICT_COMMANDS]
        rng.shuffle(group)  # prediction_table sorts by time, so flag order is free
        path = out / f"predict{k}.json"

        def check(group=group, path=path):
            preds = json.loads(path.read_text())["predictions"]
            errors = []
            if sorted(p["q"] for p in preds) != sorted(group):
                return [f"{path.name}: q {[p['q'] for p in preds]}"]
            if [p["q"] for p in preds] != sorted(group, reverse=True):
                errors.append(f"{path.name}: predictions not in time order")
            for p in preds:
                b = [complex(re, im) for re, im in p["b"]]
                norm = math.fsum(abs(v) ** 2 for v in b)
                if abs(norm - 1.0) > oracles.WEIGHT_TOL * len(b):
                    errors.append(f"q={p['q']}: sum |b_s|^2 = {norm!r}")
                if p["q"] == 6 and p["kind"] != "full":
                    errors.append(f"q=6: kind {p['kind']}, expected full")
                if p["q"] in checked:
                    errors += weight_errors(nbar, p["q"], b)
            return errors

        commands.append(Command(
            f"predict {k}", "cli",
            ["predict"] + _flags(nbar=nbar, sigma=sigma, q=group, out=str(path)), 0, check))
    items = sum(oracles.integer_constants(nbar, q)[0] ** 2 for q in qs)
    return Workload("predict-table", commands, items, "weight terms (sum of l^2)",
                    {"q": qs, "commands": PREDICT_COMMANDS, "checked_q": sorted(checked)},
                    max(qs))


def weight_errors(nbar: int, q: int, b: list[complex]) -> list[str]:
    want = oracles.weights_exact(nbar, q)
    if len(b) != len(want):
        return [f"q={q}: {len(b)} weights, expected l = {len(want)}"]
    err = max(abs(x - y) for x, y in zip(b, want))
    return [f"q={q}: max |b_s - oracle| = {err:.1e}"] if err > oracles.WEIGHT_TOL else []


def peaks_scan(rng, out: Path, size: str) -> Workload:
    nbar, sigma = 320, 2.5
    span = 1.5e-6 if size == "tiny" else 9e-6
    t_cl = oracles.kepler_period(nbar)
    # Start up to 7 Kepler periods before t = 0, on the same grid phase:
    # |A|^2 is even in t, so the window maximum stays |A(0)|^2 = 1 and the
    # kept-peak count, which sets find_peaks' cost, barely moves.
    t0 = -rng.randrange(8) * t_cl * oracles.ATOMIC_UNIT_OF_TIME
    dt = t_cl / SAMPLES_PER_PERIOD
    count = int(math.ceil(span / oracles.ATOMIC_UNIT_OF_TIME / dt))
    spots = _spots(rng, count)
    path = out / "peaks.json"

    def check():
        r = json.loads(path.read_text())
        t0_au = t0 / oracles.ATOMIC_UNIT_OF_TIME
        if r["count"] != count or not (math.isclose(r["dt"], dt, rel_tol=1e-12)
                                       and math.isclose(r["t0"], t0_au, abs_tol=1e-9 * dt)):
            return [f"peaks.json: grid {r['t0']} + {r['dt']} * {r['count']}, "
                    f"expected {t0_au} + {dt} * {count}"]
        errors = oracles.peak_train_errors(
            r["peak_times"], r["peak_heights"], r["threshold"] * r["max"],
            r["separation"], dt, t_cl)
        values = {int(i): v for i, v in r["spots"].items()}
        return errors + a2_errors("peaks.json", nbar, sigma, "exact", t0_au, dt, values)

    command = Command("peaks", "peaks",
                      _flags(nbar=nbar, sigma=sigma, t0=t0, span=span, out=str(path))
                      + ["--spots", ",".join(map(str, spots))],
                      0, check, spots)
    return Workload("peaks-scan", [command], count, "samples scanned",
                    {"t0": t0, "span": span, "samples": count}, count)


BY_NAME = {"verify": verify, "dump": dump, "predict-table": predict_table,
            "peaks-scan": peaks_scan}


def build(name: str, seed: int, out: Path, size: str = "full") -> Workload:
    return BY_NAME[name](random.Random(f"{name}:{seed}"), out, size)
