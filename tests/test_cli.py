"""End-to-end exercises of the command-line interface."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydlab
from rydlab import cli
from rydlab import (
    AngularGrid,
    AtomSpec,
    PhaseModel,
    Signal,
    SuperrevivalPrediction,
    TimeGrid,
    angular_slice,
    autocorrelation,
    from_si,
    gaussian_packet,
    timescales,
    to_si,
)
from rydlab.autocorr import MAX_KERNEL_BYTES, _Kernel, _cycle_rates, _kernel_bytes
from rydlab.cli import MAX_Q, MAX_SAMPLES, build_parser, main

SCI_12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def test_predict_320_times(capsys):
    rc, record = run_json(
        capsys,
        ["predict", "--nbar", "320", "--sigma", "2.5",
         "--q", "36", "--q", "18", "--q", "12", "--q", "9", "--q", "6"],
    )
    assert rc == 0
    times_us = [p["time_center_si"] * 1e6 for p in record["predictions"]]
    assert times_us == pytest.approx([7.08, 14.2, 21.2, 28.3, 42.5], rel=0.01)
    kinds = [p["kind"] for p in record["predictions"]]
    assert kinds == ["fractional"] * 4 + ["full"]
    for p in record["predictions"]:
        assert len(p["b"]) == p["l"]


def test_predict_48_times(capsys):
    rc, record = run_json(
        capsys,
        ["predict", "--nbar", "48", "--sigma", "1.5", "--q", "12", "--q", "6"],
    )
    assert rc == 0
    times_ns = [p["time_center_si"] * 1e9 for p in record["predictions"]]
    assert times_ns == pytest.approx([1.61, 3.23], rel=0.01)


def test_predict_rejects_bad_q(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--nbar", "320", "--sigma", "2.5", "--q", "5"])
    assert exc.value.code == 2
    assert "multiple of 3" in capsys.readouterr().err


def test_predict_rejects_noninteger_nstar(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--nbar", "320.4", "--sigma", "2.5", "--q", "6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "predict"])
def test_tables_name_an_nstar_below_one(command, capsys):
    """n* = 1e-10 is an integer to within 1e-9, but it rounds to 0: the
    refusal names n*, not the nbar the tables round it to."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--nbar", "1", "--sigma", "1e-11", "--defect", "0.9999999999"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r"integer effective quantum number >= 1 required, got nstar = 1\.0+\d*e-10",
                     err)


def test_autocorr_single_sample(capsys):
    rc = main(["autocorr", "--nbar", "48", "--sigma", "1.5",
               "--tmin", "0", "--tmax", "0", "--samples", "1"])
    assert rc == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["t_au", "t_si", "a2"]
    assert rows.shape == (1, 3)
    assert rows[0, 0] == 0.0 and rows[0, 2] == 1.0


def test_autocorr_rejects_reversed_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["autocorr", "--nbar", "48", "--sigma", "1.5",
              "--tmin", "1e-9", "--tmax", "0", "--samples", "10"])
    assert exc.value.code == 2


def test_autocorr_csv_format_and_monotonicity(capsys):
    rc = main(["autocorr", "--nbar", "48", "--sigma", "1.5",
               "--tmin", "0", "--tmax", "1e-10", "--samples", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "t_au,t_si,a2"
    for line in lines[1:]:
        for field in line.split(","):
            assert SCI_12.match(field), field
    _, rows = parse_csv(out)
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert np.all(rows[:, 2] <= 1.0 + 1e-12)


def test_autocorr_48_peak_near_full_superrevival(capsys):
    """Over [0, 4 ns] the largest sample beyond 1 ns sits near 3.23 ns."""
    rc = main(["autocorr", "--nbar", "48", "--sigma", "1.5",
               "--tmin", "0", "--tmax", "4e-9", "--samples", "4800"])
    assert rc == 0
    _, rows = parse_csv(capsys.readouterr().out)
    late = rows[rows[:, 1] > 1e-9]
    t_max = late[np.argmax(late[:, 2]), 1]
    assert t_max == pytest.approx(3.23e-9, abs=0.1e-9)


def test_autocorr_deterministic_output(tmp_path):
    args = ["autocorr", "--nbar", "48", "--sigma", "1.5",
            "--tmin", "0", "--tmax", "2e-10", "--samples", "128"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_autocorr_json_format(capsys):
    rc, record = run_json(
        capsys,
        ["autocorr", "--nbar", "48", "--sigma", "1.5", "--tmin", "0",
         "--tmax", "1e-10", "--samples", "8", "--format", "json"],
    )
    assert rc == 0
    assert record["a2"][0] == pytest.approx(1.0, abs=1e-12)
    assert len(record["t_au"]) == 8


def test_slice_initial_packet_peaks_at_zero(capsys):
    rc = main(["slice", "--nbar", "320", "--sigma", "2.5", "--t", "0",
               "--points", "512"])
    assert rc == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["phi", "re", "im", "abs"]
    assert rows.shape == (512, 4)
    assert rows[np.argmax(rows[:, 3]), 0] == 0.0
    assert np.allclose(rows[:, 3], np.hypot(rows[:, 1], rows[:, 2]), rtol=1e-9)


def test_slice_full_superrevival_single_lobe(capsys):
    """Near t_sr/6 the packet is a single dominant lobe."""
    rc = main(["slice", "--nbar", "320", "--sigma", "2.5",
               "--t", "42.48e-6", "--points", "1024"])
    assert rc == 0
    _, rows = parse_csv(capsys.readouterr().out)
    mags = rows[:, 3]
    interior = (mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:])
    dominant = interior & (mags[1:-1] > 0.5 * mags.max())
    assert int(dominant.sum()) == 1


def test_slice_rejects_zero_points(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--nbar", "320", "--sigma", "2.5", "--t", "0",
              "--points", "0"])
    assert exc.value.code == 2


def test_verify_48_passes(capsys):
    rc, record = run_json(capsys, ["verify", "--nbar", "48", "--sigma", "1.5"])
    assert rc == 0
    assert record["result"] == "pass"
    assert [e["q"] for e in record["entries"]] == [12, 6]
    assert all(e["status"] == "pass" for e in record["entries"])
    assert all(e["deviation"] < 0.10 for e in record["entries"])


def test_verify_48_tight_tolerance_fails(capsys):
    rc, record = run_json(
        capsys,
        ["verify", "--nbar", "48", "--sigma", "1.5", "--tolerance", "0.0001"],
    )
    assert rc == 1
    assert record["result"] == "fail"
    for e in record["entries"]:
        assert e["status"] == "fail"
        assert e["deviation"] is not None


def test_verify_320_passes(capsys):
    """The large packet's default verification also closes (longer run)."""
    rc, record = run_json(capsys, ["verify", "--nbar", "320", "--sigma", "2.5"])
    assert rc == 0
    assert record["result"] == "pass"
    assert all(e["status"] == "pass" for e in record["entries"])


@pytest.mark.parametrize("model", ["exact", "order3", "order2"])
def test_verify_320_all_five_windows(model, capsys):
    """Explicit q list: every predicted window checks out under the exact
    and third-order phases.  The second-order phases miss the cubic term
    that sets t_sr, so their combs drift off the predicted windows and the
    run fails: the negative control of the README's reproduction path."""
    rc, record = run_json(
        capsys,
        ["verify", "--nbar", "320", "--sigma", "2.5", "--model", model,
         "--q", "36", "--q", "18", "--q", "12", "--q", "9", "--q", "6"],
    )
    assert [e["q"] for e in record["entries"]] == [36, 18, 12, 9, 6]
    if model == "order2":
        assert rc == 1
        assert record["result"] == "fail"
        assert [e["q"] for e in record["entries"] if e["status"] == "fail"] == [36, 18, 9]
        return
    assert rc == 0
    assert all(e["status"] == "pass" for e in record["entries"])
    assert all(e["deviation"] < 0.10 for e in record["entries"])


def test_slice_json_format(capsys):
    rc, record = run_json(
        capsys,
        ["slice", "--nbar", "48", "--sigma", "1.5", "--t", "0",
         "--points", "64", "--format", "json"],
    )
    assert rc == 0
    assert record["r_au"] == pytest.approx(0.5 * 48 * 97)
    mags = np.array(record["abs"])
    assert record["phi"][int(np.argmax(mags))] == pytest.approx(0.0, abs=1e-12)


def test_predict_with_integer_defect_matches_hydrogen(capsys):
    rc, shifted = run_json(
        capsys,
        ["predict", "--nbar", "321", "--sigma", "2.5", "--defect", "1",
         "--q", "6"],
    )
    assert rc == 0
    rc, hydrogen = run_json(
        capsys,
        ["predict", "--nbar", "320", "--sigma", "2.5", "--q", "6"],
    )
    assert rc == 0
    assert shifted["predictions"] == hydrogen["predictions"]


def test_verify_with_nothing_evaluated_fails(capsys):
    """t_sr/39 lies within t_rev of t = 0 at nbar = 48, so its window is not
    evaluated; a run that judged nothing fails, and one more judged q that
    passes makes the run pass."""
    argv = ["verify", "--nbar", "48", "--sigma", "1.5", "--q", "39"]
    rc, record = run_json(capsys, argv)
    assert rc == 1
    assert record["result"] == "fail"
    assert [e["status"] for e in record["entries"]] == ["not evaluated"]
    rc, record = run_json(capsys, [*argv, "--q", "6"])
    assert rc == 0
    assert record["result"] == "pass"
    assert [e["status"] for e in record["entries"]] == ["not evaluated", "pass"]


def test_verify_rejects_bad_detection_flags():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nbar", "48", "--sigma", "1.5", "--threshold", "1.5"])
    assert exc.value.code == 2
    # NaN fails every comparison and is not JSON; an infinite tolerance
    # would pass every evaluated entry
    for tolerance in ("-1", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--nbar", "48", "--sigma", "1.5", "--tolerance", tolerance])
        assert exc.value.code == 2


def test_missing_required_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["autocorr", "--nbar", "48", "--sigma", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--sigma", "1.5"])
    assert exc.value.code == 2


def test_oversized_grids_are_usage_errors(capsys):
    """Grids past the sample budget exit 2 before anything is allocated."""
    with pytest.raises(SystemExit) as exc:
        main(["autocorr", "--nbar", "48", "--sigma", "1.5", "--tmin", "0",
              "--tmax", "1e-6", "--samples", "1000000000000"])
    assert exc.value.code == 2
    assert str(MAX_SAMPLES) in capsys.readouterr().err
    # a window t_sr/q +- t_rev holds ~27*nbar samples: 2.7e7 at nbar = 10^6
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nbar", "1e6", "--sigma", "1.5", "--q", "6"])
    assert exc.value.code == 2
    assert str(MAX_SAMPLES) in capsys.readouterr().err
    # t_sr/6 at nbar = 10^8 is 1.7e16 grid samples from t = 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nbar", "1e8", "--sigma", "1.5", "--q", "6"])
    assert exc.value.code == 2
    assert str(cli.MAX_GRID_INDEX) in capsys.readouterr().err


def test_verify_window_budget_refusal_forms_no_kernel(monkeypatch, capsys):
    """Every covered window passes the sample budget before the tables are
    formed: a window past it is refused with no _Kernel formed."""
    formed = []
    init = rydlab.autocorr._Kernel.__init__

    def counted(kernel, *args, **kwargs):
        formed.append(kernel)
        init(kernel, *args, **kwargs)

    monkeypatch.setattr(rydlab.autocorr._Kernel, "__init__", counted)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nbar", "1e6", "--sigma", "1.5", "--q", "6"])
    assert exc.value.code == 2
    assert "sample budget" in capsys.readouterr().err
    assert formed == []


def test_verify_beyond_the_full_grid_budget(capsys):
    """t_sr/3 at nbar = 2000 is 1.3e7 grid samples from t = 0, more than
    MAX_SAMPLES, but verify evaluates only the window around it."""
    argv = ["verify", "--nbar", "2000", "--sigma", "5", "--q", "3"]
    args = build_parser().parse_args(argv)
    assert full_grid_count(args) > MAX_SAMPLES
    rc, record = run_json(capsys, argv)
    assert [e["status"] for e in record["entries"]] == [record["result"]]
    assert rc == (0 if record["result"] == "pass" else 1)
    assert record["entries"][0]["n_peaks"] >= 3


def full_grid_count(args) -> int:
    """Samples of the verify grid, [0, t_sr/q_min + t_rev] at
    SAMPLES_PER_CLASSICAL_PERIOD per Kepler period."""
    spec = AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    scales = timescales(spec)
    qs = args.q or cli.DEFAULT_VERIFY_Q
    t_end = max(p.time_center for p in rydlab.prediction_table(spec, qs)) + scales.t_rev
    return int(math.ceil(t_end / (scales.t_cl / cli.SAMPLES_PER_CLASSICAL_PERIOD))) + 2


def full_grid_verify(argv, signals: dict) -> tuple[int, bytes]:
    """Exit code and output of `verify` as it ran before it evaluated only its
    windows: |A|^2 over the whole grid, then analysis.verify on it.  Signals
    are kept in `signals` by grid, for the next q list."""
    args = build_parser().parse_args(argv)
    spec = AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    preds = rydlab.prediction_table(spec, args.q or cli.DEFAULT_VERIFY_Q)
    count = full_grid_count(args)
    if count not in signals:
        grid = TimeGrid(0.0, timescales(spec).t_cl / cli.SAMPLES_PER_CLASSICAL_PERIOD, count)
        signals[count] = autocorrelation(gaussian_packet(spec), PhaseModel(args.model),
                                         spec, grid)
    entries = rydlab.verify(preds, signals[count], threshold=args.threshold,
                            tolerance=args.tolerance)
    judged = [e.status for e in entries if e.status != "not evaluated"]
    all_pass = bool(judged) and all(status == "pass" for status in judged)
    record = {
        "nbar": args.nbar,
        "sigma": args.sigma,
        "defect": args.defect,
        "tolerance": args.tolerance,
        "result": "pass" if all_pass else "fail",
        "entries": [cli._entry_record(e) for e in entries],
    }
    return (0 if all_pass else 1), (json.dumps(record, indent=2) + "\n").encode()


def test_verification_entry_json(spec48, signal48):
    entries = rydlab.verify(rydlab.prediction_table(spec48, (6,)), signal48)
    record = cli._entry_record(entries[0])
    assert set(record) == {
        "q", "predicted_si", "measured_si", "deviation", "peak_height", "n_peaks",
        "status",
    }
    assert record["status"] == "pass"
    assert record["predicted_si"] == pytest.approx(0.269e-9, rel=0.01)


VERIFY_Q_LISTS = (["--q", "36", "--q", "18", "--q", "12", "--q", "9", "--q", "6"],
                  [], ["--q", "39", "--q", "6"])


@pytest.mark.parametrize("model", [m.value for m in PhaseModel])
@pytest.mark.parametrize("nbar", [48, 320, 321, 322, 640, 1000])
def test_verify_windows_match_the_full_grid(nbar, model, capsys):
    """Byte for byte and exit code for exit code, the windows alone give the
    verdicts of the whole grid: passes, fails, and the window of q = 39 at
    nbar = 48, which starts before t = 0 and stays "not evaluated"."""
    signals = {}
    for qs in VERIFY_Q_LISTS:
        argv = ["verify", "--nbar", str(nbar), "--sigma", "1.5" if nbar == 48 else "2.5",
                "--model", model, *qs]
        rc = main(argv)
        assert (rc, capsys.readouterr().out.encode()) == full_grid_verify(argv, signals)


def test_verify_forms_no_weights(monkeypatch, capsys):
    """`verify` judges each q from its time and periodicity alone: with
    weights() raising, the README's five-q run gives the bytes and exit code
    of |A|^2 over the whole grid judged against prediction_table."""
    argv = ["verify", "--nbar", "320", "--sigma", "2.5",
            "--q", "36", "--q", "18", "--q", "12", "--q", "9", "--q", "6"]
    want = full_grid_verify(argv, {})

    def unreachable(*args):
        raise AssertionError("verify formed weights")

    monkeypatch.setattr("rydlab.superrevival.weights", unreachable)
    rc = main(argv)
    assert (rc, capsys.readouterr().out.encode()) == want
    assert want[0] == 0


def test_verify_evaluates_only_its_windows(monkeypatch, capsys):
    """`verify` asks the kernel once per covered window, for the index range
    that Signal.window selects on the full grid, and never for the window of
    q = 39, which starts before t = 0 at nbar = 48."""
    calls = []
    evaluate = rydlab.autocorr._Kernel.evaluate

    def recorded(kernel, start, stop):
        calls.append((start, stop))
        return evaluate(kernel, start, stop)

    monkeypatch.setattr(rydlab.autocorr._Kernel, "evaluate", recorded)
    argv = ["verify", "--nbar", "48", "--sigma", "1.5", "--q", "39", "--q", "12", "--q", "6"]
    main(argv)
    capsys.readouterr()
    args = build_parser().parse_args(argv)
    spec = AtomSpec(nbar=args.nbar, sigma=args.sigma)
    dt = timescales(spec).t_cl / cli.SAMPLES_PER_CLASSICAL_PERIOD
    full = Signal(0.0, dt, np.zeros(full_grid_count(args)))
    windows = []
    for pred in rydlab.prediction_table(spec, [12, 6]):
        t_rev = pred.periodicity * pred.q / 3.0
        window = full.window(pred.time_center - t_rev, pred.time_center + t_rev)
        start = round(window.t0 / dt)
        assert window.t0 == dt * start
        windows.append((start, start + window.values.size))
    assert calls == windows


@pytest.mark.parametrize("qs, formed", [([39, 12, 6], 1), ([39], 0)], ids=["39-12-6", "39"])
def test_verify_forms_its_tables_once(qs, formed, monkeypatch, capsys):
    """One kernel serves every window of the grid: its tables are formed
    once for the two covered windows, and not at all when the only window
    (q = 39 at nbar = 48) starts before t = 0."""
    formed_kernels = []
    init = rydlab.autocorr._Kernel.__init__

    def counted(kernel, *args, **kwargs):
        formed_kernels.append(kernel)
        init(kernel, *args, **kwargs)

    monkeypatch.setattr(rydlab.autocorr._Kernel, "__init__", counted)
    argv = ["verify", "--nbar", "48", "--sigma", "1.5"]
    assert main([*argv, *(f"--q={q}" for q in qs)]) == (0 if formed else 1)
    capsys.readouterr()
    assert len(formed_kernels) == formed


def test_verify_frees_its_tables_before_the_last_window(monkeypatch, capsys):
    """The tables are held from the first window to the last and released
    before the last window's peaks are judged, and no window is held while
    the next is evaluated.  At nbar = 320 and sigma = 20 (287 terms) the
    tables take 1.7 MB and each window 68 kB, so the traced memory at each
    find_peaks call shows whether the tables are alive."""
    find_peaks = rydlab.analysis.find_peaks
    evaluate = rydlab.autocorr._Kernel.evaluate
    traced, windows, alive = [], [], []

    def peaks(window, *args):
        traced.append(tracemalloc.get_traced_memory()[0])
        windows.append(weakref.ref(window))
        return find_peaks(window, *args)

    def recorded(kernel, start, stop):
        alive.append(sum(ref() is not None for ref in windows))
        return evaluate(kernel, start, stop)

    monkeypatch.setattr(rydlab.analysis, "find_peaks", peaks)
    monkeypatch.setattr(rydlab.autocorr._Kernel, "evaluate", recorded)
    argv = ["verify", "--nbar", "320", "--sigma", "20", "--q", "36", "--q", "18", "--q", "12"]
    spec = AtomSpec(320, 20)
    tables = _kernel_bytes(gaussian_packet(spec).offsets.size, full_grid_count(
        build_parser().parse_args(argv)))
    assert tables > 20 * 68_000
    gc.collect()
    tracemalloc.start()
    try:
        main(argv)
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert alive == [0, 0, 0]
    assert len(traced) == 3
    assert min(traced[:2]) > tables > traced[2]


def traced_phases(monkeypatch, argv) -> dict:
    """The traced peaks, in bytes, of a command's kernel phase (forming and
    evaluating the amplitude kernel) and of the rest of it, the output path
    above all."""
    peaks = {"kernel": 0, "output": 0}

    def phase(method):
        def traced(*args, **kwargs):
            peaks["output"] = max(peaks["output"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            result = method(*args, **kwargs)
            peaks["kernel"] = max(peaks["kernel"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return result
        return traced

    kernel = rydlab.autocorr._Kernel
    monkeypatch.setattr(kernel, "__init__", phase(kernel.__init__))
    monkeypatch.setattr(kernel, "evaluate", phase(kernel.evaluate))
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peaks["output"] = max(peaks["output"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


# Traced bytes the output phase may peak above the kernel phase: two float64
# arrays of a 2048 x 4 block.  Measured on numpy 2.4 (output minus kernel):
# -14 kB for the slice and -326 kB for the JSON, against +889 kB and +804 kB
# when the formatters re-blocked 16384-row chunks.
OUTPUT_MARGIN = 1 << 17


@pytest.mark.parametrize("argv", [
    ["slice", "--nbar", "320", "--sigma", "2.5", "--t", "42.48e-6", "--points", "200000"],
    ["autocorr", "--nbar", "320", "--sigma", "2.5", "--tmin", "0", "--tmax", "45e-6",
     "--samples", "200000", "--format", "json"],
], ids=["slice-csv", "autocorr-json"])
def test_output_peaks_near_the_kernel(argv, monkeypatch):
    """The output path formats and writes one CHUNK_ROWS block at a time,
    so its temporaries stay near the kernel's: a 2x10^5-point slice (3.2 MB
    of Psi) and a 2x10^5-row JSON autocorr peak at most OUTPUT_MARGIN above
    their kernel phase."""
    # imported before tracing: their tables are not output temporaries
    from rydlab import _reprformat, _sciformat  # noqa: F401

    peaks = traced_phases(monkeypatch, [*argv, "--out", os.devnull])
    assert peaks["output"] <= peaks["kernel"] + OUTPUT_MARGIN, peaks


def test_slice_memory_does_not_grow_with_points():
    """A 10^6-point slice takes Psi(phi) block by block from its ring
    kernel (1.1 MB of tables), so the whole command's traced peak stays
    under 3 MB: it was 17.5 MB when the slice held Psi whole (16 MB)."""
    # imported before tracing: the formatter's tables do not grow with --points
    from rydlab import _sciformat  # noqa: F401

    gc.collect()
    tracemalloc.start()
    try:
        assert main(["slice", "--nbar", "320", "--sigma", "2.5", "--t", "42.48e-6",
                     "--points", "1000000", "--out", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, peak


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_oversized_q_is_usage_error_before_any_weight(command, monkeypatch, capsys):
    """A q past MAX_Q (l <= q weights) exits 2 with nothing written, before
    any timing or b_s is computed."""
    def unreachable(*args):
        raise AssertionError("prediction work done for an oversized q")

    for name in ("prediction_table", "timing_table", "timing", "weights"):
        monkeypatch.setattr(f"rydlab.superrevival.{name}", unreachable)
    for big in (3 * (MAX_Q // 3 + 1), 3 * (MAX_SAMPLES // 3 + 1)):
        with pytest.raises(SystemExit) as exc:
            main([command, "--nbar", "320", "--sigma", "2.5", "--q", "6", "--q", str(big)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--q must be <= {MAX_Q}" in captured.err


def test_largest_q_is_admitted(monkeypatch):
    """The largest multiple of 3 up to MAX_Q passes the check."""
    seen = []
    monkeypatch.setattr("rydlab.superrevival.prediction_table",
                        lambda spec, qs: seen.extend(qs) or [])
    largest = 3 * (MAX_Q // 3)
    assert main(["predict", "--nbar", "320", "--sigma", "2.5", "--q", str(largest),
                 "--out", os.devnull]) == 0
    assert seen == [largest]


def test_oversized_slice_is_usage_error(monkeypatch, capsys):
    """--points past the budget exits 2 before Psi(phi) is evaluated."""
    def unreachable(*args, **kwargs):
        raise AssertionError("slice evaluated for oversized --points")

    monkeypatch.setattr("rydlab.circular.angular_slice", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--nbar", "320", "--sigma", "2.5", "--t", "0",
              "--points", str(MAX_SAMPLES + 1)])
    assert exc.value.code == 2
    assert str(MAX_SAMPLES) in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
def test_bad_slice_radius_is_usage_error_before_any_output(radius, capsys):
    """A radius that is not finite and > 0 exits 2 with nothing written and
    no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["slice", "--nbar", "320", "--sigma", "2.5", "--t", "0",
                  "--points", "100", "--radius", radius])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "radius" in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_slice_is_usage_error_before_any_output(capsys):
    """At nbar = 1e200 the state amplitudes would overflow; that is a usage
    error (nbar is past MAX_NBAR), caught before the header is written."""
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--nbar", "1e200", "--sigma", "2.5", "--t", "0",
              "--points", "10", "--radius", "1e5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("nbar, points", [("1e17", "8"), ("1e16", "4")])
def test_slice_past_exact_quantum_numbers_is_usage_error(nbar, points, capsys):
    """Past nbar + max|k| = 2^53 the ring rates n_k - 1 are not exact, and
    the ring came out flat (|Psi| = 3.54021716244 at every phi at 1e17,
    1.57259282717e-04 at 1e16): exit 2 with nothing written."""
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--nbar", nbar, "--sigma", "2.5", "--t", "0", "--points", points])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below 2^53" in captured.err


def test_slice_below_exact_quantum_numbers(capsys):
    """At nbar = 1e15 the ring is computed as before: |Psi| varies over
    0.139-0.156 around the ring."""
    assert main(["slice", "--nbar", "1e15", "--sigma", "2.5", "--t", "0", "--points", "8"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    want = [0.154618411051, 0.147611246687, 0.138764098737, 0.14688031078,
            0.156304955828, 0.14688031078, 0.138764098737, 0.147611246687]
    assert np.allclose(rows[:, 3], want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("argv", [
    ["autocorr", "--tmin", "1e290", "--tmax", "1e290", "--samples", "1"],
    ["autocorr", "--tmin", "0", "--tmax", "inf", "--samples", "1"],
    ["autocorr", "--tmin", "nan", "--tmax", "0", "--samples", "1"],
    ["slice", "--t", "inf"],
    ["slice", "--t", "1e300"],
], ids=["tmin-1e290", "tmax-inf", "tmin-nan", "t-inf", "t-1e300"])
def test_time_past_the_bound_is_usage_error_before_any_output(argv, capsys):
    """A time flag that is not finite or past MAX_SECONDS exits 2 with
    nothing written and no warning: past ~3e283 s the double-double split
    of the time overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--nbar", "48", "--sigma", "1.5", *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    *usage, error = captured.err.splitlines()
    assert usage[0].startswith(f"usage: rydlab {argv[0]} ")
    assert all(line.startswith(" ") for line in usage[1:])
    assert error.startswith(f"rydlab {argv[0]}: error: --t")
    assert f"must be finite and within +-{cli.MAX_SECONDS:g} s" in error


@pytest.mark.parametrize("argv", [
    ["autocorr", "--tmin", "1e200", "--tmax", "1e200", "--samples", "1"],
    ["autocorr", "--tmin", "-1e200", "--tmax", "0", "--samples", "2"],
    ["slice", "--t", "1e200", "--points", "8"],
], ids=["autocorr", "autocorr-negative", "slice"])
def test_time_past_the_precision_floor_is_usage_error(argv, capsys):
    """At 1e200 s the phases of nbar = 48 pass 10^211 cycles, where the
    double-double phase has no fractional bits left (autocorr printed
    a2 = 1.0): exit 2 with nothing written."""
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *ATOM_48, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "past the 2^53-cycle precision floor" in captured.err.splitlines()[-1]


def test_single_sample_autocorr_judges_tmin_only(capsys):
    """At --samples 1 the grid is [--tmin]: a --tmax past the precision
    floor is never evaluated, so it is no usage error."""
    argv = ["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "1e200", "--samples", "1"]
    assert main(argv) == 0
    want = "t_au,t_si,a2\n0.00000000000e+00,0.00000000000e+00,1.00000000000e+00\n"
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("model", list(PhaseModel), ids=lambda m: m.value)
def test_time_at_the_precision_floor(model, capsys):
    """A time whose largest phase max_k |nu_k t| sits just below 2^53 cycles
    still gives |A|^2 to ~1e-14 of a 40-digit sum; just above, `autocorr`
    under that model exits 2, and so does `slice` at the exact rates."""
    from test_autocorr import mp_a2

    spec = AtomSpec(48, 1.5)
    coeffs = gaussian_packet(spec)
    top = float(np.max(np.abs(_cycle_rates(model, spec.nstar, coeffs.offsets)[0])))
    inside, outside = (to_si(2.0**53 * f / top) for f in (1 - 1e-6, 1 + 1e-6))
    argv = ["autocorr", *ATOM_48, "--model", model.value, "--samples", "1", "--format", "json"]
    rc, record = run_json(capsys, [*argv, "--tmin", str(inside), "--tmax", str(inside)])
    assert rc == 0
    want = mp_a2(coeffs, model, spec.nstar, from_si(inside), 1.0, 0)
    assert abs(record["a2"][0] - want) < 1e-13
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tmin", str(outside), "--tmax", str(outside)])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    if model is PhaseModel.EXACT:
        slice_argv = ["slice", *ATOM_48, "--points", "8", "--t"]
        assert main([*slice_argv, str(inside)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*slice_argv, str(outside)])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("base, flag, value", [
    (["slice", "--points", "8"], "--t", "-1e-9"),
    (["slice", "--points", "8", "--format", "json"], "--t", "-2.5E-10"),
    (["autocorr", "--tmax", "1e-9", "--samples", "8"], "--tmin", "-1e-9"),
    (["autocorr", "--tmin=-3e-9", "--samples", "8"], "--tmax", "-.5e-9"),
    (["autocorr", "--tmin=-3e-9", "--samples", "8"], "--tmax", "-1.e-9"),
])
def test_negative_time_in_scientific_notation_is_a_value(base, flag, value, capsys):
    """`--t -1e-9` parses as `--t=-1e-9`: argparse reads a token that starts
    with "-" as an option unless it looks like a negative number, and its
    own pattern for one has no exponent."""
    argv = [base[0], "--nbar", "48", "--sigma", "1.5", *base[1:]]
    assert main([*argv, f"{flag}={value}"]) == 0
    want = capsys.readouterr()
    assert want.out and not want.err
    assert main([*argv, flag, value]) == 0
    assert capsys.readouterr() == want


HUGE_NBAR_COMMANDS = {
    "predict": ["predict", "--q", "6"],
    "verify": ["verify", "--q", "6"],
    "autocorr": ["autocorr", "--tmin", "0", "--tmax", "1e-9", "--samples", "3"],
    "slice": ["slice", "--t", "0", "--points", "10"],
}


@pytest.mark.parametrize("nbar", ["1e62", "1e200", "1e308"])
@pytest.mark.parametrize("argv", HUGE_NBAR_COMMANDS.values(), ids=HUGE_NBAR_COMMANDS.keys())
def test_huge_nbar_is_usage_error_before_any_output(argv, nbar, capsys):
    """An nbar whose time scales or phase rates would overflow exits 2 with
    nothing written and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--nbar", nbar, "--sigma", "2.5", *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nbar must be <=" in captured.err


@pytest.mark.parametrize("nbar, sigma", [("1e12", "1e10"), ("1e6", "1001")])
@pytest.mark.parametrize("argv", HUGE_NBAR_COMMANDS.values(), ids=HUGE_NBAR_COMMANDS.keys())
def test_huge_sigma_is_usage_error_before_any_output(argv, nbar, sigma, monkeypatch, capsys):
    """A sigma past MAX_SIGMA exits 2 with nothing written, before the
    coefficient window is searched (24*sigma offsets)."""
    def unreachable(*args, **kwargs):
        raise AssertionError("coefficient window built for an oversized sigma")

    monkeypatch.setattr("rydlab.packet.gaussian_packet", unreachable)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--nbar", nbar, "--sigma", sigma, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma must be <=" in captured.err


# Admitted sizes (sigma = 10^3, up to the 10^7 sample budget) whose kernel
# tables would pass MAX_KERNEL_BYTES.
OVERSIZED_KERNEL_COMMANDS = {
    "autocorr": ["autocorr", "--nbar", "1e6", "--sigma", "1000", "--tmin", "0",
                 "--tmax", "1e-9", "--samples", str(MAX_SAMPLES)],
    "slice": ["slice", "--nbar", "1e6", "--sigma", "1000", "--t", "0",
              "--points", str(MAX_SAMPLES)],
    # 12,034 terms on a 9.0e5-sample grid: 948 columns of V
    "verify": ["verify", "--nbar", "5000", "--sigma", "1000", "--q", "300"],
}


@pytest.mark.parametrize("argv", OVERSIZED_KERNEL_COMMANDS.values(),
                         ids=OVERSIZED_KERNEL_COMMANDS.keys())
def test_oversized_kernel_is_usage_error_before_the_kernel(argv, capsys):
    """Terms x grid past the kernel budget exits 2 with nothing written,
    before the kernel allocates a table: the traced peak stays below an
    eighth of the budget (the tables would take 189-729 MB)."""
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_KERNEL_BYTES // 8
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the {MAX_KERNEL_BYTES} byte budget" in captured.err


def test_kernel_budget_edge_at_sigma_1000(monkeypatch, capsys):
    """At sigma = 10^3 (14,263 terms) the kernel holds K*(B + 32) + 32*B
    complex values with B = isqrt(samples): B = 554 fits the budget and
    B = 555 does not, so at 555^2 - 1 = 308,024 samples the kernel passes
    its checks and goes on to form V, and one more exits 2 before any table
    is allocated."""
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    assert _kernel_bytes(14_263, 308_024) <= MAX_KERNEL_BYTES < _kernel_bytes(14_263, 308_025)
    # V's tiles are where its entries are formed; its 126 MB are never written
    monkeypatch.setattr("rydlab.autocorr._tiles", reached)
    argv = ["autocorr", "--nbar", "1e6", "--sigma", "1000", "--tmin", "0", "--tmax", "1e-9",
            "--samples"]
    with pytest.raises(Reached):
        main([*argv, "308024"])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "308025"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the {MAX_KERNEL_BYTES} byte budget" in captured.err


def test_kernel_budget_admits_narrow_packets_at_every_size():
    """37 terms (nbar = 320, sigma = 2.5) pass the kernel budget at the full
    sample budget, and sigma = 10^3 passes at a 4096-point slice."""
    for spec, count in ((AtomSpec(320, 2.5), MAX_SAMPLES), (AtomSpec(1e6, 1000), 4096)):
        coeffs = gaussian_packet(spec)
        rate = _cycle_rates(PhaseModel.EXACT, spec.nstar, coeffs.offsets)
        _Kernel(coeffs.probabilities, rate, 0.0, 1.0, count)


# The writers before output was streamed, kept verbatim as the oracle that
# the streamed output is byte-compared against.


def _fmt(x: float) -> str:
    """Decimal scientific notation, 12 significant digits."""
    return format(x, ".11e")


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


def _slice_text(args, result) -> str:
    if args.format == "csv":
        lines = ["phi,re,im,abs"]
        for phi, val in zip(result.phis, result.values):
            lines.append(
                f"{_fmt(phi)},{_fmt(val.real)},{_fmt(val.imag)},{_fmt(abs(val))}"
            )
        return "\n".join(lines) + "\n"
    else:
        record = {
            "t_si": args.t,
            "r_au": result.r,
            "phi": [float(p) for p in result.phis],
            "re": [float(v.real) for v in result.values],
            "im": [float(v.imag) for v in result.values],
            "abs": [float(abs(v)) for v in result.values],
        }
        return json.dumps(record, indent=2) + "\n"


def unstreamed_output(argv) -> bytes:
    """What the command wrote before streaming: the whole signal or slice
    evaluated at once, then formatted row by row."""
    args = build_parser().parse_args(argv)
    spec = AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    coeffs = gaussian_packet(spec)
    if args.command == "slice":
        grid = AngularGrid(-math.pi, 2.0 * math.pi / args.points, args.points)
        result = angular_slice(coeffs, spec, from_si(args.t), grid, r=args.radius)
        return _slice_text(args, result).encode()
    t0 = from_si(args.tmin)
    dt = 1.0 if args.samples == 1 else from_si(args.tmax - args.tmin) / (args.samples - 1)
    grid = TimeGrid(t0=t0, dt=dt, count=args.samples)
    signal = autocorrelation(coeffs, PhaseModel(args.model), spec, grid)
    text = _signal_csv(signal) if args.format == "csv" else _signal_json(signal)
    return text.encode()


def command_output(capsys, tmp_path, dest, argv) -> bytes:
    if dest == "stdout":
        assert main(argv) == 0
        return capsys.readouterr().out.encode()
    path = tmp_path / "out.txt"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    return path.read_bytes()


CHUNK = 7  # CHUNK_ROWS while comparing, so that small grids span many chunks

ATOM_48 = ["--nbar", "48", "--sigma", "1.5"]
GOLDEN_CASES = {
    "autocorr-single": ["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "0",
                        "--samples", "1"],
    **{
        f"autocorr-{n}": ["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "1e-10",
                          "--samples", str(n)]
        for n in (CHUNK - 1, CHUNK, CHUNK + 1)
    },
    # 3000 samples: blocks of 54, so chunks straddle the 32-block products
    "autocorr-tmin": ["autocorr", *ATOM_48, "--tmin", "2.5e-9", "--tmax", "3.5e-9",
                      "--samples", "3000"],
    "autocorr-defect": ["autocorr", "--nbar", "48", "--sigma", "1.5", "--defect", "0.3",
                        "--tmin", "1e-9", "--tmax", "2e-9", "--samples", "200"],
    **{
        f"autocorr-{m.value}": ["autocorr", "--nbar", "320", "--sigma", "2.5",
                                "--tmin", "42e-6", "--tmax", "43e-6",
                                "--samples", "500", "--model", m.value]
        for m in PhaseModel
    },
    "slice-single": ["slice", *ATOM_48, "--t", "0", "--points", "1"],
    **{
        f"slice-{n}": ["slice", *ATOM_48, "--t", "1e-9", "--points", str(n)]
        for n in (CHUNK - 1, CHUNK, CHUNK + 1)
    },
    "slice-320": ["slice", "--nbar", "320", "--sigma", "2.5", "--t", "42.48e-6",
                  "--points", "2000"],
    "slice-defect-radius": ["slice", "--nbar", "48", "--sigma", "1.5", "--defect", "0.3",
                            "--t", "2e-9", "--points", "300", "--radius", "2000"],
}


@pytest.mark.parametrize("dest", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", GOLDEN_CASES.values(), ids=GOLDEN_CASES.keys())
def test_streamed_output_matches_unstreamed_writer(argv, fmt, dest, capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_ROWS", CHUNK)
    argv = [*argv, "--format", fmt]
    assert command_output(capsys, tmp_path, dest, argv) == unstreamed_output(argv)


def percent_csv(values: np.ndarray) -> str:
    """CSV of a rows x cols array as the writer before vectorised formatting
    made it: the header, then one '%.11e' % x per field."""
    row = ",".join(["%.11e"] * values.shape[1]) + "\n"
    header = ",".join(f"c{j}" for j in range(values.shape[1])) + "\n"
    return header + (row * len(values)) % tuple(values.ravel().tolist())


def vectorised_csv(values: np.ndarray) -> str:
    """cli._table's CSV of the same array, each column sliced in CHUNK_ROWS
    row ranges."""
    columns = {f"c{j}": lambda lo, hi, column=column: column[lo:hi]
               for j, column in enumerate(values.T)}
    return "".join(cli._table("csv", len(values), columns, {}))


def assert_same_lines(got: str, want: str):
    for n, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
        assert g == w, f"line {n}"
    assert got == want


def hard_fields() -> np.ndarray:
    """Fields where the fast digits could go wrong, both signs."""
    rng = np.random.default_rng(11)
    m = rng.integers(10**11, 10**12, 300)
    k = rng.integers(-300, 300, 300)
    decades = range(-323, 309)
    values = [
        # correctly rounded powers of ten, 3-digit exponents included
        *(float(f"1e{e}") for e in decades),
        # 9.99999999999(5)e(e) rounds up into the next decade
        *(float(f"9.99999999999{tail}e{e}") for e in decades for tail in ("", "5", "4999")),
        # near-ties (m + 1/2) 10^k, and exact ties among 13- to 15-digit integers
        *(float(f"{a}5e{b - 1}") for a, b in zip(m, k)),
        *(float(10 * a + 5) for a in m), *(float(100 * a + 50) for a in m[:100]),
        *(float(1000 * a + 500) for a in m[:100]),
        # random mantissas over the whole exponent range
        *(rng.random(300) * 10.0 ** rng.integers(-308, 308, 300)),
        0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        1e-280, 1e280, 1.0, 0.5, 123456789012.5,
    ]
    values = np.array(values)
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, math.inf)])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("cols", [3, 4])
@pytest.mark.parametrize("rows", [1, 7, 8 * cli.CHUNK_ROWS + 1])
def test_csv_fields_match_percent_format_on_hard_cases(rows, cols):
    """The vectorised '%.11e' is byte for byte the % operator on near-ties,
    powers of ten, decade roll-overs, 3-digit exponents, zeros, subnormals
    and non-finite fields, at 1, 7 and 8 * CHUNK_ROWS + 1 rows (eight whole
    blocks, then a block of one row)."""
    values = hard_fields()
    size = rows * cols
    blocks = np.resize(values, -(-values.size // size) * size).reshape(-1, rows, cols)
    assert_same_lines("".join(map(vectorised_csv, blocks)), "".join(map(percent_csv, blocks)))


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_csv_exponent_estimate_may_be_a_decade_off(shift, monkeypatch):
    """The decimal exponent from log10 is corrected once, so an estimate a
    decade off either way still gives the '%.11e' bytes."""
    values = np.resize(hard_fields(), 3 * 2000).reshape(-1, 3)
    want = percent_csv(values)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    assert_same_lines(vectorised_csv(values), want)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=28),
       rows=st.sampled_from([1, 7]), cols=st.sampled_from([3, 4]))
def test_csv_fields_match_percent_format_on_any_bits(bits, rows, cols):
    """Any 64-bit pattern viewed as a float64: NaNs, infinities, signed
    zeros, subnormals and every exponent."""
    values = np.resize(np.array(bits, np.uint64).view(np.float64), rows * cols)
    values = values.reshape(rows, cols)
    assert vectorised_csv(values) == percent_csv(values)


def repr_json(values: np.ndarray) -> str:
    """A one-column _json as the writer before vectorised formatting made
    it: float.__repr__ of every value, joined."""
    return '{\n  "c": [\n    ' + ",\n    ".join(map(float.__repr__, values.tolist())) + "\n  ]\n}\n"


def vectorised_json(values: np.ndarray) -> str:
    """cli._table's JSON of the same values, sliced in CHUNK_ROWS row
    ranges."""
    return "".join(cli._table("json", len(values), {"c": lambda lo, hi: values[lo:hi]}, {}))


def hard_json_values() -> np.ndarray:
    """Values where the shortest digits could go wrong, both signs."""
    rng = np.random.default_rng(13)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = range(-323, 309)
    # doubles next to exact midpoints between doubles that are short
    # decimals: 2**53 + 1, 2**54 + 2, 1e23 (1e+23 is the edge of its double)
    midpoints = [2**53 + 1, 2**54 + 2, 2**63 + 2**10, 10**23, 9 * 10**22 + 2**23, 10**22 + 2**20]
    values = [
        0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308,
        *rng.integers(1, 2**52, 50) * 5e-324,  # subnormals
        *powers_of_two,
        *(float(m) for m in midpoints), *(float(m) * 0.5**k for m in midpoints for k in (60, 200)),
        # where the notation switches, and every decade, with 9.99... below it
        *(float(f"1e{e}") for e in decades),
        *(float(f"9.99999999999999{tail}e{e}") for e in decades for tail in ("", "9", "95")),
        1e15, 1e16, 1e-4, 1e-5, 123456789012345.6, 1234567890123456.8, 0.00012345678901234567,
        # ties between two candidates: y = x*10**(16 - E) a half integer,
        # with 10**(16 - E) a double (a 2**-12 grid near 1.5e12) or not
        # (y = odd*5**k/2, k >= 23), and near ties y = M*5**k/2**53 within
        # r/2**53 of a half integer, closer than the double-double y resolves
        *(1.5e12 + np.arange(600) / 4096.0),
        *(odd * 0.5 ** (k + 1) for k in range(23, 33) for odd in range(1, 33, 2)),
        *((2**52 + r) * pow(5**k, -1, 2**53) % 2**53 * 0.5 ** (53 + k)
          for k in (23, 24, 30) for r in range(-50, 51)),
        # short decimals, and random mantissas over the whole exponent range
        *(round(x, int(n)) for x, n in zip(rng.random(300), rng.integers(1, 17, 300))),
        *(rng.random(300) * 10.0 ** rng.integers(-308, 308, 300)),
        1e-280, 1e280, 1.0, 0.5, 0.1, 0.3,
    ]
    values = np.array(values)
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, math.inf)])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("size, chunk", [(1, cli.CHUNK_ROWS), (7, 5), (7, cli.CHUNK_ROWS),
                                         (cli.CHUNK_ROWS + 1, 5), (2 * cli.CHUNK_ROWS + 1, 5),
                                         (cli.CHUNK_ROWS + 1, cli.CHUNK_ROWS)])
def test_json_numbers_match_repr_on_hard_cases(size, chunk, monkeypatch):
    """The vectorised float.__repr__ is byte for byte repr on zeros,
    subnormals, powers of two, exact midpoints, notation switches, decade
    roll-overs and ties, at 1, 7, block + 1 and two blocks + 1 values per
    column, with chunks of 5 rows and of CHUNK_ROWS.  One value per column
    costs a whole block's passes, so that case takes every fifth value."""
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    values = hard_json_values()[::5 if size == 1 else 1]
    blocks = np.resize(values, -(-values.size // size) * size).reshape(-1, size)
    assert_same_lines("".join(map(vectorised_json, blocks)), "".join(map(repr_json, blocks)))


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_json_exponent_estimate_may_be_a_decade_off(shift, monkeypatch):
    """The decimal exponent from log10 is corrected once, so an estimate a
    decade off either way still gives repr's bytes."""
    values = hard_json_values()
    want = repr_json(values)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    assert_same_lines(vectorised_json(values), want)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=28),
       size=st.sampled_from([1, 7, cli.CHUNK_ROWS + 1]))
def test_json_numbers_match_repr_on_any_bits(bits, size):
    """Any 64-bit pattern viewed as a float64: NaNs, infinities, signed
    zeros, subnormals and every exponent."""
    values = np.resize(np.array(bits, np.uint64).view(np.float64), size)
    assert vectorised_json(values) == repr_json(values)


# Values no fast path formats: zeros, non-finite, subnormal and out-of-range.
FALLBACKS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-300, 1e300]


@pytest.mark.parametrize("rows", [1, 7, cli.CHUNK_ROWS + 1])
def test_blocks_where_every_field_falls_back(rows):
    """Blocks where every field is % or repr's own text, spliced into the
    slots in one assignment per block: FALLBACKS with ties and near-ties
    (CSV) or short decimals (JSON), byte for byte at 1, 7 and
    CHUNK_ROWS + 1 rows."""
    from rydlab._reprformat import _shortest
    from rydlab._sciformat import _decimal

    ties = [1234567890125.0, -1.234567890125e-7, 9.999999999995e99]
    block = np.resize(FALLBACKS + ties, rows * 3).reshape(rows, 3)
    assert not _decimal(block)[2].any()
    assert_same_lines(vectorised_csv(block), percent_csv(block))
    values = np.resize(FALLBACKS + [0.5, -0.1, 1.0, 1e22, 1e-7], rows)
    assert not _shortest(values)[3].any()
    assert_same_lines(vectorised_json(values), repr_json(values))


# The rydlab modules besides rydlab.cli that each command loads, and
# whether it loads numpy.
_KERNEL_LAYERS = ("_ddmath", "autocorr", "packet", "spectrum")
COMMAND_MODULES = {
    "--help": ((), False),
    "predict --help": ((), False),
    "slice --help": ((), False),
    "predict": (("spectrum", "superrevival"), False),
    "autocorr csv": (_KERNEL_LAYERS + ("_sciformat",), True),
    "autocorr json": (_KERNEL_LAYERS + ("_reprformat", "_sciformat"), True),
    "slice": (_KERNEL_LAYERS + ("_sciformat", "circular"), True),
    "verify": (_KERNEL_LAYERS + ("analysis", "superrevival"), True),
}
# The commands that load numpy.fft: none, since predict at the default q
# sums its weights directly (l <= superrevival._DIRECT_MAX_L) and verify
# forms no weights.
FFT_COMMANDS = ()


def test_formatters_load_only_where_used():
    """Each command, in a fresh process, imports only the layers it runs
    (COMMAND_MODULES): predict and verify load neither number formatter, a
    CSV autocorr not the JSON one, and neither `rydlab --help` nor a
    predict at small q loads numpy (predict's weights are summed directly;
    --help loads no rydlab layer).  No command loads numpy.ma (np.median
    imports it on first use) or numpy.fft (FFT_COMMANDS) beyond what a bare
    `import numpy` loads (numpy 1.24 imports numpy.ma eagerly, numpy 1.x
    numpy.fft), and no help loads dataclasses, inspect or json.  No command
    loads dataclasses (the records derive from spectrum._Record), and
    predict loads no inspect (numpy imports it, so the other commands do)."""
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    atom = ["--nbar", "48", "--sigma", "1.5", "--out", os.devnull]
    grid = ["--tmin", "0", "--tmax", "1e-10", "--samples", "10"]
    argvs = {
        "--help": ["--help"],
        "predict --help": ["predict", "--help"],
        "slice --help": ["slice", "--help"],
        "predict": ["predict", *atom],
        "autocorr csv": ["autocorr", *atom, *grid, "--format", "csv"],
        "autocorr json": ["autocorr", *atom, *grid, "--format", "json"],
        "slice": ["slice", *atom, "--t", "0", "--points", "10"],
        "verify": ["verify", *atom],
    }
    code = (
        "import os, sys\n"
        "from rydlab.cli import main\n"
        "report, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(' '.join(sorted(m[7:] for m in sys.modules\n"
        "                      if m.startswith('rydlab.') and m != 'rydlab.cli')),\n"
        "      'numpy' in sys.modules, 'numpy.ma' in sys.modules,\n"
        "      'numpy.fft' in sys.modules,\n"
        "      ' '.join(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules))),\n"
        "      sep='|', file=report)\n"
    )

    def child(*args):
        return subprocess.run([sys.executable, *args], env=env, check=True,
                              capture_output=True, text=True, timeout=120).stdout

    bare_ma, bare_fft = child(
        "-c", "import sys, numpy; print('numpy.ma' in sys.modules, 'numpy.fft' in sys.modules)"
    ).split()
    for command, (modules, numpy_loaded) in COMMAND_MODULES.items():
        loaded, numpy, ma, fft, stdlib = (
            child("-c", code, *argvs[command]).rstrip("\n").split("|"))
        assert (command, loaded.split(), numpy) == (command, sorted(modules), str(numpy_loaded))
        assert ma == "False" or bare_ma == "True", command
        assert fft == str(command in FFT_COMMANDS) or bare_fft == "True", command
        assert "dataclasses" not in stdlib.split(), command
        if command.endswith("--help"):
            assert stdlib == "", command
        if command == "predict":
            assert "inspect" not in stdlib.split(), command


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_output_at_default_chunk_size(fmt, capsys, tmp_path):
    """One row past a whole chunk, with the shipped CHUNK_ROWS."""
    argv = ["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "4e-9",
            "--samples", str(cli.CHUNK_ROWS + 1), "--format", fmt]
    assert command_output(capsys, tmp_path, "stdout", argv) == unstreamed_output(argv)


def test_autocorr_checks_every_chunk(monkeypatch, capsys):
    """The [0, 1] and finiteness checks of Signal run on each streamed chunk."""
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)

    def bad_second_chunk(kernel, start, stop):
        return np.array([0.5, 0.5 if start == 0 else math.nan])

    monkeypatch.setattr(rydlab.autocorr._Kernel, "evaluate", bad_second_chunk)
    with pytest.raises(ValueError, match="finite"):
        main(["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "1e-10", "--samples", "4"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_autocorr_evaluates_each_row_once(fmt, monkeypatch, capsys):
    """The kernel is asked for the _chunks ranges of the grid, once each and
    in order, whichever format writes them."""
    evaluate = rydlab.autocorr._Kernel.evaluate
    asked = []

    def recorded(kernel, start, stop):
        asked.append((start, stop))
        return evaluate(kernel, start, stop)

    monkeypatch.setattr(rydlab.autocorr._Kernel, "evaluate", recorded)
    count = 3 * cli.CHUNK_ROWS + 1
    assert main(["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "4e-9",
                 "--samples", str(count), "--format", fmt]) == 0
    capsys.readouterr()
    assert asked == cli._chunks(count)
    assert asked[-1] == (3 * cli.CHUNK_ROWS, count)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_slice_evaluates_each_block_per_column(fmt, monkeypatch, capsys):
    """The ring kernel is asked for the _chunks ranges of the grid in order:
    once each for CSV, whose re, im and abs columns share each block, and
    once per column for JSON, which writes one column after another."""
    evaluate = rydlab.autocorr._Kernel.evaluate
    asked = []

    def recorded(kernel, start, stop):
        asked.append((start, stop))
        return evaluate(kernel, start, stop)

    monkeypatch.setattr(rydlab.autocorr._Kernel, "evaluate", recorded)
    count = 3 * cli.CHUNK_ROWS + 1
    assert main(["slice", *ATOM_48, "--t", "1e-9", "--points", str(count),
                 "--format", fmt]) == 0
    capsys.readouterr()
    chunks = cli._chunks(count)
    assert asked == (chunks if fmt == "csv" else chunks * 3)


def test_closed_stdout_pipe_exits_quietly():
    """`rydlab autocorr ... | head -1`: exit 0 and nothing on stderr."""
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rydlab.cli", "autocorr", *ATOM_48, "--tmin", "0",
         "--tmax", "4e-9", "--samples", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"t_au,t_si,a2\n"
    proc.stdout.close()  # ~11 MB are still to come
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("target", ["missing-dir", "dir"])
@pytest.mark.parametrize("argv", HUGE_NBAR_COMMANDS.values(), ids=HUGE_NBAR_COMMANDS.keys())
def test_unopenable_out_is_usage_error(argv, target, tmp_path):
    """An --out in a missing directory, or naming a directory, exits 2 with
    a usage error and nothing on stdout, not a traceback and exit 1 (for
    `verify`, the code of a failed check)."""
    out = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "rydlab.cli", argv[0], *ATOM_48, *argv[1:], "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(
        f"rydlab {argv[0]}: error: argument --out: can't open {str(out)!r}: ")


# One usage error per command that the command finds after parsing, and an
# --out that cannot be opened ("{dir}" stands for a directory).
POST_PARSE_ERRORS = {
    "predict": ["predict", *ATOM_48, "--q", "5"],
    "autocorr": ["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "1e-9", "--samples", "0"],
    "slice": ["slice", *ATOM_48, "--t", "0", "--points", "0"],
    "verify": ["verify", *ATOM_48, "--threshold", "1.5"],
    "out": ["predict", *ATOM_48, "--out", "{dir}"],
}


@pytest.mark.parametrize("argv", POST_PARSE_ERRORS.values(), ids=POST_PARSE_ERRORS.keys())
def test_post_parse_errors_print_the_command_usage(argv, tmp_path, capsys):
    """Errors a command finds after parsing print that command's usage, as
    argparse's own errors in its flags (here a missing --nbar) do, not the
    top-level `rydlab {predict,...}` usage."""
    command = argv[0]
    with pytest.raises(SystemExit):
        main([command])
    own_usage = capsys.readouterr().err.split(f"rydlab {command}: error: ")[0]
    assert own_usage.startswith(f"usage: rydlab {command} [-h] --nbar NBAR")
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path) if arg == "{dir}" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(own_usage + f"rydlab {command}: error: ")


def test_process_entry_freezes_the_heap_and_main_does_not(tmp_path):
    """`python -m rydlab.cli` freezes the heap after the command, just before
    exit, so interpreter teardown skips what the command and the layers it
    imported built (its atexit hooks see a nonzero gc.get_freeze_count()),
    while main() called in-process leaves the caller's collector alone."""
    before = gc.get_freeze_count()
    assert main(["predict", *ATOM_48, "--q", "6", "--out", os.devnull]) == 0
    assert gc.get_freeze_count() == before
    # a sitecustomize on the child's path registers the hook before -m runs
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
    )
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path), src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "rydlab.cli", "predict", *ATOM_48, "--q", "6",
         "--out", os.devnull],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    word, count = proc.stderr.split()
    assert word == "frozen" and int(count) > 0


@pytest.mark.parametrize("argv", [
    ["autocorr", "--nbar", "320", "--sigma", "2.5", "--tmin", "0", "--tmax", "45e-6",
     "--samples", "100000"],
    ["slice", "--nbar", "320", "--sigma", "2.5", "--t", "42.48e-6", "--points", "100000"],
], ids=["autocorr", "slice"])
def test_output_bytes_do_not_depend_on_blas_threads(argv, tmp_path):
    """The same bytes with one and two OpenBLAS threads, at a size whose
    32-row kernel products are large enough to be split over threads: the
    byte identity for identical flags holds across hosts."""
    src = str(Path(rydlab.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        path = tmp_path / f"threads{threads}.csv"
        subprocess.run([sys.executable, "-m", "rydlab.cli", *argv, "--out", str(path)],
                       env=env, check=True, timeout=120)
        outputs.append(path.read_bytes())
    assert len(outputs[0]) > 100000
    assert outputs[0] == outputs[1]


def whole_prediction_record(p) -> dict:
    """The record of one prediction with its weights b as nested lists."""
    return {**cli._prediction_record(p), "b": [[float(v.real), float(v.imag)] for v in p.b]}


def test_prediction_json_record():
    record = whole_prediction_record(rydlab.weights(48, 12))
    assert record["q"] == 12 and record["l"] == 12
    assert record["alpha"] == 1 and record["N"] == 96
    assert len(record["b"]) == 12
    assert record["kind"] == "fractional"
    assert record["time_center_si"] == pytest.approx(1.61e-9, rel=0.01)
    assert record["periodicity_si"] == pytest.approx(0.538e-9 / 4.0, rel=0.01)


def unstreamed_predict(argv):
    """`predict` output as the whole-record writer of earlier versions made it."""
    args = build_parser().parse_args(argv)
    spec = AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    preds = rydlab.prediction_table(spec, args.q or cli.DEFAULT_VERIFY_Q)
    record = {
        "nbar": args.nbar,
        "sigma": args.sigma,
        "defect": args.defect,
        "predictions": [whole_prediction_record(p) for p in preds],
    }
    return (json.dumps(record, indent=2) + "\n").encode()


PREDICT_CASES = [
    ["--nbar", "48", "--sigma", "1.5"],
    ["--nbar", "48", "--sigma", "1.5", "--q", "3"],
    ["--nbar", "320", "--sigma", "2.5", "--q", "9"],
    ["--nbar", "320", "--sigma", "2.5", "--q", "36", "--q", "18", "--q", "12",
     "--q", "9", "--q", "6"],
    ["--nbar", "321", "--sigma", "2.5", "--defect", "1", "--q", "99", "--q", "27"],
    ["--nbar", "640", "--sigma", "5", "--q", "147"],
]


@pytest.mark.parametrize("chunk", [1, 2, 4, 5, 1 << 14])
@pytest.mark.parametrize("flags", PREDICT_CASES)
def test_streamed_predict_matches_json_dumps(flags, chunk, capsys, tmp_path, monkeypatch):
    """`predict` streams b in chunks, byte for byte json.dumps(indent=2)."""
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
    argv = ["predict", *flags]
    want = unstreamed_predict(argv)
    assert command_output(capsys, tmp_path, "stdout", argv) == want
    assert command_output(capsys, tmp_path, "out", argv) == want


def test_streamed_predict_single_weight(monkeypatch):
    """l = 1 (not reachable from a valid q) and several records in a row."""
    pred = rydlab.prediction_table(AtomSpec(48, 1.5), [12])[0]
    negated = SuperrevivalPrediction(**{**vars(pred), "b": tuple(-v for v in pred.b)})
    preds = [SuperrevivalPrediction(**{**vars(pred), "l": 1, "b": pred.b[:1]}), pred, negated]
    head = {"nbar": 48.0, "sigma": 1.5, "defect": 0.0}
    want = json.dumps({**head, "predictions": [whole_prediction_record(p) for p in preds]},
                      indent=2) + "\n"
    for chunk in (1, 2, 3):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        assert "".join(cli._predict_json(head, preds)) == want


def test_predict_memory_does_not_grow_with_the_text():
    """--q 299973 (l = 299,973, 26 MB of JSON): writing adds no nested list or
    whole-text copy on top of computing the weights.  Building the record
    whole peaked at ~206 MB here.  The peak is the child's VmHWM: its
    ru_maxrss would also count the pages of the process that spawned it."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs the Linux VmHWM counter")
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (
        "import os\n"
        "from rydlab import AtomSpec, prediction_table\n"
        "from rydlab.cli import main\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(s.split()[1]) for s in fh if s.startswith('VmHWM:')) // 1024\n"
        "prediction_table(AtomSpec(640, 2.5), [299973])\n"
        "weights_mb = peak()\n"
        "main(['predict', '--nbar', '640', '--sigma', '2.5', '--q', '299973',\n"
        "      '--out', os.devnull])\n"
        "print(weights_mb, peak())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    weights_mb, total_mb = map(int, out.split())
    assert total_mb - weights_mb < 20, (weights_mb, total_mb)
    assert total_mb < 140, (weights_mb, total_mb)
