"""End-to-end exercises of the command-line interface."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
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
    TimeGrid,
    angular_slice,
    autocorrelation,
    from_si,
    gaussian_packet,
    timescales,
    to_si,
)
from rydlab._reprformat import _FORMAT_VALUES
from rydlab.cli import MAX_KERNEL_BYTES, MAX_Q, MAX_SAMPLES, build_parser, main

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


def test_verify_320_all_five_windows(capsys):
    """Explicit q list: every predicted window checks out."""
    rc, record = run_json(
        capsys,
        ["verify", "--nbar", "320", "--sigma", "2.5",
         "--q", "36", "--q", "18", "--q", "12", "--q", "9", "--q", "6"],
    )
    assert rc == 0
    assert [e["q"] for e in record["entries"]] == [36, 18, 12, 9, 6]
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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nbar", "48", "--sigma", "1.5", "--tolerance", "-1"])
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
        "entries": [e.to_dict() for e in entries],
    }
    return (0 if all_pass else 1), (json.dumps(record, indent=2) + "\n").encode()


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


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_oversized_q_is_usage_error_before_any_weight(command, monkeypatch, capsys):
    """A q past MAX_Q (l <= q weights) exits 2 with nothing written, before
    b_s is computed."""
    def unreachable(*args):
        raise AssertionError("weights computed for an oversized q")

    monkeypatch.setattr("rydlab.cli.prediction_table", unreachable)
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
    monkeypatch.setattr("rydlab.cli.prediction_table", lambda spec, qs: seen.extend(qs) or [])
    largest = 3 * (MAX_Q // 3)
    assert main(["predict", "--nbar", "320", "--sigma", "2.5", "--q", str(largest),
                 "--out", os.devnull]) == 0
    assert seen == [largest]


def test_oversized_slice_is_usage_error(monkeypatch, capsys):
    """--points past the budget exits 2 before Psi(phi) is evaluated."""
    def unreachable(*args, **kwargs):
        raise AssertionError("slice evaluated for oversized --points")

    monkeypatch.setattr("rydlab.cli.angular_slice", unreachable)
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

    monkeypatch.setattr("rydlab.cli.gaussian_packet", unreachable)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--nbar", nbar, "--sigma", sigma, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma must be <=" in captured.err


# Admitted sizes (sigma = 10^3, up to the 10^7 sample budget) whose kernel
# tables would pass MAX_KERNEL_BYTES, with the kernel entry each command calls.
OVERSIZED_KERNEL_COMMANDS = {
    "autocorr": (["autocorr", "--nbar", "1e6", "--sigma", "1000", "--tmin", "0",
                  "--tmax", "1e-9", "--samples", str(MAX_SAMPLES)], "_a2_chunks"),
    "slice": (["slice", "--nbar", "1e6", "--sigma", "1000", "--t", "0",
               "--points", str(MAX_SAMPLES)], "angular_slice"),
    # 12,034 terms on a 9.0e5-sample grid: 948 columns of V
    "verify": (["verify", "--nbar", "5000", "--sigma", "1000", "--q", "300"],
               "_a2_chunks"),
}


@pytest.mark.parametrize("argv, kernel", OVERSIZED_KERNEL_COMMANDS.values(),
                         ids=OVERSIZED_KERNEL_COMMANDS.keys())
def test_oversized_kernel_is_usage_error_before_the_kernel(argv, kernel, monkeypatch,
                                                           capsys):
    """Terms x grid past the kernel budget exits 2 with nothing written,
    before the kernel runs."""
    def unreachable(*args, **kwargs):
        raise AssertionError("kernel reached for an oversized terms x grid request")

    monkeypatch.setattr(cli, kernel, unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the {MAX_KERNEL_BYTES} byte budget" in captured.err


def test_kernel_budget_admits_narrow_packets_at_every_size():
    """37 terms (nbar = 320, sigma = 2.5) pass the kernel budget at the full
    sample budget, and sigma = 10^3 passes at a 4096-point slice."""
    parser = build_parser()
    cli._check_kernel(parser, gaussian_packet(AtomSpec(320, 2.5)), MAX_SAMPLES)
    cli._check_kernel(parser, gaussian_packet(AtomSpec(1e6, 1000)), 4096)


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
    """cli._csv of the same array, fed in CHUNK_ROWS chunks per column."""
    parts = cli._chunks(len(values))
    columns = {f"c{j}": [column[lo:hi] for lo, hi in parts]
               for j, column in enumerate(values.T)}
    return "".join(cli._csv(columns))


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
@pytest.mark.parametrize("rows", [1, 7, cli.CHUNK_ROWS + 1])
def test_csv_fields_match_percent_format_on_hard_cases(rows, cols):
    """The vectorised '%.11e' is byte for byte the % operator on near-ties,
    powers of ten, decade roll-overs, 3-digit exponents, zeros, subnormals
    and non-finite fields, at 1, 7 and CHUNK_ROWS + 1 rows."""
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
    """cli._json of the same values, fed in CHUNK_ROWS chunks."""
    return "".join(cli._json({}, {"c": [values[lo:hi] for lo, hi in cli._chunks(len(values))]}))


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
                                         (_FORMAT_VALUES + 1, 5),
                                         (_FORMAT_VALUES + 1, cli.CHUNK_ROWS)])
def test_json_numbers_match_repr_on_hard_cases(size, chunk, monkeypatch):
    """The vectorised float.__repr__ is byte for byte repr on zeros,
    subnormals, powers of two, exact midpoints, notation switches, decade
    roll-overs and ties, at 1, 7 and block + 1 values per column, with
    chunks of 5 rows and of CHUNK_ROWS.  One value per column costs a whole
    block's passes, so that case takes every fifth value."""
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
       size=st.sampled_from([1, 7, _FORMAT_VALUES + 1]))
def test_json_numbers_match_repr_on_any_bits(bits, size):
    """Any 64-bit pattern viewed as a float64: NaNs, infinities, signed
    zeros, subnormals and every exponent."""
    values = np.resize(np.array(bits, np.uint64).view(np.float64), size)
    assert vectorised_json(values) == repr_json(values)


def test_formatters_load_only_where_used():
    """predict and verify load neither number formatter, and a CSV autocorr
    not the JSON one, so neither adds to their start-up.  No command loads
    numpy.ma (np.median imports it on first use) beyond what a bare
    `import numpy` loads (numpy 1.24 imports it eagerly)."""
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    atom = "'--nbar', '48', '--sigma', '1.5', '--out', os.devnull"
    grid = "'--tmin', '0', '--tmax', '1e-10', '--samples', '10'"
    code = (
        "import os, sys\n"
        "import numpy\n"
        "bare = set(sys.modules)\n"
        "from rydlab.cli import main\n"
        f"for argv in [['predict', {atom}], ['verify', {atom}],\n"
        f"             ['autocorr', {atom}, {grid}, '--format', 'csv'],\n"
        f"             ['autocorr', {atom}, {grid}, '--format', 'json']]:\n"
        "    main(argv)\n"
        "    print(' '.join(m for m in ('rydlab._sciformat', 'rydlab._reprformat',\n"
        "                               'numpy.ma')\n"
        "                   if m in sys.modules and m not in bare))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split("\n") == ["", "", "rydlab._sciformat",
                                "rydlab._sciformat rydlab._reprformat", ""]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_output_at_default_chunk_size(fmt, capsys, tmp_path):
    """One row past a whole chunk, with the shipped CHUNK_ROWS."""
    argv = ["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "4e-9",
            "--samples", str(cli.CHUNK_ROWS + 1), "--format", fmt]
    assert command_output(capsys, tmp_path, "stdout", argv) == unstreamed_output(argv)


def test_autocorr_checks_every_chunk(monkeypatch, capsys):
    """The [0, 1] and finiteness checks of Signal run on each streamed chunk."""
    monkeypatch.setattr(cli, "CHUNK_ROWS", 2)

    def bad_second_chunk(*args):
        yield np.array([0.5, 0.5])
        yield np.array([0.5, math.nan])

    monkeypatch.setattr(cli, "_a2_chunks", bad_second_chunk)
    with pytest.raises(ValueError, match="finite"):
        main(["autocorr", *ATOM_48, "--tmin", "0", "--tmax", "1e-10", "--samples", "4"])


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


def test_process_entry_freezes_the_heap_and_main_does_not(tmp_path):
    """`python -m rydlab.cli` freezes the import-time heap before it runs the
    command (its atexit hooks see a nonzero gc.get_freeze_count()), while
    main() called in-process leaves the caller's collector alone."""
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


def unstreamed_predict(argv):
    """`predict` output as the whole-record writer of earlier versions made it."""
    args = build_parser().parse_args(argv)
    spec = AtomSpec(nbar=args.nbar, sigma=args.sigma, defect=args.defect)
    record = {
        "nbar": args.nbar,
        "sigma": args.sigma,
        "defect": args.defect,
        "predictions": [p.to_dict() for p in rydlab.prediction_table(spec, args.q or cli.DEFAULT_VERIFY_Q)],
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
    preds = [replace(pred, l=1, b=pred.b[:1]), pred, replace(pred, b=-pred.b)]
    head = {"nbar": 48.0, "sigma": 1.5, "defect": 0.0}
    want = json.dumps({**head, "predictions": [p.to_dict() for p in preds]}, indent=2) + "\n"
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
