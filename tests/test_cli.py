"""End-to-end exercises of the command-line interface."""

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
    to_si,
)
from rydlab.cli import MAX_SAMPLES, build_parser, main

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
    # t_sr/3 at nbar = 2000 is n^2/6 Kepler periods: 1.3e7 samples
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nbar", "2000", "--sigma", "5", "--q", "3"])
    assert exc.value.code == 2
    assert str(MAX_SAMPLES) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_oversized_q_is_usage_error_before_any_weight(command, monkeypatch, capsys):
    """A q past the budget (l <= q weights) exits 2 before b_s is computed."""
    def unreachable(*args):
        raise AssertionError("weights computed for an oversized q")

    monkeypatch.setattr("rydlab.cli.prediction_table", unreachable)
    big = 3 * (MAX_SAMPLES // 3 + 1)
    with pytest.raises(SystemExit) as exc:
        main([command, "--nbar", "320", "--sigma", "2.5", "--q", "6", "--q", str(big)])
    assert exc.value.code == 2
    assert str(MAX_SAMPLES) in capsys.readouterr().err


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
    """At nbar = 1e200 the state amplitudes overflow; that is a usage error,
    caught before the header is written."""
    with pytest.raises(SystemExit) as exc:
        main(["slice", "--nbar", "1e200", "--sigma", "2.5", "--t", "0",
              "--points", "10", "--radius", "1e5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


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
