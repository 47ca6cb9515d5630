"""End-to-end exercises of the command-line interface."""

import json
import re

import numpy as np
import pytest

from rydlab.cli import MAX_SAMPLES, main

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
