"""rydlab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30
    python3 benchmarks/run.py --workload dump --seed 1 --seconds 0 --trace 1 --size tiny

One client runs the workload's commands one at a time, each in its own child
process (`python -m rydlab.cli ...`, or the peak-scan script), and makes passes
over the command list while the next pass is expected to end within
--seconds (at least one).  A cold `rydlab --help` child runs before every
pass.  Run from a source checkout: children import rydlab from ./src.

The host is shared: other tenants slow it by up to 1.8x, for seconds to
minutes at a time, and no statistic of raw wall times over a run escapes a
slow minute.  So the launcher times a fixed piece of pure-Python work right
before and after every child, and every reported time is host-scaled: the
child's wall time times REFERENCE_PROBE_S over the median probe time around
it, i.e. the wall time on a host that runs the probe at the reference speed.
`pass_s` sums, over the commands, the median host-scaled time of each; raw
wall times and probe times go to the text output and the results file.

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1 alternates
untraced passes with traced ones, whose children wrap rydlab's public
functions (benchmarks/tracer.py), and reports the per-layer metrics.  Every
output is checked against the oracles in benchmarks/oracles.py outside the
timed region.  The last line of stdout is one JSON object; a results file
with the environment and every pass goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

# the probe's time at full speed on the reference machine (2.1 GHz Xeon vCPU):
# the 10th percentile of 351 probe medians there
REFERENCE_PROBE_S = 1.1e-3
SETUP_RUNS = 3  # cold --help children before the first pass; one more before each
CHILD_TIMEOUT_S = 120

# metric name -> unit, for --trace 0 and --trace 1, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Launcher:
    """The benchmarks/spawn.py process, which forks and times every child."""

    def __init__(self, scratch: Path):
        self.err_path = scratch / "child.stderr"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)

    def run(self, argv: list[str]) -> tuple[float, float, int, str, list[float]]:
        """Run one child to completion: (wall s, peak RSS MB, exit code, stderr,
        host-speed probe times around it)."""
        request = {"argv": argv, "cwd": str(ROOT), "env": self.env,
                   "stderr": str(self.err_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(line)
        stderr = self.err_path.read_text(errors="replace")[-2000:]
        return (reply["wall"], reply["rss_kb"] / 1024.0,
                os.waitstatus_to_exitcode(reply["status"]), stderr, reply["probe"])


def child_argv(command: workloads.Command, record: Path | None) -> list[str]:
    py = sys.executable
    if record is not None:
        return [py, str(BENCH / "tracer.py"), "--record", str(record),
                "--spots", ",".join(map(str, command.spots)), command.target,
                *command.args]
    if command.target == "cli":
        return [py, "-m", "rydlab.cli", *command.args]
    return [py, str(BENCH / "peaks_scan.py"), *command.args]


class Run:
    """One benchmark run: setup, passes, checks, and the tallies they feed."""

    def __init__(self, workload: workloads.Workload, seed: int, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.launcher = Launcher(scratch)
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.setups: list[tuple[float, list[float]]] = []

    def tally(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures += [f"{label}: {error}" for error in errors]

    def setup(self) -> None:
        """One cold `rydlab --help` child: interpreter, numpy and rydlab import."""
        wall, _, code, stderr, probe = self.launcher.run(
            [sys.executable, "-m", "rydlab.cli", "--help"])
        self.tally("rydlab --help", [f"exit {code}: {stderr}"] if code else [])
        self.setups.append((wall, probe))

    def one_pass(self, traced: bool) -> dict:
        order = self.rng.sample(self.workload.commands, len(self.workload.commands))
        children = []
        start = time.perf_counter()
        for n, command in enumerate(order):
            record = self.scratch / f"trace{n}.json" if traced else None
            wall, rss, code, stderr, probe = self.launcher.run(child_argv(command, record))
            children.append((command, wall, rss, code, stderr, record, probe))
        wall = time.perf_counter() - start
        # checks run after the timed pass; outputs are not overwritten until the next
        entry = {"traced": traced, "wall": wall, "rss_mb": max(c[2] for c in children),
                 "children": [], "layers": None}
        traces = []
        for command, child_wall, rss, code, stderr, record, probe in children:
            errors = [] if code == command.expect else [
                f"exit {code}, expected {command.expect}: {stderr.strip()}"]
            if not errors:
                try:
                    errors = command.check()
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors = [f"unreadable output: {exc!r}"]
            if record is not None:
                try:
                    trace = json.loads(record.read_text())
                except (OSError, ValueError) as exc:
                    errors.append(f"unreadable trace: {exc!r}")
                else:
                    errors += trace_errors(trace)
                    traces.append((child_wall, command, trace))
            self.tally(command.label, errors)
            entry["children"].append({"label": command.label, "wall": child_wall,
                                      "rss_mb": rss, "code": code, "errors": errors,
                                      "probe": probe})
        if traced:
            entry["layers"] = layer_metrics(traces)
        entry["check_s"] = time.perf_counter() - start - wall
        return entry

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes (untraced, or untraced and traced in turn) while the next
        round, checks included, is expected to end within `seconds`."""
        start = time.perf_counter()
        for _ in range(SETUP_RUNS):
            self.setup()
        rounds = 0
        while True:
            for traced in [False, True] if trace else [False]:
                self.setup()
                self.passes.append(self.one_pass(traced))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break


def trace_errors(trace: dict) -> list[str]:
    """Oracle checks on what a traced child computed in memory."""
    errors = []
    for item in trace["sizes"]:
        if "spots" in item:
            errors += workloads.a2_errors(
                "traced autocorrelation", item["nbar"], item["sigma"], item["model"],
                item["t0"], item["dt"], {int(i): v for i, v in item["spots"].items()})
        if "b" in item:
            errors += workloads.weight_errors(
                item["nbar"], item["q"], [complex(re, im) for re, im in item["b"]])
    return errors


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(traces: list[tuple[float, workloads.Command, dict]]) -> dict:
    """Per-layer metrics of one traced pass, summed over its children."""
    m: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    bytes_out = 0
    for child_wall, command, trace in traces:
        spans = trace["spans"]
        roots = 0.0
        for name, layer, start, end, parent, covered in spans:
            inclusive[name] += end - start
            m["cli.self_s" if layer == "cli" else f"{layer}.s"] += end - start - covered
            calls[name] += 1
            if parent < 0:
                roots += end - start
        for layer, count, seconds in trace["tallies"].values():
            m[f"{layer}.s"] += seconds
            m[f"{layer}.calls"] += count
        m["startup.s"] += child_wall - roots
        for item in trace["sizes"]:
            name, duration = spans[item["span"]][0], spans[item["span"]][3] - spans[item["span"]][2]
            if name == "cli.main":
                m[f"cli.{item['command']}.s"] += duration
            elif name == "autocorr.autocorrelation":
                k, n = item["terms"], item["samples"]
                m["autocorr.samples"] += n
                m["autocorr.term_samples"] += k * n
                # computed, not measured: per (term, sample) one float64 time read
                # and one complex128 accumulator update; one float64 out per sample
                m["autocorr.bytes_computed"] += k * n * (8 + 16) + n * 8
                for i, v in item["spots"].items():
                    want = oracles.a2_exact(item["nbar"], item["sigma"], item["model"],
                                            item["t0"], item["dt"], int(i))
                    m["autocorr.max_err"] = max(m["autocorr.max_err"], abs(v - want))
            elif name == "analysis.find_peaks":
                m["analysis.samples_scanned"] += item["samples"]
                m["analysis.candidates"] += item["candidates"]
                m["analysis.kept"] += item["kept"]
            elif name == "superrevival.weights":
                m["superrevival.weight_terms"] += item["l"] ** 2
                b = [complex(re, im) for re, im in item["b"]]
                want = oracles.weights_exact(item["nbar"], item["q"])
                m["superrevival.max_err"] = max(
                    m["superrevival.max_err"], max(abs(x - y) for x, y in zip(b, want)))
            elif name == "packet.gaussian_packet":
                lo, hi = item["offsets"]
                m["packet.terms"] += hi - lo + 1
                m["packet.dropped_mass"] = max(m["packet.dropped_mass"], oracles.dropped_mass(
                    item["nbar"], item["sigma"], lo, hi))
            elif name == "circular.angular_slice":
                m["circular.term_points"] += item["terms"] * item["points"]
        if command.target == "cli":
            bytes_out += os.path.getsize(_out_path(command))
    m["autocorr.phase_calls"] = calls["autocorr.phase_cycles"]
    m["superrevival.weights_calls"] = calls["superrevival.weights"]
    m["analysis.find_peaks.calls"] = calls["analysis.find_peaks"]
    m["analysis.find_peaks.s"] = inclusive["analysis.find_peaks"]
    m["autocorr.ns_per_term_sample"] = _ratio(
        inclusive["autocorr.autocorrelation"], m["autocorr.term_samples"], 1e9)
    m["superrevival.ns_per_weight_term"] = _ratio(
        inclusive["superrevival.weights"], m["superrevival.weight_terms"], 1e9)
    m["circular.ns_per_term_point"] = _ratio(
        inclusive["circular.angular_slice"], m["circular.term_points"], 1e9)
    m["analysis.kept_ratio"] = _ratio(m["analysis.kept"], m["analysis.candidates"])
    m["cli.bytes_out"] = bytes_out
    m["cli.out_mb_per_s"] = _ratio(bytes_out, m["cli.self_s"], 1e-6)
    return {name: float(m.get(name, 0.0)) for name in PER_LAYER if name != "trace.overhead_ratio"}


def _out_path(command: workloads.Command) -> str:
    return next(a.split("=", 1)[1] for a in command.args if a.startswith("--out="))


def _bytes(size: str) -> int:
    """A sysfs cache size such as '307200K' in bytes."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
    return int(size.rstrip("KMG") or 0) * scale


def environment(seed: int, workload: workloads.Workload) -> dict:
    """Machine, interpreter and library facts for the results file."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, platform, numpy, rydlab; "
         "cfg = numpy.show_config(mode='dicts'); "
         "print(json.dumps({'python': platform.python_version(), "
         "'numpy': numpy.__version__, 'rydlab': rydlab.__file__, "
         "'blas': cfg.get('Build Dependencies', {}).get('blas')}))"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    env = json.loads(probe.stdout)
    if not Path(env["rydlab"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"children import rydlab from {env['rydlab']}, not ./src")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu=model,
        caches=caches,
        # a complex128 per sample: when that fits in L3, no case is bandwidth-bound
        largest_array_bytes=16 * workload.largest,
        fits_in_l3=16 * workload.largest < _bytes(caches.get("L3 Unified", "0")),
        variables={k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")},
        commit=commit,
        seed=seed,
        inputs=workload.inputs,
        items=workload.items,
    )
    return env


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def host_scaled(wall: float, probe: list[float]) -> float:
    """`wall` on a host that runs the probe in REFERENCE_PROBE_S."""
    return wall * REFERENCE_PROBE_S / statistics.median(probe)


def scaled_pass(passes: list[dict]) -> float:
    """Sum over the commands of each one's median host-scaled time in `passes`."""
    times: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for child in p["children"]:
            times[child["label"]].append(host_scaled(child["wall"], child["probe"]))
    return math.fsum(_median(t) for t in times.values())


def summarize(run: Run, trace: bool) -> dict:
    plain = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    pass_s = scaled_pass(plain)
    if trace:
        values = {name: _median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        values["trace.overhead_ratio"] = scaled_pass(traced) / pass_s - 1.0
        units = PER_LAYER
    else:
        values = {
            "setup_s": _median([host_scaled(w, probe) for w, probe in run.setups]),
            "pass_s": pass_s,
            "items_per_s": run.workload.items / pass_s,
            "peak_rss_mb": _median([p["rss_mb"] for p in plain]),
            "ok_ratio": 1.0 - run.failed / run.attempted,
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> Run:
    scratch = OUT / f"scratch-{os.getpid()}"  # outputs of the children, removed at the end
    scratch.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed, scratch, size)
        env = environment(seed, workload)
        run = Run(workload, seed, scratch)
        with run.launcher:
            run.measure(seconds, trace)
    finally:
        shutil.rmtree(scratch)
    metrics = summarize(run, trace)
    run.result = {"correct": run.failed == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
    record = {"workload": name, "size": size, "trace": int(trace), "seconds": seconds,
              "environment": env, "setups": run.setups, "passes": run.passes,
              "failures": run.failures, "result": run.result}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return run


def report(run: Run) -> None:
    result = run.result
    plain = [p["wall"] for p in run.passes if not p["traced"]]
    probe = [u for p in run.passes for child in p["children"] for u in child["probe"]]
    print(f"== {run.workload.name}: {len(run.passes)} passes ({len(plain)} untraced, "
          f"raw wall {min(plain):.3f}..{max(plain):.3f} s, median {_median(plain):.3f} s), "
          f"{run.workload.items} {run.workload.item} per pass")
    print(f"   probe median {_median(probe) * 1e3:.3f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:g} ms)")
    print(f"   attempted {result['attempted']} commands, failed {result['failed']}, "
          f"failed_ratio {result['failed'] / result['attempted']:.4f}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:32s} {entry['value']:.6g} {entry['unit']}")
    for failure in run.failures[:20]:
        print(f"   FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rydlab" / "__init__.py").is_file():
        print(f"no rydlab source under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        report(run)
        results[name] = run.result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
