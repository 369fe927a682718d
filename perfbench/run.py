"""mirrorsim benchmark: three closed-loop workloads, host-time metrics, golden traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload long_threshold|sweep|wire_effector|all
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload untraced and then once under the span tracer, and
reports the per-layer metrics plus the tracing overhead. Every run checks
its outputs: repeated units must write identical bytes, replays must match,
and the pinned golden digests in ``goldens.json`` must hold. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full report is also written to
``.perfbench/results/``. The exit code is 0 only when every check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("long_threshold", "sweep", "wire_effector")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
SETUP_SAMPLES = 11
# Reference-loop runs timed before and after each set-up sample.
SETUP_CALIBRATIONS = 3
# Sizes of the golden-gate runs made at the two pinned seeds on every run.
GATE_SIZE = {"long_threshold": 10_000, "sweep": 2, "wire_effector": 1_000}

END_TO_END = {
    "steps_per_s": "steps/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "round_p50_us": "us",
    "round_p99_us": "us",
}
# Every per-layer metric the traced run reports; the ones a workload never
# calls read 0 there. BENCHMARK.json lists the subset that every workload
# exercises (plus the counts).
PER_LAYER = {
    "config.load_ms": "ms",
    "config.with_updates_us": "us",
    "network.sample_base_us": "us",
    "network.sample_base_calls": "count",
    "scenarios.apply_disturbance_us": "us",
    "runner.step_us": "us",
    "runner.step_self_us": "us",
    "runner.normalize_us": "us",
    "runner.normalize_calls_per_step": "calls/step",
    "runner.build_simulation_us": "us",
    "runner.evaluate_satisfaction_us": "us",
    "runner.render_csv_us_per_row": "us/row",
    "runner.retained_bytes_per_step": "B/step",
    "management.probe_us": "us",
    "management.probe_calls_per_step": "calls/step",
    "management.effector_us": "us",
    "management.effector_calls": "count",
    "management.commands_logged": "count",
    "managers.decide_us": "us",
    "managers.decide_self_us": "us",
    "managers.switches": "count",
    "managers.switch_ratio": "ratio",
    "wire.step_rtt_us": "us",
    "wire.probe_rtt_us": "us",
    "wire.effector_rtt_us": "us",
    "wire.server_cpu_us_per_step": "us/step",
    "wire.client_cpu_us_per_step": "us/step",
    "wire.wait_us_per_step": "us/step",
    "wire.server_self_us_per_step": "us/step",
    "wire.messages_per_step": "msgs/step",
    "wire.bytes_in_per_step": "B/step",
    "wire.bytes_out_per_step": "B/step",
    "cli.run_us": "us",
    "cli.write_trace_csv_us": "us",
    "cli.emit_plot_data_us": "us",
    "cli.self_us_per_run": "us/run",
    "cli.bytes_written": "B",
    "tracing.overhead_steps_per_s": "steps/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mirrorsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU.

    A closed loop never runs client and server at once, but on a shared
    virtual machine a wake-up across vCPUs can cost milliseconds while the
    host is busy. One CPU keeps the wire round trips steady; the last CPU of
    the mask is chosen because the first usually takes more interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(seed: int, usable: int, cpu: int) -> dict:
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "pinned_cpu": cpu,
        "loadavg_before": list(os.getloadavg()),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(),
        "workload_seed": seed,
    }


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


def window_stats(unit, scaled: bool = True):
    """Steps/s, p50 and p99 (ns) of the rounds of each whole window of the unit.

    With ``scaled``, each block of rounds is first scaled to the reference
    host by its calibration (``hostspeed``).
    """
    per_round = unit.steps // len(unit.rounds)
    block, width = unit.block, unit.window
    if scaled:
        scales = hostspeed.scales(unit.calibrations)
        rounds = array("d", (r * scales[i // block] for i, r in enumerate(unit.rounds)))
    else:
        rounds = unit.rounds
    stats = []
    for start in range(0, len(rounds) - width + 1, width):
        window = sorted(rounds[start:start + width])
        stats.append((width * per_round / (sum(window) / 1e9),
                      percentile(window, 50), percentile(window, 99)))
    return stats


def load_goldens() -> dict:
    return json.loads((HERE / "goldens.json").read_text())


class Checks:
    """Named pass/fail checks; each failure counts as one failed operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failures(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


# -- set-up -----------------------------------------------------------------


def slowness() -> float:
    return statistics.median(hostspeed.interpreter_slowness() for _ in range(SETUP_CALIBRATIONS))


def measure_setup(w, workload: str, config_path: Path, seed: int):
    """Set-up samples, each in a fresh process, after one warm-up.

    Returns the samples (s) and, for each, the host's slowness around it.
    """
    samples, calibrations = [], []
    for index in range(SETUP_SAMPLES + 1):
        before = slowness()
        if workload == "wire_effector":
            elapsed = w.wire_setup_ns(config_path, seed) / 1e9
        else:
            out = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(config_path),
                 str(w.simulation_seed(workload, seed))],
                cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
            )
            elapsed = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        calibration = (before + slowness()) / 2
        if index:
            samples.append(elapsed)
            calibrations.append(calibration)
    return samples, calibrations


# -- one workload -----------------------------------------------------------


def run_unit(w, workload: str, config_path: Path, seed: int, size=None, **kwargs):
    size = size if size is not None else w.FULL_SIZE[workload]
    if workload == "long_threshold":
        return w.long_threshold(config_path, seed, size, **kwargs)
    if workload == "sweep":
        return w.sweep(config_path, seed, size, **kwargs)
    return w.wire_effector(config_path, seed, size, **kwargs)


def golden_check(checks: Checks, goldens: dict, workload: str, seed: int, size: int,
                 digest: str, required: bool) -> None:
    key = f"{seed}@{size}"
    expected = goldens.get(workload, {}).get(key)
    if expected is None and not required:
        return
    checks.expect(f"golden {workload} seed {seed} size {size}", expected == digest,
                  f"got {digest}, pinned {expected}")


def wire_cross_check(w, checks: Checks, config_path: Path, seed: int, size: int,
                     server_digest: str, server_errors: int):
    """Server trace == in-process re-drive == replay of the re-drive's log."""
    digest, replay_digest, rejected, trace = w.wire_redrive(config_path, seed, size)
    checks.expect(f"wire seed {seed} size {size}: server trace == in-process re-drive",
                  digest == server_digest, f"{server_digest} vs {digest}")
    checks.expect(f"wire seed {seed} size {size}: re-drive == replay of its command log",
                  replay_digest == digest, f"{digest} vs {replay_digest}")
    checks.expect(f"wire seed {seed} size {size}: rejected commands agree",
                  rejected == server_errors, f"server {server_errors}, in process {rejected}")
    return trace


def gate(w, checks: Checks, workload: str, config_path: Path) -> int:
    """Small runs at the pinned seeds against goldens.json; returns operations attempted."""
    goldens = load_goldens()
    size = GATE_SIZE[workload]
    attempted = 0
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        unit = run_unit(w, workload, config_path, seed, size)
        attempted += unit.attempted
        checks.expect(f"gate {workload} seed {seed} ran cleanly", unit.failed == 0,
                      f"{unit.failed} failed")
        golden_check(checks, goldens, workload, seed, size, unit.digest, required=True)
        if workload == "wire_effector":
            wire_cross_check(w, checks, config_path, seed, size, unit.digest,
                             unit.detail["errors"])
    return attempted


def timed_run(w, workload: str, config_path: Path, seed: int, seconds: float, checks: Checks):
    """Units back to back for ``seconds``; medians over windows and over units.

    Times are scaled to the reference host (``hostspeed``); the measured
    figures are kept beside them as ``raw``. Each unit is reduced to its
    window statistics at once, so that the benchmark's own memory does not
    grow with the number of units and move ``peak_rss_mb``.
    """
    units = []
    windows, raw_rates, calibrations, walls = [], [], array("d"), []
    kept = None
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        kept = None
        if workload == "long_threshold":
            unit = w.long_threshold(config_path, seed, keep=True)
            kept, unit.detail = unit.detail, {}
        else:
            unit = run_unit(w, workload, config_path, seed)
        windows.extend(window_stats(unit))
        raw_rates.extend(rate for rate, _, _ in window_stats(unit, scaled=False))
        walls.append(unit.wall_ns * statistics.median(hostspeed.scales(unit.calibrations)))
        calibrations.extend(unit.calibrations)
        unit.rounds, unit.calibrations = array("q"), array("d")
        units.append(unit)
    self_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digests = {unit.digest for unit in units}
    checks.expect(f"{workload}: every unit wrote identical bytes", len(digests) == 1,
                  f"{len(digests)} distinct digests")
    golden_check(checks, load_goldens(), workload, seed, w.FULL_SIZE[workload],
                 units[0].digest, required=False)
    if workload == "long_threshold":
        checks.expect("long_threshold: replay of the command log renders the same trace",
                      w.replay_matches(kept, units[-1].digest))
        kept = None
        rss_kib = self_rss_kib
    elif workload == "sweep":
        rss_kib = self_rss_kib
    else:
        wire_cross_check(w, checks, config_path, seed, w.WIRE_STEPS, units[0].digest,
                         units[0].detail["errors"])
        rss_kib = statistics.median(unit.detail["server_maxrss_kib"] for unit in units)

    rates, p50s, p99s = zip(*windows)
    metrics = {
        "steps_per_s": statistics.median(rates),
        "wall_s": statistics.median(walls) / 1e9,
        "peak_rss_mb": rss_kib / 1024,
        "round_p50_us": statistics.median(p50s) / 1e3,
        "round_p99_us": statistics.median(p99s) / 1e3,
    }
    raw = {
        "steps_per_s": statistics.median(raw_rates),
        "wall_s": statistics.median(unit.wall_ns for unit in units) / 1e9,
        "host_speed": 1 / statistics.median(calibrations),
    }
    samples = {"units": len(units), "windows": len(windows),
               "calibrations": len(calibrations),
               "unit_wall_s": [round(unit.wall_ns / 1e9, 6) for unit in units]}
    return units, metrics, raw, samples


def traced_run(w, tracing, workload: str, config_path: Path, seed: int, seconds: float,
               checks: Checks):
    """Untraced units for half the time, then one unit under the tracer."""
    untraced = []
    deadline = time.perf_counter() + seconds / 2
    while not untraced or time.perf_counter() < deadline:
        untraced.append(run_unit(w, workload, config_path, seed))
    w.OUT.mkdir(exist_ok=True)
    spans_path = w.OUT / f"spans-{workload}.bin"
    tracers = []
    if workload == "wire_effector":
        unit = run_unit(w, workload, config_path, seed, launcher=HERE / "launcher.py",
                        launcher_args=("--spans", str(spans_path)))
        tracers.append(tracing.Tracer.load(spans_path))
    else:
        tracer = tracing.Tracer()
        with tracer.installed():
            if workload == "long_threshold":
                unit = w.long_threshold(config_path, seed, keep=True)
            else:
                unit = w.sweep(config_path, seed)
        tracer.dump(spans_path)
        tracers.append(tracer)

    digests = {u.digest for u in untraced} | {unit.digest}
    checks.expect(f"{workload}: traced and untraced units wrote identical bytes",
                  len(digests) == 1, f"{len(digests)} distinct digests")
    checks.expect(f"{workload}: traced unit ran cleanly", unit.failed == 0,
                  f"{unit.failed} failed")
    golden_check(checks, load_goldens(), workload, seed, w.FULL_SIZE[workload], unit.digest,
                 required=False)

    if workload == "long_threshold":
        retained = w.retained_bytes_per_step(unit.detail["result"].trace)
        checks.expect("long_threshold: replay of the command log renders the same trace",
                      w.replay_matches(unit.detail, unit.digest))
        unit.detail = {}
    elif workload == "sweep":
        config = w.mirrorsim.load_config(config_path).with_updates(
            scenario="S0", seed=w.sweep_seeds(seed)[0], timesteps=w.SWEEP_STEPS)
        manager = w.mirrorsim.create_manager(
            "threshold", network=config.network, thresholds=config.properties.thresholds,
            seed=config.properties.seed)
        retained = w.retained_bytes_per_step(w.mirrorsim.run(manager, config).trace)
    else:
        trace = wire_cross_check(w, checks, config_path, seed, w.WIRE_STEPS, unit.digest,
                                 unit.detail["errors"])
        retained = w.retained_bytes_per_step(trace)

    untraced_rate = statistics.median(u.steps_per_s for u in untraced)
    layers = per_layer(tracing.SpanStats(tracers), workload, untraced[-1], unit, retained,
                       untraced_rate)
    samples = {"untraced_units": len(untraced), "traced_units": 1,
               "spans": sum(len(t.start) for t in tracers)}
    return untraced + [unit], layers, samples, untraced_rate


def per_layer(spans, workload: str, untraced, traced, retained: float, untraced_rate: float):
    steps = spans.count("runner.step")
    probes = spans.names("management.probe.")
    effectors = spans.names("management.effector.")
    decisions = spans.count("managers.decide")
    switches = spans.units.get("managers.decide", 0)
    rendered = spans.units.get("runner.render_trace_csv", 0)
    runs = max(len(spans.runs), 1)
    metrics = {
        "config.load_ms": spans.median_us("config.load_config") / 1e3,
        "config.with_updates_us": spans.median_us("config.with_updates"),
        "network.sample_base_us": spans.median_us("network.sample_base"),
        "network.sample_base_calls": spans.count("network.sample_base"),
        "scenarios.apply_disturbance_us": spans.median_us("scenarios.apply_disturbance"),
        "runner.step_us": spans.median_us("runner.step"),
        "runner.step_self_us": spans.median_us("runner.step", self_time=True),
        "runner.normalize_us": spans.median_us("runner.normalize"),
        "runner.normalize_calls_per_step": spans.count("runner.normalize") / max(steps, 1),
        "runner.build_simulation_us": spans.median_us("runner.build_simulation"),
        "runner.evaluate_satisfaction_us": spans.median_us("runner.evaluate_satisfaction"),
        "runner.render_csv_us_per_row":
            spans.total_ns("runner.render_trace_csv") / 1e3 / rendered if rendered else 0.0,
        "runner.retained_bytes_per_step": retained,
        "management.probe_us": spans.median_us(*probes),
        "management.probe_calls_per_step": spans.count(*probes) / max(steps, 1),
        "management.effector_us": spans.median_us(*effectors),
        "management.effector_calls": spans.count(*effectors),
        "management.commands_logged":
            spans.count(*effectors) - sum(spans.errors.get(name, 0) for name in effectors),
        "managers.decide_us": spans.median_us("managers.decide"),
        "managers.decide_self_us": spans.median_us("managers.decide", self_time=True),
        "managers.switches": switches,
        "managers.switch_ratio": switches / decisions if decisions else 0.0,
        "wire.server_self_us_per_step":
            spans.total_ns("wire.serve_stdio", self_time=True) / 1e3 / max(steps, 1),
        "cli.run_us": spans.median_us("cli.run"),
        "cli.write_trace_csv_us": spans.median_us("cli.write_trace_csv"),
        "cli.emit_plot_data_us": spans.median_us("cli.emit_plot_data"),
        "cli.self_us_per_run": spans.total_ns("cli.main", self_time=True) / 1e3 / runs,
        "cli.bytes_written": traced.detail.get("bytes_written", 0),
        "tracing.overhead_steps_per_s": untraced_rate - traced.steps_per_s,
    }
    wire = dict.fromkeys(name for name in PER_LAYER if name.startswith("wire.")
                         and name not in metrics)
    if workload == "wire_effector":
        detail, n = untraced.detail, untraced.steps
        timings = detail["timings"]
        server = detail["server_cpu_ns"] / n / 1e3
        client = detail["client_cpu_ns"] / n / 1e3
        wire.update({
            "wire.step_rtt_us": statistics.median(timings["step"]) / 1e3,
            "wire.probe_rtt_us": statistics.median(timings["probe"]) / 1e3,
            "wire.effector_rtt_us": statistics.median(timings["effector"]) / 1e3,
            "wire.server_cpu_us_per_step": server,
            "wire.client_cpu_us_per_step": client,
            "wire.wait_us_per_step": untraced.wall_ns / n / 1e3 - server - client,
            "wire.messages_per_step": detail["messages"] / n,
            "wire.bytes_in_per_step": detail["bytes_in"] / n,
            "wire.bytes_out_per_step": detail["bytes_out"] / n,
        })
    metrics.update({name: value or 0 for name, value in wire.items()})
    return metrics


# -- reporting --------------------------------------------------------------


def describe_stats(workload: str, stats: dict) -> str:
    if workload == "sweep":
        return (f"{stats['runs']} runs; mean of run means: links {stats['mean_active_links_pct']:.4f}%,"
                f" bw {stats['mean_bandwidth_pct']:.4f}%, wt {stats['mean_write_time_pct']:.4f}%;"
                f" satisfied runs mr={stats['mr_satisfied_runs']} mc={stats['mc_satisfied_runs']}"
                f" mp={stats['mp_satisfied_runs']}; managers.switches={stats['switches']}")
    if not stats:
        return "no completed run"
    text = (f"means: links {stats['mean_active_links_pct']:.4f}%, bw {stats['mean_bandwidth_pct']:.4f}%,"
            f" wt {stats['mean_write_time_pct']:.4f}%; mr={stats['mr']} mc={stats['mc']}"
            f" mp={stats['mp']}; managers.switches={stats['switches']}")
    if "adaptations" in stats:
        text += f"; effector topology adaptations={stats['adaptations']}"
    return text


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mirrorsim

    if Path(mirrorsim.__file__).resolve().parent != (SRC / "mirrorsim").resolve():
        print(f"imported mirrorsim from {mirrorsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads as w

    usable = len(os.sched_getaffinity(0))
    info = provenance(args.seed, usable, pin_to_one_cpu())
    config_path = w.write_base_config()
    checks = Checks()
    workload = args.workload
    started = time.perf_counter()
    raw = {}

    if args.trace:
        units, metrics, samples, untraced_rate = traced_run(
            w, tracing, workload, config_path, args.seed, args.seconds, checks)
        table = PER_LAYER
    else:
        setup, setup_calibrations = measure_setup(w, workload, config_path, args.seed)
        units, metrics, raw, samples = timed_run(w, workload, config_path, args.seed,
                                                 args.seconds, checks)
        metrics = {"steps_per_s": metrics["steps_per_s"], "wall_s": metrics["wall_s"],
                   "setup_s": statistics.median(
                       sample / slow for sample, slow in zip(setup, setup_calibrations)),
                   **metrics}
        raw["setup_s"] = statistics.median(setup)
        samples["setup"] = len(setup)
        table = END_TO_END
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    attempted += gate(w, checks, workload, config_path)
    failed += checks.failures
    info["loadavg_after"] = list(os.getloadavg())
    info["samples"] = samples
    info["elapsed_s"] = time.perf_counter() - started
    error_rate = failed / attempted
    correct = failed == 0

    print(f"mirrorsim benchmark: workload={workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print("provenance: " + ", ".join(f"{key}={value}" for key, value in info.items()))
    if raw:
        print("measured before scaling to the reference host: "
              + ", ".join(f"{key}={value:.6g}" for key, value in raw.items()))
        print("metrics (host time scaled to the reference host, unless a count):")
    else:
        print("metrics (host time unless a count):")
    for name, unit in table.items():
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    print(f"  {'error_rate':34s} {error_rate:>16.6f} ratio ({failed} of {attempted} failed)")
    if args.trace:
        print(f"  tracing overhead: {metrics['tracing.overhead_steps_per_s']:.1f} steps/s"
              f" ({100 * metrics['tracing.overhead_steps_per_s'] / untraced_rate:.1f}% of"
              f" {untraced_rate:.1f} untraced)")
    print(f"simulated ({workload}): {describe_stats(workload, units[0].stats)}")
    print(f"trace sha256: {units[0].digest}")
    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))

    result_dir = w.OUT / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": info,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table.items()},
        "unscaled": raw,
        "error_rate": error_rate, "attempted": attempted, "failed": failed,
        "simulated": units[0].stats, "digest": units[0].digest,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
    }
    (result_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = listed["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; one table at the end."""
    rows = {}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        result = ROOT / ".perfbench" / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        rows[workload] = json.loads(result.read_text()) if proc.returncode in (0, 1) else None
    names = list(PER_LAYER if args.trace else END_TO_END) + ["error_rate"]
    print("\n" + f"{'summary':34s} " + " ".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        cells = []
        for workload in WORKLOADS:
            row = rows[workload]
            if row is None:
                cells.append(f"{'-':>16s}")
            elif name == "error_rate":
                cells.append(f"{row['error_rate']:>16.6f}")
            else:
                cells.append(f"{row['metrics'][name]['value']:>16.4f}")
        unit = "ratio" if name == "error_rate" else (PER_LAYER | END_TO_END)[name]
        print(f"{name:34s} {' '.join(cells)} {unit}")
    print(json.dumps({"correct": code == 0, "workloads": {
        w: (None if r is None else {"failed": r["failed"], "attempted": r["attempted"]})
        for w, r in rows.items()}}))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mirrorsim" / "__init__.py").is_file():
        print(f"no mirrorsim sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
