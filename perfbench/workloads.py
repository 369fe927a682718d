"""The three closed-loop workloads of the mirrorsim benchmark.

Each workload unit builds its inputs from the workload seed, runs once, and
returns a :class:`Unit` holding host timings, the SHA-256 digest of what the
run wrote, and the simulated statistics. Only the timed phase is timed;
digesting and checking happen after it.

- ``long_threshold``: one in-process ``mirrorsim.run()`` of S3 with the
  threshold manager for ``LONG_STEPS`` steps.
- ``sweep``: the canonical CLI batch (S0..S6 x 30 seeds x 100 steps,
  ``--plot-data``) through ``mirrorsim.cli.main`` into a scratch directory.
- ``wire_effector``: a scripted client drives ``mirrorsim serve --stdio``
  (a child process) through one S6 session of ``WIRE_STEPS`` steps.

The caller must put the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import hostspeed
import mirrorsim
import mirrorsim.cli
from mirrorsim.management import EffectorError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

LONG_STEPS = 100_000
SWEEP_SCENARIOS = ("S0", "S1", "S2", "S3", "S4", "S5", "S6")
SWEEP_SEEDS = 30
SWEEP_STEPS = 100
WIRE_STEPS = 20_000
FULL_SIZE = {"long_threshold": LONG_STEPS, "sweep": SWEEP_SEEDS, "wire_effector": WIRE_STEPS}
# A host-speed calibration runs before every BLOCK rounds: about every 60 ms
# in process and over the wire. The end-to-end figures are medians over
# windows of WINDOW rounds, enough for ten beyond a window's p99: 60 ms in
# process, 250 ms over the wire, 20 runs in the sweep.
BLOCK = {"long_threshold": 2_000, "sweep": 20, "wire_effector": 250}
WINDOW = {"long_threshold": 2_000, "sweep": 20, "wire_effector": 1_000}

# The configuration file every workload loads: the documented defaults,
# spelled out so that load_config parses a complete file.
BASE_CONFIG = {
    "number_of_mirrors": 25,
    "timesteps": 100,
    "scenario": "S0",
    "seed": 0,
    "alpha": 1.0,
    "bandwidth_per_link_range": [20.0, 30.0],
    "unit_write_time_range": [10.0, 20.0],
    "mst_active_links_range_pct": [35.0, 50.0],
    "rt_active_links_range_pct": [60.0, 90.0],
    "thresholds": {"bandwidth_pct": 40.0, "write_time_pct": 45.0, "active_links_pct": 35.0},
    "disturbances": {},
    "disturbance_window": None,
}

# A session that hears nothing for this long is over: the client kills the
# server and counts the request as unanswered.
WIRE_TIMEOUT_S = 60.0


@dataclass
class Unit:
    """One execution of a workload: timings (ns), output digest, statistics."""

    steps: int
    wall_ns: int
    digest: str
    stats: dict
    rounds: array = field(default_factory=lambda: array("q"))
    calibrations: array = field(default_factory=lambda: array("d"))
    block: int = 1
    window: int = 1
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def steps_per_s(self) -> float:
        return self.steps / (self.wall_ns / 1e9)


def write_base_config() -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / "config.json"
    path.write_text(json.dumps(BASE_CONFIG, indent=2) + "\n", encoding="utf-8")
    return path


def simulation_seed(workload: str, seed: int) -> int:
    return Random(f"{workload}:{seed}").randrange(2**32)


def sweep_seeds(seed: int, count: int = SWEEP_SEEDS) -> list[int]:
    return sorted(Random(f"sweep:{seed}").sample(range(1_000_000), count))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary_stats(summary, switches: int) -> dict:
    return {
        "mean_active_links_pct": summary["mean_active_links_pct"],
        "mean_bandwidth_pct": summary["mean_bandwidth_pct"],
        "mean_write_time_pct": summary["mean_write_time_pct"],
        "mr": summary["mr_satisfied"],
        "mc": summary["mc_satisfied"],
        "mp": summary["mp_satisfied"],
        "switches": switches,
    }


class RoundClock:
    """Closed-loop round durations (ns), with host-speed calibrations between them.

    Before every ``block``-th round it calls ``calibrate``, a reference loop
    of :mod:`hostspeed` that returns the host's slowness; that time is left
    out of every round and of the unit's wall time, so block ``k`` of the
    rounds belongs to calibration ``k``.
    """

    def __init__(self, block: int, calibrate=hostspeed.interpreter_slowness) -> None:
        self.block = block
        self.calibrate = calibrate
        self.rounds = array("q")
        self.calibrations = array("d")
        self.calibration_ns = 0
        self._last = None

    def between_rounds(self) -> None:
        """Calibrate if the next round starts a block."""
        if len(self.rounds) % self.block == 0:
            start = time.perf_counter_ns()
            self.calibrations.append(self.calibrate())
            self.calibration_ns += time.perf_counter_ns() - start

    def tick(self) -> None:
        """Mark the start of a round, ending the previous one."""
        now = time.perf_counter_ns()
        if self._last is not None:
            self.rounds.append(now - self._last)
        self.between_rounds()
        self._last = time.perf_counter_ns()

    def stop(self) -> int:
        """End the last round; returns the stop time."""
        now = time.perf_counter_ns()
        if self._last is not None:
            self.rounds.append(now - self._last)
            self._last = None
        return now


class ClockedManager:
    """Manager proxy whose ``decide`` starts a round.

    The run invokes ``decide`` once per timestep, so consecutive decisions
    bracket one closed-loop round: decide, effector, step.
    """

    def __init__(self, manager, clock: RoundClock) -> None:
        self._manager = manager
        self._clock = clock

    def decide(self, probe):
        self._clock.tick()
        return self._manager.decide(probe)


# -- long_threshold ---------------------------------------------------------


def long_threshold(config_path: Path, seed: int, steps: int = LONG_STEPS,
                   keep: bool = False) -> Unit:
    """One in-process threshold run of S3; ``keep`` returns the result in ``detail``."""
    config = mirrorsim.load_config(config_path).with_updates(
        scenario="S3", seed=simulation_seed("long_threshold", seed), timesteps=steps
    )
    manager = mirrorsim.create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds,
        seed=config.properties.seed,
    )
    clock = RoundClock(BLOCK["long_threshold"])
    manager = ClockedManager(manager, clock)
    gc.collect()
    start = time.perf_counter_ns()
    result = mirrorsim.run(manager, config)
    end = clock.stop()
    digest = hashlib.sha256(mirrorsim.render_trace_csv(result.trace).encode()).hexdigest()
    unit = Unit(
        steps=steps, wall_ns=end - start - clock.calibration_ns, digest=digest,
        stats=_summary_stats(result.summary.as_dict(), len(result.command_log)),
        rounds=clock.rounds, calibrations=clock.calibrations, block=clock.block,
        window=WINDOW["long_threshold"],
        attempted=1,
    )
    if keep:
        unit.detail.update(config=config, result=result)
    return unit


def replay_matches(kept: dict, digest: str) -> bool:
    """Replaying a kept run's command log must render the same trace bytes."""
    replayed = mirrorsim.replay(kept["result"].command_log, kept["config"])
    return hashlib.sha256(mirrorsim.render_trace_csv(replayed.trace).encode()).hexdigest() == digest


def retained_bytes_per_step(trace, sample: int = 10_000) -> float:
    """Bytes one retained TraceRecord holds, over the first ``sample`` records.

    Counts each record's object graph (the record, its monitorables and
    normalized tuple, their attribute dicts and numbers) plus its slot in the
    container. Enum members and CPython's cached small ints are shared by all
    records and are not counted.
    """
    records = trace[:sample]
    total = 0
    for record in records:
        total += 8 + _deep_size(record)
    return total / len(records)


def _deep_size(obj) -> int:
    if isinstance(obj, enum.Enum) or obj is None or isinstance(obj, bool):
        return 0
    if isinstance(obj, int) and -5 <= obj <= 256:
        return 0
    size = sys.getsizeof(obj)
    if isinstance(obj, tuple):
        return size + sum(_deep_size(item) for item in obj)
    if hasattr(obj, "__dict__"):
        attributes = vars(obj)
        return size + sys.getsizeof(attributes) + sum(_deep_size(v) for v in attributes.values())
    return size


# -- sweep ------------------------------------------------------------------


def sweep(config_path: Path, seed: int, seeds: int = SWEEP_SEEDS) -> Unit:
    """The canonical CLI batch; a round is one scenario x seed run with its files."""
    OUT.mkdir(exist_ok=True)
    output_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
    argv = [
        "run", "--config", str(config_path), "--scenario", ",".join(SWEEP_SCENARIOS),
        "--seeds", ",".join(map(str, sweep_seeds(seed, seeds))),
        "--timesteps", str(SWEEP_STEPS), "--manager", "threshold", "--plot-data",
        "--output-dir", str(output_dir),
    ]
    runs = len(SWEEP_SCENARIOS) * seeds
    clock = RoundClock(BLOCK["sweep"])
    original = mirrorsim.cli.create_manager

    def create_manager(*args, **kwargs):
        clock.tick()
        return original(*args, **kwargs)

    mirrorsim.cli.create_manager = create_manager
    try:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter_ns()
            code = mirrorsim.cli.main(argv)
            end = clock.stop()
    finally:
        mirrorsim.cli.create_manager = original
    try:
        files = sorted(p for p in output_dir.iterdir() if p.is_file())
        listing = "".join(f"{p.name}\t{sha256_file(p)}\n" for p in files)
        stats = _sweep_stats(output_dir)
        written = sum(p.stat().st_size for p in files)
    finally:
        shutil.rmtree(output_dir, ignore_errors=True)
    expected_files = runs * 3 + 1
    failed = 0 if code == 0 and len(files) == expected_files else runs
    return Unit(
        steps=runs * SWEEP_STEPS, wall_ns=end - start - clock.calibration_ns,
        digest=hashlib.sha256(listing.encode()).hexdigest(), stats=stats,
        rounds=clock.rounds, calibrations=clock.calibrations, block=clock.block,
        window=WINDOW["sweep"],
        attempted=runs, failed=failed,
        detail={"bytes_written": written, "exit_code": code, "files": len(files)},
    )


def _adaptations(trace_path: Path) -> int:
    """Trace rows whose last cell (``adaptation``) names a topology."""
    lines = trace_path.read_text(encoding="utf-8").splitlines()[1:]
    return sum(1 for line in lines if not line.endswith(","))


def _sweep_stats(output_dir: Path) -> dict:
    rows = (output_dir / "rollup.csv").read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    records = [dict(zip(header, row.split(","))) for row in rows[1:]]
    switches = sum(_adaptations(trace) for trace in output_dir.glob("*_trace.csv"))
    count = len(records)
    return {
        "runs": count,
        "mean_active_links_pct": sum(float(r["mean_active_links_pct"]) for r in records) / count,
        "mean_bandwidth_pct": sum(float(r["mean_bandwidth_pct"]) for r in records) / count,
        "mean_write_time_pct": sum(float(r["mean_write_time_pct"]) for r in records) / count,
        "mr_satisfied_runs": sum(r["mr_satisfied"] == "true" for r in records),
        "mc_satisfied_runs": sum(r["mc_satisfied"] == "true" for r in records),
        "mp_satisfied_runs": sum(r["mp_satisfied"] == "true" for r in records),
        "switches": switches,
    }


# -- wire_effector ----------------------------------------------------------


class EffectorScript:
    """The wire client's policy: one effector command per timestep.

    The command rotates through the five effectors; its values come from the
    script's own seeded stream and from the monitorables just observed. Every
    command stays inside the documented contract: active links within
    [0, total_links], scalar overrides equal to an undisturbed sample for the
    observed link count, and topology targets at or before the second-to-last
    step. On the final step only ``set_active_links`` is sent.
    """

    def __init__(self, seed: int, hello: dict) -> None:
        self.rng = Random(f"wire_effector:client:{seed}")
        self.total_links = hello["total_links"]
        self.timesteps = hello["timesteps"]
        self.alpha = hello["alpha"]
        self.write_range = hello["unit_write_time_range"]
        self.bandwidth_range = hello["bandwidth_per_link_range"]
        self.min_links_pct = hello["thresholds"]["active_links_pct"]

    def command(self, t: int, observed) -> tuple[str, dict]:
        rng = self.rng
        links = observed["active_links"] if observed is not None else self.total_links // 2
        rotation = t % 5 if t < self.timesteps - 1 else 0
        if rotation == 0:
            value = min(max(links + rng.randint(-15, 15), 0), self.total_links)
            return "set_active_links", {"active_links": value}
        if rotation == 1:
            return "set_time_to_write", {
                "time_to_write": self.alpha * links * rng.uniform(*self.write_range)}
        if rotation == 2:
            return "set_bandwidth_consumption", {
                "bandwidth_consumption": self.alpha * links * rng.uniform(*self.bandwidth_range)}
        if rotation == 3:
            target = min(t + rng.randint(1, 8), self.timesteps - 2)
            return "set_network_topology", {
                "timestep": target, "topology": rng.choice(("mst", "rt"))}
        wanted = "rt" if 100.0 * links / self.total_links < self.min_links_pct else "mst"
        if rng.random() < 0.2:
            wanted = "mst" if wanted == "rt" else "rt"
        return "set_current_topology", {"topology": wanted}


def wire_server_argv(config_path: Path, seed: int, steps: int, output_dir=None) -> list[str]:
    argv = ["serve", "--stdio", "--config", str(config_path), "--scenario", "S6",
            "--seed", str(simulation_seed("wire_effector", seed)), "--timesteps", str(steps)]
    if output_dir is not None:
        argv += ["--output-dir", str(output_dir)]
    return argv


def spawn_server(argv: list[str], launcher=None, stderr=subprocess.DEVNULL) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    program = [sys.executable, str(launcher)] if launcher else [sys.executable, "-m", "mirrorsim"]
    return subprocess.Popen(program + argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=stderr)


def reap(proc: subprocess.Popen):
    """Close the pipes, wait for the child and return its resource usage."""
    for pipe in (proc.stdin, proc.stdout):
        with contextlib.suppress(OSError):
            pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class WireClient:
    """Line-JSON client for one session; records per-request timings (ns)."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.seq = 0
        self.sent = 0
        self.received = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.errors = 0
        self.unanswered = 0

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            return None
        self.received += 1
        self.bytes_in += len(line)
        return json.loads(line)

    def request(self, kind: str, fields=None):
        self.seq += 1
        message = {"seq": self.seq, "kind": kind}
        if fields:
            message.update(fields)
        line = (json.dumps(message) + "\n").encode()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        self.sent += 1
        self.bytes_out += len(line)
        reply = self.read()
        if reply is None or reply.get("re") != self.seq:
            self.unanswered += 1
            raise EOFError(f"no reply to {kind} (seq {self.seq})")
        if reply["kind"] == "error":
            self.errors += 1
        return reply


def wire_effector(config_path: Path, seed: int, steps: int = WIRE_STEPS, launcher=None,
                  launcher_args=(), script=EffectorScript) -> Unit:
    """One S6 session against ``mirrorsim serve --stdio`` driven by ``script``."""
    OUT.mkdir(exist_ok=True)
    output_dir = Path(tempfile.mkdtemp(prefix="wire-", dir=OUT))
    echo = hostspeed.PipeEcho()
    rounds = RoundClock(BLOCK["wire_effector"], echo.slowness)
    timings = {kind: array("q") for kind in ("probe", "effector", "step")}
    argv = list(launcher_args) + wire_server_argv(config_path, seed, steps, output_dir)
    with open(OUT / "server-stderr.log", "wb") as stderr:
        proc = spawn_server(argv, launcher, stderr)
    watchdog = threading.Timer(WIRE_TIMEOUT_S, proc.kill)
    watchdog.start()
    client = WireClient(proc)
    completed = False
    clock = time.perf_counter_ns
    start = end = clock()
    cpu_ns = 0
    try:
        hello = client.read()
        start = clock()
        policy = script(seed, hello["config"])
        cpu_start = time.process_time_ns()
        for t in range(steps):
            rounds.between_rounds()
            t0 = clock()
            observed = client.request("get_monitorables")["monitorables"]
            t1 = clock()
            kind, fields = policy.command(t, observed)
            t2 = clock()
            client.request(kind, fields)
            t3 = clock()
            client.request("step")
            t4 = clock()
            timings["probe"].append(t1 - t0)
            timings["effector"].append(t3 - t2)
            timings["step"].append(t4 - t3)
            rounds.rounds.append(t4 - t0)
        done = client.read()
        end = clock()
        cpu_ns = time.process_time_ns() - cpu_start - rounds.calibration_ns
        completed = done is not None and done.get("kind") == "run_complete"
    except (EOFError, KeyError, TypeError, ValueError) as exc:
        print(f"wire session failed: {exc!r}", file=sys.stderr)
        end = clock()
    finally:
        watchdog.cancel()
        usage = reap(proc)
        echo.close()
    try:
        trace_path = next(output_dir.glob("*_trace.csv"), None)
        summary_path = next(output_dir.glob("*_summary.json"), None)
        digest = sha256_file(trace_path) if trace_path else ""
        adaptations = _adaptations(trace_path) if trace_path else 0
        written = sum(p.stat().st_size for p in output_dir.iterdir())
        summary = json.loads(summary_path.read_text()) if summary_path else None
    finally:
        shutil.rmtree(output_dir, ignore_errors=True)
    ok = completed and proc.returncode == 0 and summary is not None
    # The managers layer is bypassed here: switches counts manager decisions,
    # adaptations counts topology changes the effectors landed.
    stats = dict(_summary_stats(summary, 0), adaptations=adaptations) if summary else {}
    failed = client.errors + client.unanswered + (0 if ok else 1)
    return Unit(
        steps=steps, wall_ns=end - start - rounds.calibration_ns, digest=digest, stats=stats,
        rounds=rounds.rounds, calibrations=rounds.calibrations, block=rounds.block,
        window=WINDOW["wire_effector"],
        attempted=max(client.sent, 1), failed=failed,
        detail={
            "server_cpu_ns": int((usage.ru_utime + usage.ru_stime) * 1e9),
            "server_maxrss_kib": usage.ru_maxrss,
            "client_cpu_ns": cpu_ns,
            "timings": timings,
            "messages": client.sent + client.received,
            "bytes_in": client.bytes_in,
            "bytes_out": client.bytes_out,
            "bytes_written": written,
            "errors": client.errors,
        },
    )


def wire_redrive(config_path: Path, seed: int, steps: int = WIRE_STEPS,
                 script=EffectorScript) -> tuple[str, str, int, object]:
    """The wire script re-driven in process through build_simulation + Effector.

    Returns the re-drive's trace digest, the digest of ``mirrorsim.replay``
    of its command log, the number of rejected commands, and the trace.
    """
    config = mirrorsim.load_config(config_path).with_updates(
        scenario="S6", seed=simulation_seed("wire_effector", seed), timesteps=steps
    )
    sim = mirrorsim.build_simulation(config)
    network, props = config.network, config.properties
    hello = {
        "total_links": network.total_links, "timesteps": props.timesteps, "alpha": network.alpha,
        "unit_write_time_range": list(network.unit_write_time_range),
        "bandwidth_per_link_range": list(network.bandwidth_per_link_range),
        "thresholds": {"active_links_pct": props.thresholds.min_active_links_pct},
    }
    policy = script(seed, hello)
    rejected = 0
    for t in range(steps):
        monitorables = sim.probe.get_monitorables()
        observed = None if monitorables is None else {
            "active_links": monitorables.active_links,
            "bandwidth_consumption": monitorables.bandwidth_consumption,
            "time_to_write": monitorables.time_to_write,
        }
        kind, fields = policy.command(t, observed)
        try:
            getattr(sim.effector, kind)(**fields)
        except EffectorError:
            rejected += 1
        sim.step()
    digest = hashlib.sha256(mirrorsim.render_trace_csv(sim.trace).encode()).hexdigest()
    replayed = mirrorsim.replay(sim.command_log, config)
    replay_digest = hashlib.sha256(mirrorsim.render_trace_csv(replayed.trace).encode()).hexdigest()
    return digest, replay_digest, rejected, sim.trace


def wire_setup_ns(config_path: Path, seed: int) -> int:
    """Host time from spawning the server until its ``hello`` line is read."""
    start = time.perf_counter_ns()
    proc = spawn_server(wire_server_argv(config_path, seed, WIRE_STEPS))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter_ns() - start
    finally:
        reap(proc)
    if not line or json.loads(line).get("kind") != "hello":
        raise RuntimeError("server did not open with hello")
    return elapsed
