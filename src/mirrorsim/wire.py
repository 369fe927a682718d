"""Line-delimited JSON protocol for driving a simulation from another process.

One session drives one run. The server opens with a ``hello`` carrying the
config summary; the client then probes, issues effector commands, and paces
the run with explicit ``step`` directives. Each request gets exactly one
reply; after the final step the server additionally emits ``run_complete``
and ends the session. See docs/protocol.md for the full grammar.
"""

from __future__ import annotations

import json
import socket
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .config import ExperimentConfig
from .management import EffectorError, ProbeError
from .runner import (
    SatisfactionSummary,
    Simulation,
    TraceRecord,
    build_simulation,
    evaluate_satisfaction,
)

PROTOCOL_VERSION = 1

PROBE_KINDS = frozenset(
    {
        "get_current_topology",
        "get_active_links",
        "get_bandwidth_consumption",
        "get_time_to_write",
        "get_monitorables",
    }
)
EFFECTOR_KINDS = frozenset(
    {
        "set_network_topology",
        "set_active_links",
        "set_time_to_write",
        "set_bandwidth_consumption",
        "set_current_topology",
    }
)


@dataclass(frozen=True)
class SessionResult:
    """What a session produced; ``summary`` is None when the client bailed out."""

    trace: tuple[TraceRecord, ...]
    summary: Optional[SatisfactionSummary]
    command_log: object
    completed: bool


def record_payload(record: TraceRecord) -> dict:
    return {
        "timestep": record.timestep,
        "topology": record.topology.value,
        "active_links": record.monitorables.active_links,
        "bandwidth_gbps": record.monitorables.bandwidth_consumption,
        "time_to_write_ms": record.monitorables.time_to_write,
        "active_links_pct": record.normalized.active_links_pct,
        "bandwidth_pct": record.normalized.bandwidth_pct,
        "write_time_pct": record.normalized.write_time_pct,
        "adaptation": record.adaptation.value if record.adaptation is not None else None,
    }


class WireSession:
    """One client session over text streams (one JSON message per line)."""

    def __init__(self, config: ExperimentConfig, rfile, wfile) -> None:
        self.config = config
        self.rfile = rfile
        self.wfile = wfile
        self.sim: Simulation = build_simulation(config)
        self._next_seq = 0
        self._last_client_seq: Optional[int] = None

    def run(self) -> SessionResult:
        self._send({"kind": "hello", "protocol": PROTOCOL_VERSION, "config": self._config_summary()})
        completed = False
        while True:
            line = self.rfile.readline()
            if not line:
                break  # client disconnected; abort the run
            line = line.strip()
            if not line:
                continue
            if not self._handle_line(line):
                break
            if self.sim.finished:
                completed = True
                break
        summary = (
            evaluate_satisfaction(self.sim.trace, self.config.properties.thresholds)
            if completed
            else None
        )
        return SessionResult(
            trace=tuple(self.sim.trace),
            summary=summary,
            command_log=self.sim.command_log,
            completed=completed,
        )

    def _handle_line(self, line: str) -> bool:
        """Process one request line; False terminates the session."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            self._send_error(None, "malformed_message", f"not valid JSON: {exc}")
            return False
        if not isinstance(message, dict):
            self._send_error(None, "malformed_message", "expected a JSON object")
            return False

        seq = message.get("seq")
        if isinstance(seq, bool) or not isinstance(seq, int):
            self._send_error(None, "malformed_message", "missing integer 'seq'")
            return False
        if self._last_client_seq is not None and seq <= self._last_client_seq:
            self._send_error(seq, "bad_sequence", "sequence numbers must strictly increase")
            return False
        self._last_client_seq = seq

        kind = message.get("kind")
        if not isinstance(kind, str):
            self._send_error(seq, "malformed_message", "missing string 'kind'")
            return False

        if kind == "step":
            return self._handle_step(seq)
        if kind in PROBE_KINDS:
            return self._handle_probe(seq, kind)
        if kind in EFFECTOR_KINDS:
            return self._handle_effector(seq, kind, message)
        self._send_error(seq, "unknown_kind", f"unknown message kind: {kind!r}")
        return False

    def _handle_step(self, seq: int) -> bool:
        if self.sim.finished:
            self._send_error(seq, "run_finished", "all timesteps already executed")
            return False
        record = self.sim.step()
        self._reply(
            seq,
            {"kind": "step_complete", "timestep": record.timestep, "record": record_payload(record)},
        )
        if self.sim.finished:
            summary = evaluate_satisfaction(self.sim.trace, self.config.properties.thresholds)
            self._send({"kind": "run_complete", "summary": summary.as_dict()})
        return True

    def _handle_probe(self, seq: int, kind: str) -> bool:
        probe = self.sim.probe
        try:
            if kind == "get_current_topology":
                self._reply(seq, {"kind": "topology", "topology": probe.get_current_topology().value})
            elif kind == "get_active_links":
                self._reply(seq, {"kind": "value", "value": probe.get_active_links()})
            elif kind == "get_bandwidth_consumption":
                self._reply(seq, {"kind": "value", "value": probe.get_bandwidth_consumption()})
            elif kind == "get_time_to_write":
                self._reply(seq, {"kind": "value", "value": probe.get_time_to_write()})
            else:  # get_monitorables
                monitorables = probe.get_monitorables()
                payload = None
                if monitorables is not None:
                    payload = {
                        "active_links": monitorables.active_links,
                        "bandwidth_consumption": monitorables.bandwidth_consumption,
                        "time_to_write": monitorables.time_to_write,
                    }
                self._reply(seq, {"kind": "monitorables", "monitorables": payload})
        except ProbeError as exc:
            self._send_error(seq, "not_observable", str(exc))  # session continues
        return True

    def _handle_effector(self, seq: int, kind: str, message: dict) -> bool:
        effector = self.sim.effector
        try:
            if kind == "set_network_topology":
                args = self._fields(message, "timestep", "topology")
                effector.set_network_topology(args["timestep"], args["topology"])
            elif kind == "set_active_links":
                effector.set_active_links(self._fields(message, "active_links")["active_links"])
            elif kind == "set_time_to_write":
                effector.set_time_to_write(self._fields(message, "time_to_write")["time_to_write"])
            elif kind == "set_bandwidth_consumption":
                effector.set_bandwidth_consumption(
                    self._fields(message, "bandwidth_consumption")["bandwidth_consumption"]
                )
            else:  # set_current_topology
                effector.set_current_topology(self._fields(message, "topology")["topology"])
        except KeyError as exc:
            self._send_error(seq, "malformed_message", f"missing field {exc.args[0]!r}")
            return False
        except EffectorError as exc:
            self._send_error(seq, "invalid_value", str(exc))  # session continues
            return True
        self._reply(seq, {"kind": "ack", "command": kind})
        return True

    @staticmethod
    def _fields(message: dict, *names: str) -> dict:
        return {name: message[name] for name in names}

    def _config_summary(self) -> dict:
        network = self.config.network
        props = self.config.properties
        ranges = self.config.ranges
        window = props.disturbance_window
        return {
            "scenario": props.scenario.value,
            "timesteps": props.timesteps,
            "seed": props.seed,
            "num_mirrors": network.num_mirrors,
            "total_links": network.total_links,
            "alpha": network.alpha,
            "bandwidth_per_link_range": list(network.bandwidth_per_link_range),
            "unit_write_time_range": list(network.unit_write_time_range),
            "mst_active_links_range": list(ranges.mst_active_links_range),
            "rt_active_links_range": list(ranges.rt_active_links_range),
            "thresholds": {
                "bandwidth_pct": props.thresholds.max_bandwidth_pct,
                "write_time_pct": props.thresholds.max_write_time_pct,
                "active_links_pct": props.thresholds.min_active_links_pct,
            },
            "initial_topology": self.sim.current_topology.value,
            "disturbance_window": list(window) if window is not None else None,
        }

    def _reply(self, request_seq: int, payload: dict) -> None:
        self._send({"re": request_seq, **payload})

    def _send_error(self, request_seq: Optional[int], code: str, detail: str) -> None:
        message = {"kind": "error", "code": code, "detail": detail}
        if request_seq is not None:
            message["re"] = request_seq
        self._send(message)

    def _send(self, message: dict) -> None:
        message = {"seq": self._next_seq, **message}
        self._next_seq += 1
        try:
            self.wfile.write(json.dumps(message) + "\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the read loop will see EOF and abort


def serve_stdio(config: ExperimentConfig, rfile=None, wfile=None) -> SessionResult:
    """Run one session over stdio (stdout carries only protocol messages)."""
    return WireSession(
        config,
        rfile if rfile is not None else sys.stdin,
        wfile if wfile is not None else sys.stdout,
    ).run()


def serve_tcp(
    config: ExperimentConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready_callback: Optional[Callable[[int], None]] = None,
) -> SessionResult:
    """Accept one local connection and run one session over it."""
    with socket.create_server((host, port)) as server:
        if ready_callback is not None:
            ready_callback(server.getsockname()[1])
        conn, _ = server.accept()
        with conn:
            rfile = conn.makefile("r", encoding="utf-8", newline="\n")
            wfile = conn.makefile("w", encoding="utf-8", newline="\n")
            try:
                return WireSession(config, rfile, wfile).run()
            finally:
                rfile.close()
                wfile.close()
