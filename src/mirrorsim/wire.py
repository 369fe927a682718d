"""Line-delimited JSON protocol for driving a simulation from another process.

One session drives one run. The server opens with a ``hello`` carrying the
config summary; the client then probes, issues effector commands, and paces
the run with explicit ``step`` directives. Each request gets exactly one
reply; after the final step the server additionally emits ``run_complete``
and ends the session. See docs/protocol.md for the full grammar.
"""

from __future__ import annotations

import inspect
import json
import socket
import sys
from typing import Callable, Optional

from .config import THRESHOLD_FIELDS, ExperimentConfig
from .management import CommandKind, Effector, EffectorError, ProbeError
from .runner import (
    TRACE_FIELDS,
    RunResult,
    SatisfactionSummary,
    Simulation,
    TraceRecord,
    build_simulation,
    evaluate_satisfaction,
)

PROTOCOL_VERSION = 1
MAX_LINE_CHARS = 64 * 1024  # longest request line accepted, newline included
# One strict encoder for every outgoing message: the bytes of json.dumps for
# finite values, and a ValueError instead of a bare NaN or Infinity token.
_encode = json.JSONEncoder(allow_nan=False).encode

# Probe request kind -> (reply kind, encoder); the reply carries the encoded
# probe result under a key named like the reply kind.
PROBE_REPLIES = {
    "get_current_topology": ("topology", lambda topology: topology.value),
    "get_active_links": ("value", int),
    "get_bandwidth_consumption": ("value", int),
    "get_time_to_write": ("value", int),
    "get_monitorables": ("monitorables", lambda m: None if m is None else m._asdict()),
}
# Effector request kind -> its fields in call order: the Effector method's
# parameters are the wire grammar.
EFFECTOR_FIELDS = {
    kind.value: tuple(inspect.signature(getattr(Effector, kind.value)).parameters)[1:]
    for kind in CommandKind
}


def record_payload(record: TraceRecord) -> dict:
    """The record's fields by name; topologies by value, no switch as None."""
    timestep, topology, *values, adaptation = record
    return dict(zip(TRACE_FIELDS, (
        timestep, topology.value, *values,
        adaptation.value if adaptation is not None else None,
    )))


class WireSession:
    """One client session over text streams (one JSON message per line)."""

    def __init__(self, config: ExperimentConfig, rfile, wfile) -> None:
        self.config = config
        self.rfile = rfile
        self.wfile = wfile
        self.sim: Simulation = build_simulation(config)
        self._next_seq = 0
        self._last_client_seq: Optional[int] = None
        self._summary: Optional[SatisfactionSummary] = None  # set by the final step

    def run(self) -> RunResult:
        open_ = self._send(
            {"kind": "hello", "protocol": PROTOCOL_VERSION, "config": self._config_summary()}
        )
        while open_:
            line = self.rfile.readline(MAX_LINE_CHARS)
            if not line:
                break  # client disconnected; abort the run
            if len(line) == MAX_LINE_CHARS and not line.endswith("\n"):
                self._send_error(
                    None, "malformed_message", f"request line exceeds {MAX_LINE_CHARS} characters"
                )
                break
            line = line.strip()
            if line:
                open_ = self._handle_line(line)
        return RunResult(
            trace=self.sim.trace,
            summary=self._summary,
            command_log=self.sim.command_log,
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
        if kind in PROBE_REPLIES:
            return self._handle_probe(seq, kind)
        if kind in EFFECTOR_FIELDS:
            return self._handle_effector(seq, kind, message)
        self._send_error(seq, "unknown_kind", f"unknown message kind: {kind!r}")
        return False

    def _handle_step(self, seq: int) -> bool:
        self.sim.step()
        record = self.sim.trace[-1]
        sent = self._reply(
            seq,
            {"kind": "step_complete", "timestep": record.timestep, "record": record_payload(record)},
        )
        if not sent or not self.sim.finished:
            return sent
        summary = evaluate_satisfaction(self.sim.trace, self.config.properties.thresholds)
        if self._send({"kind": "run_complete", "summary": summary.as_dict()}):
            self._summary = summary
        return False  # the session ends with the run

    def _handle_probe(self, seq: int, kind: str) -> bool:
        reply_kind, encode = PROBE_REPLIES[kind]
        try:
            value = getattr(self.sim.probe, kind)()
        except ProbeError as exc:
            self._send_error(seq, "not_observable", str(exc))  # session continues
            return True
        return self._reply(seq, {"kind": reply_kind, reply_kind: encode(value)})

    def _handle_effector(self, seq: int, kind: str, message: dict) -> bool:
        try:
            args = [message[name] for name in EFFECTOR_FIELDS[kind]]
        except KeyError as exc:
            self._send_error(seq, "malformed_message", f"missing field {exc.args[0]!r}")
            return False
        try:
            getattr(self.sim.effector, kind)(*args)
        except EffectorError as exc:
            self._send_error(seq, "invalid_value", str(exc))  # session continues
            return True
        return self._reply(seq, {"kind": "ack", "command": kind})

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
                key: getattr(props.thresholds, field) for key, field in THRESHOLD_FIELDS.items()
            },
            "initial_topology": self.sim.current_topology.value,
            "disturbance_window": list(window) if window is not None else None,
        }

    def _reply(self, request_seq: int, payload: dict) -> bool:
        return self._send({"re": request_seq, **payload})

    def _send_error(self, request_seq: Optional[int], code: str, detail: str) -> None:
        message = {"kind": "error", "code": code, "detail": detail}
        if request_seq is not None:
            message["re"] = request_seq
        self._send(message)

    def _send(self, message: dict) -> bool:
        """Write one message; False ends the session.

        A message holding a NaN or an infinity is not sent: a
        ``non_finite_value`` error takes its sequence number instead.
        """
        try:
            line = _encode({"seq": self._next_seq, **message})
        except ValueError:
            self._send_error(
                message.get("re"),
                "non_finite_value",
                f"the {message['kind']} message holds a number JSON cannot carry (NaN or infinity)",
            )
            return False
        self._next_seq += 1
        try:
            self.wfile.write(line + "\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the read loop will see EOF and abort
        return True


def serve_stdio(config: ExperimentConfig) -> RunResult:
    """Run one session over stdio (stdout carries only protocol messages)."""
    return WireSession(config, sys.stdin, sys.stdout).run()


def serve_tcp(
    config: ExperimentConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready_callback: Optional[Callable[[int], None]] = None,
) -> RunResult:
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
