"""Line-delimited JSON protocol for driving a simulation from another process.

One session drives one run. The server opens with a ``hello`` carrying the
config summary; the client then probes, issues effector commands, and paces
the run with explicit ``step`` directives. Each request gets exactly one
reply; after the final step the server additionally emits ``run_complete``
and ends the session. See docs/protocol.md for the full grammar.

Every server line is the text of ``json.dumps`` with its default separators.
The three replies a session sends every step, ``step_complete``, the
``monitorables`` reply and ``ack``, are written from fixed ``%`` templates
with the same bytes; every other message, and a per-step reply holding a NaN
or an infinity, goes through the generic strict encoder, which answers the
latter with ``non_finite_value``.

:class:`WireSession` serves a session; :func:`run_remote` is the client.
"""

from __future__ import annotations

import inspect
import json
import socket
import sys
from functools import partial
from itertools import count
from operator import index
from types import SimpleNamespace
from typing import Callable, Optional

from .config import THRESHOLD_FIELDS, ExperimentConfig
from .management import CommandKind, Effector, EffectorError, ProbeError
from .network import Monitorables, Topology
from .runner import (
    TRACE_FIELDS,
    RunResult,
    SatisfactionSummary,
    Simulation,
    TraceRecord,
    _drive,
    build_simulation,
    evaluate_satisfaction,
)

PROTOCOL_VERSION = 1
MAX_LINE_CHARS = 64 * 1024  # longest request line accepted, newline included
# How every transport decodes request bytes: an invalid UTF-8 byte becomes a
# lone surrogate, which _handle_line answers with malformed_message.
DECODE_ERRORS = "surrogateescape"
# The generic strict encoder of outgoing messages: the bytes of json.dumps for
# finite values, and a ValueError instead of a bare NaN or Infinity token.
_encode = json.JSONEncoder(allow_nan=False).encode
_raw_decode = json.JSONDecoder().raw_decode

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


# The per-step replies as % templates with the bytes _encode gives the generic
# path's message: ", " and ": " separators, its key order, %r for a float
# (float.__repr__, which json calls too) and %d for an int.
_STEP_COMPLETE = (
    '{"seq": %d, "re": %d, "kind": "step_complete", "timestep": %d, "record": {'
    '"timestep": %d, "topology": %s, "active_links": %d, "bandwidth_gbps": %r, '
    '"time_to_write_ms": %r, "active_links_pct": %r, "bandwidth_pct": %r, '
    '"write_time_pct": %r, "adaptation": %s}}\n'
)
_MONITORABLES = (
    '{"seq": %d, "re": %d, "kind": "monitorables", "monitorables": {'
    '"active_links": %d, "bandwidth_consumption": %r, "time_to_write": %r}}\n'
)
_NO_MONITORABLES = '{"seq": %d, "re": %d, "kind": "monitorables", "monitorables": null}\n'
_ACK = {
    kind: '{"seq": %d, "re": %d, "kind": "ack", "command": ' + _encode(kind) + "}\n"
    for kind in EFFECTOR_FIELDS
}
# A topology or adaptation field as JSON text; no switch is null.
_TOPOLOGY_JSON = {None: "null", **{topology: _encode(topology.value) for topology in Topology}}


def _step_line(seq: int, request_seq: int, record: TraceRecord) -> Optional[str]:
    """The ``step_complete`` line for ``record``, or None when its floats do not
    sum to a finite number: one of them is a NaN or an infinity, or the sum
    overflowed. The generic path then sends the reply, or non_finite_value."""
    (timestep, topology, active_links, bandwidth, write_time,
     links_pct, bandwidth_pct, write_time_pct, adaptation) = record
    if (bandwidth + write_time + links_pct + bandwidth_pct + write_time_pct) * 0.0 != 0.0:
        return None
    return _STEP_COMPLETE % (
        seq, request_seq, timestep, timestep, _TOPOLOGY_JSON[topology], active_links,
        bandwidth, write_time, links_pct, bandwidth_pct, write_time_pct,
        _TOPOLOGY_JSON[adaptation],
    )


def _monitorables_line(
    seq: int, request_seq: int, monitorables: Optional[Monitorables]
) -> Optional[str]:
    """The ``monitorables`` reply line, or None, as in :func:`_step_line`, when
    its floats do not sum to a finite number."""
    if monitorables is None:
        return _NO_MONITORABLES % (seq, request_seq)
    active_links, bandwidth, write_time = monitorables
    if (bandwidth + write_time) * 0.0 != 0.0:
        return None
    return _MONITORABLES % (seq, request_seq, active_links, bandwidth, write_time)


def _loads(line: str):
    """``json.loads(line)`` for a line with no surrounding whitespace: one
    ``raw_decode`` when it takes the whole line, else ``json.loads`` itself,
    so a line that fails raises exactly what ``json.loads`` raises."""
    try:
        message, end = _raw_decode(line)
    except (ValueError, RecursionError):
        end = None
    return message if end == len(line) else json.loads(line)


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
            if not line.isascii():
                line.encode("utf-8")  # fails on a byte that DECODE_ERRORS escaped
            message = _loads(line)  # stripped by run()
        except UnicodeEncodeError:
            self._send_error(None, "malformed_message", "not valid UTF-8")
            return False
        except (ValueError, RecursionError) as exc:
            # ValueError: a JSONDecodeError, or an integer past the interpreter's
            # digit limit; RecursionError: nesting past the decoder's depth limit.
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
        line = _step_line(self._next_seq, seq, record)
        sent = self._write(line) if line is not None else self._reply(
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
        if kind == "get_monitorables":
            line = _monitorables_line(self._next_seq, seq, value)
            if line is not None:
                return self._write(line)
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
        return self._write(_ACK[kind] % (self._next_seq, seq))

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
        return self._write(line + "\n")

    def _write(self, line: str) -> bool:
        """Write one encoded line, newline included, as message ``_next_seq``."""
        self._next_seq += 1
        try:
            self.wfile.write(line)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the read loop will see EOF and abort
        return True


def serve_stdio(config: ExperimentConfig) -> RunResult:
    """Run one session over stdio (stdout carries only protocol messages)."""
    sys.stdin.reconfigure(encoding="utf-8", errors=DECODE_ERRORS)
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
            rfile = conn.makefile("r", encoding="utf-8", errors=DECODE_ERRORS, newline="\n")
            wfile = conn.makefile("w", encoding="utf-8", newline="\n")
            try:
                return WireSession(config, rfile, wfile).run()
            finally:
                rfile.close()
                wfile.close()


class WireError(RuntimeError):
    """The server ended the session, or broke the protocol."""


# Error codes after which the session goes on -> the in-process exception.
_RECOVERABLE = {"not_observable": ProbeError, "invalid_value": EffectorError}
# Probe reply kind -> the in-process type of its value.
_DECODE = {
    "topology": Topology,
    "value": int,
    "monitorables": lambda m: None if m is None else Monitorables(**m),
}


def _read(rfile, kind: Optional[str] = None) -> dict:
    """The next server message, a JSON object with a string kind (``kind``
    itself when given); anything else, or the end of the stream, raises WireError."""
    line = rfile.readline()
    if not line:
        raise WireError("the server ended the session")
    try:
        message = json.loads(line)
    except (ValueError, RecursionError):
        message = None
    if not isinstance(message, dict) or not isinstance(message.get("kind"), str):
        raise WireError(f"expected a message object with a string kind, got {line.strip()}")
    if kind is not None and message["kind"] != kind:
        raise WireError(f"expected {kind}, got {line.strip()}")
    return message


def _field(message: dict, key: str, decode: Callable):
    """``decode(message[key])``; a missing key, or a value ``decode`` refuses,
    raises WireError."""
    try:
        return decode(message[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WireError(f"bad {key} in {message}: {exc!r}") from None


def connect(rfile, wfile) -> tuple[SimpleNamespace, SimpleNamespace, Callable[[], dict]]:
    """The probe, effector and step of a client session past its hello.

    Each call is one request; the methods are built from ``PROBE_REPLIES`` and
    ``EFFECTOR_FIELDS``. An error reply the session survives raises as in
    process (``_RECOVERABLE``); any other, and any reply not of the grammar,
    raises WireError.
    """
    seqs = count(1)

    def request(kind: str, **fields) -> dict:
        seq = next(seqs)
        # Not the strict encoder: the server's effector refuses a NaN, as in process.
        wfile.write(json.dumps({"seq": seq, "kind": kind, **fields}) + "\n")
        wfile.flush()
        reply = _read(rfile)
        if reply.get("re") != seq:
            raise WireError(f"expected the reply to request {seq}, got {reply}")
        if reply["kind"] == "error":
            code = reply.get("code")
            if not isinstance(code, str):
                raise WireError(f"expected an error code, got {reply}")
            raise _RECOVERABLE.get(code, WireError)(f"{code}: {reply.get('detail')}")
        return reply

    def probe(kind: str, reply_kind: str):
        return lambda: _field(request(kind), reply_kind, _DECODE[reply_kind])

    def effector(kind: str, names: tuple):
        return lambda *args: request(kind, **{
            name: arg.value if isinstance(arg, Topology) else arg for name, arg in zip(names, args)
        })

    probes = {kind: probe(kind, reply) for kind, (reply, _) in PROBE_REPLIES.items()}
    effectors = {kind: effector(kind, names) for kind, names in EFFECTOR_FIELDS.items()}
    return SimpleNamespace(**probes), SimpleNamespace(**effectors), partial(request, "step")


def run_remote(manager, rfile, wfile) -> SatisfactionSummary:
    """Drive a new session with an in-process manager under ``run``'s contract;
    return its ``run_complete`` summary (the server keeps trace and log). An
    unexpected server message or an early end raises WireError, or a
    ManagerError it caused inside ``decide``."""
    timesteps = _field(_read(rfile, "hello"), "config", lambda config: index(config["timesteps"]))
    _drive(manager, *connect(rfile, wfile), timesteps)
    return _field(_read(rfile, "run_complete"), "summary",
                  lambda summary: SatisfactionSummary(**summary))
