"""Line-delimited JSON protocol for driving a simulation from another process.

One session drives one run. The server opens with a ``hello`` carrying the
config summary; the client then probes, issues effector commands, and paces
the run with explicit ``step`` directives. Each request gets exactly one
reply; after the final step the server additionally emits ``run_complete``
and ends the session. See docs/protocol.md for the full grammar.

A session reads each request line as bytes, decoded as UTF-8 once, and writes
each reply in one ``write``. Every server line is the text of ``json.dumps``
with its default separators. The three replies a session sends every step,
``step_complete``, the ``monitorables`` reply and ``ack``, are written only
from fixed bytes ``%`` templates with the same bytes; every other message goes
through the generic strict encoder. A message that would hold a NaN or an
infinity is not sent: ``non_finite_value`` takes its place and ends the session.

A session serves each request through one table from request kind to handler,
built when the session is: the probe and effector methods of its own
simulation are bound into it once, so a request costs one lookup past the
checks every request gets. The ``step_complete`` record is built from the
values the step itself drew, not read back from the trace, and the texts of
its two drawn floats are reused by every ``monitorables`` reply of that row.

:class:`WireSession` serves a session. :func:`run_remote` is the client; its
probe answers from the last ``step_complete`` record and sends no request.
"""

from __future__ import annotations

import inspect
import json
import sys
from functools import partial
from itertools import count
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Optional

from . import runner
from .config import THRESHOLD_FIELDS, ExperimentConfig
from .management import CommandKind, Effector, EffectorError, Probe, ProbeError
from .network import Monitorables, Topology, _is_int
from .runner import (
    TRACE_FIELDS,
    RunResult,
    SatisfactionSummary,
    Simulation,
    _drive,
    build_simulation,
    evaluate_satisfaction,
)

PROTOCOL_VERSION = 1
MAX_LINE_CHARS = 64 * 1024  # longest request line accepted, in characters, newline included
_MAX_LINE_BYTES = 4 * MAX_LINE_CHARS  # of UTF-8: at most four bytes a character
# How a session decodes request bytes: an invalid UTF-8 byte becomes a lone
# surrogate, which _handle_line answers with malformed_message.
DECODE_ERRORS = "surrogateescape"
# The generic strict encoder of outgoing messages: the bytes of json.dumps for
# finite values, and a ValueError instead of a bare NaN or Infinity token.
_encode = json.JSONEncoder(allow_nan=False).encode
# The decoder's scanner, which raw_decode wraps in a Python frame.
_scan_once = json.JSONDecoder().scan_once

# Probe request kind -> (reply kind, encoder); the reply carries the encoded
# probe result under a key named like the reply kind. The monitorables reply
# is written from its template, so that probe has no encoder.
PROBE_REPLIES = {
    "get_current_topology": ("topology", lambda topology: topology.value),
    "get_active_links": ("value", int),
    "get_bandwidth_consumption": ("value", int),
    "get_time_to_write": ("value", int),
    "get_monitorables": ("monitorables", None),
}
# Effector request kind -> its fields in call order: the Effector method's
# parameters are the wire grammar.
EFFECTOR_FIELDS = {
    kind.value: tuple(inspect.signature(getattr(Effector, kind.value)).parameters)[1:]
    for kind in CommandKind
}


def _object_template(fields: tuple, codes: str) -> str:
    """A JSON object of ``fields`` in order, each value a ``%`` slot of its code."""
    return "{%s}" % ", ".join(
        "%s: %%%s" % (_encode(field), code) for field, code in zip(fields, codes, strict=True)
    )


# The per-step replies as bytes % templates with _encode's bytes for the same
# message: ", " and ": " separators, the record's field order, %d for an int,
# %a for a float (its repr, which json writes too), %b for a drawn float
# already written as its repr's bytes, or for a topology's JSON text.
_STEP_COMPLETE = (
    '{"seq": %d, "re": %d, "kind": "step_complete", "timestep": %d, "record": '
    + _object_template(TRACE_FIELDS, "dbdbbaaab") + "}\n"
).encode()
_MONITORABLES = (
    '{"seq": %d, "re": %d, "kind": "monitorables", "monitorables": '
    + _object_template(Monitorables._fields, "dbb") + "}\n"
).encode()
_NO_MONITORABLES = b'{"seq": %d, "re": %d, "kind": "monitorables", "monitorables": null}\n'
_ACK = {
    kind: ('{"seq": %d, "re": %d, "kind": "ack", "command": ' + _encode(kind) + "}\n").encode()
    for kind in EFFECTOR_FIELDS
}
# A topology or adaptation field as JSON text; no switch is null.
_TOPOLOGY_JSON = {topology: _encode(topology.value).encode() for topology in Topology}
_TOPOLOGY_JSON[None] = b"null"


def _slots(monitorables: Monitorables) -> Optional[tuple[int, bytes, bytes]]:
    """A row's slots in both per-step templates, the link count and each float
    as its repr's bytes, or None when a float is a NaN or an infinity: ``x *
    0.0`` is a zero for every finite ``x``, so their sum is one and cannot overflow."""
    active_links, bandwidth, write_time = monitorables
    if bandwidth * 0.0 + write_time * 0.0 != 0.0:
        return None
    return active_links, repr(bandwidth).encode(), repr(write_time).encode()


def _step_line(seq: int, request_seq: int, timestep: int, topology: Topology, slots: tuple,
               normalized: tuple, adaptation: Optional[Topology]) -> Optional[bytes]:
    """The ``step_complete`` line of a row drawn as ``slots``, or None, as in
    :func:`_slots`, when a ``normalized`` float is a NaN or an infinity."""
    links_pct, bandwidth_pct, write_time_pct = normalized
    if links_pct * 0.0 + bandwidth_pct * 0.0 + write_time_pct * 0.0 != 0.0:
        return None
    return _STEP_COMPLETE % (
        seq, request_seq, timestep, timestep, _TOPOLOGY_JSON[topology], *slots,
        links_pct, bandwidth_pct, write_time_pct, _TOPOLOGY_JSON[adaptation],
    )


def _nothing(*args) -> None:
    """The write and the flush of a session whose client went away."""


class WireSession:
    """One client session over byte streams (one JSON message per line):
    ``rfile.readline(limit)``, ``wfile.write`` and ``wfile.flush``.

    ``_handlers`` maps each request kind to its handler, ``handler(seq,
    message)``, built once per session: this session's own probe and effector
    methods are bound into it, each effector with the getter of its fields and
    its ``ack`` template, so answers still go through :class:`Probe` and
    :class:`Effector`.
    """

    def __init__(self, config: ExperimentConfig, rfile, wfile) -> None:
        self.config = config
        self.rfile = rfile
        self.wfile = wfile
        self._out, self._flush = wfile.write, wfile.flush
        self.sim: Simulation = build_simulation(config)
        self._next_seq = 0
        self._last_client_seq: Optional[int] = None
        self._summary: Optional[SatisfactionSummary] = None  # set by the final step
        self._drawn = self._drawn_slots = None  # the row the last step drew, its slots
        probe, effector = self.sim.probe, self.sim.effector
        self._handlers: dict[str, Callable[[int, dict], bool]] = {
            "step": self._handle_step,
            **{
                kind: partial(self._handle_probe, getattr(probe, kind), reply_kind, encode)
                for kind, (reply_kind, encode) in PROBE_REPLIES.items() if encode is not None
            },
            "get_monitorables": partial(self._handle_monitorables, probe.get_monitorables),
            **{
                kind: partial(self._handle_effector, getattr(effector, kind), itemgetter(*names),
                              len(names) > 1, _ACK[kind])
                for kind, names in EFFECTOR_FIELDS.items()
            },
        }

    def run(self) -> RunResult:
        open_ = self._send(
            {"kind": "hello", "protocol": PROTOCOL_VERSION, "config": self._config_summary()}
        )
        readline = self.rfile.readline
        while open_:
            line = readline(_MAX_LINE_BYTES).decode("utf-8", DECODE_ERRORS)
            if not line:
                break  # client disconnected; abort the run
            # Too long when its first MAX_LINE_CHARS characters do not end it.
            if len(line) >= MAX_LINE_CHARS and line[MAX_LINE_CHARS - 1] != "\n":
                self._send_error(
                    None, "malformed_message", f"request line exceeds {MAX_LINE_CHARS} characters"
                )
                break
            line = line.strip()
            if line:
                open_ = self._handle_line(line)
        sim = self.sim
        return RunResult(trace=sim.trace, summary=self._summary, command_log=sim.command_log)

    def _handle_line(self, line: str) -> bool:
        """Process one request line, stripped by run(); False terminates the session.
        A line one scan does not take whole goes to ``json.loads``, to raise its error."""
        try:
            if not line.isascii():
                line.encode("utf-8")  # fails on a byte that DECODE_ERRORS escaped
            try:
                message, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):  # StopIteration: no value at 0
                end = None
            if end != len(line):
                message = json.loads(line)
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
        if not _is_int(seq):
            self._send_error(None, "malformed_message", "missing integer 'seq'")
            return False
        if self._last_client_seq is not None and seq <= self._last_client_seq:
            self._send_error(seq, "bad_sequence", "sequence numbers must strictly increase")
            return False
        self._last_client_seq = seq

        kind = message.get("kind")
        if not isinstance(kind, str):  # before the lookup: a list or object is unhashable
            self._send_error(seq, "malformed_message", "missing string 'kind'")
            return False
        handler = self._handlers.get(kind)
        if handler is None:
            self._send_error(seq, "unknown_kind", f"unknown message kind: {kind!r}")
            return False
        return handler(seq, message)

    def _handle_step(self, seq: int, message: dict) -> bool:
        """Step, and reply with the row the step drew, built as ``Trace``
        builds it: a switch landed exactly when the topology changed."""
        sim = self.sim
        before = sim.current_topology
        sim.step()
        topology = sim.current_topology
        drawn = sim.latest_monitorables
        slots = _slots(drawn)
        line = slots and _step_line(self._next_seq, seq, sim.timestep - 1, topology, slots,
                                    runner.normalize(drawn, sim.network),
                                    None if topology is before else topology)
        if line is None:
            return self._refuse_non_finite(seq, "step_complete")
        self._drawn, self._drawn_slots = drawn, slots
        self._write(line)
        if sim.timestep < sim.timesteps:
            return True
        summary = evaluate_satisfaction(sim.trace, self.config.properties.thresholds)
        if self._send({"kind": "run_complete", "summary": summary.as_dict()}):
            self._summary = summary
        return False  # the session ends with the run

    def _handle_probe(self, probe: Callable, reply_kind: str, encode: Callable, seq: int,
                      message: dict) -> bool:
        try:
            value = probe()
        except ProbeError as exc:
            self._send_error(seq, "not_observable", str(exc))  # session continues
            return True
        return self._send({"re": seq, "kind": reply_kind, reply_kind: encode(value)})

    def _handle_monitorables(self, get_monitorables: Callable, seq: int, message: dict) -> bool:
        """The template reply, from the last step's slots when the probe
        returns the row that step drew; ``get_monitorables`` answers None
        before the first step rather than raising ProbeError."""
        monitorables = get_monitorables()
        if monitorables is None:
            return self._write(_NO_MONITORABLES % (self._next_seq, seq))
        slots = self._drawn_slots if monitorables is self._drawn else _slots(monitorables)
        if slots is None:
            return self._refuse_non_finite(seq, "monitorables")
        return self._write(_MONITORABLES % (self._next_seq, seq, *slots))

    def _handle_effector(self, effector: Callable, fields: Callable, spread: bool, ack: bytes,
                         seq: int, message: dict) -> bool:
        """``fields``, an ``itemgetter``, returns one field's value, or a tuple to ``spread``."""
        try:
            args = fields(message)
        except KeyError as exc:
            self._send_error(seq, "malformed_message", f"missing field {exc.args[0]!r}")
            return False
        try:
            effector(*args) if spread else effector(args)
        except EffectorError as exc:
            self._send_error(seq, "invalid_value", str(exc))  # session continues
            return True
        return self._write(ack % (self._next_seq, seq))

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

    def _send_error(self, request_seq: Optional[int], code: str, detail: str) -> None:
        message = {"kind": "error", "code": code, "detail": detail}
        if request_seq is not None:
            message["re"] = request_seq
        self._send(message)

    def _refuse_non_finite(self, request_seq: Optional[int], kind: str) -> bool:
        """Send ``non_finite_value`` in place of a ``kind`` message; False ends the session."""
        detail = f"the {kind} message holds a number JSON cannot carry (NaN or infinity)"
        self._send_error(request_seq, "non_finite_value", detail)
        return False

    def _send(self, message: dict) -> bool:
        """Write one message through the strict encoder; False ends the session."""
        try:
            line = _encode({"seq": self._next_seq, **message})
        except ValueError:
            return self._refuse_non_finite(message.get("re"), message["kind"])
        return self._write((line + "\n").encode())

    def _write(self, line: bytes) -> bool:
        """Write one encoded line, newline included, as message ``_next_seq``."""
        self._next_seq += 1
        try:
            self._out(line)
            self._flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client went away; the read loop will see EOF and abort. Closed,
            # the writer holds nothing to flush at exit, and is written no more.
            try:
                self.wfile.close()
            except OSError:
                pass  # the close's own flush fails the same way
            self._out = self._flush = _nothing
        return True


def serve_stdio(config: ExperimentConfig) -> RunResult:
    """Run one session over stdio (stdout carries only protocol messages)."""
    return WireSession(config, sys.stdin.buffer, sys.stdout.buffer).run()


def serve_tcp(config: ExperimentConfig, host: str = "127.0.0.1", port: int = 0, *,
              ready_callback: Optional[Callable[[int], None]] = None) -> RunResult:
    """Accept one local connection and run one session over it."""
    import socket  # here only: a stdio server never loads it

    with socket.create_server((host, port)) as server:
        if ready_callback is not None:
            ready_callback(server.getsockname()[1])
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as rfile, conn.makefile("wb") as wfile:
            return WireSession(config, rfile, wfile).run()


class WireError(RuntimeError):
    """The server ended the session, or broke the protocol. ``code`` is the
    server's error code, or None when the server broke the grammar."""

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.code = code


def _hello(config: dict) -> tuple[int, Topology]:
    """A ``hello`` config's ``timesteps`` (a JSON integer ``>= 1``) and ``initial_topology``."""
    if not _is_int(timesteps := config["timesteps"]):
        raise ValueError(f"expected an integer, got {timesteps!r}")
    if timesteps < 1:
        raise ValueError(f"expected timesteps >= 1, got {timesteps}")
    return timesteps, Topology(config["initial_topology"])


def _observed(record: dict) -> tuple[Topology, Monitorables]:
    """A ``step_complete`` record's topology and monitorables, checked as in process."""
    return Topology(record["topology"]), Monitorables(
        record["active_links"], record["bandwidth_gbps"], record["time_to_write_ms"]
    )


def _read(rfile, kind: Optional[str] = None) -> dict:
    """The next server message, a UTF-8 line holding a JSON object with a
    string kind (``kind`` itself when given); anything else, or the end of the
    stream, raises WireError."""
    line = rfile.readline()
    if not line:
        raise WireError("the server ended the session")
    try:
        message = json.loads(line.decode())
    except (ValueError, RecursionError):  # a UnicodeDecodeError is a ValueError
        message = None
    if not isinstance(message, dict) or not isinstance(message.get("kind"), str):
        raise WireError(f"expected a message object with a string kind, got {_shown(line)}")
    if kind is not None and message["kind"] != kind:
        raise WireError(f"expected {kind}, got {_shown(line)}")
    return message


def _shown(line: bytes) -> str:
    """A server line as text for a WireError message."""
    return line.decode(errors="replace").strip()


def _field(message: dict, key: str, decode: Callable):
    """``decode(message[key])``; a missing key, or a value ``decode`` refuses,
    raises WireError."""
    try:
        return decode(message[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad {key} in {message}: {exc!r}") from None


def _requester(rfile, wfile) -> tuple[Callable[..., dict], SimpleNamespace]:
    """``request(kind, reply_kind, **fields)``, one request of a session past
    its hello, and the effector over it. An ``invalid_value`` reply raises
    EffectorError, as in process; any other error reply, a reply of another
    kind than ``reply_kind``, and any reply not of the grammar, raises WireError."""
    seqs = count(1)

    def request(kind: str, reply_kind: str, **fields) -> dict:
        seq = next(seqs)
        # Not the strict encoder: the server's effector refuses a NaN, as in process.
        wfile.write(json.dumps({"seq": seq, "kind": kind, **fields}).encode() + b"\n")
        wfile.flush()
        reply = _read(rfile)
        if reply.get("re") != seq:
            raise WireError(f"expected the reply to request {seq}, got {reply}")
        if reply["kind"] == "error":
            code = reply.get("code")
            if not isinstance(code, str):
                raise WireError(f"expected an error code, got {reply}")
            message = f"{code}: {reply.get('detail')}"
            if code == "invalid_value":
                raise EffectorError(message)
            raise WireError(message, code)
        if reply["kind"] != reply_kind:
            raise WireError(f"expected {reply_kind} for request {seq}, got {reply}")
        return reply

    def effector(kind: str, names: tuple):
        return lambda *args: request(kind, "ack", **{
            name: arg.value if isinstance(arg, Topology) else arg for name, arg in zip(names, args)
        })

    effectors = {kind: effector(kind, names) for kind, names in EFFECTOR_FIELDS.items()}
    return request, SimpleNamespace(**effectors)


def connect(rfile, wfile, initial_topology: Topology) -> tuple[Probe, SimpleNamespace, Callable]:
    """The probe, effector and step of a client session past its hello.

    Each effector call and each step is one request of :func:`_requester`. The
    probe is a :class:`Probe` over what the session last told, so it sends
    nothing: ``initial_topology`` (the hello's), then each ``step_complete``
    record, which fixes every answer until the next step (WireError if bad)."""
    request, effector = _requester(rfile, wfile)
    seen = SimpleNamespace(current_topology=initial_topology, latest_monitorables=None)

    def step() -> None:
        reply = request("step", "step_complete")
        seen.current_topology, seen.latest_monitorables = _field(reply, "record", _observed)

    return Probe(seen), effector, step


def run_remote(manager, rfile, wfile) -> SatisfactionSummary:
    """Drive a new session with an in-process manager under ``run``'s contract;
    return its ``run_complete`` summary (the server keeps trace and log). An
    unexpected server message or an early end raises WireError. ``rfile`` and
    ``wfile`` are binary streams, as a session's are."""
    timesteps, initial_topology = _field(_read(rfile, "hello"), "config", _hello)
    _drive(manager, *connect(rfile, wfile, initial_topology), timesteps)
    return _field(_read(rfile, "run_complete"), "summary", lambda f: SatisfactionSummary(**f))
