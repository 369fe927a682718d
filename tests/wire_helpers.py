"""Test-side wire clients: a scripted line-JSON peer for one server session,
the reference client that sends one request per probe, the reference
encodings of a trace record and of a probed monitorables record as wire
payloads, and their lines as the server's templates write them."""

from __future__ import annotations

import json
import socket
import threading
from types import SimpleNamespace

from mirrorsim.management import ProbeError
from mirrorsim.network import Monitorables, Topology, _is_int
from mirrorsim.runner import TRACE_FIELDS, SatisfactionSummary, TraceRecord, _drive
from mirrorsim.wire import (
    _MONITORABLES,
    _NO_MONITORABLES,
    PROBE_REPLIES,
    WireError,
    WireSession,
    _field,
    _hello,
    _read,
    _requester,
    _slots,
    _step_line,
)


def _integer(value: object) -> int:
    """A JSON integer as it is: a float, a bool or a string raises ValueError
    rather than being truncated or converted."""
    if not _is_int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


# Probe reply kind -> the decoder of its value into the in-process type.
_DECODE = {
    "topology": Topology,
    "value": _integer,
    "monitorables": lambda fields: None if fields is None else Monitorables(**fields),
}


def reference_connect(rfile, wfile):
    """The probe, effector and step of a client session past its hello, each
    probe one request answered by the server's own ``Probe``: the reference
    that ``wire.connect``'s local probe must agree with. A ``not_observable``
    reply raises ProbeError, as in process."""
    request, effector = _requester(rfile, wfile)

    def probe(kind: str, reply_kind: str):
        def ask():
            try:
                return _field(request(kind, reply_kind), reply_kind, _DECODE[reply_kind])
            except WireError as exc:
                if exc.code == "not_observable":
                    raise ProbeError(str(exc)) from None
                raise

        return ask

    probes = {kind: probe(kind, reply) for kind, (reply, _) in PROBE_REPLIES.items()}
    return SimpleNamespace(**probes), effector, lambda: request("step", "step_complete")


def reference_run_remote(manager, rfile, wfile) -> SatisfactionSummary:
    """``wire.run_remote`` over :func:`reference_connect`."""
    timesteps, _ = _field(_read(rfile, "hello"), "config", _hello)
    _drive(manager, *reference_connect(rfile, wfile), timesteps)
    return _field(_read(rfile, "run_complete"), "summary", lambda f: SatisfactionSummary(**f))


def record_payload(record: TraceRecord) -> dict:
    """The ``step_complete`` record as the generic JSON encoder takes it: the
    record's fields by name, topologies by value, no switch as None."""
    timestep, topology, *values, adaptation = record
    return dict(zip(TRACE_FIELDS, (
        timestep, topology.value, *values,
        adaptation.value if adaptation is not None else None,
    ), strict=True))


def monitorables_payload(monitorables: Monitorables | None) -> dict | None:
    """The ``monitorables`` reply's payload as the generic JSON encoder takes
    it: the fields by name, or None before the first completed step."""
    return None if monitorables is None else monitorables._asdict()


def record_line(seq: int, request_seq: int, record: TraceRecord) -> bytes | None:
    """The ``step_complete`` line of ``record`` from the server's template, its
    drawn floats formatted by ``_slots``; None when a float is not finite."""
    slots = _slots(record[2:5])
    return slots and _step_line(seq, request_seq, record.timestep, record.topology, slots,
                                record[5:8], record.adaptation)


def monitorables_line(seq: int, request_seq: int, monitorables: Monitorables | None):
    """The ``monitorables`` reply line from the server's templates; None when
    a float is not finite."""
    if monitorables is None:
        return _NO_MONITORABLES % (seq, request_seq)
    slots = _slots(monitorables)
    return slots and _MONITORABLES % (seq, request_seq, *slots)


class RequestRecorder:
    """A client's binary writer that keeps the kind of every request line it forwards."""

    def __init__(self, wfile):
        self._wfile = wfile
        self.kinds: list[str] = []

    def write(self, data: bytes) -> int:
        self.kinds.extend(json.loads(line)["kind"] for line in data.splitlines())
        return self._wfile.write(data)

    def flush(self) -> None:
        self._wfile.flush()


class WireHarness:
    """Runs a WireSession on a background thread over a socketpair; the harness
    is the client's line reader: ``run_remote(manager, harness, harness.wfile)``."""

    def __init__(self, config):
        self._server_sock, self._client_sock = socket.socketpair()
        self._server_sock.settimeout(30)
        self._client_sock.settimeout(30)
        self._server_r = self._server_sock.makefile("rb")
        self._server_w = self._server_sock.makefile("wb")
        self._session = WireSession(config, self._server_r, self._server_w)
        self.result = None
        self.rfile = self._client_sock.makefile("rb")
        self.wfile = self._client_sock.makefile("wb")
        self._seq = 0
        self.received: list[bytes] = []  # every server line, verbatim
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            self.result = self._session.run()
        finally:
            # Close the server side so the client observes EOF, mirroring
            # what serve_tcp's connection teardown does.
            for handle in (self._server_w, self._server_r):
                try:
                    handle.close()
                except OSError:
                    pass
            try:
                self._server_sock.close()
            except OSError:
                pass

    def readline(self) -> bytes:
        line = self.rfile.readline()
        if line:
            self.received.append(line)
        return line

    def recv(self) -> dict:
        line = self.readline()
        if not line:
            raise AssertionError("server closed the session")
        return json.loads(line)

    def recv_eof(self) -> bool:
        return self.rfile.readline() == b""

    def send_raw(self, text: str) -> None:
        self.wfile.write(text.encode() + b"\n")
        self.wfile.flush()

    def send(self, kind: str, *, seq=None, **fields) -> int:
        if seq is None:
            self._seq += 1
            seq = self._seq
        else:
            self._seq = seq
        self.send_raw(json.dumps({"seq": seq, "kind": kind, **fields}))
        return seq

    def request(self, kind: str, **fields) -> dict:
        self.send(kind, **fields)
        return self.recv()

    def close(self):
        for handle in (self.wfile, self.rfile):
            try:
                handle.close()
            except OSError:
                pass
        for sock in (self._client_sock,):
            try:
                sock.close()
            except OSError:
                pass
        self._thread.join(timeout=30)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

