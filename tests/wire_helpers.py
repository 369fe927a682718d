"""Test-side wire client: a scripted line-JSON peer for one server session,
the reference encodings of a trace record and of a probed monitorables record
as wire payloads, and their lines as the server's templates write them."""

from __future__ import annotations

import json
import socket
import threading

from mirrorsim.network import Monitorables
from mirrorsim.runner import TRACE_FIELDS, TraceRecord
from mirrorsim.wire import _MONITORABLES, _NO_MONITORABLES, WireSession, _slots, _step_line


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
        self.rfile = self._client_sock.makefile("r", encoding="utf-8", newline="\n")
        self.wfile = self._client_sock.makefile("w", encoding="utf-8", newline="\n")
        self._seq = 0
        self.received: list[str] = []  # every server line, verbatim
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

    def readline(self) -> str:
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
        return self.rfile.readline() == ""

    def send_raw(self, text: str) -> None:
        self.wfile.write(text + "\n")
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

