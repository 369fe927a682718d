"""Test-side wire client: a scripted line-JSON peer for one server session."""

from __future__ import annotations

import json
import socket
import threading
from collections import deque

from mirrorsim.wire import WireSession


class WireHarness:
    """Runs a WireSession on a background thread over a socketpair."""

    def __init__(self, config):
        self._server_sock, self._client_sock = socket.socketpair()
        self._server_sock.settimeout(30)
        self._client_sock.settimeout(30)
        self._server_r = self._server_sock.makefile("r", encoding="utf-8", newline="\n")
        self._server_w = self._server_sock.makefile("w", encoding="utf-8", newline="\n")
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

    def recv(self) -> dict:
        line = self.rfile.readline()
        if not line:
            raise AssertionError("server closed the session")
        self.received.append(line)
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


def drive_null_policy(harness: WireHarness) -> dict:
    """Step straight through the run without adapting; returns run_complete."""
    hello = harness.recv()
    assert hello["kind"] == "hello"
    for _ in range(hello["config"]["timesteps"]):
        reply = harness.request("step")
        assert reply["kind"] == "step_complete"
    final = harness.recv()
    assert final["kind"] == "run_complete"
    return final


def drive_threshold_policy(harness: WireHarness, window_length: int = 5, cooldown: int = 3) -> dict:
    """Remote reimplementation of the threshold rules; returns run_complete.

    The arithmetic mirrors the in-process manager exactly (same operations in
    the same order) so a shared seed must yield a byte-identical trace.
    """
    hello = harness.recv()
    config = hello["config"]
    total_links = config["total_links"]
    bandwidth_basis = total_links * config["bandwidth_per_link_range"][1]
    write_time_basis = total_links * config["unit_write_time_range"][1]
    thresholds = config["thresholds"]

    window: deque = deque(maxlen=window_length)
    last_switch = None
    for tick in range(config["timesteps"]):
        monitorables = harness.request("get_monitorables")["monitorables"]
        if monitorables is not None:
            window.append(
                (
                    100.0 * monitorables["active_links"] / total_links,
                    100.0 * monitorables["bandwidth_consumption"] / bandwidth_basis,
                    100.0 * monitorables["time_to_write"] / write_time_basis,
                )
            )
        if window and (last_switch is None or tick - last_switch > cooldown):
            count = len(window)
            links_mean = sum(entry[0] for entry in window) / count
            bandwidth_mean = sum(entry[1] for entry in window) / count
            write_time_mean = sum(entry[2] for entry in window) / count
            topology = harness.request("get_current_topology")["topology"]
            target = None
            if links_mean < thresholds["active_links_pct"] and topology == "mst":
                target = "rt"
            elif topology == "rt" and (
                bandwidth_mean > thresholds["bandwidth_pct"]
                or write_time_mean > thresholds["write_time_pct"]
            ):
                target = "mst"
            if target is not None:
                reply = harness.request("set_current_topology", topology=target)
                assert reply["kind"] == "ack"
                last_switch = tick
        harness.request("step")
    final = harness.recv()
    assert final["kind"] == "run_complete"
    return final
