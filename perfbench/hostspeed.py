"""Host-speed calibration: fixed reference loops timed beside the workload.

On a shared virtual machine the host runs the same code at different speeds
from one minute to the next (stolen time, a busy sibling core, contended
caches), so two runs of the same code can differ by a third. The benchmark
times a reference loop before every block of workload rounds and reports
each host time scaled to a reference host, on which the loop takes its
``REFERENCE_NS``:

    slowness        = calibration time / REFERENCE_NS
    normalized time = measured time / slowness

A change to mirrorsim moves the workload's time but not the loop's, so it
shows in full; a slower host moves both, and the ratio cancels it. The
loops run no mirrorsim code and keep no garbage-collected object alive, so
they do not bring a collection of the workload's heap forward.

There are two loops, one per kind of work, because each tracks its own kind
best on a shared host:

- :func:`interpreter_slowness`, for the in-process workloads: calls,
  attribute reads and writes, dict updates and float arithmetic, as in a
  simulation step;
- :class:`PipeEcho`, for the wire: round trips over a pair of pipes to a
  thread of the same process that decodes and re-encodes one JSON line, as
  the wire client and server do.

The reference host is CPython 3.11.7 on a quiet 2.0 GHz Xeon vCPU.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

INTERPRETER_ITERATIONS = 5_000
INTERPRETER_REFERENCE_NS = 1_200_000
PIPE_ROUND_TRIPS = 40
PIPE_REFERENCE_NS = 550_000
# Calibrations are smoothed over this many neighbours (a centred running
# median), so that one interrupted calibration does not rescale its block.
SMOOTHING = 5
# One line the size of a wire request (a monitorables reply is about this).
PIPE_MESSAGE = json.dumps({
    "seq": 12345, "kind": "monitorables", "t": 123,
    "monitorables": {"active_links": 150, "bandwidth_consumption": 4123.456789,
                     "time_to_write": 2345.678901, "topology": "mst"},
}).encode() + b"\n"


class _Cell:
    __slots__ = ("value", "step")

    def __init__(self) -> None:
        self.value = 0.0
        self.step = 1.0001


def _mix(x: float, key: int) -> float:
    return x * 0.25 - key


def _kernel(cell: _Cell, table: dict, n: int) -> float:
    acc = 0.0
    for i in range(n):
        x = cell.value * cell.step + i
        key = i & 63
        table[key] = table.get(key, 0.0) * 0.5 + x
        acc += _mix(x, key)
        cell.value = x if x < 1e6 else 0.0
    return acc


_CELL = _Cell()
_TABLE: dict = {}


def interpreter_slowness() -> float:
    """Time of the interpreter loop relative to the reference host."""
    start = time.perf_counter_ns()
    _kernel(_CELL, _TABLE, INTERPRETER_ITERATIONS)
    return (time.perf_counter_ns() - start) / INTERPRETER_REFERENCE_NS


class PipeEcho:
    """A thread that answers each JSON line on one pipe on another pipe.

    ``close`` closes the pipes and waits for the thread to end.
    """

    def __init__(self) -> None:
        self._request_r, self._request_w = os.pipe()
        self._reply_r, self._reply_w = os.pipe()
        self._thread = threading.Thread(target=self._serve, name="pipe-echo", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            line = os.read(self._request_r, 4096)
            if not line:
                break
            os.write(self._reply_w, json.dumps(json.loads(line)).encode() + b"\n")

    def slowness(self) -> float:
        """Time of the pipe round trips relative to the reference host."""
        start = time.perf_counter_ns()
        for _ in range(PIPE_ROUND_TRIPS):
            os.write(self._request_w, PIPE_MESSAGE)
            os.read(self._reply_r, 4096)
        return (time.perf_counter_ns() - start) / PIPE_REFERENCE_NS

    def close(self) -> None:
        os.close(self._request_w)
        self._thread.join()
        for fd in (self._request_r, self._reply_r, self._reply_w):
            os.close(fd)


def smoothed(values) -> list[float]:
    """Centred running median, one value per input."""
    values = list(values)
    half = SMOOTHING // 2
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def scales(slowness) -> list[float]:
    """Per-calibration factor that turns measured time into normalized time."""
    return [1.0 / value for value in smoothed(slowness)]
