"""Span recording around mirrorsim's public callables, from outside ``src/``.

The tracer replaces each target attribute with a wrapper that records one
span per call: name, start, end, parent span, run id, a per-call measure
(rows rendered, switch decided) and whether the call raised. Spans live in
flat ``array`` columns in memory and are written out when the traced run
ends. Targets are patched where the calling module looks them up, so
``mirrorsim.runner.normalize`` and ``mirrorsim.managers.normalize`` are two
patches that record under one span name.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

COLUMNS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "i"),
           ("run", "i"), ("units", "q"), ("err", "b"))


def _rows(args, result):
    return len(args[0])


def _switched(args, result):
    return 1 if result is not None and result.switch_to is not None else 0


def targets():
    """(owner, attribute, span name, measure, starts_run) for every wrapped callable."""
    import mirrorsim
    import mirrorsim.cli
    import mirrorsim.managers
    import mirrorsim.runner
    import mirrorsim.wire
    from mirrorsim.config import ExperimentConfig
    from mirrorsim.management import Effector, Probe
    from mirrorsim.managers import ThresholdRuleManager
    from mirrorsim.runner import Simulation

    runner, wire, cli = mirrorsim.runner, mirrorsim.wire, mirrorsim.cli
    found = [
        (mirrorsim, "load_config", "config.load_config", None, False),
        (cli, "load_config", "config.load_config", None, False),
        # A run starts where its config is derived: the CLI batch loop, the
        # serve command and the benchmark all call with_updates once per run.
        (ExperimentConfig, "with_updates", "config.with_updates", None, True),
        (runner, "sample_base_monitorables", "network.sample_base", None, False),
        (runner, "apply_disturbance", "scenarios.apply_disturbance", None, False),
        (runner, "normalize", "runner.normalize", None, False),
        (mirrorsim.managers, "normalize", "runner.normalize", None, False),
        (Simulation, "step", "runner.step", None, False),
        (runner, "build_simulation", "runner.build_simulation", None, False),
        (wire, "build_simulation", "runner.build_simulation", None, False),
        (runner, "evaluate_satisfaction", "runner.evaluate_satisfaction", None, False),
        (wire, "evaluate_satisfaction", "runner.evaluate_satisfaction", None, False),
        (mirrorsim, "render_trace_csv", "runner.render_trace_csv", _rows, False),
        (runner, "render_trace_csv", "runner.render_trace_csv", _rows, False),
        (mirrorsim, "run", "runner.run", None, False),
        (ThresholdRuleManager, "decide", "managers.decide", _switched, False),
        (cli, "main", "cli.main", None, False),
        (cli, "run", "cli.run", None, False),
        (cli, "write_trace_csv", "cli.write_trace_csv", None, False),
        (cli, "emit_plot_data", "cli.emit_plot_data", None, False),
        (cli, "create_manager", "cli.create_manager", None, False),
        (cli, "serve_stdio", "wire.serve_stdio", None, False),
    ]
    for method in ("get_current_topology", "get_active_links", "get_bandwidth_consumption",
                   "get_time_to_write", "get_monitorables"):
        found.append((Probe, method, f"management.probe.{method}", None, False))
    for method in ("set_network_topology", "set_current_topology", "set_active_links",
                   "set_time_to_write", "set_bandwidth_consumption"):
        found.append((Effector, method, f"management.effector.{method}", None, False))
    return found


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for column, code in COLUMNS:
            setattr(self, column, array(code))
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, measure=None, starts_run: bool = False):
        name_id = self._name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        runs, units, errs, stack = self.run, self.units, self.err, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if starts_run:
                tracer.run_id += 1
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            units.append(0)
            errs.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errs[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                units[index] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attribute, name, measure, starts_run in targets():
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, measure, starts_run))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        """Write the spans as one JSON header line followed by the raw columns."""
        path = Path(path)
        header = {"names": self.names,
                  "columns": [[column, code, len(getattr(self, column))] for column, code in COLUMNS]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column, _ in COLUMNS:
                getattr(self, column).tofile(handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            for name in header["names"]:
                tracer._name_id(name)
            for column, code, count in header["columns"]:
                values = array(code)
                values.fromfile(handle, count)
                setattr(tracer, column, values)
        return tracer


class SpanStats:
    """Per-name durations, self times, call counts, measures and errors (ns)."""

    def __init__(self, tracers) -> None:
        self.durations: dict[str, list[int]] = {}
        self.self_times: dict[str, list[int]] = {}
        self.units: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.runs: set[int] = set()
        for tracer in tracers:
            self._add(tracer)

    def _add(self, tracer: Tracer) -> None:
        starts, ends, parents = tracer.start, tracer.end, tracer.parent
        child_time = [0] * len(starts)
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        for index in range(len(starts)):
            name = tracer.names[tracer.name[index]]
            duration = ends[index] - starts[index]
            self.durations.setdefault(name, []).append(duration)
            self.self_times.setdefault(name, []).append(duration - child_time[index])
            self.units[name] = self.units.get(name, 0) + tracer.units[index]
            self.errors[name] = self.errors.get(name, 0) + tracer.err[index]
            if tracer.run[index] > 0:
                self.runs.add(tracer.run[index])

    def names(self, prefix: str) -> list[str]:
        return [name for name in self.durations if name.startswith(prefix)]

    def count(self, *names: str) -> int:
        return sum(len(self.durations.get(name, ())) for name in names)

    def median_us(self, *names: str, self_time: bool = False) -> float:
        source = self.self_times if self_time else self.durations
        values = [value for name in names for value in source.get(name, ())]
        return statistics.median(values) / 1e3 if values else 0.0

    def total_ns(self, *names: str, self_time: bool = False) -> int:
        source = self.self_times if self_time else self.durations
        return sum(sum(source.get(name, ())) for name in names)
