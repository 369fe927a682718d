"""The client half of the wire: a manager run through ``run_remote`` against a
``WireSession`` serves the run that ``run()`` makes in process."""

from __future__ import annotations

import io
import json
import math

import pytest

import mirrorsim.runner
from mirrorsim.config import config_from_mapping
from mirrorsim.management import CommandKind, EffectorCommand, EffectorError, ProbeError
from mirrorsim.managers import MANAGER_NAMES, NullManager, ThresholdRuleManager, create_manager
from mirrorsim.network import Topology
from mirrorsim.runner import (
    ManagerError,
    NormalizedMetrics,
    build_simulation,
    render_trace_csv,
    replay,
    run,
)
from mirrorsim.scenarios import ScenarioId
from mirrorsim.wire import WireError, WireSession, connect, run_remote

from wire_helpers import WireHarness

CASES = [
    (name, scenario.value, seed)
    for name in MANAGER_NAMES
    for scenario in ScenarioId
    for seed in (7, 2021)
]


def _manager(name: str, config):
    return create_manager(
        name,
        network=config.network,
        thresholds=config.properties.thresholds,
        seed=config.properties.seed,
    )


@pytest.mark.parametrize(("manager_name", "scenario", "seed"), CASES)
def test_a_remote_run_serves_the_in_process_run(manager_name, scenario, seed):
    config = config_from_mapping({"scenario": scenario, "seed": seed, "timesteps": 200})
    in_process = run(_manager(manager_name, config), config)
    with WireHarness(config) as harness:
        summary = run_remote(_manager(manager_name, config), harness, harness.wfile)
    served = harness.result
    assert render_trace_csv(served.trace) == render_trace_csv(in_process.trace)
    assert served.command_log == in_process.command_log
    assert served.summary == summary == in_process.summary
    assert replay(served.command_log, config).trace == served.trace


def test_remote_probes_return_the_in_process_values(make_config):
    config = make_config(scenario="S3", seed=4, timesteps=2)
    sim = build_simulation(config)
    with WireHarness(config) as harness:
        harness.recv()  # hello
        probe, _, step = connect(harness, harness.wfile)
        for name in ("get_active_links", "get_bandwidth_consumption", "get_time_to_write"):
            with pytest.raises(ProbeError, match="no completed timestep"):
                getattr(probe, name)()
        assert probe.get_monitorables() is None
        assert probe.get_current_topology() is sim.probe.get_current_topology()
        step()
        sim.step()
        for name in ("get_current_topology", "get_active_links", "get_bandwidth_consumption",
                     "get_time_to_write", "get_monitorables"):
            remote, local = getattr(probe, name)(), getattr(sim.probe, name)()
            assert type(remote) is type(local) and remote == local


def test_a_refused_override_raises_effector_error_and_the_session_goes_on(make_config):
    with WireHarness(make_config(scenario="S2", seed=1, timesteps=2)) as harness:
        harness.recv()  # hello
        _, effector, step = connect(harness, harness.wfile)
        with pytest.raises(EffectorError, match="non-finite"):
            effector.set_time_to_write(1.7e308)
        with pytest.raises(EffectorError, match="unknown topology"):
            effector.set_network_topology(0, "star")
        effector.set_network_topology(1, Topology.MST)  # S2 starts under RT
        step()
        step()
        assert harness.recv()["kind"] == "run_complete"
    assert harness.result.completed
    assert harness.result.command_log == [
        EffectorCommand(CommandKind.SET_NETWORK_TOPOLOGY, Topology.MST, 0, 1)
    ]
    assert harness.result.trace[1].adaptation is Topology.MST


def _hello_only(config) -> io.StringIO:
    """A server stream that ends right after its hello."""
    out = io.BytesIO()
    WireSession(config, io.BytesIO(), out).run()
    return io.StringIO(out.getvalue().decode())


def test_a_session_that_ends_after_hello_raises(make_config):
    config = make_config(timesteps=3)
    with pytest.raises(WireError, match="ended the session"):
        run_remote(NullManager(), _hello_only(config), io.StringIO())
    # A probe in decide meets the end first: the manager's failure, caused by it.
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    with pytest.raises(ManagerError) as caught:
        run_remote(manager, _hello_only(config), io.StringIO())
    assert caught.value.timestep == 0
    assert isinstance(caught.value.__cause__, WireError)


def test_a_session_the_server_ends_mid_run_raises(make_config, monkeypatch):
    # A fault in the server's step normalization stands in for a step whose
    # values JSON cannot carry: the server answers with an error and ends.
    def infinite_normalize(monitorables, network):
        return NormalizedMetrics(math.inf, 0.0, 0.0)

    monkeypatch.setattr(mirrorsim.runner, "normalize", infinite_normalize)
    with WireHarness(make_config(seed=1, timesteps=5)) as harness:
        with pytest.raises(WireError, match="non_finite_value"):
            run_remote(NullManager(), harness, harness.wfile)
    assert not harness.result.completed


@pytest.mark.parametrize("line", [
    pytest.param("not json", id="not_json"),
    pytest.param("[1, 2]", id="not_an_object"),
    pytest.param('{"seq": 0, "re": 1}', id="no_kind"),
    pytest.param('{"seq": 0, "re": 1, "kind": "error", "detail": "x"}', id="error_with_no_code"),
    pytest.param('{"seq": 0, "re": 1, "kind": "ack"}', id="probe_reply_with_no_value"),
    pytest.param('{"seq": 0, "re": 2, "kind": "value", "value": 3}', id="reply_to_another_request"),
])
def test_a_malformed_reply_raises_wire_error(line):
    probe, _, _ = connect(io.StringIO(line + "\n"), io.StringIO())
    with pytest.raises(WireError):
        probe.get_active_links()


def test_a_reply_of_another_kind_than_step_complete_raises_wire_error():
    _, _, step = connect(io.StringIO('{"seq": 0, "re": 1, "kind": "ack"}\n'), io.StringIO())
    with pytest.raises(WireError, match="expected step_complete"):
        step()


@pytest.mark.parametrize("value", ["3.7", "true", '"12"'])
def test_a_probe_value_that_is_not_a_json_integer_raises_wire_error(value):
    # int() would truncate 3.7 to 3 and turn true into 1 and "12" into 12.
    reply = '{"seq": 0, "re": 1, "kind": "value", "value": %s}\n' % value
    probe, _, _ = connect(io.StringIO(reply), io.StringIO())
    with pytest.raises(WireError, match="expected an integer"):
        probe.get_active_links()
    reply = ('{"seq": 0, "re": 1, "kind": "monitorables", "monitorables": {"active_links": %s,'
             ' "bandwidth_consumption": 1.0, "time_to_write": 1.0}}\n' % value)
    probe, _, _ = connect(io.StringIO(reply), io.StringIO())
    with pytest.raises(WireError, match="active_links"):
        probe.get_monitorables()


@pytest.mark.parametrize("lines", [
    pytest.param(['{"seq": 0, "kind": "step_complete"}'], id="first_line_not_hello"),
    pytest.param(['{"seq": 0, "kind": "hello", "protocol": 1}'], id="hello_with_no_config"),
    pytest.param(['{"seq": 0, "kind": "hello", "config": {}}'], id="hello_with_no_timesteps"),
    pytest.param(['{"seq": 0, "kind": "hello", "config": {"timesteps": 1}}',
                  '{"seq": 1, "re": 1, "kind": "step_complete"}',
                  '{"seq": 2, "kind": "run_complete"}'], id="run_complete_with_no_summary"),
])
def test_a_malformed_session_message_raises_wire_error(lines):
    server = io.StringIO("".join(line + "\n" for line in lines))
    with pytest.raises(WireError):
        run_remote(NullManager(), server, io.StringIO())


@pytest.mark.parametrize("field", ["bandwidth_consumption", "time_to_write"])
@pytest.mark.parametrize("value", [True, False, math.inf])
def test_a_load_that_is_not_a_json_number_raises_wire_error(field, value):
    # Monitorables' own check would take true and false for 1 and 0, and
    # json.loads reads Infinity, which JSON has not.
    fields = {"active_links": 3, "bandwidth_consumption": 1.0, "time_to_write": 1.0}
    reply = {"seq": 0, "re": 1, "kind": "monitorables",
             "monitorables": {**fields, field: value}}
    probe, _, _ = connect(io.StringIO(json.dumps(reply) + "\n"), io.StringIO())
    with pytest.raises(WireError, match="expected a number"):
        probe.get_monitorables()


SUMMARY = {
    "mean_bandwidth_pct": 50.0, "mean_write_time_pct": 40.0, "mean_active_links_pct": 60.0,
    "mc_satisfied": True, "mp_satisfied": True, "mr_satisfied": False,
}


def _session(timesteps, summary) -> io.StringIO:
    """A server stream: hello, a step_complete for each of its timesteps (true
    counted as 1), then run_complete."""
    steps = int(timesteps)
    lines = [{"seq": 0, "kind": "hello", "config": {"timesteps": timesteps}}]
    lines += [{"seq": n, "re": n, "kind": "step_complete"} for n in range(1, steps + 1)]
    lines.append({"seq": steps + 1, "kind": "run_complete", "summary": summary})
    return io.StringIO("".join(json.dumps(line) + "\n" for line in lines))


def test_a_hello_whose_timesteps_is_a_bool_raises_wire_error():
    # Without the integer check this drives a 1-step session.
    requests = io.StringIO()
    with pytest.raises(WireError, match="expected an integer"):
        run_remote(NullManager(), _session(True, SUMMARY), requests)
    assert requests.getvalue() == ""


@pytest.mark.parametrize("timesteps", [-5, 0])
def test_a_hello_with_no_step_to_run_raises_wire_error(timesteps):
    # Without the bound the client runs no step and returns the next
    # run_complete summary as the session's.
    requests = io.StringIO()
    with pytest.raises(WireError, match="expected timesteps >= 1"):
        run_remote(NullManager(), _session(timesteps, SUMMARY), requests)
    assert requests.getvalue() == ""


@pytest.mark.parametrize(("field", "value"), [
    pytest.param(field, value, id=f"{field}={json.dumps(value)}")
    for field, values in (
        ("mc_satisfied", ["yes", 0, 1, None]),
        ("mr_satisfied", ["no", 1.0]),
        ("mean_bandwidth_pct", [True, "50.0", None, math.nan]),
        ("mean_active_links_pct", [False, [60.0]]),
    )
    for value in values
])
def test_a_summary_field_of_the_wrong_json_type_raises_wire_error(field, value):
    with pytest.raises(WireError, match="bad summary"):
        run_remote(NullManager(), _session(1, {**SUMMARY, field: value}), io.StringIO())
