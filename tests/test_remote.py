"""The client half of the wire: a manager run through ``run_remote`` against a
``WireSession`` serves the run that ``run()`` makes in process."""

from __future__ import annotations

import io
import json
import math
from types import SimpleNamespace

import pytest

import mirrorsim.runner
from mirrorsim.config import config_from_mapping
from mirrorsim.management import CommandKind, EffectorCommand, EffectorError, Probe, ProbeError
from mirrorsim.managers import MANAGER_NAMES, NullManager, ThresholdRuleManager, create_manager
from mirrorsim.network import Topology
from mirrorsim.runner import (
    NormalizedMetrics,
    build_simulation,
    render_trace_csv,
    replay,
    run,
)
from mirrorsim.scenarios import ScenarioId
from mirrorsim.wire import (
    EFFECTOR_FIELDS,
    WireError,
    WireSession,
    _observed,
    connect,
    run_remote,
)

from wire_helpers import RequestRecorder, WireHarness, reference_connect

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
        hello = harness.recv()
        requests = RequestRecorder(harness.wfile)
        probe, _, step = connect(harness, requests,
                                 Topology(hello["config"]["initial_topology"]))
        # Before the first step the probe answers from the hello alone.
        for name in ("get_active_links", "get_bandwidth_consumption", "get_time_to_write"):
            with pytest.raises(ProbeError, match="no completed timestep"):
                getattr(probe, name)()
        assert probe.get_monitorables() is None
        assert probe.get_current_topology() is sim.probe.get_current_topology()
        assert requests.kinds == []
        step()
        sim.step()
        for name in ("get_current_topology", "get_active_links", "get_bandwidth_consumption",
                     "get_time_to_write", "get_monitorables"):
            remote, local = getattr(probe, name)(), getattr(sim.probe, name)()
            assert type(remote) is type(local) and remote == local
        assert requests.kinds == ["step"]


def test_no_effector_changes_a_server_probe_answer(make_config):
    # The guarantee the local probe rests on: between two steps the server's
    # own probe answers what the hello or the last record fixed, whatever
    # effector commands landed since.
    with WireHarness(make_config(scenario="S2", seed=5, timesteps=3)) as harness:
        hello = harness.recv()
        served, effector, step = reference_connect(harness, harness.wfile)
        seen = SimpleNamespace(current_topology=Topology(hello["config"]["initial_topology"]),
                               latest_monitorables=None)
        local = Probe(seen)
        for timestep in range(2):
            effector.set_network_topology(timestep + 1, "mst")
            effector.set_current_topology("mst")
            effector.set_active_links(1)
            effector.set_time_to_write(1.0)
            effector.set_bandwidth_consumption(1.0)
            assert served.get_current_topology() is local.get_current_topology()
            assert served.get_monitorables() == local.get_monitorables()
            for name in ("get_active_links", "get_bandwidth_consumption", "get_time_to_write"):
                if seen.latest_monitorables is None:
                    with pytest.raises(ProbeError):
                        getattr(served, name)()
                else:
                    assert getattr(served, name)() == getattr(local, name)()
            seen.current_topology, seen.latest_monitorables = _observed(step()["record"])


@pytest.mark.parametrize("manager_name", MANAGER_NAMES)
@pytest.mark.parametrize("scenario", ["S3", "S6"])
def test_run_remote_sends_only_steps_and_effector_commands(manager_name, scenario):
    config = config_from_mapping({"scenario": scenario, "seed": 7, "timesteps": 200})
    with WireHarness(config) as harness:
        requests = RequestRecorder(harness.wfile)
        run_remote(_manager(manager_name, config), harness, requests)
    assert len(requests.kinds) == 200 + len(harness.result.command_log)
    assert requests.kinds.count("step") == 200
    assert set(requests.kinds) <= {"step", *EFFECTOR_FIELDS}


def test_a_refused_override_raises_effector_error_and_the_session_goes_on(make_config):
    with WireHarness(make_config(scenario="S2", seed=1, timesteps=2)) as harness:
        hello = harness.recv()
        _, effector, step = connect(harness, harness.wfile,
                                    Topology(hello["config"]["initial_topology"]))
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


def _hello_only(config) -> io.BytesIO:
    """A server stream that ends right after its hello."""
    out = io.BytesIO()
    WireSession(config, io.BytesIO(), out).run()
    out.seek(0)
    return out


def test_a_session_that_ends_after_hello_raises(make_config):
    config = make_config(timesteps=3)
    with pytest.raises(WireError, match="ended the session"):
        run_remote(NullManager(), _hello_only(config), io.BytesIO())
    # The threshold manager's first decide probes without a request, so the
    # end meets the first step, outside decide: no ManagerError.
    manager = ThresholdRuleManager(config.network, config.properties.thresholds)
    with pytest.raises(WireError, match="ended the session"):
        run_remote(manager, _hello_only(config), io.BytesIO())


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


# A step_complete record that decodes: the client reads its topology and
# three drawn values.
RECORD = {
    "timestep": 0, "topology": "mst", "active_links": 3, "bandwidth_gbps": 1.0,
    "time_to_write_ms": 1.0, "active_links_pct": 1.0, "bandwidth_pct": 1.0,
    "write_time_pct": 1.0, "adaptation": None,
}


def _step_reply(record=RECORD, re=1) -> str:
    return json.dumps({"seq": 0, "re": re, "kind": "step_complete", "record": record})


SUMMARY = {
    "mean_bandwidth_pct": 50.0, "mean_write_time_pct": 40.0, "mean_active_links_pct": 60.0,
    "mc_satisfied": True, "mp_satisfied": True, "mr_satisfied": False,
}


def _session(timesteps, summary, record=RECORD) -> io.BytesIO:
    """A server stream: hello, a step_complete of ``record`` for each of its
    timesteps (true counted as 1), then run_complete."""
    steps = int(timesteps)
    lines = [{"seq": 0, "kind": "hello",
              "config": {"timesteps": timesteps, "initial_topology": "mst"}}]
    lines += [{"seq": n, "re": n, "kind": "step_complete", "record": record}
              for n in range(1, steps + 1)]
    lines.append({"seq": steps + 1, "kind": "run_complete", "summary": summary})
    return io.BytesIO("".join(json.dumps(line) + "\n" for line in lines).encode())


def _step_once(reply: str):
    """The probe after one step whose reply is the line ``reply``."""
    probe, _, step = connect(io.BytesIO(reply.encode() + b"\n"), io.BytesIO(), Topology.RT)
    step()
    return probe


def test_a_step_complete_record_sets_every_probe_answer():
    probe = _step_once(_step_reply())
    assert probe.get_current_topology() is Topology.MST
    assert probe.get_monitorables() == (3, 1.0, 1.0)
    assert [probe.get_active_links(), probe.get_bandwidth_consumption(),
            probe.get_time_to_write()] == [3, 1, 1]


@pytest.mark.parametrize("line", [
    pytest.param("not json", id="not_json"),
    pytest.param("[1, 2]", id="not_an_object"),
    pytest.param('{"seq": 0, "re": 1}', id="no_kind"),
    pytest.param('{"seq": 0, "re": 1, "kind": "error", "detail": "x"}', id="error_with_no_code"),
    pytest.param('{"seq": 0, "re": 1, "kind": "step_complete"}', id="step_reply_with_no_record"),
    pytest.param(_step_reply(re=2), id="reply_to_another_request"),
    pytest.param(_step_reply(record=[1, 2]), id="record_not_an_object"),
])
def test_a_malformed_reply_raises_wire_error(line):
    with pytest.raises(WireError) as raised:
        _step_once(line)
    assert raised.value.code is None


def test_a_reply_of_another_kind_than_step_complete_raises_wire_error():
    with pytest.raises(WireError, match="expected step_complete"):
        _step_once('{"seq": 0, "re": 1, "kind": "ack"}')


def test_a_step_answered_with_not_observable_raises_wire_error():
    # The client sends no probe request, so no error code but invalid_value
    # is one it recovers from.
    with pytest.raises(WireError, match="not_observable: x") as raised:
        _step_once('{"seq": 0, "re": 1, "kind": "error", "code": "not_observable", "detail": "x"}')
    assert raised.value.code == "not_observable"


@pytest.mark.parametrize("value", ["3.7", "true", '"12"'])
def test_a_probe_value_that_is_not_a_json_integer_raises_wire_error(value):
    # int() would truncate 3.7 to 3 and turn true into 1 and "12" into 12.
    reply = _step_reply().replace('"active_links": 3', '"active_links": %s' % value)
    with pytest.raises(WireError, match="active_links must be an integer"):
        _step_once(reply)


@pytest.mark.parametrize("field", ["bandwidth_gbps", "time_to_write_ms"])
@pytest.mark.parametrize("value", [True, False, math.inf, 10**400])
def test_a_load_that_is_not_a_json_number_raises_wire_error(field, value):
    # Monitorables refuses true and false, which Python counts as 1 and 0,
    # Infinity, which json.loads reads but JSON has not, and an int past the
    # float range (400 digits is valid JSON), which normalize cannot convert.
    with pytest.raises(WireError, match="must be a finite number"):
        run_remote(NullManager(), _session(1, SUMMARY, {**RECORD, field: value}), io.BytesIO())


def test_an_unknown_record_topology_raises_wire_error():
    with pytest.raises(WireError, match="bad record"):
        _step_once(_step_reply({**RECORD, "topology": "star"}))


@pytest.mark.parametrize("field", ["topology", "active_links", "bandwidth_gbps",
                                   "time_to_write_ms"])
def test_a_record_with_a_missing_field_raises_wire_error(field):
    record = {key: value for key, value in RECORD.items() if key != field}
    with pytest.raises(WireError, match=f"bad record .*KeyError\\('{field}'\\)"):
        _step_once(_step_reply(record))


@pytest.mark.parametrize("lines", [
    pytest.param(['{"seq": 0, "kind": "step_complete"}'], id="first_line_not_hello"),
    pytest.param(['{"seq": 0, "kind": "hello", "protocol": 1}'], id="hello_with_no_config"),
    pytest.param(['{"seq": 0, "kind": "hello", "config": {"initial_topology": "mst"}}'],
                 id="hello_with_no_timesteps"),
    pytest.param(['{"seq": 0, "kind": "hello", "config": {"timesteps": 1,'
                  ' "initial_topology": "mst"}}',
                  _step_reply(),
                  '{"seq": 2, "kind": "run_complete"}'], id="run_complete_with_no_summary"),
])
def test_a_malformed_session_message_raises_wire_error(lines):
    server = io.BytesIO("".join(line + "\n" for line in lines).encode())
    with pytest.raises(WireError):
        run_remote(NullManager(), server, io.BytesIO())


@pytest.mark.parametrize("config", [
    pytest.param({"timesteps": 1}, id="missing"),
    pytest.param({"timesteps": 1, "initial_topology": "star"}, id="unknown"),
    pytest.param({"timesteps": 1, "initial_topology": None}, id="null"),
])
def test_a_hello_with_no_known_initial_topology_raises_wire_error(config):
    hello = json.dumps({"seq": 0, "kind": "hello", "config": config})
    requests = io.BytesIO()
    with pytest.raises(WireError, match="bad config"):
        run_remote(NullManager(), io.BytesIO(f"{hello}\n{_step_reply()}\n".encode()), requests)
    assert requests.getvalue() == b""


def test_a_hello_whose_timesteps_is_a_bool_raises_wire_error():
    # Without the integer check this drives a 1-step session.
    requests = io.BytesIO()
    with pytest.raises(WireError, match="expected an integer"):
        run_remote(NullManager(), _session(True, SUMMARY), requests)
    assert requests.getvalue() == b""


@pytest.mark.parametrize("timesteps", [-5, 0])
def test_a_hello_with_no_step_to_run_raises_wire_error(timesteps):
    # Without the bound the client runs no step and returns the next
    # run_complete summary as the session's.
    requests = io.BytesIO()
    with pytest.raises(WireError, match="expected timesteps >= 1"):
        run_remote(NullManager(), _session(timesteps, SUMMARY), requests)
    assert requests.getvalue() == b""


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
        run_remote(NullManager(), _session(1, {**SUMMARY, field: value}), io.BytesIO())
