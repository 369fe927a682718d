from __future__ import annotations

import math
import pickle
from random import Random

import pytest

from mirrorsim.management import CommandKind, EffectorCommand, EffectorError, ProbeError
from mirrorsim.network import Topology
from mirrorsim.runner import build_simulation, replay

PROBE_NAMES = (
    "get_current_topology",
    "get_bandwidth_consumption",
    "get_active_links",
    "get_time_to_write",
    "get_monitorables",
)
EFFECTOR_NAMES = (
    "set_network_topology",
    "set_active_links",
    "set_time_to_write",
    "set_bandwidth_consumption",
    "set_current_topology",
)


def test_probe_before_first_step(make_config):
    sim = build_simulation(make_config())
    assert sim.probe.get_current_topology() is Topology.MST  # S0 starts on MST
    assert sim.probe.get_monitorables() is None
    for name in ("get_active_links", "get_bandwidth_consumption", "get_time_to_write"):
        with pytest.raises(ProbeError):
            getattr(sim.probe, name)()


def test_probe_projects_latest_record(make_config):
    sim = build_simulation(make_config(seed=3))
    sim.step()
    record = sim.trace[-1]
    monitorables = sim.probe.get_monitorables()
    assert monitorables == (record.active_links, record.bandwidth_gbps, record.time_to_write_ms)
    assert sim.probe.get_active_links() == record.active_links
    assert sim.probe.get_time_to_write() == math.floor(record.time_to_write_ms + 0.5)
    # repeated probes with no intervening step agree
    assert sim.probe.get_monitorables() == monitorables
    assert sim.probe.get_current_topology() is record.topology


def test_integer_getters_round_half_up(make_config):
    sim = build_simulation(make_config())
    sim.effector.set_bandwidth_consumption(2100.6)
    sim.effector.set_time_to_write(999.4)
    sim.step()
    assert sim.probe.get_bandwidth_consumption() == 2101
    assert sim.probe.get_time_to_write() == 999
    # the aggregate record stays unrounded
    assert sim.probe.get_monitorables().bandwidth_consumption == 2100.6


def test_probe_purity(make_config):
    plain = build_simulation(make_config(seed=21))
    probed = build_simulation(make_config(seed=21))
    for _ in range(10):
        probed.probe.get_current_topology()
        probed.probe.get_monitorables()
        probed.step()
        probed.probe.get_monitorables()
        plain.step()
    assert plain.trace == probed.trace


@pytest.mark.parametrize(("value", "text"), [
    (10**5000 - 1, "an integer of 5000 digits"),
    (10**5000, "an integer of 5001 digits"),
    (-(10**5000), "a negative integer of 5001 digits"),
], ids=["5000_digits", "5001_digits", "negative"])
def test_an_integer_too_long_for_text_is_refused_by_its_digit_count(make_config, value, text):
    # str() of an integer past the interpreter's 4,300-digit limit raises
    # ValueError; the refusal must still be an EffectorError.
    sim = build_simulation(make_config(timesteps=5))
    if value > 0:
        with pytest.raises(EffectorError, match=f"active_links {text} exceeds total links 300"):
            sim.effector.set_active_links(value)
        match = f"cannot target timestep {text}: the run ends"
    else:
        match = f"cannot target past timestep {text} "
    with pytest.raises(EffectorError, match=match):
        sim.effector.set_network_topology(value, "rt")
    assert sim.command_log == []


def test_set_network_topology_switches_at_target(make_config):
    sim = build_simulation(make_config(seed=1))
    sim.effector.set_network_topology(3, "rt")
    for _ in range(5):
        sim.step()
    records = sim.trace
    assert [r.topology for r in records[:3]] == [Topology.MST] * 3
    assert records[3].topology is Topology.RT
    assert records[3].adaptation is Topology.RT
    assert records[4].topology is Topology.RT
    assert records[4].adaptation is None


def test_set_network_topology_same_value_logs_without_marker(make_config):
    sim = build_simulation(make_config(seed=1))
    sim.effector.set_network_topology(0, Topology.MST)  # already MST
    sim.step()
    record = sim.trace[-1]
    assert record.topology is Topology.MST
    assert record.adaptation is None
    assert len(sim.command_log) == 1


def test_set_network_topology_rejections(make_config):
    sim = build_simulation(make_config())
    sim.step()
    with pytest.raises(EffectorError):
        sim.effector.set_network_topology(0, "rt")  # past timestep
    with pytest.raises(EffectorError):
        sim.effector.set_network_topology(5, "star")  # unknown name
    with pytest.raises(EffectorError):
        sim.effector.set_network_topology("5", "rt")


def test_set_network_topology_rejects_targets_past_the_end(make_config):
    sim = build_simulation(make_config(seed=2, timesteps=5))
    for timestep in (5, 10**9):  # would never land
        with pytest.raises(EffectorError, match="run ends after 5 timesteps"):
            sim.effector.set_network_topology(timestep, "rt")
    assert len(sim.command_log) == 0
    sim.effector.set_network_topology(4, "rt")  # the last step is still reachable
    for _ in range(5):
        sim.step()
    records = sim.trace
    assert records[4].adaptation is Topology.RT


def test_effectors_refuse_commands_after_the_run_finished(make_config):
    config = make_config(seed=2, timesteps=3)
    sim = build_simulation(config)
    sim.effector.set_active_links(200)
    sim.step()
    sim.effector.set_current_topology("rt")
    while not sim.finished:
        sim.step()
    log = tuple(sim.command_log)
    for name, value in (
        ("set_current_topology", "mst"),
        ("set_current_topology", Topology.MST),
        ("set_active_links", 10),
        ("set_time_to_write", 5.0),
        ("set_bandwidth_consumption", 5.0),
    ):
        with pytest.raises(EffectorError, match="run has finished"):
            getattr(sim.effector, name)(value)
    assert tuple(sim.command_log) == log
    assert replay(sim.command_log, config).command_log == sim.command_log


def test_last_command_for_a_target_wins(make_config):
    sim = build_simulation(make_config(seed=2))
    sim.effector.set_network_topology(1, "rt")
    sim.effector.set_network_topology(1, "mst")
    for _ in range(2):
        sim.step()
    records = sim.trace
    assert records[1].topology is Topology.MST
    assert len(sim.command_log) == 2  # both issues are on the record


def test_set_current_topology_takes_effect_next_step(make_config):
    sim = build_simulation(make_config(seed=2))
    sim.step()
    sim.effector.set_current_topology("rt")
    sim.step()
    record = sim.trace[-1]
    assert record.topology is Topology.RT
    assert record.adaptation is Topology.RT


def test_scalar_override_applies_once(make_config):
    config = make_config(seed=7)
    sim = build_simulation(config)
    sim.effector.set_active_links(200)
    sim.step()
    first = sim.trace[-1]
    assert first.active_links == 200

    # The derived metrics follow the overridden link count: with the clone
    # rng we recover the units drawn for this step and check the products.
    clone = Random(7)
    clone.randint(105, 150)
    unit_write_time = clone.uniform(10.0, 20.0)
    unit_bandwidth = clone.uniform(20.0, 30.0)
    assert math.isclose(first.time_to_write_ms, 200 * unit_write_time, rel_tol=1e-9)
    assert math.isclose(first.bandwidth_gbps, 200 * unit_bandwidth, rel_tol=1e-9)

    sim.step()  # override expired; sampling resumes inside the MST range
    second = sim.trace[-1]
    assert 105 <= second.active_links <= 150


def test_direct_scalar_overrides_survive_s0(make_config):
    sim = build_simulation(make_config(seed=4))
    sim.effector.set_time_to_write(500.0)
    sim.step()
    record = sim.trace[-1]
    assert record.time_to_write_ms == 500.0


def test_scalar_override_rejections(make_config):
    sim = build_simulation(make_config())
    with pytest.raises(EffectorError):
        sim.effector.set_bandwidth_consumption(-1)
    with pytest.raises(EffectorError):
        sim.effector.set_time_to_write(float("nan"))
    with pytest.raises(EffectorError):
        sim.effector.set_active_links(-5)
    with pytest.raises(EffectorError):
        sim.effector.set_active_links(301)  # above the 25-mirror total
    with pytest.raises(EffectorError):
        sim.effector.set_active_links(200.5)
    with pytest.raises(EffectorError):
        sim.effector.set_active_links(True)
    for name in ("time_to_write", "bandwidth_consumption"):
        with pytest.raises(EffectorError, match="too large for a float"):
            getattr(sim.effector, f"set_{name}")(10**400)
        for value in ("5", None):
            with pytest.raises(EffectorError, match="must be a number"):
                getattr(sim.effector, f"set_{name}")(value)
    assert sim.command_log == []


def test_load_overrides_whose_worst_step_overflows_are_refused(make_config):
    # Under S2 the disturbance could rescale an override by up to 300 links
    # and inflate it by up to 1.6: 1.7e308 would overflow, 1e300 stays finite.
    sim = build_simulation(make_config(scenario="S2", seed=1, timesteps=5))
    for name in ("time_to_write", "bandwidth_consumption"):
        with pytest.raises(EffectorError, match="non-finite"):
            getattr(sim.effector, f"set_{name}")(1.7e308)
    assert sim.command_log == []
    sim.step()
    assert sim.probe.get_time_to_write() >= 0  # no OverflowError from an acked override
    sim.effector.set_time_to_write(1e300)
    sim.effector.set_bandwidth_consumption(1e300)
    sim.step()
    record = sim.trace[-1]
    assert all(map(math.isfinite, record[2:8]))
    # The run's sum of percentages counts too: 1e300 per step over 10**8 steps
    # would reach it.
    long_run = build_simulation(make_config(scenario="S2", seed=1, timesteps=10**8))
    with pytest.raises(EffectorError, match="the sum of 100000000 step percentages"):
        long_run.effector.set_time_to_write(1e300)


def test_command_log_orders_by_issue(make_config):
    sim = build_simulation(make_config(seed=6))
    sim.effector.set_active_links(150)
    sim.step()
    sim.effector.set_network_topology(4, "rt")
    sim.effector.set_time_to_write(100.0)
    sim.step()
    kinds = [command.kind for command in sim.command_log]
    assert kinds == [
        CommandKind.SET_ACTIVE_LINKS,
        CommandKind.SET_NETWORK_TOPOLOGY,
        CommandKind.SET_TIME_TO_WRITE,
    ]
    assert [command.issued_at for command in sim.command_log] == [0, 1, 1]
    topology_command = tuple(sim.command_log)[1]
    assert topology_command.target_timestep == 4
    assert topology_command.payload is Topology.RT


def test_interface_matches_published_tables(make_config):
    sim = build_simulation(make_config())
    for name in PROBE_NAMES:
        assert callable(getattr(sim.probe, name))
    for name in EFFECTOR_NAMES:
        assert callable(getattr(sim.effector, name))
    probe_surface = {n for n in dir(sim.probe) if n.startswith(("get_", "set_"))}
    effector_surface = {n for n in dir(sim.effector) if n.startswith(("get_", "set_"))}
    assert probe_surface == set(PROBE_NAMES)
    assert effector_surface == set(EFFECTOR_NAMES)


def test_commands_are_slotted_and_pickle_equal():
    command = EffectorCommand(CommandKind.SET_NETWORK_TOPOLOGY, Topology.RT, 3, 5)
    assert not hasattr(command, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(command, protocol)) == command


def test_commands_are_immutable_hashable_named_tuples():
    command = EffectorCommand(CommandKind.SET_ACTIVE_LINKS, 120, 4)
    assert EffectorCommand._fields == ("kind", "payload", "issued_at", "target_timestep")
    assert command.target_timestep is None
    for name in (*EffectorCommand._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(command, name, 0)
    assert hash(command) == hash(EffectorCommand(CommandKind.SET_ACTIVE_LINKS, 120, 4))
    assert not hasattr(command, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(command, protocol)) == command


def test_every_effector_logs_a_command_that_replays_equal(make_config):
    config = make_config(scenario="S2", seed=6, timesteps=6)
    sim = build_simulation(config)
    effector = sim.effector
    effector.set_network_topology(2, "mst")
    effector.set_active_links(200)
    sim.step()
    effector.set_current_topology("rt")
    effector.set_time_to_write(80)
    effector.set_bandwidth_consumption(40.5)
    for _ in range(5):
        sim.step()
    assert sim.command_log == [
        EffectorCommand(CommandKind.SET_NETWORK_TOPOLOGY, Topology.MST, 0, 2),
        EffectorCommand(CommandKind.SET_ACTIVE_LINKS, 200, 0),
        EffectorCommand(CommandKind.SET_CURRENT_TOPOLOGY, Topology.RT, 1),
        EffectorCommand(CommandKind.SET_TIME_TO_WRITE, 80.0, 1),
        EffectorCommand(CommandKind.SET_BANDWIDTH_CONSUMPTION, 40.5, 1),
    ]
    assert all(type(command) is EffectorCommand for command in sim.command_log)
    assert replay(sim.command_log, config).command_log == sim.command_log
