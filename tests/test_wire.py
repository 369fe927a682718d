from __future__ import annotations

import ast
import inspect
import io
import json
import math
import os
import queue
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorsim.runner
import mirrorsim.wire
from mirrorsim.config import default_config_mapping
from mirrorsim.management import CommandKind, Effector, Probe
from mirrorsim.managers import NullManager
from mirrorsim.network import Monitorables, Topology
from mirrorsim.runner import (
    TRACE_CSV_HEADER,
    NormalizedMetrics,
    RunResult,
    TraceRecord,
    render_trace_csv,
    run,
)
from mirrorsim.wire import (
    _ACK,
    EFFECTOR_FIELDS,
    MAX_LINE_CHARS,
    PROBE_REPLIES,
    PROTOCOL_VERSION,
    WireSession,
    _encode,
    _monitorables_line,
    _step_line,
    run_remote,
    serve_tcp,
)

PROTOCOL_DOC = Path(__file__).resolve().parent.parent / "docs" / "protocol.md"

from test_golden import grammar_session
from wire_helpers import WireHarness, monitorables_payload, record_payload


def test_hello_opens_the_session(make_config):
    with WireHarness(make_config(scenario="S1", seed=3, timesteps=2)) as harness:
        hello = harness.recv()
        assert hello["kind"] == "hello"
        assert hello["seq"] == 0
        assert hello["protocol"] == PROTOCOL_VERSION
        config = hello["config"]
        assert config["scenario"] == "S1"
        assert config["total_links"] == 300
        assert config["initial_topology"] == "mst"
        assert config["mst_active_links_range"] == [105, 150]
        assert config["thresholds"]["bandwidth_pct"] == 40.0


def test_probe_requests_over_the_wire(make_config):
    with WireHarness(make_config(seed=5, timesteps=3)) as harness:
        harness.recv()
        reply = harness.request("get_monitorables")
        assert reply["kind"] == "monitorables"
        assert reply["monitorables"] is None  # nothing observed yet
        reply = harness.request("get_current_topology")
        assert reply == {"seq": reply["seq"], "re": 2, "kind": "topology", "topology": "mst"}
        reply = harness.request("get_active_links")
        assert reply["kind"] == "error" and reply["code"] == "not_observable"

        step_reply = harness.request("step")
        record = step_reply["record"]
        monitorables = harness.request("get_monitorables")["monitorables"]
        assert monitorables["active_links"] == record["active_links"]
        assert monitorables["bandwidth_consumption"] == record["bandwidth_gbps"]
        links = harness.request("get_active_links")["value"]
        assert links == record["active_links"]


def test_wire_monitorables_match_in_process_probe(make_config):
    # Same seed: a wire session that only steps must observe exactly what an
    # in-process null run records.
    in_process = run(NullManager(), make_config(seed=11, timesteps=5))
    with WireHarness(make_config(seed=11, timesteps=5)) as harness:
        harness.recv()
        seen = []
        for index in range(5):
            harness.request("step")
            if index < 4:  # the session ends right after the final step
                seen.append(harness.request("get_monitorables")["monitorables"])
        harness.recv()  # run_complete
    for record, payload in zip(in_process.trace, seen):
        assert payload["active_links"] == record.active_links
        assert payload["bandwidth_consumption"] == record.bandwidth_gbps
        assert payload["time_to_write"] == record.time_to_write_ms


def test_effector_requests_ack_and_apply(make_config):
    with WireHarness(make_config(seed=2, timesteps=4)) as harness:
        harness.recv()
        reply = harness.request("set_network_topology", timestep=1, topology="rt")
        assert reply["kind"] == "ack" and reply["command"] == "set_network_topology"
        assert harness.request("set_active_links", active_links=250)["kind"] == "ack"
        first = harness.request("step")["record"]
        assert first["topology"] == "mst"
        assert first["active_links"] == 250
        second = harness.request("step")["record"]
        assert second["topology"] == "rt"
        assert second["adaptation"] == "rt"


def test_run_complete_reports_summary(make_config):
    in_process = run(NullManager(), make_config(seed=7, timesteps=6))
    with WireHarness(make_config(seed=7, timesteps=6)) as harness:
        summary = run_remote(NullManager(), harness, harness.wfile)
    assert json.loads(harness.received[-1])["summary"] == in_process.summary.as_dict()
    assert summary == in_process.summary
    harness._thread.join(timeout=5)
    assert harness.result is not None and harness.result.completed
    assert render_trace_csv(harness.result.trace) == render_trace_csv(in_process.trace)


def test_invalid_effector_value_keeps_session_alive(make_config):
    with WireHarness(make_config(timesteps=1)) as harness:
        harness.recv()
        reply = harness.request("set_bandwidth_consumption", bandwidth_consumption=-1)
        assert reply["kind"] == "error" and reply["code"] == "invalid_value"
        reply = harness.request("set_network_topology", timestep=0, topology="star")
        assert reply["kind"] == "error" and reply["code"] == "invalid_value"
        for name in ("time_to_write", "bandwidth_consumption"):
            reply = harness.request(f"set_{name}", **{name: 10**400})
            assert reply["kind"] == "error" and reply["code"] == "invalid_value"
            assert "too large for a float" in reply["detail"]
        assert harness.request("get_current_topology")["kind"] == "topology"


def test_an_override_whose_worst_step_overflows_is_invalid_value(make_config):
    # Under S2 the disturbance could inflate a write time of 1.7e308 past the
    # largest float: the override is refused, logged nowhere, and the run goes on.
    with WireHarness(make_config(scenario="S2", seed=1, timesteps=2)) as harness:
        harness.recv()
        reply = harness.request("set_time_to_write", time_to_write=1.7e308)
        assert reply["kind"] == "error" and reply["code"] == "invalid_value"
        assert "non-finite" in reply["detail"]
        assert harness.request("step")["kind"] == "step_complete"
        assert harness.request("get_time_to_write")["kind"] == "value"
        assert harness.request("step")["kind"] == "step_complete"
        assert harness.recv()["kind"] == "run_complete"
    assert harness.result is not None and harness.result.completed
    assert harness.result.command_log == []


def test_unreachable_topology_target_is_invalid_value(make_config):
    with WireHarness(make_config(timesteps=3)) as harness:
        harness.recv()
        reply = harness.request("set_network_topology", timestep=10**9, topology="rt")
        assert reply["kind"] == "error" and reply["code"] == "invalid_value"
        reply = harness.request("set_network_topology", timestep=3, topology="rt")
        assert reply["kind"] == "error" and reply["code"] == "invalid_value"
        for _ in range(3):
            harness.request("step")
        assert harness.recv()["kind"] == "run_complete"
    assert harness.result is not None and harness.result.completed
    assert len(harness.result.command_log) == 0


def _serve_lines(config, text: str) -> tuple[list[dict], object]:
    out = io.StringIO()
    result = WireSession(config, io.StringIO(text), out).run()
    return [json.loads(line) for line in out.getvalue().splitlines()], result


def test_completed_session_evaluates_the_summary_once(make_config, monkeypatch):
    calls = []
    evaluate = mirrorsim.wire.evaluate_satisfaction

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(mirrorsim.wire, "evaluate_satisfaction", counting)
    text = "".join(f'{{"seq": {seq}, "kind": "step"}}\n' for seq in (1, 2, 3))
    messages, result = _serve_lines(make_config(seed=5, timesteps=3), text)
    assert messages[-1]["kind"] == "run_complete"
    assert len(calls) == 1
    assert result.completed
    assert result.summary.as_dict() == messages[-1]["summary"]


def test_steps_after_the_final_one_get_no_reply(make_config):
    text = "".join(f'{{"seq": {seq}, "kind": "step"}}\n' for seq in (1, 2, 3))
    messages, result = _serve_lines(make_config(seed=5, timesteps=2), text)
    kinds = [m["kind"] for m in messages]
    assert kinds == ["hello", "step_complete", "step_complete", "run_complete"]
    assert result.completed


def test_a_served_run_and_an_in_process_run_give_one_result(make_config):
    config = make_config(scenario="S2", seed=4, timesteps=3)
    text = "".join(f'{{"seq": {seq}, "kind": "step"}}\n' for seq in (1, 2, 3))
    _, result = _serve_lines(config, text)
    assert type(result) is RunResult
    assert result == run(NullManager(), config)


def test_hello_thresholds_use_the_config_file_keys(make_config):
    messages, result = _serve_lines(make_config(timesteps=1), "")
    thresholds = messages[0]["config"]["thresholds"]
    assert thresholds.keys() == default_config_mapping()["thresholds"].keys()
    assert not result.completed and result.summary is None


def test_over_long_request_line_terminates_session(make_config):
    padding = " " * MAX_LINE_CHARS
    text = '{"seq": 1, "kind": "get_monitorables"' + padding + "}\n" + '{"seq": 2, "kind": "step"}\n'
    messages, result = _serve_lines(make_config(timesteps=3), text)
    assert [m["kind"] for m in messages] == ["hello", "error"]
    assert messages[1]["code"] == "malformed_message"
    assert str(MAX_LINE_CHARS) in messages[1]["detail"]
    assert not result.completed and result.trace == ()


def test_request_line_at_the_limit_is_accepted(make_config):
    request = '{"seq": 1, "kind": "get_monitorables"'
    line = request + " " * (MAX_LINE_CHARS - len(request) - 2) + "}\n"
    assert len(line) == MAX_LINE_CHARS
    messages, _ = _serve_lines(make_config(timesteps=3), line)
    assert [m["kind"] for m in messages] == ["hello", "monitorables"]


def test_protocol_doc_matches_the_surface(make_config):
    text = PROTOCOL_DOC.read_text(encoding="utf-8")
    requests_section = text.split("## Client requests", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in re.findall(r"^\{.*\}$", requests_section, flags=re.MULTILINE):
        message = json.loads(line)
        kind = message.pop("kind")
        documented[kind] = tuple(name for name in message if name != "seq")
    probes = {name for name in vars(Probe) if not name.startswith("_")}
    assert set(PROBE_REPLIES) == probes
    expected = {name: () for name in probes}
    for kind in CommandKind:
        method = getattr(Effector, kind.value)
        expected[kind.value] = tuple(inspect.signature(method).parameters)[1:]
    expected["step"] = ()
    assert documented == expected

    columns = TRACE_CSV_HEADER.split(",")
    doc_record = json.loads(
        re.search(r'^\{"seq": \d+, "re": \d+, "kind": "step_complete".*?\}\}$',
                  text, flags=re.MULTILINE | re.DOTALL).group(0)
    )["record"]
    assert list(doc_record) == columns
    with WireHarness(make_config(timesteps=1)) as harness:
        harness.recv()
        live_record = harness.request("step")["record"]
        harness.recv()  # run_complete
    assert list(live_record) == columns


def test_protocol_doc_reply_examples_are_lines_of_the_grammar_session():
    lines = set(grammar_session().splitlines())
    examples = re.findall(
        r'^\{"seq": \d+, (?:"re": \d+, )?'
        r'"kind": "(?:hello|monitorables|step_complete|run_complete)".*$',
        PROTOCOL_DOC.read_text(encoding="utf-8"), flags=re.MULTILINE,
    )
    kinds = {json.loads(example)["kind"] for example in examples}
    assert kinds == {"hello", "monitorables", "step_complete", "run_complete"}
    assert [example for example in examples if example not in lines] == []


def doc_table_keys(heading: str) -> list[str]:
    """The backticked first cells of the protocol doc's table after ``heading``."""
    section = PROTOCOL_DOC.read_text(encoding="utf-8").split(heading, 1)[1].lstrip("\n")
    table = section.split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)


def test_protocol_doc_lists_every_reply_kind():
    expected = {reply_kind for reply_kind, _ in PROBE_REPLIES.values()}
    expected |= {"ack", "step_complete", "error"}
    assert sorted(doc_table_keys("Reply kinds:")) == sorted(expected)


def test_protocol_doc_lists_every_error_code():
    tree = ast.parse(Path(mirrorsim.wire.__file__).read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_send_error"
    ]
    codes = [call.args[1] for call in calls]
    assert codes and all(isinstance(code, ast.Constant) for code in codes)
    assert set(doc_table_keys("## Errors")) == {code.value for code in codes}


def test_malformed_json_terminates_session(make_config):
    with WireHarness(make_config(timesteps=3)) as harness:
        harness.recv()
        harness.send_raw("{this is not json")
        reply = harness.recv()
        assert reply["kind"] == "error" and reply["code"] == "malformed_message"
        assert harness.recv_eof()
        harness._thread.join(timeout=5)
        assert harness.result is not None and not harness.result.completed


@pytest.mark.parametrize("line", [
    "[" * 30_000,  # nesting past the decoder's depth limit: RecursionError
    '{"seq": 1' + "0" * 5_000,  # past the interpreter's integer digit limit: ValueError
], ids=["deep_nesting", "long_integer"])
def test_a_line_json_cannot_decode_is_malformed(make_config, line):
    text = line + '\n{"seq": 2, "kind": "step"}\n'
    messages, result = _serve_lines(make_config(timesteps=3), text)
    assert [message["kind"] for message in messages] == ["hello", "error"]
    assert messages[1]["code"] == "malformed_message"
    assert not result.completed and len(result.trace) == 0


@pytest.mark.parametrize("line, detail, reply_to", [
    ("[1, 2]", "expected a JSON object", None),
    ("5", "expected a JSON object", None),
    ('"step"', "expected a JSON object", None),
    ("null", "expected a JSON object", None),
    ('{"kind": "step"}', "missing integer 'seq'", None),
    ('{"seq": true, "kind": "step"}', "missing integer 'seq'", None),
    ('{"seq": "1", "kind": "step"}', "missing integer 'seq'", None),
    ('{"seq": 1.0, "kind": "step"}', "missing integer 'seq'", None),
    ('{"seq": 1}', "missing string 'kind'", 1),
    ('{"seq": 1, "kind": 5}', "missing string 'kind'", 1),
])
def test_a_line_outside_the_request_grammar_is_malformed(make_config, line, detail, reply_to):
    text = line + '\n{"seq": 2, "kind": "step"}\n'
    messages, result = _serve_lines(make_config(timesteps=3), text)
    assert [message["kind"] for message in messages] == ["hello", "error"]
    error = messages[1]
    assert (error["code"], error["detail"], error.get("re")) == ("malformed_message", detail, reply_to)
    assert ("re" in error) == (reply_to is not None)
    assert not result.completed and len(result.trace) == 0


def test_unknown_kind_terminates_session(make_config):
    with WireHarness(make_config(timesteps=3)) as harness:
        harness.recv()
        reply = harness.request("reboot")
        assert reply["kind"] == "error" and reply["code"] == "unknown_kind"
        assert harness.recv_eof()


def test_missing_field_terminates_session(make_config):
    with WireHarness(make_config(timesteps=3)) as harness:
        harness.recv()
        reply = harness.request("set_active_links")
        assert reply["kind"] == "error" and reply["code"] == "malformed_message"
        assert harness.recv_eof()


def test_sequence_numbers_must_increase(make_config):
    with WireHarness(make_config(timesteps=3)) as harness:
        harness.recv()
        harness.send("get_current_topology", seq=5)
        harness.recv()
        harness.send("get_current_topology", seq=3)
        reply = harness.recv()
        assert reply["kind"] == "error" and reply["code"] == "bad_sequence"
        assert harness.recv_eof()


def test_server_sequence_strictly_increases(make_config):
    with WireHarness(make_config(seed=1, timesteps=4)) as harness:
        seqs = [harness.recv()["seq"]]
        for _ in range(4):
            seqs.append(harness.request("get_monitorables")["seq"])
            seqs.append(harness.request("step")["seq"])
        seqs.append(harness.recv()["seq"])  # run_complete
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_client_disconnect_aborts_run(make_config):
    harness = WireHarness(make_config(seed=9, timesteps=10))
    harness.recv()
    harness.request("step")
    harness.request("step")
    harness.close()  # mid-run disconnect
    assert harness.result is not None
    assert not harness.result.completed
    assert harness.result.summary is None
    assert len(harness.result.trace) == 2


def test_every_request_gets_exactly_one_reply(make_config):
    with WireHarness(make_config(seed=1, timesteps=2)) as harness:
        harness.recv()
        for expected_re in (1, 2, 3):
            kind = ["get_monitorables", "set_active_links", "step"][expected_re - 1]
            fields = {"active_links": 120} if kind == "set_active_links" else {}
            reply = harness.request(kind, **fields)
            assert reply["re"] == expected_re


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_a_non_finite_value_ends_the_session_with_strict_json(make_config, monkeypatch):
    # No loaded config and no acked override reaches an infinity, so a fault
    # injected into the step's normalization stands in for one: that step's
    # reply must not go out.
    def infinite_normalize(monitorables, network):
        return NormalizedMetrics(math.inf, 0.0, 0.0)

    monkeypatch.setattr(mirrorsim.runner, "normalize", infinite_normalize)
    requests = [
        {"seq": 1, "kind": "set_time_to_write", "time_to_write": 500.0},
        {"seq": 2, "kind": "step"},
        {"seq": 3, "kind": "step"},
    ]
    rfile = io.StringIO("".join(json.dumps(request) + "\n" for request in requests))
    wfile = io.StringIO()
    result = WireSession(make_config(scenario="S2", seed=1, timesteps=5), rfile, wfile).run()
    messages = [
        json.loads(line, parse_constant=_reject_constant)
        for line in wfile.getvalue().splitlines()
    ]
    assert [message["kind"] for message in messages] == ["hello", "ack", "error"]
    assert messages[-1]["code"] == "non_finite_value"
    assert messages[-1]["re"] == 2 and messages[-1]["seq"] == 2
    assert messages[-1]["detail"] == (
        "the step_complete message holds a number JSON cannot carry (NaN or infinity)"
    )
    assert not result.completed
    assert len(result.trace) == 1


def test_a_non_finite_monitorables_reply_ends_the_session_with_strict_json(make_config):
    # A fault injected into the probed state stands in for a non-finite value:
    # the monitorables template refuses it and the reply must not go out.
    rfile = io.StringIO('{"seq": 1, "kind": "get_monitorables"}\n{"seq": 2, "kind": "step"}\n')
    wfile = io.StringIO()
    session = WireSession(make_config(timesteps=3), rfile, wfile)
    session.sim.latest_monitorables = Monitorables(1, math.inf, 0.0)
    result = session.run()
    messages = [
        json.loads(line, parse_constant=_reject_constant)
        for line in wfile.getvalue().splitlines()
    ]
    assert [message["kind"] for message in messages] == ["hello", "error"]
    assert messages[-1]["code"] == "non_finite_value"
    assert messages[-1]["re"] == 1 and messages[-1]["seq"] == 1
    assert messages[-1]["detail"] == (
        "the monitorables message holds a number JSON cannot carry (NaN or infinity)"
    )
    assert not result.completed and len(result.trace) == 0


def test_a_finite_step_whose_float_sum_overflows_is_sent_whole(make_config, monkeypatch):
    # The step template's finiteness check must not overflow on a finite row
    # whose floats sum past the float range: the template sends it whole.
    def huge_normalize(monitorables, network):
        return NormalizedMetrics(1.7e308, 1.7e308, 0.0)

    monkeypatch.setattr(mirrorsim.runner, "normalize", huge_normalize)
    messages, result = _serve_lines(make_config(timesteps=1), '{"seq": 1, "kind": "step"}\n')
    assert [message["kind"] for message in messages] == ["hello", "step_complete", "run_complete"]
    assert messages[1]["record"]["active_links_pct"] == 1.7e308
    assert messages[1]["record"] == record_payload(result.trace[0])


# The edges of float repr: subnormals, signed zeros, the switches between
# fixed and exponent notation at 1e-4 and 1e16, and the largest floats.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, 1.7e308, 1.7976931348623157e308,
)
finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS + tuple(-value for value in EDGE_FLOATS)),
    st.floats(allow_nan=False, allow_infinity=False),
)
link_counts = st.integers(min_value=0, max_value=2**63 - 1)  # the trace's "q" column
sequence_numbers = st.integers(min_value=-(2**70), max_value=2**70)
adaptations = st.sampled_from([None, *Topology])
template_settings = settings(max_examples=300, derandomize=True, deadline=None)


@template_settings
@given(
    seq=sequence_numbers, request_seq=sequence_numbers,
    record=st.builds(
        TraceRecord, st.integers(min_value=0, max_value=2**63 - 1), st.sampled_from(Topology),
        link_counts, finite_floats, finite_floats, finite_floats, finite_floats, finite_floats,
        adaptations,
    ),
)
def test_the_step_template_writes_the_generic_encoders_bytes(seq, request_seq, record):
    line = _step_line(seq, request_seq, record)
    assert line is not None
    message = {
        "seq": seq, "re": request_seq, "kind": "step_complete",
        "timestep": record.timestep, "record": record_payload(record),
    }
    assert line == _encode(message) + "\n"


non_negative_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(min_value=0.0, allow_infinity=False)
)


@template_settings
@given(
    seq=sequence_numbers, request_seq=sequence_numbers,
    monitorables=st.none() | st.builds(
        Monitorables, link_counts, non_negative_floats, non_negative_floats
    ),
)
def test_the_monitorables_template_writes_the_generic_encoders_bytes(
    seq, request_seq, monitorables
):
    line = _monitorables_line(seq, request_seq, monitorables)
    assert line is not None
    encoded = monitorables_payload(monitorables)
    message = {"seq": seq, "re": request_seq, "kind": "monitorables", "monitorables": encoded}
    assert line == _encode(message) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_templates_refuse_exactly_a_nan_or_an_infinity(value):
    # Each float slot alone, the others at the largest finite float.
    big = sys.float_info.max
    record = TraceRecord(0, Topology.MST, 1, big, big, big, big, big, None)
    for field in ("bandwidth_gbps", "time_to_write_ms", "active_links_pct", "bandwidth_pct",
                  "write_time_pct"):
        assert _step_line(1, 1, record._replace(**{field: value})) is None
    for index in (1, 2):
        fields = [1, big, big]
        fields[index] = value
        assert _monitorables_line(1, 1, tuple.__new__(Monitorables, fields)) is None
    assert _step_line(1, 1, record) is not None
    assert _monitorables_line(1, 1, Monitorables(1, big, big)) is not None


@template_settings
@given(
    seq=sequence_numbers, request_seq=sequence_numbers,
    kind=st.sampled_from(sorted(EFFECTOR_FIELDS)),
)
def test_the_ack_template_writes_the_generic_encoders_bytes(seq, request_seq, kind):
    message = {"seq": seq, "re": request_seq, "kind": "ack", "command": kind}
    assert _ACK[kind] % (seq, request_seq) == _encode(message) + "\n"


def test_a_request_line_that_is_not_utf8_is_malformed_over_tcp(make_config):
    ports = queue.Queue()
    results = []
    server = threading.Thread(target=lambda: results.append(
        serve_tcp(make_config(timesteps=3), ready_callback=ports.put)
    ))
    server.start()
    try:
        address = ("127.0.0.1", ports.get(timeout=30))
        with socket.create_connection(address, timeout=30) as conn, conn.makefile("rb") as rfile:
            assert json.loads(rfile.readline())["kind"] == "hello"
            conn.sendall(b'\xff\xfe{"seq": 2}\n')
            reply = json.loads(rfile.readline())
            assert reply["kind"] == "error" and reply["code"] == "malformed_message"
            assert reply["detail"] == "not valid UTF-8"
            assert rfile.readline() == b""
    finally:
        server.join(timeout=30)
    assert len(results) == 1 and not results[0].completed


def test_a_request_line_that_is_not_utf8_is_malformed_over_stdio():
    # PYTHONIOENCODING gives the child the strict stdin decoder of a UTF-8
    # locale; the server must decode with its own error handler all the same.
    served = subprocess.run(
        [sys.executable, "-m", "mirrorsim", "serve", "--stdio", "--timesteps", "3"],
        input=b'{"seq": 1, "kind": "step"}\n\xff\xfe{"seq": 2}\n',
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        timeout=60,
    )
    messages = [json.loads(line) for line in served.stdout.splitlines()]
    assert [message["kind"] for message in messages] == ["hello", "step_complete", "error"]
    assert messages[-1]["code"] == "malformed_message"
    assert served.returncode == 1  # an aborted session
