"""``python -m mirrorsim serve`` end to end, each test in its own directory."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorsim
from mirrorsim.cli import EXIT_OK, main
from mirrorsim.config import config_from_mapping, load_config
from mirrorsim.managers import create_manager
from mirrorsim.wire import EFFECTOR_FIELDS, run_remote
from test_golden import (GRAMMAR_CASE, GRAMMAR_REQUESTS, OVERFLOW_CONFIG, OVERFLOW_REQUESTS,
                         scripted_session)
from wire_helpers import RequestRecorder

# Every server imports this package from any directory, and runs the
# defaults or the file it is given, whatever MIRRORSIM_CONFIG names.
ENV = {name: value for name, value in os.environ.items() if name != "MIRRORSIM_CONFIG"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(mirrorsim.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))

def command(*args: str) -> list[str]:
    return [sys.executable, "-m", "mirrorsim", *args]


@pytest.mark.parametrize(("config_file", "flags", "requests", "codes"), [
    pytest.param(None, {"timesteps": 2}, [{"kind": "step"}] * 2, set(), id="two_steps"),
    # A step whose finite floats sum past the float range.
    pytest.param(OVERFLOW_CONFIG, {}, OVERFLOW_REQUESTS, set(), id="overflow"),
    # Every probe and effector kind, a not_observable and an invalid_value.
    pytest.param(None, dict(zip(("scenario", "seed", "timesteps"), GRAMMAR_CASE)),
                 GRAMMAR_REQUESTS, {"not_observable", "invalid_value"}, id="all_kinds"),
])
def test_serve_stdio_sends_the_bytes_of_an_in_process_session(tmp_path, config_file, flags,
                                                              requests, codes):
    argv = command("serve", "--stdio", "--output-dir", "served",
                   *(f"--{name}={value}" for name, value in flags.items()))
    if config_file is not None:
        (tmp_path / "config.json").write_text(json.dumps(config_file))
        argv += ["--config", "config.json"]
    lines = "".join(json.dumps({"seq": seq, **request}) + "\n"
                    for seq, request in enumerate(requests, start=1))
    served = subprocess.run(argv, input=lines.encode(), capture_output=True, cwd=tmp_path,
                            env=ENV, timeout=60)
    mapping = {**(config_file or {}), **flags}
    assert served.returncode == EXIT_OK
    assert served.stdout == scripted_session(mapping, requests).encode()
    messages = [json.loads(line) for line in served.stdout.splitlines()]
    assert messages[-1]["kind"] == "run_complete"
    assert {message["code"] for message in messages if message["kind"] == "error"} == codes
    props = config_from_mapping(mapping).properties
    stem = f"{props.scenario.value}_wire_seed{props.seed}"
    assert sorted(os.listdir(tmp_path / "served")) == [f"{stem}_summary.json", f"{stem}_trace.csv"]


@pytest.mark.parametrize("transport", ["--stdio", "--port=0"])
def test_run_remote_over_serve_writes_the_batch_files(tmp_path, monkeypatch, transport):
    monkeypatch.chdir(tmp_path)
    assert main(["init-config"]) == EXIT_OK
    assert main(["run", "--config", "configuration.json", "--scenario", "S3",
                 "--manager", "threshold", "--seeds", "2"]) == EXIT_OK
    config = load_config("configuration.json")
    manager = create_manager("threshold", network=config.network,
                             thresholds=config.properties.thresholds, seed=2)
    argv = command("serve", transport, "--config", "configuration.json", "--scenario", "S3",
                   "--seed", "2", "--output-dir", "served")
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=ENV) as server:
        try:
            if transport == "--stdio":
                # The client's probe answers from the last step_complete
                # record, so each request it writes is a step or an effector.
                requests = RequestRecorder(server.stdin)
                summary = run_remote(manager, server.stdout, requests)
                assert requests.kinds.count("step") == config.properties.timesteps
                assert set(requests.kinds) <= {"step", *EFFECTOR_FIELDS}
            else:
                announced = server.stderr.readline().decode()
                host, _, port = announced.removeprefix("listening on ").strip().rpartition(":")
                with socket.create_connection((host, int(port)), timeout=60) as conn, \
                        conn.makefile("rb") as rfile, conn.makefile("wb") as wfile:
                    summary = run_remote(manager, rfile, wfile)
            assert server.wait(timeout=60) == EXIT_OK
        finally:
            server.kill()  # a server still waiting for its client
    for suffix in ("trace.csv", "summary.json"):
        served = Path("served", f"S3_wire_seed2_{suffix}").read_bytes()
        assert served == Path("results", f"S3_threshold_seed2_{suffix}").read_bytes()
    trace = Path("served", "S3_wire_seed2_trace.csv").read_text()
    assert len(trace.splitlines()) == config.properties.timesteps + 1
    assert json.loads(Path("served", "S3_wire_seed2_summary.json").read_text()) == summary.as_dict()
