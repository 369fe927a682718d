"""Golden-trace hashes: the same config and seed must render the same bytes.

Each digest is the SHA-256 of ``render_trace_csv`` for one run. The in-process
matrix covers every scenario under every reference manager for two seeds.
Two threshold runs (S1, S6) disturbed only inside ``WINDOW`` pin the window's
gating. One extra session runs the threshold manager over the line-JSON wire. A change
that moves one drawn number, one float operation or one CSV byte changes a
digest here. For that wire session the server's whole output stream is
pinned as well, so a change of JSON key order, float formatting or message
shape changes a digest too. A scripted session pins the server stream of
the whole request grammar, which the threshold manager does not use in
full: each probe before and after the first step, all five effectors, a
refused command and the steps through to ``run_complete``. A second
scripted session pins a step whose floats are finite but sum past the float
range, which the server must still send whole. One long
threshold run pins both its trace and the bytes of its summary JSON: over
10,000 steps the window means decide switches that sit exactly on a
threshold, and the run means carry every last digit, so a change of
summation order (as in ``sum()`` since CPython 3.12) changes a digest. One
more digest pins the summary JSON of every in-process and windowed case, so
each of their means and verdicts is pinned to the last digit as well.

The module needs no pytest outside a pytest run. To recompute every digest
and list each mismatch (exit status 1 if there is one), on any interpreter:
``PYTHONPATH=src python tests/test_golden.py --check``. To print the table
for the current source (only when a change of the trace is intended and
documented): ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys

from mirrorsim import create_manager, render_trace_csv, run
from mirrorsim.config import config_from_mapping
from mirrorsim.wire import WireSession, run_remote

from wire_helpers import WireHarness

SCENARIOS = ("S0", "S1", "S2", "S3", "S4", "S5", "S6")
MANAGERS = ("null", "random", "threshold")
SEEDS = (7, 2021)
STEPS = 500
WIRE_CASE = ("S3", 13)
LONG_CASE = ("S3", 1, 10_000)  # scenario, seed, steps; threshold manager
WINDOW = (100, 299)  # disturbance_window of the windowed cases; threshold manager
WINDOW_SEED = 7
GRAMMAR_CASE = ("S2", 3, 4)  # scenario, seed, steps of the scripted full-grammar session
# Its requests, numbered from 1: every probe before the first step (monitorables
# null, the scalar getters not_observable), all five effectors with one refused
# (invalid_value), switches landing through both topology effectors, and
# every probe again between steps until run_complete.
GRAMMAR_REQUESTS = (
    {"kind": "get_monitorables"},
    {"kind": "get_current_topology"},
    {"kind": "get_active_links"},
    {"kind": "get_bandwidth_consumption"},
    {"kind": "get_time_to_write"},
    {"kind": "set_network_topology", "timestep": 2, "topology": "rt"},
    {"kind": "set_current_topology", "topology": "rt"},
    {"kind": "set_active_links", "active_links": 301},
    {"kind": "set_active_links", "active_links": 0},
    {"kind": "set_time_to_write", "time_to_write": 500},
    {"kind": "set_bandwidth_consumption", "bandwidth_consumption": 0.1},
    {"kind": "step"},
    {"kind": "get_monitorables"},
    {"kind": "get_current_topology"},
    {"kind": "get_active_links"},
    {"kind": "get_bandwidth_consumption"},
    {"kind": "get_time_to_write"},
    {"kind": "set_current_topology", "topology": "mst"},
    {"kind": "set_time_to_write", "time_to_write": 1e-7},
    {"kind": "step"},
    {"kind": "get_monitorables"},
    {"kind": "step"},
    {"kind": "set_network_topology", "timestep": 3, "topology": "mst"},
    {"kind": "set_active_links", "active_links": 300},
    {"kind": "step"},
)
# A config that loads and whose single step_complete record holds finite
# floats that sum past the float range: the percentages are 8.9e307 each.
OVERFLOW_CONFIG = {
    "number_of_mirrors": 2, "timesteps": 1, "bandwidth_per_link_range": [1.0, 1.0],
    "unit_write_time_range": [1.0, 1.0], "mst_active_links_range_pct": [100, 100],
    "rt_active_links_range_pct": [100, 100],
    "disturbances": {"S0": {"mst": {
        "bandwidth_factor": [8.9e305, 8.9e305], "write_time_factor": [8.9e305, 8.9e305],
    }}},
}
OVERFLOW_REQUESTS = ({"kind": "get_monitorables"}, {"kind": "step"})

GOLDEN = {
    ("S0", "null", 7): "f36fcf9fb78cc4a8d991342fe40d30e9a25ae3e366645167ec9dd8365a479a23",
    ("S0", "null", 2021): "e0692d5f71c09d2ec65572d75e1e095bf7e97773cd8cb82a6bbf46b17134ac40",
    ("S0", "random", 7): "0aa56e97acfa32672016c88fd4c3de8ded06276cb14c660eb8e1a0b6a26cea53",
    ("S0", "random", 2021): "c122ca7e257c15b7f227c97fe728f5dd1f6d70e43b5621a2bbe8aad349600b4b",
    ("S0", "threshold", 7): "f36fcf9fb78cc4a8d991342fe40d30e9a25ae3e366645167ec9dd8365a479a23",
    ("S0", "threshold", 2021): "e0692d5f71c09d2ec65572d75e1e095bf7e97773cd8cb82a6bbf46b17134ac40",
    ("S1", "null", 7): "e1bfc45c22f889aa9fc23a7a925e05eb25ccac27603808be167a586d1b84b26b",
    ("S1", "null", 2021): "b399ce67fafa0f36e8dba4c1ce5d8c4d1cb3911ced4b73ef13a5b184d245ba79",
    ("S1", "random", 7): "e9a5e4725bfe37a56f904aca6cb6c36e4d93e4bd94f738430f8e88ecf2da73bc",
    ("S1", "random", 2021): "45827c006d8514abd5e6f82e78b0ee2df162ef9dc2a9d238301f6e15f4e1c430",
    ("S1", "threshold", 7): "911eb7965d4d82799524f4d207b3bbb4d6a50238f310c3d42f98cdb28baf3593",
    ("S1", "threshold", 2021): "d972f3ce42cab424b63204f54e6074e9ddd61979bd5eb3411eb2166fc6cc9af9",
    ("S2", "null", 7): "0ed0f15d0cc7fa1ecfa80e198474bd57748532a4866d5971699d8e14307ad318",
    ("S2", "null", 2021): "2f41d2a7bc3e2dfe3e53059c1532113719d1c5b8d7d77bcd6c060f30d994e37a",
    ("S2", "random", 7): "2293df714ebdb8b5252b0f4373e8e4115f742fb33b2b3344e04badf5fa09fd5d",
    ("S2", "random", 2021): "8b96df780060fb4a737f50410f7a65e573e63ac31213ff74d3f4fa2911c8c0bd",
    ("S2", "threshold", 7): "c854493b09b3eaeb7a4b077955ccc12ad7b68080a4518b4a1f2b8c38dfb0760c",
    ("S2", "threshold", 2021): "639eab7e0edfdafeafa1fba485844f65c3009a7cdc1c2cb504122aad02856f87",
    ("S3", "null", 7): "31c34e88558c00668cf658bcb89af53909477bd037b6905be01253cb7ad0cabc",
    ("S3", "null", 2021): "89f54642c5ac49431ec527fb40731c250401d229048dd876d30005863f0ed462",
    ("S3", "random", 7): "9c69502d9b9635d581112083fbcb370f5bfcbc116e77be5a5a6d9b3f1d53fef4",
    ("S3", "random", 2021): "7748979d1b072355310e13eb5801f697e4356409d1c34cbe7ad24b5cb41c579b",
    ("S3", "threshold", 7): "2ce2d3f671027b54d0f3b2eb102271ea897f357259282ceccec1b704dce39da5",
    ("S3", "threshold", 2021): "7990baf8e25379137e9e222472fa15f660dea7247fe394a567c831d9112328b7",
    ("S4", "null", 7): "1b4aa77933b87a682c6ea58770a50c5c1fcdb4c2709a984e6d7b79b1622cdc1e",
    ("S4", "null", 2021): "689df19a5a1bf390fe4b84664597376902180aaf85caceb15d6216b8f515290e",
    ("S4", "random", 7): "5261497c190d7d7bd453dad22735de3255b4fc9efdb2f8474424631396167c04",
    ("S4", "random", 2021): "39a11fdb7c7ea7b42a00b0903836909d3f34b4f0d7bf6dfb8ee4845359add968",
    ("S4", "threshold", 7): "8071671f89094f10aeb7c434eecf596d59cab1c362f447c3b9c4bba4809d4140",
    ("S4", "threshold", 2021): "10b6ca79bca7c428076099e4350b83835fcbe73c3d7e4ee50a33f6a2eaa0ae9b",
    ("S5", "null", 7): "3319e45711413539213ce8edfbcff6d4471bb67c44b701b595c0e112eca4cda7",
    ("S5", "null", 2021): "4231afbf83de8cd735802e1dfdb6b690672832c90943ed440bf9a3137164931c",
    ("S5", "random", 7): "b5e904f24f96914fdb8dd06e522bb96ce6ad2cc330c39993b0f79e65e6a53b1a",
    ("S5", "random", 2021): "854c0f1cbda627c2ad18876cfb1d2a3749b98ab0833a95231a272b9e80f0ac86",
    ("S5", "threshold", 7): "36157ec8467f1979630fdda527f2e8b077b9927ed7e530e481b6da6503d6367f",
    ("S5", "threshold", 2021): "6ffbb71046739be058753e8ba52ebffb8f883d325b6fbfb4ecf7fe119f9bd5d8",
    ("S6", "null", 7): "c1c8514da207d557b70adae7b33c690004e4c9daf5b4e793c47151971bd5985c",
    ("S6", "null", 2021): "a482c10c3b99fc002aa35a094d7a7a803a4be60b24a41acb70d6d8b77435b62f",
    ("S6", "random", 7): "70e714bf19f7fa78d2e5fa0d45824a9ed5b8e821a14ada47352b7a3e9c3217bd",
    ("S6", "random", 2021): "c34141387e31fa911511d478aa113f80c5528917c6b07d0fe7b68425bfd8cac7",
    ("S6", "threshold", 7): "cca8171bdbe517bcdaea724c2971233c55ca0a3c932b67b208c61afb235ef082",
    ("S6", "threshold", 2021): "4953f5305254df358f159153289eddc79e558ec5339bdcf42c7eaa87b0afff1d",
}

WINDOW_GOLDEN = {
    "S1": "19fd273f6bc2144ba7d8213d1597278d38b44310a9e9923241c6e456e99d9225",
    "S6": "0989df2258be1f4cf7fcf1efa6fab5466a9658129d1565198fcf75832d986371",
}

WIRE_GOLDEN = "e007ab30485a153622b96daec7e6e56087108c89a4a2d5930a0c229a1fa8225f"

GRAMMAR_STREAM_GOLDEN = "0350d15e2534fbe6f35155b249c7b082f172a84ec04328d0247ceec2bad27e8f"

OVERFLOW_STREAM_GOLDEN = "f20fb36cef74c34a51ca9942e86a00e6f0060fc416b7163dcb0c2575470e0fd4"

WIRE_STREAM_GOLDEN = "e2e43bc90857ec1bc8d7aa8f80a494b315f5a16491b1ad50738e79b89e7f5de5"

LONG_TRACE_GOLDEN = "8586796a0a3ac8c43c8169dedb54c86f21c12eb34922c24f18d5a0204f6123e6"

LONG_SUMMARY_GOLDEN = "f4081fd6e8b6de5b43ce1728231d96afb2df6973ddc912957dd1267b58a10c51"

SUMMARY_GOLDEN = "2525b484ef3bd51c37ebfacd7d7dca7fe9686928cda879fddb1729398ed60ed8"


def _config(scenario: str, seed: int, **extra):
    return config_from_mapping({"scenario": scenario, "seed": seed, "timesteps": STEPS, **extra})


def _digest(trace) -> str:
    return hashlib.sha256(render_trace_csv(trace).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def in_process_run(scenario: str, manager_name: str, seed: int, window=None):
    """The run of one in-process case, disturbed only inside ``window`` if given."""
    extra = {} if window is None else {"disturbance_window": list(window)}
    config = _config(scenario, seed, **extra)
    manager = create_manager(
        manager_name,
        network=config.network,
        thresholds=config.properties.thresholds,
        seed=seed,
    )
    return run(manager, config)


def in_process_digest(scenario: str, manager_name: str, seed: int) -> str:
    return _digest(in_process_run(scenario, manager_name, seed).trace)


def window_run(scenario: str):
    """The threshold run disturbed only inside ``WINDOW``."""
    return in_process_run(scenario, "threshold", WINDOW_SEED, WINDOW)


def window_digest(scenario: str) -> str:
    return _digest(window_run(scenario).trace)


def summary_digest() -> str:
    """SHA-256 of ``json.dumps(summary.as_dict(), indent=2)`` of every
    ``GOLDEN`` case and then every ``WINDOW_GOLDEN`` case, in that order, one
    line break after each."""
    runs = [
        *(in_process_run(*key) for key in GOLDEN),
        *(window_run(scenario) for scenario in WINDOW_GOLDEN),
    ]
    return _text_digest("".join(json.dumps(r.summary.as_dict(), indent=2) + "\n" for r in runs))


def run_threshold_remotely(harness: WireHarness, scenario: str, seed: int) -> None:
    config = _config(scenario, seed)
    manager = create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds, seed=seed
    )
    run_remote(manager, harness, harness.wfile)


def wire_digest(scenario: str, seed: int) -> str:
    with WireHarness(_config(scenario, seed)) as harness:
        run_threshold_remotely(harness, scenario, seed)
    assert harness.result is not None and harness.result.completed
    return _digest(harness.result.trace)


def wire_stream_digest(scenario: str, seed: int) -> str:
    """SHA-256 of every line the server wrote, from ``hello`` to ``run_complete``."""
    with WireHarness(_config(scenario, seed)) as harness:
        run_threshold_remotely(harness, scenario, seed)
        assert harness.recv_eof()
    return hashlib.sha256("".join(harness.received).encode("utf-8")).hexdigest()


def scripted_session(mapping: dict, requests) -> str:
    """Every line the server wrote for ``requests``, numbered from 1, over
    ``io.BytesIO``, from ``hello`` to the end of the session."""
    lines = "".join(
        json.dumps({"seq": seq, **request}) + "\n" for seq, request in enumerate(requests, start=1)
    )
    served = io.BytesIO()
    WireSession(config_from_mapping(mapping), io.BytesIO(lines.encode()), served).run()
    return served.getvalue().decode()


def grammar_session() -> str:
    """Every line the server wrote for ``GRAMMAR_REQUESTS``, from ``hello`` to ``run_complete``."""
    scenario, seed, steps = GRAMMAR_CASE
    return scripted_session(
        {"scenario": scenario, "seed": seed, "timesteps": steps}, GRAMMAR_REQUESTS
    )


def overflow_session() -> str:
    return scripted_session(OVERFLOW_CONFIG, OVERFLOW_REQUESTS)


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def long_run_digests(scenario: str, seed: int, steps: int) -> tuple[str, str]:
    """SHA-256 of the trace and of ``json.dumps(summary.as_dict(), indent=2)``."""
    config = config_from_mapping({"scenario": scenario, "seed": seed, "timesteps": steps})
    manager = create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds, seed=seed
    )
    result = run(manager, config)
    summary_text = json.dumps(result.summary.as_dict(), indent=2)
    return _digest(result.trace), hashlib.sha256(summary_text.encode("utf-8")).hexdigest()


def recomputed_digests() -> list[tuple[str, str, str]]:
    """(name, digest of the current source, pinned digest) for every golden."""
    long_trace, long_summary = long_run_digests(*LONG_CASE)
    return [
        *(
            (f"GOLDEN[{key}]", in_process_digest(*key), digest)
            for key, digest in GOLDEN.items()
        ),
        *(
            (f"WINDOW_GOLDEN[{scenario!r}]", window_digest(scenario), digest)
            for scenario, digest in WINDOW_GOLDEN.items()
        ),
        ("WIRE_GOLDEN", wire_digest(*WIRE_CASE), WIRE_GOLDEN),
        ("WIRE_STREAM_GOLDEN", wire_stream_digest(*WIRE_CASE), WIRE_STREAM_GOLDEN),
        ("GRAMMAR_STREAM_GOLDEN", _text_digest(grammar_session()), GRAMMAR_STREAM_GOLDEN),
        ("OVERFLOW_STREAM_GOLDEN", _text_digest(overflow_session()), OVERFLOW_STREAM_GOLDEN),
        ("LONG_TRACE_GOLDEN", long_trace, LONG_TRACE_GOLDEN),
        ("LONG_SUMMARY_GOLDEN", long_summary, LONG_SUMMARY_GOLDEN),
        ("SUMMARY_GOLDEN", summary_digest(), SUMMARY_GOLDEN),
    ]


def pytest_generate_tests(metafunc):
    # Parametrized by hook, not by decorator, so the module imports without pytest.
    if metafunc.definition.name == "test_in_process_trace_digest":
        metafunc.parametrize(("scenario", "manager_name", "seed"), list(GOLDEN))
    elif metafunc.definition.name == "test_windowed_trace_digest":
        metafunc.parametrize("scenario", list(WINDOW_GOLDEN))


def test_in_process_trace_digest(scenario, manager_name, seed):
    assert in_process_digest(scenario, manager_name, seed) == GOLDEN[(scenario, manager_name, seed)]


def test_windowed_trace_digest(scenario):
    assert window_digest(scenario) == WINDOW_GOLDEN[scenario]


def test_wire_threshold_session_digest():
    assert wire_digest(*WIRE_CASE) == WIRE_GOLDEN


def test_wire_threshold_session_stream_digest():
    assert wire_stream_digest(*WIRE_CASE) == WIRE_STREAM_GOLDEN


def test_full_grammar_session_stream_digest():
    messages = [json.loads(line) for line in grammar_session().splitlines()]
    # The script reaches every reply kind and both recoverable error codes.
    assert {message["kind"] for message in messages} == {
        "hello", "monitorables", "topology", "value", "ack", "step_complete", "error",
        "run_complete",
    }
    assert {message["code"] for message in messages if message["kind"] == "error"} == {
        "not_observable", "invalid_value",
    }
    assert messages[1]["monitorables"] is None
    assert [message.get("re") for message in messages[1:-1]] == list(
        range(1, len(GRAMMAR_REQUESTS) + 1)
    )
    assert _text_digest(grammar_session()) == GRAMMAR_STREAM_GOLDEN


def test_overflowing_step_session_stream_digest():
    session = overflow_session()
    messages = [json.loads(line) for line in session.splitlines()]
    assert [message["kind"] for message in messages] == [
        "hello", "monitorables", "step_complete", "run_complete",
    ]
    record = messages[2]["record"]
    floats = [record[key] for key in (
        "bandwidth_gbps", "time_to_write_ms", "active_links_pct", "bandwidth_pct", "write_time_pct",
    )]
    assert all(map(math.isfinite, floats)) and math.isinf(sum(floats))
    assert _text_digest(session) == OVERFLOW_STREAM_GOLDEN


def test_long_threshold_trace_digest():
    assert long_run_digests(*LONG_CASE)[0] == LONG_TRACE_GOLDEN


def test_long_threshold_summary_digest():
    assert long_run_digests(*LONG_CASE)[1] == LONG_SUMMARY_GOLDEN


def test_in_process_summaries_digest():
    assert summary_digest() == SUMMARY_GOLDEN


def print_table() -> None:
    print("GOLDEN = {")
    for scenario in SCENARIOS:
        for manager_name in MANAGERS:
            for seed in SEEDS:
                digest = in_process_digest(scenario, manager_name, seed)
                print(f'    ({scenario!r}, {manager_name!r}, {seed}): "{digest}",'.replace("'", '"'))
    print("}")
    print()
    print("WINDOW_GOLDEN = {")
    for scenario in WINDOW_GOLDEN:
        print(f'    "{scenario}": "{window_digest(scenario)}",')
    print("}")
    print()
    print(f'WIRE_GOLDEN = "{wire_digest(*WIRE_CASE)}"')
    print()
    print(f'WIRE_STREAM_GOLDEN = "{wire_stream_digest(*WIRE_CASE)}"')
    print()
    print(f'GRAMMAR_STREAM_GOLDEN = "{_text_digest(grammar_session())}"')
    print()
    print(f'OVERFLOW_STREAM_GOLDEN = "{_text_digest(overflow_session())}"')
    long_trace, long_summary = long_run_digests(*LONG_CASE)
    print()
    print(f'LONG_TRACE_GOLDEN = "{long_trace}"')
    print()
    print(f'LONG_SUMMARY_GOLDEN = "{long_summary}"')
    print()
    print(f'SUMMARY_GOLDEN = "{summary_digest()}"')


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Golden trace digests of the current source.")
    parser.add_argument(
        "--check", action="store_true", help="compare every digest with its pinned value"
    )
    if not parser.parse_args().check:
        print_table()
        sys.exit(0)
    digests = recomputed_digests()
    failed = [(name, got, want) for name, got, want in digests if got != want]
    for name, got, want in failed:
        print(f"MISMATCH {name}: got {got}, pinned {want}")
    matched = len(digests) - len(failed)
    print(f"{matched} of {len(digests)} digests match on Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
