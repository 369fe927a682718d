"""Golden-trace hashes: the same config and seed must render the same bytes.

Each digest is the SHA-256 of ``render_trace_csv`` for one run. The in-process
matrix covers every scenario under every reference manager for two seeds;
one extra threshold-driven session runs over the line-JSON wire. A change
that moves one drawn number, one float operation or one CSV byte changes a
digest here.

To print the table for the current source (only when a change of the trace
is intended and documented): ``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from mirrorsim import config_from_mapping, create_manager, render_trace_csv, run

from wire_helpers import WireHarness, drive_threshold_policy

SCENARIOS = ("S0", "S1", "S2", "S3", "S4", "S5", "S6")
MANAGERS = ("null", "random", "threshold")
SEEDS = (7, 2021)
STEPS = 500
WIRE_CASE = ("S3", 13)

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

WIRE_GOLDEN = "e007ab30485a153622b96daec7e6e56087108c89a4a2d5930a0c229a1fa8225f"


def _config(scenario: str, seed: int):
    return config_from_mapping({"scenario": scenario, "seed": seed, "timesteps": STEPS})


def _digest(trace) -> str:
    return hashlib.sha256(render_trace_csv(trace).encode("utf-8")).hexdigest()


def in_process_digest(scenario: str, manager_name: str, seed: int) -> str:
    config = _config(scenario, seed)
    manager = create_manager(
        manager_name,
        network=config.network,
        thresholds=config.properties.thresholds,
        seed=seed,
    )
    return _digest(run(manager, config).trace)


def wire_digest(scenario: str, seed: int) -> str:
    with WireHarness(_config(scenario, seed)) as harness:
        drive_threshold_policy(harness)
    assert harness.result is not None and harness.result.completed
    return _digest(harness.result.trace)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("manager_name", MANAGERS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_in_process_trace_digest(scenario, manager_name, seed):
    assert in_process_digest(scenario, manager_name, seed) == GOLDEN[(scenario, manager_name, seed)]


def test_wire_threshold_session_digest():
    assert wire_digest(*WIRE_CASE) == WIRE_GOLDEN


if __name__ == "__main__":
    print("GOLDEN = {")
    for scenario in SCENARIOS:
        for manager_name in MANAGERS:
            for seed in SEEDS:
                digest = in_process_digest(scenario, manager_name, seed)
                print(f'    ({scenario!r}, {manager_name!r}, {seed}): "{digest}",'.replace("'", '"'))
    print("}")
    print()
    print(f'WIRE_GOLDEN = "{wire_digest(*WIRE_CASE)}"')
