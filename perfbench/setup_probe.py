"""Time one in-process set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <long_threshold|sweep> <config.json> <seed>

Set-up is ``import mirrorsim`` (plus ``mirrorsim.cli`` for the sweep, which
runs through the CLI), ``load_config`` of the benchmark's config file,
``with_updates`` to the workload's run, and building the simulation and the
threshold manager: everything a user pays before timestep 0.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, config_path: str, seed: int) -> None:
    start = time.perf_counter()
    import mirrorsim

    if workload == "sweep":
        import mirrorsim.cli  # noqa: F401
    scenario = "S0" if workload == "sweep" else "S3"
    timesteps = 100 if workload == "sweep" else 100_000
    config = mirrorsim.load_config(config_path).with_updates(
        scenario=scenario, seed=seed, timesteps=timesteps
    )
    mirrorsim.build_simulation(config)
    mirrorsim.create_manager(
        "threshold", network=config.network, thresholds=config.properties.thresholds, seed=seed
    )
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
