"""Run ``mirrorsim`` under the benchmark's tracer and write the spans at exit.

Usage: python3 perfbench/launcher.py --spans <path> serve --stdio [...]

The same wrappers as the in-process traced run are installed before
``mirrorsim.cli.main`` is called with the remaining arguments.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mirrorsim.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launcher.py --spans <path> <mirrorsim arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        return mirrorsim.cli.main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
