"""Flat memory of a long CLI run; about 15 s, too slow for the test suite.

A 1,000,000-step run with its plot table streams both files (about 48 MiB
on CPython 3.11; a writer that held either whole text peaked above 800 MiB),
and plot-data reads that trace back a chunk at a time (about 18 MiB; 456 MiB
when it read the whole file) into the batch's own table. Each command must
exit 0 within 96 MiB. It runs as a child of this small process, since
ru_maxrss starts at the parent's high-water mark; its wall time is printed
for the record only. From the repository root, on Linux:

    PYTHONPATH=src python tests/flat_memory.py
"""

import filecmp
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        out, plot = Path(workdir, "flat-memory"), Path(workdir, "flat-memory-plot.csv")
        for args in (["run", "--scenario", "S3", "--manager", "threshold", "--seeds", "7",
                      "--timesteps", "1000000", "--plot-data", "--output-dir", str(out)],
                     ["plot-data", str(out / "S3_threshold_seed7_trace.csv"),
                      "--output", str(plot)]):
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "mirrorsim", *args],
                                     stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            wall_s = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
            peak_mib = usage.ru_maxrss / 1024  # KiB on Linux
            print(f"{args[0]}: exit {child.returncode}, peak {peak_mib:.1f} MiB,"
                  f" wall {wall_s:.2f} s")
            assert child.returncode == 0, child.returncode
            assert peak_mib <= 96, peak_mib
        assert len(os.listdir(out)) == 4, os.listdir(out)
        assert filecmp.cmp(plot, out / "S3_threshold_seed7_plot.csv", shallow=False)


if __name__ == "__main__":
    main()
