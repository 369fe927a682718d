"""The package's public surface and the README examples."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mirrorsim
from mirrorsim.config import default_config_mapping
from mirrorsim.scenarios import CATALOGUE

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in mirrorsim.__all__ if not hasattr(mirrorsim, name)]
    assert missing == []


def test_every_exported_name_is_documented_in_the_readme():
    text = README.read_text(encoding="utf-8")
    undocumented = [name for name in mirrorsim.__all__ if not re.search(rf"`{name}\b", text)]
    assert undocumented == []


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:  # later blocks use the names the quick start defines
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "trace.csv").is_file()
    assert namespace["replayed"].trace == namespace["result"].trace
    assert namespace["sim"].finished
    assert namespace["record"] == namespace["sim"].trace[-1]


def test_every_benchmark_tracer_target_exists(monkeypatch):
    # The benchmark's tracer patches these names in place; a refactor that
    # drops one breaks the traced benchmark run, which only CI runs.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, *_ in tracing.targets()
        if attribute not in owner.__dict__
    ]
    assert missing == []


def test_the_readme_schema_block_is_the_default_mapping():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration schema\n", 1)[1]
    block = re.search(r"^```json\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL).group(1)
    # json.dumps keeps key order and tells 20 from 20.0, so the order is checked too.
    assert json.dumps(json.loads(block)) == json.dumps(default_config_mapping())


def test_the_readme_scenario_table_is_the_catalogue():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (S\d) +\| (\w+) +\|", section, flags=re.MULTILINE)
    # A fixed initial topology by name, the fair coin as "random".
    assert rows == [
        (scenario.value, "random" if topology is None else topology.name)
        for scenario, (_, topology) in CATALOGUE.items()
    ]


def test_the_package_version_is_the_project_version():
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    versions = re.findall(r'^version = "([^"]*)"$', pyproject, flags=re.MULTILINE)
    assert versions == [mirrorsim.__version__]


def test_the_package_imports_on_the_standard_library_alone():
    # ``python -S`` skips site-packages, where pytest and hypothesis live; the
    # package, its CLI and its wire module must import without them.
    script = (
        "import sys\n"
        "import mirrorsim, mirrorsim.cli, mirrorsim.wire\n"
        "top = {name.partition('.')[0] for name in sys.modules}\n"
        "print(sorted(top - set(sys.stdlib_module_names)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "['__main__', 'mirrorsim']"
