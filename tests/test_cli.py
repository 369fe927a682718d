from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorsim
from mirrorsim.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_MANAGER_ERROR,
    EXIT_OK,
    PLOT_CSV_HEADER,
    ROLLUP_CSV_HEADER,
    _write_json,
    emit_plot_data,
    main,
)
from mirrorsim.config import MAX_SEED, SatisfactionThresholds, default_config, default_config_mapping
from mirrorsim.managers import NullManager, create_manager
from mirrorsim.runner import TRACE_CSV_HEADER, ManagerError, render_trace_csv, run
from mirrorsim.scenarios import ScenarioId
from mirrorsim.wire import run_remote
from test_kernels import forbidden


def run_cli(*argv) -> int:
    return main(list(argv))


def test_run_writes_trace_summary_and_rollup(tmp_path):
    out = tmp_path / "results"
    rc = run_cli(
        "run", "--scenario", "S0", "--manager", "null", "--seeds", "7",
        "--timesteps", "100", "--output-dir", str(out),
    )
    assert rc == EXIT_OK
    trace = (out / "S0_null_seed7_trace.csv").read_text()
    assert len(trace.splitlines()) == 101  # header + one row per timestep
    summary = json.loads((out / "S0_null_seed7_summary.json").read_text())
    assert set(summary) == {
        "mean_bandwidth_pct", "mean_write_time_pct", "mean_active_links_pct",
        "mc_satisfied", "mp_satisfied", "mr_satisfied",
    }
    rollup = (out / "rollup.csv").read_text().splitlines()
    assert rollup[0] == ROLLUP_CSV_HEADER
    assert rollup[1].startswith("S0,7,null,")


def test_run_batch_over_scenarios_and_seeds(tmp_path):
    out = tmp_path / "batch"
    rc = run_cli(
        "run", "--scenario", "S1,S2", "--seeds", "0..4", "--timesteps", "50",
        "--output-dir", str(out),
    )
    assert rc == EXIT_OK
    rows = (out / "rollup.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    s1_rows = [row.split(",") for row in rows if row.startswith("S1,")]
    # S1 under a pinned-MST null manager: reliability collapses.
    assert all(row[6] == "false" for row in s1_rows)  # mr_satisfied column
    s2_rows = [row.split(",") for row in rows if row.startswith("S2,")]
    assert all(row[7] == "false" for row in s2_rows)  # mc_satisfied column
    # Each rollup row carries its run's summary: the means at six places and
    # the verdicts as JSON bools.
    runs = [dict(zip(ROLLUP_CSV_HEADER.split(","), row.split(","))) for row in rows]
    assert [(cells["scenario"], cells["seed"]) for cells in runs] == [
        (scenario, str(seed)) for scenario in ("S1", "S2") for seed in range(5)
    ]
    for cells in runs:
        name = f"{cells['scenario']}_{cells['manager']}_seed{cells['seed']}_summary.json"
        summary = json.loads((out / name).read_text())
        assert cells == {
            "scenario": cells["scenario"], "seed": cells["seed"], "manager": "null",
            **{key: f"{summary[key]:.6f}" for key in (
                "mean_active_links_pct", "mean_bandwidth_pct", "mean_write_time_pct")},
            **{key: json.dumps(summary[key]) for key in (
                "mr_satisfied", "mc_satisfied", "mp_satisfied")},
        }


def test_run_is_reproducible(tmp_path):
    for name in ("a", "b"):
        rc = run_cli(
            "run", "--scenario", "S1", "--manager", "threshold", "--seeds", "3",
            "--output-dir", str(tmp_path / name),
        )
        assert rc == EXIT_OK
    first = (tmp_path / "a" / "S1_threshold_seed3_trace.csv").read_bytes()
    second = (tmp_path / "b" / "S1_threshold_seed3_trace.csv").read_bytes()
    assert first == second


def test_unknown_scenario_exits_with_config_error(tmp_path, capsys):
    out = tmp_path / "nothing"
    rc = run_cli("run", "--scenario", "S9", "--output-dir", str(out))
    assert rc == EXIT_CONFIG_ERROR
    assert not out.exists()  # no artifacts on config errors
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_file_exits_with_config_error(tmp_path):
    config_path = tmp_path / "configuration.json"
    config_path.write_text('{"number_of_mirrors": 1}')
    rc = run_cli("run", "--config", str(config_path), "--output-dir", str(tmp_path / "x"))
    assert rc == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("content", [
    b"[" * 30_000,  # nesting past the decoder's depth limit
    b'{"seed": 1' + b"0" * 5_000 + b"}",  # past the interpreter's integer digit limit
    b'{"scenario": "S\xff"}',  # not UTF-8
], ids=["deep_nesting", "long_integer", "not_utf8"])
def test_a_config_file_json_cannot_decode_exits_with_config_error(tmp_path, capsys, content):
    config_path = tmp_path / "configuration.json"
    config_path.write_bytes(content)
    out = tmp_path / "out"
    rc = run_cli("run", "--config", str(config_path), "--output-dir", str(out))
    assert rc == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--manager", "random", "--timesteps", str(10**400)),
    ("--seeds", f"0,{2**64}", "--timesteps", "5"),  # the second seed is out of range
    # Range ends past the seed range are refused before the range is expanded.
    ("--seeds", f"0..{2**64}"),
    (f"--seeds=-{2**70}..0",),
])
def test_a_config_error_anywhere_in_the_batch_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli("run", *argv, "--output-dir", str(out)) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert capsys.readouterr().out == ""  # no run was reported either


def test_a_seed_range_at_the_top_of_the_seed_space_runs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("run", "--seeds", f"{MAX_SEED - 1}..{MAX_SEED}", "--timesteps", "5",
                 "--output-dir", str(out))
    assert rc == EXIT_OK
    assert capsys.readouterr().out.endswith(f"wrote 2 run(s) to {out}\n")
    rollup = (out / "rollup.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in rollup[1:]] == [str(MAX_SEED - 1), str(MAX_SEED)]


def test_a_range_over_the_whole_seed_space_is_never_expanded(tmp_path, monkeypatch):
    import mirrorsim.cli as cli_module

    # Refused before the first file, by the check each scenario's config gets.
    out = tmp_path / "refused"
    rc = run_cli("run", "--seeds", f"0..{MAX_SEED}", "--timesteps", "0", "--output-dir", str(out))
    assert rc == EXIT_CONFIG_ERROR
    assert not out.exists()

    # Accepted, its runs start at once, one seed after the other.
    class Stop(Exception):
        pass

    created = []
    original = cli_module.create_manager

    def create_manager(*args, seed, **kwargs):
        if len(created) == 2:
            raise Stop
        created.append(seed)
        return original(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli_module, "create_manager", create_manager)
    out = tmp_path / "accepted"
    with pytest.raises(Stop):
        run_cli("run", "--scenario", "S0,S1", "--seeds", f"0..{MAX_SEED}", "--timesteps", "5",
                "--output-dir", str(out))
    assert created == [0, 1]
    assert sorted(path.name for path in out.glob("*_trace.csv")) == [
        "S0_null_seed0_trace.csv", "S0_null_seed1_trace.csv",
    ]


def test_empty_batch_lists_are_config_errors(tmp_path):
    assert run_cli("run", "--seeds", ",", "--output-dir", str(tmp_path / "a")) == EXIT_CONFIG_ERROR
    assert run_cli("run", "--scenario", " ", "--output-dir", str(tmp_path / "b")) == EXIT_CONFIG_ERROR
    assert run_cli("run", "--seeds", "9..3", "--output-dir", str(tmp_path / "c")) == EXIT_CONFIG_ERROR


def test_config_env_var_is_honored(tmp_path, monkeypatch):
    config_path = tmp_path / "configuration.json"
    mapping = default_config_mapping()
    mapping["scenario"] = "S2"
    mapping["timesteps"] = 10
    config_path.write_text(json.dumps(mapping))
    monkeypatch.setenv("MIRRORSIM_CONFIG", str(config_path))
    out = tmp_path / "env_results"
    rc = run_cli("run", "--output-dir", str(out))
    assert rc == EXIT_OK
    assert (out / "S2_null_seed0_trace.csv").exists()


def test_manager_error_exit_code(tmp_path, monkeypatch):
    import mirrorsim.cli as cli_module

    def explode(manager, config):
        raise ManagerError(4, "boom")

    monkeypatch.setattr(cli_module, "run", explode)
    rc = run_cli("run", "--output-dir", str(tmp_path / "m"))
    assert rc == EXIT_MANAGER_ERROR


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    rc = run_cli("run", "--output-dir", str(blocker))
    assert rc == EXIT_IO_ERROR


def test_plot_data_long_format(tmp_path, capsys):
    out = tmp_path / "results"
    run_cli("run", "--scenario", "S0", "--seeds", "5", "--timesteps", "100",
            "--output-dir", str(out))
    trace_path = out / "S0_null_seed5_trace.csv"
    plot_path = tmp_path / "plot.csv"
    rc = run_cli("plot-data", str(trace_path), "--output", str(plot_path))
    assert rc == EXIT_OK

    # Without --output the same table goes to stdout.
    capsys.readouterr()
    assert run_cli("plot-data", str(trace_path)) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == plot_path.read_bytes()

    lines = plot_path.read_text().splitlines()
    assert lines[0] == PLOT_CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 300  # three series per timestep

    thresholds = {"active_links_pct": "35.000000", "bandwidth_pct": "40.000000",
                  "write_time_pct": "45.000000"}
    for _, series, _, threshold in rows:
        assert threshold == thresholds[series]

    # Round trip: plot values match the trace cells exactly.
    trace_rows = [line.split(",") for line in trace_path.read_text().splitlines()[1:]]
    by_series = {"active_links_pct": 5, "bandwidth_pct": 6, "write_time_pct": 7}
    for (timestep, series, value, _), source in zip(rows, (r for r in trace_rows for _ in range(3))):
        assert timestep == source[0]
        assert value == source[by_series[series]]


def test_run_plot_data_reads_no_file_back(tmp_path, monkeypatch):
    monkeypatch.delenv("MIRRORSIM_CONFIG", raising=False)
    out = tmp_path / "results"

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"read back {self}")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", refuse)
        rc = run_cli(
            "run", "--scenario", "S0,S3", "--manager", "threshold", "--seeds", "1,2",
            "--timesteps", "50", "--output-dir", str(out), "--plot-data",
        )
    assert rc == EXIT_OK
    traces = sorted(out.glob("*_trace.csv"))
    assert len(traces) == 4
    for trace_path in traces:
        plot_path = trace_path.with_name(trace_path.name.replace("_trace.csv", "_plot.csv"))
        expected = emit_plot_data(trace_path.read_text(encoding="utf-8"), SatisfactionThresholds())
        assert plot_path.read_bytes() == expected.encode("utf-8")


def reference_plot_data(trace_text, thresholds):
    """The plot table built one row at a time, each trace row read into a dict."""
    lines = trace_text.splitlines()
    assert lines[0] == TRACE_CSV_HEADER
    fields = TRACE_CSV_HEADER.split(",")
    out = [PLOT_CSV_HEADER]
    for line in lines[1:]:
        row = dict(zip(fields, line.split(",")))
        for name, key in (("active_links_pct", "min_active_links_pct"),
                          ("bandwidth_pct", "max_bandwidth_pct"),
                          ("write_time_pct", "max_write_time_pct")):
            out.append(f"{row['timestep']},{name},{row[name]},{getattr(thresholds, key):.6f}")
    return "\n".join(out) + "\n"


# Lengths around the trace writer's 1,024-row chunks.
@pytest.mark.parametrize("timesteps", [1023, 1024, 1025, 2049])
def test_run_streams_the_trace_and_its_plot_across_chunk_edges(tmp_path, monkeypatch, timesteps):
    import mirrorsim.cli as cli_module
    import mirrorsim.runner as runner_module

    monkeypatch.delenv("MIRRORSIM_CONFIG", raising=False)
    out = tmp_path / "results"

    with monkeypatch.context() as patch:
        # No file is read back, and neither whole text is built.
        patch.setattr(Path, "read_text", forbidden("Path.read_text"))
        patch.setattr(runner_module, "render_trace_csv", forbidden("render_trace_csv"))
        patch.setattr(cli_module, "emit_plot_data", forbidden("emit_plot_data"))
        rc = run_cli(
            "run", "--scenario", "S3", "--manager", "threshold", "--seeds", "4",
            "--timesteps", str(timesteps), "--output-dir", str(out), "--plot-data",
        )
    assert rc == EXIT_OK
    config = default_config().with_updates(scenario=ScenarioId.S3, seed=4, timesteps=timesteps)
    thresholds = config.properties.thresholds
    manager = create_manager("threshold", network=config.network, thresholds=thresholds, seed=4)
    text = render_trace_csv(run(manager, config).trace)
    assert (out / "S3_threshold_seed4_trace.csv").read_bytes() == text.encode("utf-8")
    plot = (out / "S3_threshold_seed4_plot.csv").read_bytes()
    assert plot == emit_plot_data(text, thresholds).encode("utf-8")
    assert plot == reference_plot_data(text, thresholds).encode("utf-8")


def plot_data_of_file(tmp_path, capsys, monkeypatch, text):
    """Run ``mirrorsim plot-data`` on a file holding ``text``, byte for byte,
    to ``--output`` and to stdout, and check it against ``emit_plot_data``:
    the same table both ways, or, where that raises, exit 2 with its message
    and nothing written. Returns ``emit_plot_data``'s table or error."""
    monkeypatch.delenv("MIRRORSIM_CONFIG", raising=False)
    trace, output = tmp_path / "trace.csv", tmp_path / "plot.csv"
    trace.write_bytes(text.encode("utf-8"))
    output.unlink(missing_ok=True)
    try:
        expected = emit_plot_data(text, SatisfactionThresholds())
    except ValueError as exc:
        expected = exc
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", forbidden("Path.read_text"))
        codes = [run_cli("plot-data", str(trace), "--output", str(output)),
                 run_cli("plot-data", str(trace))]
    captured = capsys.readouterr()
    if isinstance(expected, ValueError):
        assert codes == [EXIT_CONFIG_ERROR] * 2 and not output.exists()
        assert captured.out == "" and captured.err == f"configuration error: {expected}\n" * 2
    else:
        assert codes == [EXIT_OK] * 2 and captured.err == ""
        assert output.read_bytes() == captured.out.encode("utf-8") == expected.encode("utf-8")
    return expected


def test_plot_data_names_the_line_of_the_first_bad_row(tmp_path, capsys, monkeypatch):
    def plot(text):
        return plot_data_of_file(tmp_path, capsys, monkeypatch, text)

    rows = ["0,mst,1,2.0,3.0,4.0,5.0,6.0,", "1,mst,1,2.0,3.0,4.0,5.0,6.0,rt"]
    text = "\n".join([TRACE_CSV_HEADER, *rows, "2,mst,1", rows[0], "4,mst"]) + "\n"
    assert str(plot(text)) == "malformed trace: bad row at line 4"
    # Past the first 1,024-row chunk too: a bad row 2,000 rows in is on line 2,002.
    text = "\n".join([TRACE_CSV_HEADER, *rows * 1000, "2,mst", *rows * 24]) + "\n"
    assert str(plot(text)) == "malformed trace: bad row at line 2002"
    good = "\r\n".join([TRACE_CSV_HEADER, *rows])
    assert plot(good) == reference_plot_data(good, SatisfactionThresholds())
    assert plot(TRACE_CSV_HEADER) == PLOT_CSV_HEADER + "\n"
    # Every separator str.splitlines splits on, across 1,024-row chunk edges:
    # a file read line by line splits as its whole text does.
    separators = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029"]
    lines = [TRACE_CSV_HEADER, *rows * 1100]
    mixed = "".join(line + separators[i % len(separators)] for i, line in enumerate(lines))
    assert plot(mixed) == reference_plot_data(mixed, SatisfactionThresholds())
    # A separator before a newline ends an empty line, a bad row.
    assert str(plot(mixed.replace("\x85", "\x85\n", 1))) == "malformed trace: bad row at line 10"
    assert str(plot("")) == "malformed trace: unexpected header"


def test_plot_data_rejects_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestep,nope\n1,2\n")
    rc = run_cli("plot-data", str(bad))
    assert rc == EXIT_CONFIG_ERROR
    capsys.readouterr()
    assert run_cli("plot-data", str(tmp_path / "missing.csv")) == EXIT_CONFIG_ERROR
    assert "trace file not found" in capsys.readouterr().err
    bad.write_text(TRACE_CSV_HEADER + "\n0,mst,1\n")
    assert run_cli("plot-data", str(bad)) == EXIT_CONFIG_ERROR
    assert "bad row at line 2" in capsys.readouterr().err
    with pytest.raises(ValueError):
        emit_plot_data("timestep,nope\n", SatisfactionThresholds())
    # A byte that is not UTF-8 is named at its position in the whole file,
    # past the first block the reader decodes.
    data = (TRACE_CSV_HEADER + "\n" + "0,mst,1,2.0,3.0,4.0,5.0,6.0,\n" * 2000).encode() + b"\xff\n"
    bad.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert run_cli("plot-data", str(bad), "--output", str(tmp_path / "plot.csv")) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: {whole.value}\n"
    assert not (tmp_path / "plot.csv").exists()
    # The table would overwrite the trace it is read from.
    good = tmp_path / "good.csv"
    good.write_text(TRACE_CSV_HEADER + "\n")
    assert run_cli("plot-data", str(good), "--output", str(good)) == EXIT_CONFIG_ERROR
    assert "refusing to overwrite the trace file" in capsys.readouterr().err
    assert good.read_text() == TRACE_CSV_HEADER + "\n"


def test_init_config_writes_loadable_defaults(tmp_path):
    path = tmp_path / "configuration.json"
    rc = run_cli("init-config", str(path))
    assert rc == EXIT_OK
    assert json.loads(path.read_text()) == default_config_mapping()
    rc = run_cli("init-config", str(path))  # refuses to clobber
    assert rc == EXIT_CONFIG_ERROR
    rc = run_cli("init-config", str(path), "--force")
    assert rc == EXIT_OK


def test_serve_stdio_session(tmp_path):
    out = tmp_path / "wire"
    with subprocess.Popen(
        [
            sys.executable, "-m", "mirrorsim", "serve", "--stdio",
            "--scenario", "S0", "--seed", "3", "--timesteps", "3",
            "--output-dir", str(out),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as process:
        try:
            summary = run_remote(NullManager(), process.stdout, process.stdin)
            process.stdin.close()
            assert process.wait(timeout=30) == EXIT_OK
        finally:
            process.kill()
    trace = (out / "S0_wire_seed3_trace.csv").read_text()
    assert len(trace.splitlines()) == 4
    assert json.loads((out / "S0_wire_seed3_summary.json").read_text()) == summary.as_dict()


def test_serve_stdio_exits_ok_when_the_client_stops_reading(tmp_path):
    # With stdout block-buffered (no PYTHONUNBUFFERED), a client that closes
    # its read end after hello and still sends every step breaks each reply's
    # pipe. The session must complete, and the server must hold nothing to
    # flush at exit, where a failed flush turns exit 0 into 120.
    out = tmp_path / "wire"
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-m", "mirrorsim", "serve", "--stdio", "--timesteps", "3",
         "--output-dir", str(out)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as process:
        try:
            assert json.loads(process.stdout.readline())["kind"] == "hello"
            process.stdout.close()
            for seq in (1, 2, 3):
                process.stdin.write(b'{"seq": %d, "kind": "step"}\n' % seq)
            process.stdin.close()
            assert process.wait(timeout=30) == EXIT_OK
            assert process.stderr.read() == b""
        finally:
            process.kill()
    assert sorted(path.name for path in out.iterdir()) == [
        "S0_wire_seed0_summary.json", "S0_wire_seed0_trace.csv"
    ]
    assert len((out / "S0_wire_seed0_trace.csv").read_text().splitlines()) == 4


def test_importing_the_cli_leaves_socket_unloaded():
    # Only serve --port opens a socket, and every server start pays for each
    # module its import loads.
    source = Path(mirrorsim.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, mirrorsim.cli; print('socket' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(source)}, capture_output=True, text=True, timeout=60,
    )
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "False\n", "")


def test_serve_stdio_aborted_session_marks_incomplete(tmp_path):
    out = tmp_path / "wire"
    with subprocess.Popen(
        [
            sys.executable, "-m", "mirrorsim", "serve", "--stdio",
            "--seed", "3", "--timesteps", "5", "--output-dir", str(out),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as process:
        try:
            json.loads(process.stdout.readline())  # hello
            process.stdin.write(json.dumps({"seq": 1, "kind": "step"}) + "\n")
            process.stdin.flush()
            json.loads(process.stdout.readline())
            process.stdin.close()  # walk away mid-run
            assert process.wait(timeout=30) == 1
        finally:
            process.kill()
    marker = json.loads((out / "S0_wire_seed3_incomplete.json").read_text())
    assert marker == {"status": "incomplete", "timesteps_completed": 1}
    trace = (out / "S0_wire_seed3_trace.csv").read_text()
    assert len(trace.splitlines()) == 2


def test_serve_makes_its_output_dir_before_the_session(tmp_path):
    # The output directory cannot be made under a plain file: the server must
    # fail before its hello, not after a session whose artifacts it then loses.
    not_a_dir = tmp_path / "not-a-dir"
    not_a_dir.write_text("")
    served = subprocess.run(
        [sys.executable, "-m", "mirrorsim", "serve", "--stdio", "--timesteps", "2",
         "--output-dir", str(not_a_dir / "served")],
        input='{"seq": 1, "kind": "step"}\n{"seq": 2, "kind": "step"}\n',
        capture_output=True, text=True, timeout=60,
    )
    assert served.returncode == EXIT_IO_ERROR
    assert served.stdout == ""
    assert "i/o error" in served.stderr


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_rejects_a_port_outside_the_tcp_range(tmp_path, capsys, port):
    out = tmp_path / "served"
    rc = run_cli("serve", "--port", port, "--output-dir", str(out))
    assert rc == EXIT_CONFIG_ERROR
    assert "--port must be in 0..65535" in capsys.readouterr().err
    assert not out.exists()


def test_json_artifacts_refuse_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "summary.json", {"mean_bandwidth_pct": float("nan")})


def test_a_config_that_would_overflow_exits_with_config_error(tmp_path):
    config = tmp_path / "configuration.json"
    # The second and the third have more links than the trace's 64-bit link
    # column holds.
    for mapping in (
        {"bandwidth_per_link_range": [1, 1e308], "timesteps": 20},
        {"number_of_mirrors": 10**200},
        {"number_of_mirrors": 5_000_000_000},
    ):
        config.write_text(json.dumps(mapping))
        rc = run_cli(
            "run", "--config", str(config), "--scenario", "S2", "--manager", "null",
            "--seeds", "0", "--output-dir", str(tmp_path / "out"),
        )
        assert rc == EXIT_CONFIG_ERROR
        assert not (tmp_path / "out").exists()


def test_a_link_factor_past_the_float_range_clamps_to_total_links(tmp_path):
    # active_links x the link factor overflows to infinity; the count is
    # clamped to total_links before rounding, so the run completes.
    config = tmp_path / "configuration.json"
    config.write_text(json.dumps({
        "number_of_mirrors": 50000, "scenario": "S1", "timesteps": 3,
        "disturbances": {"S1": {"mst": {"active_links_factor": [1e300, 1e300]}}},
    }))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--output-dir", str(out)) == EXIT_OK
    (trace,) = out.glob("*_trace.csv")
    rows = trace.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert {row.split(",")[2] for row in rows} == {str(50000 * 49999 // 2)}


def test_a_run_whose_summary_would_overflow_exits_with_config_error(tmp_path):
    config = tmp_path / "configuration.json"
    config.write_text(json.dumps(
        {"scenario": "S2", "disturbances": {"S2": {"rt": {"bandwidth_factor": [1e302, 1e302]}}}}
    ))
    rc = run_cli(
        "run", "--config", str(config), "--manager", "null", "--seeds", "0",
        "--timesteps", "50000", "--output-dir", str(tmp_path / "out"),
    )
    assert rc == EXIT_CONFIG_ERROR
    assert not list(tmp_path.glob("out/*_summary.json"))
    # A run length past the float range overflows the sum with any config.
    huge = str(10**400)
    assert run_cli("run", "--timesteps", huge, "--output-dir", str(tmp_path / "out")) == (
        EXIT_CONFIG_ERROR
    )
    assert run_cli("serve", "--stdio", "--timesteps", huge) == EXIT_CONFIG_ERROR
