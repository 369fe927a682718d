"""Command-line front door: experiment batches, plot data, and the wire server.

Exit codes: 0 success, 1 aborted wire session, 2 configuration error,
3 manager error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from operator import itemgetter, methodcaller
from pathlib import Path

from .config import (
    CONFIG_PATH_ENV_VAR,
    MAX_SEED,
    THRESHOLD_FIELDS,
    ConfigError,
    ExperimentConfig,
    SatisfactionThresholds,
    default_config,
    default_config_mapping,
    load_config,
)
from .managers import MANAGER_NAMES, create_manager
from .runner import (
    _CHUNK,
    TRACE_CSV_HEADER,
    TRACE_FIELDS,
    ManagerError,
    NormalizedMetrics,
    run,
    trace_csv_chunks,
    write_trace_csv,
)
from .scenarios import ScenarioId
from .wire import serve_stdio, serve_tcp

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_CONFIG_ERROR = 2
EXIT_MANAGER_ERROR = 3
EXIT_IO_ERROR = 4

ROLLUP_CSV_HEADER = (
    "scenario,seed,manager,mean_active_links_pct,mean_bandwidth_pct,"
    "mean_write_time_pct,mr_satisfied,mc_satisfied,mp_satisfied"
)
PLOT_CSV_HEADER = "timestep,series_name,value,threshold_value"


def _load_base_config(path_arg) -> ExperimentConfig:
    path = path_arg or os.environ.get(CONFIG_PATH_ENV_VAR)
    if path:
        return load_config(path)
    return default_config()


def _parse_seeds(spec: str) -> list[range]:
    """Parse a seed list: "7", "1,2,9", or ranges like "0..29" (inclusive).

    Each token stays a ``range``, bounds-checked and never expanded, so a
    range as wide as the whole seed space costs no memory.
    """
    seeds: list[range] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        start_text, dots, end_text = token.partition("..")
        start = int(start_text)
        end = int(end_text) if dots else start
        if end < start:
            raise ValueError(f"empty seed range: {token!r}")
        if start < 0 or end > MAX_SEED:
            raise ValueError(f"seed {token!r} must lie within 0..{MAX_SEED}")
        seeds.append(range(start, end + 1))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def _parse_scenarios(spec: str) -> list[ScenarioId]:
    scenarios = [ScenarioId.parse(token) for token in spec.split(",") if token.strip()]
    if not scenarios:
        raise ValueError(f"no scenarios in {spec!r}")
    return scenarios


def _bool_cell(value: bool) -> str:
    return "true" if value else "false"


# Characters plot-data reads from a trace file at a time.
_TRACE_BLOCK = 1 << 16
# A trace row's commas: one fewer than its cells, as str.split(",") cuts them.
_ROW_COMMAS = len(TRACE_FIELDS) - 1
_commas = methodcaller("count", ",")


def _trace_rows(lines):
    """The rows of a trace CSV's ``lines``, ``_CHUNK`` lines at a time, as
    the trace itself was written. A malformed header, or a row of another
    width than the header's, raises ValueError naming its line."""
    lines = iter(lines)
    if next(lines, None) != TRACE_CSV_HEADER:
        raise ValueError("malformed trace: unexpected header")
    lineno = 2  # of the chunk's first row
    while chunk := list(islice(lines, _CHUNK)):
        if any(map(_ROW_COMMAS.__ne__, map(_commas, chunk))):
            offset = next(i for i, line in enumerate(chunk) if _commas(line) != _ROW_COMMAS)
            raise ValueError(f"malformed trace: bad row at line {lineno + offset}")
        yield chunk
        lineno += _CHUNK


def _plot_rows(thresholds: SatisfactionThresholds):
    """The plot-table formatter for ``thresholds``.

    It takes a list of checked trace CSV rows and returns their long-format
    rows: for each trace row, one row per normalized series, in
    ``NormalizedMetrics`` order, all formatted by one ``%`` call. Cell
    strings are copied verbatim so values round-trip exactly.
    """
    names = NormalizedMetrics._fields
    template = "".join(
        f"%s,{name},%s,{getattr(thresholds, THRESHOLD_FIELDS[name]):.6f}\n" for name in names
    )
    # Each series row's (timestep, value) cells, in template order.
    cells = itemgetter(*chain.from_iterable((0, TRACE_FIELDS.index(name)) for name in names))

    def rows(lines: list[str]) -> str:
        split = [line.split(",") for line in lines]
        return (template * len(split)) % tuple(chain.from_iterable(map(cells, split)))

    return rows


def _plot_chunks(lines, thresholds: SatisfactionThresholds):
    """The plot table of a trace CSV's ``lines`` a piece at a time: its
    header, then one piece per chunk of :func:`_trace_rows`. A malformed
    header or row raises ValueError."""
    yield PLOT_CSV_HEADER + "\n"
    yield from map(_plot_rows(thresholds), _trace_rows(lines))


def emit_plot_data(trace_text: str, thresholds: SatisfactionThresholds) -> str:
    """Reshape a trace CSV into long-format (timestep, series, value, threshold) rows."""
    return "".join(_plot_chunks(trace_text.splitlines(), thresholds))


def _trace_file_lines(path: Path):
    """The lines of the trace file at ``path``, read ``_TRACE_BLOCK``
    characters at a time and split as ``str.splitlines`` splits the whole
    text. Each block is split once; its unfinished last line is kept in
    pieces until a block ends it, so a long line is copied once. Universal
    newlines turn each ``\\r\\n`` into ``\\n`` as it is read, so no
    separator spans two blocks."""
    with open(path, encoding="utf-8") as handle:
        try:
            unfinished = []
            while block := handle.read(_TRACE_BLOCK):
                # A character that is no separator after the block makes its
                # last piece the unfinished line, empty when a separator ends it.
                *lines, last = (block + "x").splitlines()
                if lines:
                    lines[0] = "".join([*unfinished, lines[0]])
                    unfinished.clear()
                    yield from lines
                unfinished.append(last[:-1])
            if line := "".join(unfinished):
                yield line
        except UnicodeDecodeError:
            # Raised again by a whole decode, to name the byte's position in
            # the file rather than in the block being read.
            path.read_bytes().decode("utf-8")
            raise


def _open_text(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: Path, text: str) -> None:
    with _open_text(path) as handle:
        handle.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")


def _write_trace_and_plot(trace, trace_path: Path, plot_path: Path, thresholds) -> None:
    """Write the trace CSV and its plot table in one pass over the trace's
    chunks: each chunk goes to the trace file and its plot rows to the plot
    file, so neither whole text is held and no file is read back."""
    with _open_text(trace_path) as trace_file, _open_text(plot_path) as plot_file:
        def lines():
            for chunk in trace_csv_chunks(trace):
                trace_file.write(chunk)
                yield from chunk.splitlines()

        plot_file.writelines(_plot_chunks(lines(), thresholds))


def _write_run(
    output_dir: Path, manager: str, config: ExperimentConfig, result, plot_data: bool
) -> None:
    """Write a run's trace, its summary (an incomplete marker for an aborted
    session) and, when asked, its plot table, named by scenario, manager, seed."""
    props = config.properties
    stem = f"{props.scenario.value}_{manager}_seed{props.seed}"
    trace_path = output_dir / f"{stem}_trace.csv"
    if plot_data:
        _write_trace_and_plot(
            result.trace, trace_path, output_dir / f"{stem}_plot.csv", props.thresholds
        )
    else:
        write_trace_csv(result.trace, trace_path)
    if result.completed:
        _write_json(output_dir / f"{stem}_summary.json", result.summary.as_dict())
    else:
        _write_json(
            output_dir / f"{stem}_incomplete.json",
            {"status": "incomplete", "timesteps_completed": len(result.trace)},
        )


def _cmd_run(args) -> int:
    config = _load_base_config(args.config)
    try:
        scenarios = (
            _parse_scenarios(args.scenario) if args.scenario else [config.properties.scenario]
        )
        seeds = _parse_seeds(args.seeds) if args.seeds else [(config.properties.seed,)]
        # Every run's config is checked before the first file is written: the
        # parser bounded each seed, and the seed enters no cross-field check,
        # so one config per scenario checks the rest.
        for scenario in scenarios:
            config.with_updates(scenario=scenario, timesteps=args.timesteps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    rollup = [ROLLUP_CSV_HEADER]
    batch = ((scenario, seed) for scenario in scenarios for seed in chain.from_iterable(seeds))
    for scenario, seed in batch:
        cfg = config.with_updates(scenario=scenario, seed=seed, timesteps=args.timesteps)
        manager = create_manager(
            args.manager, network=cfg.network, thresholds=cfg.properties.thresholds, seed=seed
        )
        result = run(manager, cfg)
        _write_run(output_dir, args.manager, cfg, result, args.plot_data)
        summary = result.summary
        rollup.append(
            f"{scenario.value},{seed},{args.manager},"
            f"{summary.mean_active_links_pct:.6f},{summary.mean_bandwidth_pct:.6f},"
            f"{summary.mean_write_time_pct:.6f},{_bool_cell(summary.mr_satisfied)},"
            f"{_bool_cell(summary.mc_satisfied)},{_bool_cell(summary.mp_satisfied)}"
        )
        print(
            f"{scenario.value} seed={seed} manager={args.manager}:"
            f" mr={_bool_cell(summary.mr_satisfied)}"
            f" mc={_bool_cell(summary.mc_satisfied)}"
            f" mp={_bool_cell(summary.mp_satisfied)}"
            f" (links {summary.mean_active_links_pct:.1f}%,"
            f" bw {summary.mean_bandwidth_pct:.1f}%,"
            f" wt {summary.mean_write_time_pct:.1f}%)"
        )
    _write_text(output_dir / "rollup.csv", "\n".join(rollup) + "\n")
    print(f"wrote {len(rollup) - 1} run(s) to {output_dir}")
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    config = _load_base_config(args.config)
    trace_path = Path(args.trace)
    if not trace_path.exists():
        raise ConfigError(f"trace file not found: {trace_path}")
    if args.output and Path(args.output).exists() and trace_path.samefile(args.output):
        raise ConfigError(f"refusing to overwrite the trace file with its plot table: {trace_path}")
    # A checking pass first, of the header and the row widths only, so that
    # a malformed trace writes nothing.
    try:
        for _ in _trace_rows(_trace_file_lines(trace_path)):
            pass
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    table = _plot_chunks(_trace_file_lines(trace_path), config.properties.thresholds)
    if args.output:
        with _open_text(Path(args.output)) as handle:
            handle.writelines(table)
    else:
        sys.stdout.writelines(table)
    return EXIT_OK


def _cmd_serve(args) -> int:
    config = _load_base_config(args.config)
    try:
        if args.port is not None and not 0 <= args.port <= 65535:
            raise ValueError(f"--port must be in 0..65535, got {args.port}")
        config = config.with_updates(
            scenario=args.scenario or None,
            seed=args.seed,
            timesteps=args.timesteps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.output_dir:  # made before serving, so a bad path loses no session
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    if args.stdio:
        result = serve_stdio(config)
    else:
        def announce(port: int) -> None:
            print(f"listening on {args.host}:{port}", file=sys.stderr, flush=True)

        result = serve_tcp(config, args.host, args.port, ready_callback=announce)

    if args.output_dir:
        _write_run(Path(args.output_dir), "wire", config, result, plot_data=False)
    return EXIT_OK if result.completed else EXIT_ABORTED


def _cmd_init_config(args) -> int:
    path = Path(args.path)
    if path.exists() and not args.force:
        raise ConfigError(f"refusing to overwrite existing file: {path} (use --force)")
    _write_json(path, default_config_mapping())
    print(f"wrote default configuration to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorsim",
        description="Deterministic remote-data-mirroring simulator for benchmarking "
        "self-adaptive decision-making.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(sub) -> None:
        sub.add_argument(
            "--config",
            help=f"configuration file (default: ${CONFIG_PATH_ENV_VAR} or built-in defaults)",
        )

    run_parser = subparsers.add_parser("run", help="run one experiment or a scenario/seed batch")
    add_config_flag(run_parser)
    run_parser.add_argument("--scenario", help="scenario id or comma list, e.g. S0 or S1,S2")
    run_parser.add_argument(
        "--manager", choices=MANAGER_NAMES, default="null", help="adaptation manager"
    )
    run_parser.add_argument("--seeds", help='seed list, e.g. "7", "1,2,9", or "0..29"')
    run_parser.add_argument("--timesteps", type=int, help="override the configured run length")
    run_parser.add_argument("--output-dir", default="results", help="artifact directory")
    run_parser.add_argument(
        "--plot-data", action="store_true", help="also emit a long-format plot table per run"
    )
    run_parser.set_defaults(handler=_cmd_run)

    plot_parser = subparsers.add_parser(
        "plot-data", help="reshape a trace CSV into a plot-ready long-format table"
    )
    add_config_flag(plot_parser)
    plot_parser.add_argument("trace", help="path to a trace CSV")
    plot_parser.add_argument("--output", help="output path (default: stdout)")
    plot_parser.set_defaults(handler=_cmd_plot_data)

    serve_parser = subparsers.add_parser(
        "serve", help="serve one run to a remote managing system"
    )
    add_config_flag(serve_parser)
    serve_parser.add_argument("--scenario", help="scenario override")
    serve_parser.add_argument("--seed", type=int, help="seed override")
    serve_parser.add_argument("--timesteps", type=int, help="run length override")
    transport = serve_parser.add_mutually_exclusive_group(required=True)
    transport.add_argument("--stdio", action="store_true", help="speak the protocol over stdio")
    transport.add_argument("--port", type=int, help="listen on a local TCP port (0 = ephemeral)")
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address for --port")
    serve_parser.add_argument("--output-dir", help="flush trace/summary artifacts here")
    serve_parser.set_defaults(handler=_cmd_serve)

    init_parser = subparsers.add_parser("init-config", help="write the default configuration file")
    init_parser.add_argument("path", nargs="?", default="configuration.json")
    init_parser.add_argument("--force", action="store_true", help="overwrite an existing file")
    init_parser.set_defaults(handler=_cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ManagerError as exc:
        print(f"manager error: {exc}", file=sys.stderr)
        return EXIT_MANAGER_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
