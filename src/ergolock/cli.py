"""Command-line surface: single-point reports, parameter sweeps, and the
random verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 size cap hit (including sweeps with capped rows), 4 numerical failure (a
report or sweep value not finite or off the bound chain; nothing written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .bounds import BoundReport, bound_reports
from .config import ConfigError, ExperimentConfig, check_seed, load_config
from .spectra import SizeCapError
from .verify import run_verification

CSV_COLUMNS = (
    "sweep_parameter",
    "value",
    "tight_bound",
    "resource_ergotropy",
    "locked_energy",
    "free_energy_bound",
    "thermo_limit_locked",
    "wall_time_ms",
)

SIZE_CAP_MARKER = "size-cap"


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    report: BoundReport | None
    error: str | None
    wall_time_ms: float


def _evaluate_group(config: ExperimentConfig, parameter: str, group: list) -> list[SweepRow]:
    # (value, (weight, bath)) pairs on one bath; each row gets an equal share of the time.
    values, points = zip(*group)
    weights = [weight for weight, _ in points]
    start = time.perf_counter()
    reports, error = [None] * len(group), None
    try:
        reports = bound_reports(config.state, config.hamiltonian, weights, points[0][1])
    except SizeCapError:
        error = SIZE_CAP_MARKER
    wall_time_ms = (time.perf_counter() - start) * 1e3 / len(group)
    return [SweepRow(parameter, v, r, error, wall_time_ms) for v, r in zip(values, reports)]


def run_sweep(config: ExperimentConfig, threads: int = 1) -> list[SweepRow]:
    """Evaluate every sweep point; rows come back in sweep order.

    Consecutive points on one bath object (all of a sigma sweep's points)
    form a group that one ``bound_reports`` call evaluates. A group past the
    expansion cap marks its rows and the run continues. Groups are
    independent pure computations, so any thread count gives identical values.
    """
    if config.sweep is None:
        raise ConfigError("sweep: this config has no sweep section")
    parameter = config.sweep.parameter
    # BathSpec compares by identity: a group ends where the bath object changes.
    pairs = zip(config.sweep.values, config.sweep.points)
    groups = [list(group) for _, group in groupby(pairs, key=lambda pair: pair[1][1])]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda g: _evaluate_group(config, parameter, g), groups))
    else:
        chunks = [_evaluate_group(config, parameter, g) for g in groups]
    return [row for chunk in chunks for row in chunk]


def run_report(config: ExperimentConfig) -> SweepRow:
    """Evaluate the config's fixed parameter point (any sweep section is ignored)."""
    (row,) = _evaluate_group(config, "point", [(0.0, (config.weight, config.bath))])
    return row


def _fmt(value: float) -> str:
    return repr(float(value))


def _row_cells(row: SweepRow, stable_timing: bool) -> list[str]:
    timing = 0.0 if stable_timing else row.wall_time_ms
    if row.report is None:
        quantities = ["nan"] * 5
    else:
        d = row.report.as_dict()
        quantities = [_fmt(d[c]) for c in CSV_COLUMNS[2:7]]
    return [row.parameter, _fmt(row.value), *quantities, _fmt(timing)]


def emit_csv(rows: list[SweepRow], stable_timing: bool = False) -> str:
    """Render rows in the fixed column order; floats use shortest
    round-trip decimals, capped rows carry nan quantities."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_row_cells(row, stable_timing)) for row in rows]
    return "\n".join(lines) + "\n"


def emit_json(rows: list[SweepRow], stable_timing: bool = False) -> str:
    records = []
    for row in rows:
        record: dict = {"sweep_parameter": row.parameter, "value": float(row.value)}
        if row.report is None:
            record.update({c: None for c in CSV_COLUMNS[2:7]})
            record["error"] = row.error
        else:
            record.update(row.report.as_dict())
        record["wall_time_ms"] = 0.0 if stable_timing else row.wall_time_ms
        records.append(record)
    return json.dumps(records, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _resolve_io(config: ExperimentConfig, args: argparse.Namespace) -> tuple[str | None, str]:
    path = args.out
    fmt = args.format
    if config.output is not None:
        path = path if path is not None else config.output.path
        fmt = fmt if fmt is not None else config.output.format
    return path, fmt or "csv"


def _cmd_rows(args: argparse.Namespace) -> int:
    # report and sweep: a report at the cap writes nothing, a sweep writes
    # every row, capped ones included.
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seed
    if args.command == "sweep":
        rows = run_sweep(config, threads=args.threads)
    else:
        rows = [run_report(config)]
        if rows[0].error:
            print("size cap exceeded at the requested point", file=sys.stderr)
            return 3
    path, fmt = _resolve_io(config, args)
    # A set seed promises byte-identical reruns, so timing is not recorded.
    stable = seed is not None
    text = emit_csv(rows, stable) if fmt == "csv" else emit_json(rows, stable)
    _write_output(text, path)
    return 3 if any(row.error for row in rows) else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verification(args.trials, args.seed, args.max_dim)
    _write_output(json.dumps(summary, indent=2) + "\n", args.out)
    return 0 if summary["pass"] else 1


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return check_seed(seed)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolock",
        description="Work-extraction bounds for coherent systems and finite qubit baths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="evaluate one parameter point")
    sweep = sub.add_parser("sweep", help="evaluate every point of the config's sweep")
    for p in (report, sweep):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=_seed, default=None,
                       help="reproducibility seed; also zeroes the timing column")
    sweep.add_argument("--threads", type=_thread_count, default=1,
                       help="concurrent sweep-point evaluations")

    verify = sub.add_parser("verify", help="run the seeded verification suite")
    verify.add_argument("--trials", type=int, default=200, help="trials per check")
    verify.add_argument("--seed", type=_seed, default=42)
    verify.add_argument("--max-dim", type=int, default=64,
                        help="largest joint dimension for dense comparisons")
    verify.add_argument("--out", default=None, help="summary JSON file (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rows(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        # After ConfigError, a ValueError subclass: a guard on the values.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
