"""The benchmark's workloads: inputs, one op, and the check of its output.

Every op goes through ergolock's public functions, looked up on the module
at call time so that a traced run sees the calls. The physics points are
fixed inputs whose outputs are pinned in ``reference.json``; the benchmark
seed only derives ``verify_small``'s per-op verification seeds.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

QUANTITIES = (
    "tight_bound",
    "resource_ergotropy",
    "locked_energy",
    "free_energy_bound",
    "thermo_limit_locked",
)
VERIFY_TRIALS = 50
VERIFY_CHECKS = 7

REPORT_N = 22

# The shape of configs/weight_width_sweep.json with a 16-qubit bath.
SIGMA_SWEEP = {
    "system": {"gaps": [1.0], "state": "plus"},
    "bath": {"model": "skrzypczyk", "N": 16, "omega": 1.0},
    "weight": {"kind": "gaussian", "sigma": 1.0},
    "temperature": 1.0,
    "sweep": {
        "parameter": "sigma_over_omega",
        "range": {"from": 0.1, "to": 10.0, "steps": 25, "spacing": "log"},
    },
    "output": {"path": None, "format": "csv"},
    "seed": 42,
}


class CheckFailed(AssertionError):
    """An op returned a wrong value."""


@dataclass(frozen=True)
class Prepared:
    """Inputs bound into one op and its check; ``joint_elements`` is the
    largest joint spectrum an op builds (computed from the inputs)."""

    run: Callable[[int], Any]
    check: Callable[[int, Any], None]
    joint_elements: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Any, int, dict | None], Prepared]
    # Output -> the values pinned in reference.json (None: not pinned).
    values: Callable[[Any], Any] | None


def _compare(got: dict, want: dict, tol: float, where: str) -> None:
    for key, expected in want.items():
        value = got.get(key)
        # Written so that a nan (a size-cap row) fails too.
        if value is None or not abs(value - expected) <= tol:
            raise CheckFailed(f"{where}.{key}: got {value!r}, reference {expected!r}")


def report_values(report) -> dict[str, float]:
    return {q: float(v) for q, v in report.as_dict().items() if q in QUANTITIES}


def csv_values(text: str) -> list[dict[str, Any]]:
    """Rows of an ``emit_csv`` document as ``{sweep_parameter, value, *QUANTITIES}``."""
    header, *lines = text.splitlines()
    columns = header.split(",")
    rows = []
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        row: dict[str, Any] = {"sweep_parameter": cells.get("sweep_parameter")}
        for key in ("value", *QUANTITIES):
            row[key] = float(cells[key]) if key in cells else None
        rows.append(row)
    return rows


def _check_rows(got: list[dict], want: list[dict], tol: float) -> None:
    if len(got) != len(want):
        raise CheckFailed(f"{len(got)} rows, reference has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g["sweep_parameter"] != w["sweep_parameter"]:
            raise CheckFailed(f"row {i}: parameter {g['sweep_parameter']!r}")
        _compare(g, {k: v for k, v in w.items() if k != "sweep_parameter"}, tol, f"row {i}")


def _prepare_report(el, seed: int, reference: dict | None) -> Prepared:
    rho = el.spectra.DensityOperator([[0.5, 0.5], [0.5, 0.5]])
    hamiltonian = el.spectra.DiagonalHamiltonian([0.0, 1.0])
    weight = el.weight.GaussianWeight(sigma=1.0)
    bath = el.bath.skrzypczyk_bath(REPORT_N, 1.0, 1.0)

    def run(i: int):
        return el.bounds.bound_report(rho, hamiltonian, weight, bath)

    def check(i: int, report) -> None:
        _compare(report_values(report), reference["report_large"], reference["tolerance"], "report")

    return Prepared(run, check, rho.dim << bath.n_qubits)


def _prepare_sweep(el, seed: int, reference: dict | None) -> Prepared:
    raw = copy.deepcopy(SIGMA_SWEEP)
    levels = len(raw["system"]["gaps"]) + 1

    def run(i: int) -> str:
        # parse -> sweep -> emit, as `ergolock sweep` does; a seeded config
        # writes the stable timing column.
        parsed = el.config.parse_config(raw)
        rows = el.cli.run_sweep(parsed, threads=1)
        return el.cli.emit_csv(rows, parsed.seed is not None)

    def check(i: int, text: str) -> None:
        _check_rows(csv_values(text), reference["sweep_sigma"], reference["tolerance"])

    return Prepared(run, check, levels << raw["bath"]["N"])


def verify_seed(seed: int, op: int) -> int:
    """Per-op verification seed (64 bits), a pure function of (seed, op)."""
    digest = hashlib.blake2b(f"verify_small:{seed}:{op}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _prepare_verify(el, seed: int, reference: dict | None) -> Prepared:
    def run(i: int) -> dict:
        return el.verify.run_verification(VERIFY_TRIALS, verify_seed(seed, i))

    def check(i: int, summary: dict) -> None:
        checks = summary.get("checks", [])
        if summary.get("pass") is not True or len(checks) != VERIFY_CHECKS:
            raise CheckFailed(f"verification of seed {verify_seed(seed, i)} did not pass: {summary}")
        for c in checks:
            if c.get("trials") != VERIFY_TRIALS or c.get("failures") != 0:
                raise CheckFailed(f"check {c.get('name')}: {c}")

    # Largest joint dimension the suite compares densely (its max_dim).
    return Prepared(run, check, 64)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report_large",
            "one bound_report at N = 22 (2^23 joint elements, 64 MiB per array): "
            "expansion, sorts and dot dominate",
            _prepare_report,
            report_values,
        ),
        Workload(
            "sweep_sigma",
            "parse, 25-point sigma sweep at N = 16 and CSV emit: arrays fit in L2, "
            "same bath rebuilt and re-sorted per point",
            _prepare_sweep,
            csv_values,
        ),
        Workload(
            "verify_small",
            "seeded verification, 50 trials, joint dimension <= 64: validation and "
            "dense oracle, not the kernels",
            _prepare_verify,
            None,
        ),
    )
}

