"""Experiment configuration: JSON schema, validation, and resolution into
the domain objects the sweep engine consumes.

Config files are plain JSON (the one structured format used across this
repo). Every validation error carries the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .bath import BathSpec, custom_bath, skrzypczyk_bath
from .spectra import DensityOperator, DiagonalHamiltonian
from .weight import EnergyEigenstateWeight, GaussianWeight, TimeStateWeight, WeightModel

SWEEP_PARAMETERS = ("N", "sigma_over_omega")
OUTPUT_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration; message is annotated with the field path."""


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _require(mapping: Any, key: str, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise _fail(path, "expected an object")
    if key not in mapping:
        raise _fail(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _check_keys(mapping: Any, allowed: set[str], path: str) -> None:
    if not isinstance(mapping, dict):
        raise _fail(path, "expected an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise _fail(path, f"unknown field(s): {', '.join(sorted(unknown))}")


def _as_real(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise _fail(path, "must be finite")
    return value


def _as_positive(value: Any, path: str) -> float:
    value = _as_real(value, path)
    if value <= 0:
        raise _fail(path, "must be > 0")
    return value


def _as_gaps(value: Any, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of positive gaps")
    return [_as_positive(g, f"{path}[{i}]") for i, g in enumerate(value)]


def _as_int(value: Any, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, "expected an integer")
    if value < minimum:
        raise _fail(path, f"must be >= {minimum}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """The swept parameter, its values, and the (weight, bath) pair that
    each value resolves to."""

    parameter: str
    values: tuple[float, ...]
    points: tuple[tuple[WeightModel, BathSpec], ...]


@dataclass(frozen=True)
class OutputSpec:
    path: str | None
    format: str


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully validated experiment description, resolved into domain objects.

    ``weight`` and ``bath`` are the fixed parameter point; a sweep carries
    its own resolved point per value.
    """

    hamiltonian: DiagonalHamiltonian
    state: DensityOperator
    weight: WeightModel
    bath: BathSpec
    sweep: SweepSpec | None
    output: OutputSpec | None
    seed: int | None


def _ladder_bath(size: int, temperature: float, omega: float) -> BathSpec:
    if size == 0:
        # Degenerate bathless point: a BathSpec with no qubits.
        return BathSpec(T=temperature, gaps=np.empty(0))
    return skrzypczyk_bath(size, temperature, omega)


def _parse_state(raw: Any, dim: int, path: str) -> DensityOperator:
    if raw == "plus":
        return DensityOperator(np.full((dim, dim), 1.0 / dim, dtype=np.complex128))
    if isinstance(raw, dict) and set(raw) == {"computational"}:
        index = _as_int(raw["computational"], f"{path}.computational")
        if index >= dim:
            raise _fail(f"{path}.computational", f"index {index} out of range for dim {dim}")
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[index, index] = 1.0
        return DensityOperator(mat)
    if isinstance(raw, dict) and set(raw) == {"matrix"}:
        rows = raw["matrix"]
        if not isinstance(rows, list) or len(rows) != dim:
            raise _fail(f"{path}.matrix", f"expected {dim} rows")
        mat = np.zeros((dim, dim), dtype=np.complex128)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise _fail(f"{path}.matrix[{i}]", f"expected {dim} entries")
            for j, cell in enumerate(row):
                cell_path = f"{path}.matrix[{i}][{j}]"
                if isinstance(cell, list):
                    if len(cell) != 2:
                        raise _fail(cell_path, "complex entries are [re, im] pairs")
                    mat[i, j] = complex(_as_real(cell[0], cell_path), _as_real(cell[1], cell_path))
                else:
                    mat[i, j] = _as_real(cell, cell_path)
        try:
            return DensityOperator(mat)
        except ValueError as exc:
            raise _fail(f"{path}.matrix", str(exc)) from exc
    raise _fail(path, 'expected "plus", {"computational": k}, or {"matrix": [[...]]}')


def _parse_sweep_values(raw: dict, parameter: str, path: str) -> tuple[float, ...]:
    if ("values" in raw) == ("range" in raw):
        raise _fail(path, 'provide exactly one of "values" or "range"')
    if "values" in raw:
        values = raw["values"]
        if not isinstance(values, list) or not values:
            raise _fail(f"{path}.values", "expected a non-empty list")
        out = [_as_real(v, f"{path}.values[{i}]") for i, v in enumerate(values)]
    else:
        rng = raw["range"]
        rpath = f"{path}.range"
        _check_keys(rng, {"from", "to", "steps", "spacing"}, rpath)
        start = _as_real(_require(rng, "from", rpath), f"{rpath}.from")
        stop = _as_real(_require(rng, "to", rpath), f"{rpath}.to")
        steps = _as_int(_require(rng, "steps", rpath), f"{rpath}.steps", minimum=1)
        spacing = rng.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise _fail(f"{rpath}.spacing", 'expected "linear" or "log"')
        if spacing == "log":
            for key, end in (("from", start), ("to", stop)):
                if end <= 0:
                    raise _fail(f"{rpath}.{key}", "log spacing needs positive endpoints")
            out = list(np.geomspace(start, stop, steps))
        else:
            out = list(np.linspace(start, stop, steps))
    if any(b <= a for a, b in zip(out, out[1:])):
        raise _fail(path, "sweep values must be strictly increasing")
    if parameter == "N":
        ints = []
        for i, v in enumerate(out):
            if v != int(v) or v < 0:
                raise _fail(f"{path}.values[{i}]", "N values must be integers >= 0")
            ints.append(float(int(v)))
        return tuple(ints)
    for i, v in enumerate(out):
        if v <= 0:
            raise _fail(f"{path}.values[{i}]", "sigma_over_omega values must be > 0")
    return tuple(float(v) for v in out)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a decoded JSON object into an :class:`ExperimentConfig`."""
    _check_keys(
        data, {"system", "bath", "weight", "temperature", "sweep", "output", "seed"}, "top level"
    )

    temperature = _as_positive(_require(data, "temperature", ""), "temperature")

    system = _require(data, "system", "")
    _check_keys(system, {"gaps", "state"}, "system")
    gaps = _as_gaps(_require(system, "gaps", "system"), "system.gaps")
    # Gaps are successive level spacings above a zero ground level.
    energies = np.concatenate([[0.0], np.cumsum(gaps)])
    hamiltonian = DiagonalHamiltonian(energies)
    state = _parse_state(_require(system, "state", "system"), hamiltonian.dim, "system.state")

    raw_bath = _require(data, "bath", "")
    model = _require(raw_bath, "model", "bath")
    if model == "skrzypczyk":
        _check_keys(raw_bath, {"model", "N", "omega"}, "bath")
        bath_n = _as_int(_require(raw_bath, "N", "bath"), "bath.N", minimum=0)
        omega = _as_positive(_require(raw_bath, "omega", "bath"), "bath.omega")
        try:
            bath = _ladder_bath(bath_n, temperature, omega)
        except ValueError as exc:
            raise _fail("bath", str(exc)) from exc
    elif model == "custom":
        _check_keys(raw_bath, {"model", "gaps"}, "bath")
        bath = custom_bath(temperature, _as_gaps(_require(raw_bath, "gaps", "bath"), "bath.gaps"))
    else:
        raise _fail("bath.model", 'expected "skrzypczyk" or "custom"')

    raw_weight = _require(data, "weight", "")
    kind = _require(raw_weight, "kind", "weight")
    if kind == "gaussian":
        _check_keys(raw_weight, {"kind", "sigma"}, "weight")
        sigma = _as_positive(_require(raw_weight, "sigma", "weight"), "weight.sigma")
        weight = GaussianWeight(sigma=sigma)
    elif kind == "time_state":
        _check_keys(raw_weight, {"kind", "t"}, "weight")
        weight = TimeStateWeight(t=_as_real(raw_weight.get("t", 0.0), "weight.t"))
    elif kind == "energy_eigenstate":
        _check_keys(raw_weight, {"kind"}, "weight")
        weight = EnergyEigenstateWeight()
    else:
        raise _fail("weight.kind", 'expected "gaussian", "time_state", or "energy_eigenstate"')

    sweep = None
    if data.get("sweep") is not None:
        raw = data["sweep"]
        _check_keys(raw, {"parameter", "values", "range"}, "sweep")
        parameter = _require(raw, "parameter", "sweep")
        if parameter not in SWEEP_PARAMETERS:
            raise _fail("sweep.parameter", f"expected one of {SWEEP_PARAMETERS}")
        if parameter == "N" and model != "skrzypczyk":
            raise _fail("sweep.parameter", "N sweeps need a skrzypczyk bath")
        if parameter == "sigma_over_omega" and kind != "gaussian":
            raise _fail("sweep.parameter", "sigma_over_omega sweeps need a gaussian weight")
        values = _parse_sweep_values(raw, parameter, "sweep")
        try:
            if parameter == "N":
                points = tuple((weight, _ladder_bath(int(v), temperature, omega)) for v in values)
            else:
                # sigma/omega is scaled by the first system gap.
                points = tuple((GaussianWeight(sigma=v * gaps[0]), bath) for v in values)
        except ValueError as exc:
            raise _fail("sweep.values", str(exc)) from exc
        sweep = SweepSpec(parameter=parameter, values=values, points=points)

    output = None
    if data.get("output") is not None:
        raw = data["output"]
        _check_keys(raw, {"path", "format"}, "output")
        fmt = raw.get("format", "csv")
        if fmt not in OUTPUT_FORMATS:
            raise _fail("output.format", f"expected one of {OUTPUT_FORMATS}")
        path = raw.get("path")
        if path is not None and not isinstance(path, str):
            raise _fail("output.path", "expected a string")
        output = OutputSpec(path=path, format=fmt)

    seed = None
    if data.get("seed") is not None:
        seed = _as_int(data["seed"], "seed", minimum=0)
        if seed >= 1 << 64:
            raise _fail("seed", "must fit in 64 unsigned bits")

    return ExperimentConfig(
        hamiltonian=hamiltonian,
        state=state,
        weight=weight,
        bath=bath,
        sweep=sweep,
        output=output,
        seed=seed,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(data)
