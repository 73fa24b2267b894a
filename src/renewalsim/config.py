"""Config-file parsing for the command-line front end.

A scenario is one JSON document (schema version 1) describing the chain
pair, initial distributions, simulation budget, and the envelope /
regularity settings.  See the README for the documented schema and a
complete example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .kernel import BirthDeathSpec, KernelSchedule, PeriodicTail, StateSpace, birth_death_schedule

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Malformed or unreadable configuration (CLI exit code 3)."""


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return obj[key]


def _as_alpha_row(value, cap: int, where: str) -> np.ndarray:
    if isinstance(value, (int, float)):
        return np.full(cap, float(value))
    row = np.asarray(value, dtype=float)
    if row.shape != (cap,):
        raise ConfigError(f"{where}: expected {cap} down probabilities, got shape {row.shape}")
    return row


def _parse_tail(obj: dict, key: str, parse, where: str, one_entry: bool) -> PeriodicTail:
    """The ``tail`` object: ``kind`` constant (the period-1 cycle) or periodic.

    ``one_entry`` means a constant tail gives its entry bare, not as a
    one-element list.
    """
    tail_obj = _require(obj, "tail", where)
    where = f"{where}.tail"
    kind = _require(tail_obj, "kind", where)
    values = _require(tail_obj, key, where)
    if kind not in ("constant", "periodic"):
        raise ConfigError(f"{where}.kind must be 'constant' or 'periodic', got '{kind}'")
    if kind == "constant" and one_entry:
        return PeriodicTail((parse(values, f"{where}.{key}"),))
    entries = tuple(parse(v, f"{where}.{key}[{i}]") for i, v in enumerate(values))
    if not entries:
        raise ConfigError(f"{where}.{key} must be nonempty")
    if kind == "constant" and len(entries) > 1:
        raise ConfigError(f"{where}.{key}: a constant tail takes one entry, got {len(entries)}")
    return PeriodicTail(entries)


def _parse_birth_death(obj: dict, where: str) -> BirthDeathSpec:
    cap = int(_require(obj, "cap", where))
    body = tuple(_as_alpha_row(r, cap, f"{where}.alpha_table[{i}]")
                 for i, r in enumerate(obj.get("alpha_table", [])))
    tail = _parse_tail(obj, "alphas", lambda r, at: _as_alpha_row(r, cap, at), where, one_entry=True)
    try:
        return BirthDeathSpec(cap=cap, body=body, tail=tail)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _parse_explicit(obj: dict, target_set, where: str) -> KernelSchedule:
    states = int(_require(obj, "states", where))
    body = tuple(np.asarray(m, dtype=float) for m in obj.get("body", []))
    tail = _parse_tail(obj, "matrices", lambda m, at: np.asarray(m, dtype=float), where, one_entry=False)
    try:
        space = StateSpace(states, frozenset(target_set))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    return KernelSchedule(space=space, body=body, tail=tail)


def _parse_initial(value, size: int, where: str) -> np.ndarray:
    if isinstance(value, dict):
        state = int(_require(value, "state", where))
        if not 0 <= state < size:
            raise ConfigError(f"{where}: state {state} outside 0..{size - 1}")
        out = np.zeros(size)
        out[state] = 1.0
        return out
    out = np.asarray(value, dtype=float)
    if out.shape != (size,):
        raise ConfigError(f"{where}: expected a length-{size} probability vector")
    return out


def _integral(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _parse_regularity(reg) -> dict:
    """The ``regularity`` object, each key the subcommands read type-checked.

    Counts and grid entries must be integral numbers and come back as
    ``int``; ``mu_hat`` and ``gamma`` are numbers or null and
    ``n0_applies_to`` is a string.  Value ranges are checked where the
    values are used.
    """
    where = "config.regularity"
    if not isinstance(reg, dict):
        raise ConfigError(f"{where} must be an object")
    if reg.get("source", "analytic") not in ("analytic", "empirical"):
        raise ConfigError(f"{where}.source must be 'analytic' or 'empirical'")
    out = dict(reg)
    for key in ("n0", "n_paths"):
        if key in reg:
            out[key] = _integral(reg[key], f"{where}.{key}")
    for key in ("t_grid", "lag_grid"):
        if key in reg:
            if not isinstance(reg[key], (list, tuple)):
                raise ConfigError(f"{where}.{key} must be a list of integers")
            out[key] = [_integral(v, f"{where}.{key}[{i}]") for i, v in enumerate(reg[key])]
    for key in ("mu_hat", "gamma"):
        value = reg.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{where}.{key} must be a number or null, got {value!r}")
    if not isinstance(reg.get("n0_applies_to", "base"), str):
        raise ConfigError(f"{where}.n0_applies_to must be a string")
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully resolved run configuration."""

    name: str
    raw: dict
    schedule1: KernelSchedule
    schedule2: KernelSchedule
    spec1: BirthDeathSpec | None
    spec2: BirthDeathSpec | None
    initial1: np.ndarray
    initial2: np.ndarray
    horizon: int
    n_paths: int
    master_seed: int
    tail_len: int
    domination_p: float | None
    series_len: int
    regularity: dict


def load_scenario(source: str | Path | dict, seed_override: int | None = None) -> Scenario:
    """Load and resolve a scenario from a JSON file path or a dict.

    Every malformed input raises ``ConfigError``, including values of the
    wrong type or out of range for their key.
    """
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from err
    try:
        return _resolve(raw, seed_override)
    except (TypeError, ValueError, AttributeError, OverflowError) as err:
        raise ConfigError(f"invalid config value: {err}") from err


def _resolve(raw, seed_override: int | None) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version}; this build reads version {SCHEMA_VERSION}")

    target_set = raw.get("target_set", [0])
    chains = []
    specs: list[BirthDeathSpec | None] = []
    for key in ("chain1", "chain2"):
        obj = _require(raw, key, "config")
        if "birth_death" in obj:
            spec = _parse_birth_death(obj["birth_death"], f"config.{key}.birth_death")
            specs.append(spec)
            chains.append(birth_death_schedule(spec, target_set))
        else:
            specs.append(None)
            chains.append(_parse_explicit(obj, target_set, f"config.{key}"))

    initial1 = _parse_initial(_require(raw, "initial1", "config"), chains[0].space.size, "config.initial1")
    initial2 = _parse_initial(_require(raw, "initial2", "config"), chains[1].space.size, "config.initial2")

    domination = raw.get("domination", {})
    regularity = _parse_regularity(raw.get("regularity", {"source": "analytic"}))

    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    return Scenario(
        name=str(raw.get("name", "scenario")),
        raw=raw,
        schedule1=chains[0],
        schedule2=chains[1],
        spec1=specs[0],
        spec2=specs[1],
        initial1=initial1,
        initial2=initial2,
        horizon=int(raw.get("horizon", 1000)),
        n_paths=int(raw.get("n_paths", 10_000)),
        master_seed=seed,
        tail_len=int(raw.get("tail_len", 200)),
        domination_p=float(domination["p"]) if "p" in domination else None,
        series_len=int(domination.get("series_len", 2000)),
        regularity=regularity,
    )
