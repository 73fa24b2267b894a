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
from typing import Any, Callable

import numpy as np

from .kernel import (KernelError, KernelSchedule, StateSpace, _check_initial, birth_death_schedule, build_bytes,
                     check_fits)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Malformed or unreadable configuration (CLI exit code 3)."""


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in obj:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return obj[key]


def _chain_entries(obj: dict, size: int, body_key: str, tail_key: str, where: str,
                   one_entry: bool) -> tuple[list, list]:
    """A chain's body and tail entries as the config writes them: the kernel
    module converts and checks each one.

    The ``tail`` object has ``kind`` constant (the period-1 cycle) or
    periodic; ``one_entry`` means a constant tail gives its entry bare, not
    as a one-element list.  MemoryError unless building one dense size x size
    kernel per entry fits in physical memory (:func:`kernel.build_bytes`),
    checked here, before any array of the chain is built.
    """
    body = obj.get(body_key, [])
    if not isinstance(body, list):
        raise ConfigError(f"{where}.{body_key} must be a list")
    tail_obj = _require(obj, "tail", where)
    kind = _require(tail_obj, "kind", f"{where}.tail")
    tail = _require(tail_obj, tail_key, f"{where}.tail")
    if kind not in ("constant", "periodic"):
        raise ConfigError(f"{where}.tail.kind must be 'constant' or 'periodic', got '{kind}'")
    if kind == "constant" and one_entry:
        tail = [tail]
    if not isinstance(tail, list) or not tail:
        raise ConfigError(f"{where}.tail.{tail_key} must be a nonempty list")
    if kind == "constant" and len(tail) > 1:
        raise ConfigError(f"{where}.tail.{tail_key}: a constant tail takes one entry, got {len(tail)}")
    phases = len(body) + len(tail)
    check_fits(build_bytes(phases, size), f"{where}: {phases} dense {size}x{size} kernel(s)")
    return body, tail


def _parse_chain(obj, target_set, where: str) -> tuple[int, Callable[[], KernelSchedule], str]:
    """``(size, build, path)`` of the chain ``obj`` at ``where``: its state
    count, a call that builds its schedule, and its config path,
    ``where.birth_death`` for a birth-death chain.

    ``build`` hands the chain's entries, α entries or matrices, to the kernel
    module as written, which converts and checks them: a ``KernelError`` lists
    every entry at fault, named ``body[i]`` or ``tail[k]``, and a TypeError or
    ValueError names an entry that is not numbers, a ``cap`` below 2 or a bad
    target set.
    """
    if isinstance(obj, dict) and "birth_death" in obj:
        where, obj = f"{where}.birth_death", obj["birth_death"]
        cap = _integral(_require(obj, "cap", where), f"{where}.cap")
        body, tail = _chain_entries(obj, cap + 1, "alpha_table", "alphas", where, one_entry=True)
        return cap + 1, lambda: birth_death_schedule(cap, tail, body=body, target_set=target_set), where
    states = _integral(_require(obj, "states", where), f"{where}.states")
    body, tail = _chain_entries(obj, states, "body", "matrices", where, one_entry=False)
    return states, lambda: KernelSchedule(StateSpace(states, target_set), body, tail), where


def _parse_initial(value, size: int, where: str) -> np.ndarray:
    if isinstance(value, dict):
        state = _integral(_require(value, "state", where), f"{where}.state")
        if not 0 <= state < size:
            raise ConfigError(f"{where}: state {state} outside 0..{size - 1}")
        out = np.zeros(size)
        out[state] = 1.0
        return out
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ConfigError(f"{where} must be {{\"state\": k}} or a list of numbers")
    return np.asarray(value, dtype=float)


def _integral(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


REGULARITY_DEFAULTS = {"source": "analytic", "t_grid": [0, 1, 2, 3], "lag_grid": [0, 1, 2, 3, 4],
                       "n0": 0, "n_paths": 5000, "n0_applies_to": "base"}


def _parse_regularity(reg) -> dict:
    """The ``regularity`` object over its defaults, each key the subcommands read type-checked.

    Counts and grid entries must be integral numbers and come back as
    ``int``; ``mu_hat`` and ``gamma`` are numbers or null and
    ``n0_applies_to`` is a string.  Value ranges are checked where the
    values are used.
    """
    where = "config.regularity"
    if not isinstance(reg, dict):
        raise ConfigError(f"{where} must be an object")
    out = {**REGULARITY_DEFAULTS, **reg}
    if out["source"] not in ("analytic", "empirical"):
        raise ConfigError(f"{where}.source must be 'analytic' or 'empirical'")
    for key in ("n0", "n_paths"):
        out[key] = _integral(out[key], f"{where}.{key}")
    for key in ("t_grid", "lag_grid"):
        if not isinstance(out[key], (list, tuple)):
            raise ConfigError(f"{where}.{key} must be a list of integers")
        out[key] = [_integral(v, f"{where}.{key}[{i}]") for i, v in enumerate(out[key])]
    for key in ("mu_hat", "gamma"):
        value = reg.get(key)
        if value is not None and not _is_number(value):
            raise ConfigError(f"{where}.{key} must be a number or null, got {value!r}")
    if not isinstance(out["n0_applies_to"], str):
        raise ConfigError(f"{where}.n0_applies_to must be a string")
    return out


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully resolved run configuration; a schedule is None where ``violations`` names its kernels."""

    name: str
    raw: dict
    schedule1: KernelSchedule | None
    schedule2: KernelSchedule | None
    initial1: np.ndarray
    initial2: np.ndarray
    horizon: int
    n_paths: int
    master_seed: int
    tail_len: int
    domination_p: float | None
    series_len: int
    regularity: dict
    violations: tuple[str, ...]


def load_scenario(source: str | Path | dict, seed_override: int | None = None) -> Scenario:
    """Load and resolve a scenario from a JSON file path or a dict.

    Every malformed input raises ``ConfigError``, including values of the
    wrong type or out of range for their key.  Kernel and initial-law
    violations raise nothing but go to ``Scenario.violations``, each under
    its config path.
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
    except (TypeError, ValueError, AttributeError, OverflowError, MemoryError) as err:
        # MemoryError: a cap or state count whose matrices do not fit in memory
        raise ConfigError(f"invalid config value: {err}") from err


def _resolve(raw, seed_override: int | None) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version}; this build reads version {SCHEMA_VERSION}")

    target_set = raw.get("target_set", [0])
    chains: list[KernelSchedule | None] = []
    sizes, violations = [], []
    for key in ("chain1", "chain2"):
        size, build, where = _parse_chain(_require(raw, key, "config"), target_set, f"config.{key}")
        sizes.append(size)
        try:
            chains.append(build())
        except KernelError as err:
            chains.append(None)
            violations += [f"{where}: {v}" for v in err.args]
        except (TypeError, ValueError) as err:  # entries that are not numbers, cap < 2, a bad target set
            raise ConfigError(f"{where}: {err}") from err

    initials = []
    for key, size in zip(("initial1", "initial2"), sizes):
        initials.append(_parse_initial(_require(raw, key, "config"), size, f"config.{key}"))
        try:
            _check_initial(initials[-1], size)
        except ValueError as err:
            violations.append(f"config.{key}: {err}")

    domination = raw.get("domination", {})
    if not isinstance(domination, dict):
        raise ConfigError("config.domination must be an object")
    if "p" in domination and not _is_number(domination["p"]):
        raise ConfigError(f"config.domination.p must be a number, got {domination['p']!r}")
    regularity = _parse_regularity(raw.get("regularity", {}))

    seed = _integral(raw.get("seed", 0), "config.seed") if seed_override is None else int(seed_override)
    tail_len = _integral(raw.get("tail_len", 200), "config.tail_len")
    if tail_len < 0:
        raise ConfigError(f"config.tail_len must be nonnegative, got {tail_len}")
    name = str(raw.get("name", "scenario"))
    if "/" in name or "\0" in name or len(name.encode()) > 200:  # it prefixes report file names
        raise ConfigError(f"config.name must be at most 200 bytes with no '/' or NUL, got {name!r}")
    return Scenario(
        name=name,
        raw=raw,
        schedule1=chains[0],
        schedule2=chains[1],
        initial1=initials[0],
        initial2=initials[1],
        horizon=_integral(raw.get("horizon", 1000), "config.horizon"),
        n_paths=_integral(raw.get("n_paths", 10_000), "config.n_paths"),
        master_seed=seed,
        tail_len=tail_len,
        domination_p=float(domination["p"]) if "p" in domination else None,
        series_len=_integral(domination.get("series_len", 2000), "config.domination.series_len"),
        regularity=regularity,
        violations=tuple(violations),
    )
