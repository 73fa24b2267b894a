"""The benchmark's workloads: scenario configs, reference values and report checks.

Every workload is a birth-death pair with target set {0}, given to the CLI
through the scenario schema.  The workload seed reaches the program only as
the scenario's ``seed``.  References are computed here with plain numpy
product propagation, independently of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    workers: int  # --workers of the timed runs
    work: int  # MC paths per invocation (product steps for exact-slowmix)
    scenario: Callable[[int], dict]  # workload seed -> scenario config
    reference: Callable[[], dict]  # computed once per benchmark run
    check: Callable[[dict, dict], list[str]]  # (report results, reference) -> problems
    estimate: Callable[[dict], tuple[float, float]] | None = None  # MC (mean, se) to test


def _birth_death(cap: int, alphas) -> dict:
    kind = "periodic" if isinstance(alphas, list) else "constant"
    return {"birth_death": {"cap": cap, "tail": {"kind": kind, "alphas": alphas}}}


def _scenario(name: str, seed: int, cap: int, alphas1, alphas2, start1: int, start2: int, **rest) -> dict:
    return {
        "version": 1,
        "name": name,
        "target_set": [0],
        "chain1": _birth_death(cap, alphas1),
        "chain2": _birth_death(cap, alphas2),
        "initial1": {"state": start1},
        "initial2": {"state": start2},
        "seed": seed,
        **rest,
    }


def _kernels(cap: int, alphas) -> list[np.ndarray]:
    """One birth-death matrix per phase: 0 stays w.p. alpha, cap reflects down."""
    out = []
    for alpha in alphas if isinstance(alphas, list) else [alphas]:
        m = np.zeros((cap + 1, cap + 1))
        j = np.arange(cap)
        m[j, np.maximum(j - 1, 0)] += alpha
        m[j, j + 1] += 1.0 - alpha
        m[cap, cap - 1] = 1.0
        out.append(m)
    return out


def meeting_tails(cap: int, alphas1, alphas2, start1: int, start2: int, horizon: int) -> tuple[np.ndarray, float]:
    """P(T > n) for n = 0..horizon, T the first step t >= 1 with both chains
    in {0}, and the joint mass still live at the horizon."""
    k1, k2 = _kernels(cap, alphas1), _kernels(cap, alphas2)
    joint = np.zeros((cap + 1, cap + 1))
    joint[start1, start2] = 1.0
    tails = np.empty(horizon + 1)
    tails[0] = 1.0
    for t in range(horizon):
        joint = k1[t % len(k1)].T @ joint @ k2[t % len(k2)]
        joint[0, 0] = 0.0
        tails[t + 1] = joint.sum()
    return tails, float(joint.sum())


def _truncated_mean(*pair, horizon: int) -> dict:
    """E[min(T, horizon)], which an uncensored or censored MC mean estimates."""
    tails, _ = meeting_tails(*pair, horizon=horizon)
    return {"mean": float(tails[:horizon].sum())}


def _mc(quantity: dict) -> tuple[float, float]:
    return quantity["value"], quantity["se"]


MC_SLOWMIX = (99, [0.60, 0.55], 0.58, 20, 10)
MC_SLOWMIX_HORIZON = 4000


def _check_mc_slowmix(results: dict, ref: dict) -> list[str]:
    rate = results["censoring_rate"]["value"]
    return [] if rate == 0 else [f"censoring rate {rate} > 0"]


BOUND_FLOOR = (50, 0.75, 0.75, 0, 0)
BOUND_FLOOR_HORIZON = 2000


def _check_bound_floor(results: dict, ref: dict) -> list[str]:
    problems = []
    if results["bound_holds"] is not True:
        problems.append("bound_holds is false")
    if results["warnings"]:
        problems.append(f"warnings: {results['warnings']}")
    return problems


EXACT_SLOWMIX = (99, [0.54, 0.52], 0.53, 60, 40)
EXACT_SLOWMIX_HORIZON = 12000
TAIL_LEN = 200
EXACT_REL_TOL = 1e-9


def _exact_reference() -> dict:
    tails, residual = meeting_tails(*EXACT_SLOWMIX, horizon=EXACT_SLOWMIX_HORIZON)
    return {
        "low": float(tails[:EXACT_SLOWMIX_HORIZON].sum()),
        "tail": tails[: TAIL_LEN + 1].tolist(),
        "residual": residual,
    }


def _check_exact_slowmix(results: dict, ref: dict) -> list[str]:
    problems = []
    meeting = results["meeting_time"]
    if not math.isclose(meeting["low"], ref["low"], rel_tol=EXACT_REL_TOL):
        problems.append(f"meeting low {meeting['low']!r} != reference {ref['low']!r}")
    tail = results["tail"]["values"]
    if len(tail) != len(ref["tail"]) or not all(
        math.isclose(a, b, rel_tol=EXACT_REL_TOL) for a, b in zip(tail, ref["tail"])
    ):
        problems.append("tail values differ from the reference by more than 1e-9 relative")
    if not results["residual"]["value"] <= 1e-6:
        problems.append(f"residual {results['residual']['value']!r} > 1e-6")
    if not meeting["high"] >= meeting["low"]:
        problems.append("meeting high < low")
    return problems


CONDITION = (50, [0.75, 0.70], 0.72, 0, 0)
CONDITION_REGULARITY = {
    "source": "empirical",
    "t_grid": [0, 1, 2, 3],
    "lag_grid": [0, 1, 2, 3, 4, 8, 16, 32],
    "n_paths": 20_000,
}
CONDITION_TAIL_PATHS = 5000


def _check_condition(results: dict, ref: dict) -> list[str]:
    problems = []
    if results["domination_passed"] is not True:
        problems.append("domination_passed is false")
    if not results.get("gamma", {}).get("value", 0.0) > 0.0:
        problems.append("gamma is not positive")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-slowmix",
            subcommand="simulate",
            workers=2,
            work=1000,
            scenario=lambda seed: _scenario(
                "mc-slowmix", seed, *MC_SLOWMIX,
                horizon=MC_SLOWMIX_HORIZON, n_paths=1000, tail_len=TAIL_LEN,
            ),
            reference=lambda: _truncated_mean(*MC_SLOWMIX, horizon=MC_SLOWMIX_HORIZON),
            check=_check_mc_slowmix,
            estimate=lambda results: _mc(results["meeting_time"]),
        ),
        Workload(
            name="bound-floor",
            subcommand="bound",
            workers=1,
            work=100_000,
            scenario=lambda seed: _scenario(
                "bound-floor", seed, *BOUND_FLOOR,
                horizon=BOUND_FLOOR_HORIZON, n_paths=100_000, tail_len=TAIL_LEN,
                domination={"p": 0.75, "series_len": 2000}, regularity={"source": "analytic"},
            ),
            reference=lambda: _truncated_mean(*BOUND_FLOOR, horizon=BOUND_FLOOR_HORIZON),
            check=_check_bound_floor,
            estimate=lambda results: _mc(results["mc_mean"]),
        ),
        Workload(
            name="exact-slowmix",
            subcommand="exact",
            workers=1,
            work=EXACT_SLOWMIX_HORIZON,
            scenario=lambda seed: _scenario(
                "exact-slowmix", seed, *EXACT_SLOWMIX,
                horizon=EXACT_SLOWMIX_HORIZON, tail_len=TAIL_LEN,
            ),
            reference=_exact_reference,
            check=_check_exact_slowmix,
        ),
        Workload(
            name="condition-empirical",
            subcommand="condition-check",
            workers=1,
            work=CONDITION_REGULARITY["n_paths"] + len(CONDITION_REGULARITY["t_grid"]) * CONDITION_TAIL_PATHS,
            scenario=lambda seed: _scenario(
                "condition-empirical", seed, *CONDITION,
                n_paths=CONDITION_TAIL_PATHS, tail_len=TAIL_LEN,
                domination={"p": 0.75}, regularity=CONDITION_REGULARITY,
            ),
            reference=dict,
            check=_check_condition,
        ),
    )
}
