"""Command-line front end.

Subcommands: validate, simulate, exact, condition-check, bound, compare,
and birth-death-demo.  Every run writes one JSON report (and optional
CSVs with --format csv) into --out-dir.  Exit codes: 0 success, 1
validation failure, 2 statistical-check failure, 3 usage, I/O or config
error.
Every subcommand exits 1 before any work on a kernel or initial-law
violation the config loader lists; ``validate`` reports them all.  This
module alone writes the report format, every field, word and provenance
tag, and every flag derived for a report, from the numbers, arrays and
objects the library returns.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, bounds, domination, exact, rng
from .config import ConfigError, Scenario, load_scenario
from .simulate import SimulationPlan, estimate_joint_renewal


class ValidationFailure(ValueError):
    """Scenario is well-formed but invalid (exit code 1)."""


class StatisticalCheckFailure(Exception):
    """An empirical check contradicted a certified bound (exit code 2)."""


def _report_skeleton(scenario: Scenario, subcommand: str) -> dict:
    return {
        "meta": {
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool_version": __version__,
            "subcommand": subcommand,
            "rng": rng.CONTRACT,
        },
        "config": scenario.raw,
        "results": {},
    }


def _write_report(report: dict, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(out_dir: Path, name: str, header: list[str], rows) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _quantity(value, provenance: str, se=None) -> dict:
    """One reported number tagged with its kind: exact, analytic or mc (with its SE)."""
    out = {"value": value, "provenance": provenance}
    if se is not None:
        out["se"] = se
    return out


def _bracket(bracket: exact.ExpectationBracket) -> dict:
    """Report form of an exact expectation bracket."""
    return {"low": bracket.low, "high": bracket.high, "provenance": "exact"}


def _series(values, provenance: str, se=None) -> dict:
    """Report form of a tail curve; a Monte Carlo one carries its per-entry SE."""
    out = {"values": [float(v) for v in values], "provenance": provenance}
    if se is not None:
        out["se"] = [float(v) for v in se]
    return out


def _bound_results(result: bounds.BoundReport) -> dict:
    """The ``results`` fields of a ``bound`` report."""
    analytic = asdict(result.comparison)
    verdict = analytic.pop("verdict")
    analytic.update(n0=result.certificate.n0, floor=result.floor, envelope_head=result.envelope.head,
                    envelope_mass=result.envelope.total_mass, bound=result.bound)
    return {
        **{key: _quantity(value, "analytic") for key, value in analytic.items()},
        "mean_hit1": _bracket(result.mean_hit1),
        "mean_hit2": _bracket(result.mean_hit2),
        "verdict": verdict,
        "mc_mean": _quantity(result.mc.mean, "mc", result.mc.se),
        "mc_censoring_rate": _quantity(result.mc.censored / result.mc.n_paths, "mc"),
        "tail_envelope": None if result.tail_envelope is None else [float(v) for v in result.tail_envelope],
        "bound_holds": result.bound_holds,
        "warnings": _bound_warnings(result),
    }


def _bound_warnings(result: bounds.BoundReport) -> list[str]:
    """Censored paths, then each chain that touches its cap with probability above 1e-9."""
    mc = result.mc
    warnings = [f"{mc.censored} of {mc.n_paths} paths were censored at the horizon; "
                "the Monte Carlo mean is a lower bound"] if mc.censored else []
    return warnings + [f"truncation: chain{chain} touches the cap state within the horizon "
                       f"with probability {mass:.3g}; consider a larger cap"
                       for chain, mass in enumerate(result.cap_mass, 1) if mass > 1e-9]


def _require_p(scenario: Scenario) -> float:
    if scenario.domination_p is None:
        raise ValidationFailure("config.domination.p is required for this subcommand")
    return scenario.domination_p


def _rejection(scans: tuple[domination.RegularityScan, ...]) -> str:
    """Why the regularity grids certify gamma = 0, naming the first chain and point at zero."""
    chain, pt = next((chain, pt) for chain, scan in enumerate(scans, 1) for pt in scan.points
                     if not pt.observed or pt.estimate <= 0.0)
    why = "the chain is never in the target set at the base time" if not pt.observed else "estimate 0"
    return (f"exact regularity grid of chain {chain} gives gamma = 0 at base time {pt.base_time}, "
            f"lag {pt.lag} ({why}); certificate rejected")


def _certificate(
    scenario: Scenario, p: float
) -> tuple[domination.RegularityCertificate | None, tuple[domination.RegularityScan, ...]]:
    """The regularity certificate of the configured source, and the grids behind it.

    The analytic source has no grid; :func:`bounds.analytic_certificate`
    states its precondition.  The empirical source reads the exact grid of
    each chain from its own initial law, and gamma is the smaller grid
    minimum; its certificate is None when that minimum is 0.
    """
    reg = scenario.regularity
    if reg["source"] == "analytic":
        return bounds.analytic_certificate(scenario.schedule1, scenario.schedule2, p, reg.get("mu_hat")), ()
    scans = tuple(
        domination.exact_regularity(
            schedule,
            n0=reg["n0"],
            base_times=reg["t_grid"],
            lags=reg["lag_grid"],
            initial=initial,
            n0_applies_to=reg["n0_applies_to"],
        )
        for schedule, initial in ((scenario.schedule1, scenario.initial1),
                                  (scenario.schedule2, scenario.initial2))
    )
    return min(scans, key=lambda scan: scan.gamma_hat).certificate(), scans


def _plan(scenario: Scenario) -> SimulationPlan:
    return SimulationPlan(scenario.schedule1, scenario.schedule2, scenario.initial1, scenario.initial2,
                          scenario.horizon, scenario.n_paths, scenario.master_seed)


def _cmd_simulate(scenario: Scenario, report: dict, args) -> None:
    est = estimate_joint_renewal(_plan(scenario), workers=args.workers, tail_len=scenario.tail_len)
    report["results"]["meeting_time"] = _quantity(est.mean, "mc", est.se)
    report["results"]["mean_is_lower_bound"] = est.censored > 0
    report["results"]["censoring_rate"] = _quantity(est.censored / est.n_paths, "mc")
    report["results"]["status"] = "all-censored" if est.censored == est.n_paths else "ok"
    report["results"]["tail"] = _series(est.tail, "mc", est.tail_se)
    if args.format == "csv":
        columns = (est.meeting_times, est.first_hit1, est.first_hit2, est.trials_to_success,
                   (est.meeting_times < 0).astype(int))
        rows = zip(range(est.n_paths), *(column.tolist() for column in columns))
        path = _write_csv(
            args.out_dir,
            f"{scenario.name}_paths",
            ["path_id", "T", "theta0_1", "theta0_2", "tau_trials", "censored"],
            rows,
        )
        report["results"]["csv"] = path.name


def _cmd_exact(scenario: Scenario, report: dict, args) -> None:
    meeting = exact.product_tail(
        scenario.schedule1,
        scenario.schedule2,
        scenario.initial1,
        scenario.initial2,
        horizon=scenario.horizon,
    )
    hit1, hit2 = (exact.hitting_time_distribution(schedule, initial, horizon=scenario.horizon)
                  for schedule, initial in ((scenario.schedule1, scenario.initial1),
                                            (scenario.schedule2, scenario.initial2)))
    report["results"]["meeting_time"] = {
        **_bracket(meeting.expectation), "unbounded": math.isinf(meeting.expectation.high)
    }
    report["results"]["residual"] = _quantity(meeting.table.residual, "exact")
    report["results"]["mean_hit1"] = _bracket(hit1.expectation)
    report["results"]["mean_hit2"] = _bracket(hit2.expectation)
    tail_len = min(scenario.tail_len, scenario.horizon)
    report["results"]["tail"] = _series(meeting.tails[: tail_len + 1], "exact")
    if args.format == "csv":
        rows = zip(range(tail_len + 1), meeting.tails[:tail_len + 1].tolist(),
                   meeting.table.mass[:tail_len + 1].tolist())
        path = _write_csv(args.out_dir, f"{scenario.name}_exact_tail", ["n", "tail", "mass"], rows)
        report["results"]["csv"] = path.name


def _cmd_condition_check(scenario: Scenario, report: dict, args) -> None:
    p = _require_p(scenario)
    certificate, scans = _certificate(scenario, p)
    envelope = domination.walk_dominating_sequence(p, scenario.series_len)
    targets = sorted(scenario.schedule1.space.target_set)
    surface = domination.estimate_renewal_tails(
        scenario.schedule1,
        start_times=scenario.regularity["t_grid"],
        start_states=targets,
        max_lag=min(scenario.tail_len, envelope.length - 1),
        n_paths=min(scenario.n_paths, 5000),
        seed=scenario.master_seed,
    )
    exceeds = domination.check_domination(surface, envelope)
    # nonzero walks the mask row by row: start times in order, lags within each
    flags = [
        {"start_time": surface.start_times[ti], "lag": lag, "estimate": float(surface.tails[ti, lag]),
         "se": float(surface.se[ti, lag]), "bound": envelope.at(lag)}
        for ti, lag in zip(*(index.tolist() for index in exceeds.nonzero()))
    ]
    report["results"]["envelope_head"] = _quantity(envelope.head, "analytic")
    report["results"]["envelope_mass"] = _quantity(envelope.total_mass, "analytic")
    report["results"]["domination_passed"] = not flags
    report["results"]["domination_flags"] = flags

    grid = [(chain, pt) for chain, scan in enumerate(scans, 1) for pt in scan.points]
    if scans:
        report["results"]["gamma_grid"] = [
            {"chain": chain, "base_time": pt.base_time, "lag": pt.lag, "estimate": pt.estimate,
             "se": pt.se, "n_conditioned": pt.n_conditioned}
            for chain, pt in grid
        ]
        lowest = min(scans, key=lambda scan: scan.gamma_hat)
        report["results"]["gamma_hat"] = _quantity(lowest.gamma_hat, lowest.provenance)
    if certificate is not None:
        report["results"]["gamma"] = _quantity(certificate.gamma, certificate.provenance)
        report["results"]["n0"] = certificate.n0

    if args.format == "csv":
        rows = [
            (t0, lag, float(surface.tails[ti, lag]), float(surface.se[ti, lag]), envelope.at(lag))
            for ti, t0 in enumerate(surface.start_times)
            for lag in range(exceeds.shape[1])
        ]
        path = _write_csv(
            args.out_dir,
            f"{scenario.name}_tails",
            ["start_time", "lag", "tail", "se", "envelope"],
            rows,
        )
        report["results"]["csv"] = path.name
        if scans:
            grid_path = _write_csv(
                args.out_dir,
                f"{scenario.name}_gamma_grid",
                ["chain", "base_time", "lag", "estimate", "se", "n_conditioned"],
                [(chain, pt.base_time, pt.lag, pt.estimate, pt.se, pt.n_conditioned)
                 for chain, pt in grid],
            )
            report["results"]["gamma_csv"] = grid_path.name

    if flags:
        raise StatisticalCheckFailure(f"{len(flags)} grid point(s) exceed the envelope by more than 3 SE")
    if certificate is None:
        raise StatisticalCheckFailure(_rejection(scans))


def _cmd_bound(scenario: Scenario, report: dict, args) -> None:
    p = _require_p(scenario)
    # the report tags gamma and the bound analytic
    if scenario.regularity["source"] != "analytic":
        raise ValidationFailure("the bound pipeline takes analytic regularity only")
    result = bounds.full_report(
        _plan(scenario),
        p=p,
        series_len=scenario.series_len,
        mu_hat=scenario.regularity.get("mu_hat"),
        workers=args.workers,
        tail_len=scenario.tail_len,
    )
    report["results"].update(_bound_results(result))
    if not result.bound_holds:
        raise StatisticalCheckFailure(
            f"Monte Carlo mean {result.mc.mean:.6g} (SE {result.mc.se:.3g}) exceeds "
            f"the certified bound {result.bound:.6g} by more than 3 SE"
        )


def _cmd_compare(scenario: Scenario, report: dict, args) -> None:
    p = _require_p(scenario)
    gamma = scenario.regularity.get("gamma")
    if gamma is None:
        certificate, scans = _certificate(scenario, p)
        if certificate is None:
            raise StatisticalCheckFailure(_rejection(scans))
        gamma = certificate.gamma
    report["results"].update(asdict(bounds.compare_bounds(p, float(gamma))))


COMMANDS = {
    "validate": lambda scenario, report, args: None,  # run() reports every scenario's violations
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "condition-check": _cmd_condition_check,
    "bound": _cmd_bound,
    "compare": _cmd_compare,
    "birth-death-demo": _cmd_bound,
}


DEMO_CONFIG = {
    "version": 1,
    "name": "birth-death-demo",
    "target_set": [0],
    "chain1": {"birth_death": {"cap": 50, "tail": {"kind": "constant", "alphas": 0.75}}},
    "chain2": {"birth_death": {"cap": 50, "tail": {"kind": "constant", "alphas": 0.75}}},
    "initial1": {"state": 0},
    "initial2": {"state": 0},
    "horizon": 2000,
    "n_paths": 20000,
    "seed": 20190814,
    "domination": {"p": 0.75, "series_len": 2000},
    "regularity": {"source": "analytic"},
    "tail_len": 200,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main() reports it and exits 3, where argparse exits 2
        raise argparse.ArgumentError(None, message)


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="renewalsim",
        description="Simultaneous renewal times of Markov chain pairs: "
        "simulation, exact oracles, and certified bounds.",
    )
    parser.add_argument("subcommand", choices=list(COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="scenario JSON file")
    parser.add_argument("--workers", type=_worker_count, default=1, help="parallel worker count")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="report directory")
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="csv additionally writes per-row CSV artifacts")
    return parser


def run(args: argparse.Namespace) -> int:
    try:
        if args.subcommand == "birth-death-demo":
            source = args.config if args.config is not None else DEMO_CONFIG
        else:
            if args.config is None:
                raise ConfigError("--config is required for this subcommand")
            source = args.config
        scenario = load_scenario(source, seed_override=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3

    report = _report_skeleton(scenario, args.subcommand)
    code = 0
    try:
        try:
            if args.subcommand == "validate":
                report["results"].update(violations=list(scenario.violations), valid=not scenario.violations)
            if scenario.violations:
                raise ValidationFailure("; ".join(scenario.violations))
            COMMANDS[args.subcommand](scenario, report, args)
        except (StatisticalCheckFailure, ValueError, MemoryError, OverflowError) as err:
            # MemoryError, OverflowError: a count too big to allocate or to fit
            # a machine integer fails like any other bad value
            code = 2 if isinstance(err, StatisticalCheckFailure) else 1
            report["results"]["error"] = str(err)
        path = _write_report(report, args.out_dir, f"{scenario.name}_{args.subcommand}")
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3

    if code == 0:
        print(f"wrote {path}")
    else:
        kind = "statistical check" if code == 2 else "validation"
        print(f"{kind} failure: {report['results']['error']}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 3
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
