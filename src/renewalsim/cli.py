"""Command-line front end.

Subcommands: validate, simulate, exact, condition-check, bound, compare,
and birth-death-demo.  Every run writes one JSON report (and optional
CSVs with --format csv) into --out-dir.  Exit codes: 0 success, 1
validation failure, 2 statistical-check failure, 3 I/O or config error.
Every subcommand exits 1 before any work on a kernel or initial-law
violation the config loader lists; ``validate`` reports them all.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, bounds, domination, exact, rng
from .bounds import exact_bracket, quantity
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
    report["results"]["meeting_time"] = quantity(est.mean, "mc", est.se)
    report["results"]["mean_is_lower_bound"] = est.mean_is_lower_bound
    report["results"]["censoring_rate"] = quantity(est.censoring_rate, "mc")
    report["results"]["status"] = est.status
    report["results"]["tail"] = {
        "values": [float(v) for v in est.tail],
        "se": [float(v) for v in est.tail_se],
        "provenance": "mc",
    }
    if args.format == "csv":
        rows = [
            (
                i,
                int(est.meeting_times[i]),
                int(est.first_hit1[i]),
                int(est.first_hit2[i]),
                int(est.trials_to_success[i]),
                int(est.meeting_times[i] < 0),
            )
            for i in range(est.n_paths)
        ]
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
    hit1 = exact.hitting_time_distribution(
        scenario.schedule1, scenario.initial1, horizon=scenario.horizon
    )
    hit2 = exact.hitting_time_distribution(
        scenario.schedule2, scenario.initial2, horizon=scenario.horizon
    )
    report["results"]["meeting_time"] = {
        **exact_bracket(meeting.expectation), "unbounded": meeting.expectation.unbounded
    }
    report["results"]["residual"] = quantity(meeting.table.residual, "exact")
    report["results"]["mean_hit1"] = exact_bracket(hit1.expectation)
    report["results"]["mean_hit2"] = exact_bracket(hit2.expectation)
    tail_len = min(scenario.tail_len, scenario.horizon)
    report["results"]["tail"] = {
        "values": [float(v) for v in meeting.tails[: tail_len + 1]],
        "provenance": "exact",
    }
    if args.format == "csv":
        rows = [
            (n, float(meeting.tails[n]), float(meeting.table.mass[n]))
            for n in range(tail_len + 1)
        ]
        path = _write_csv(args.out_dir, f"{scenario.name}_exact_tail", ["n", "tail", "mass"], rows)
        report["results"]["csv"] = path.name


def _cmd_condition_check(scenario: Scenario, report: dict, args) -> None:
    p = _require_p(scenario)
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
    dom_report = domination.check_domination(surface, envelope)
    report["results"]["envelope_head"] = quantity(envelope.head, "analytic")
    report["results"]["envelope_mass"] = quantity(envelope.total_mass, "analytic")
    report["results"]["domination_passed"] = dom_report.passed
    report["results"]["domination_flags"] = [
        {"start_time": f.start_time, "lag": f.lag, "estimate": f.estimate, "se": f.se, "bound": f.bound}
        for f in dom_report.flags
    ]

    certificate, scans = _certificate(scenario, p)
    grid = [(chain, pt) for chain, scan in enumerate(scans, 1) for pt in scan.points]
    if scans:
        report["results"]["gamma_grid"] = [
            {"chain": chain, "base_time": pt.base_time, "lag": pt.lag, "estimate": pt.estimate,
             "se": pt.se, "n_conditioned": pt.n_conditioned}
            for chain, pt in grid
        ]
        lowest = min(scans, key=lambda scan: scan.gamma_hat)
        report["results"]["gamma_hat"] = quantity(lowest.gamma_hat, lowest.provenance)
    if certificate is not None:
        report["results"]["gamma"] = quantity(certificate.gamma, certificate.provenance)
        report["results"]["n0"] = certificate.n0

    if args.format == "csv":
        rows = [
            (t0, lag, float(surface.tails[ti, lag]), float(surface.se[ti, lag]), envelope.at(lag))
            for ti, t0 in enumerate(surface.start_times)
            for lag in range(dom_report.checked_lags + 1)
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

    if not dom_report.passed:
        raise StatisticalCheckFailure(
            f"{len(dom_report.flags)} grid point(s) exceed the envelope by more than 3 SE"
        )
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
    report["results"].update(result.to_dict())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalsim",
        description="Simultaneous renewal times of Markov chain pairs: "
        "simulation, exact oracles, and certified bounds.",
    )
    parser.add_argument("subcommand", choices=list(COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="scenario JSON file")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker count")
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
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
