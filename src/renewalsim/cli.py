"""Command-line front end.

Subcommands: validate, simulate, exact, condition-check, bound, compare,
and birth-death-demo.  Every run writes one JSON report (and optional
CSVs with --format csv) into --out-dir.  Exit codes: 0 success, 1
validation failure, 2 statistical-check failure, 3 I/O or config error.
Every subcommand validates both schedules before it runs.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, bounds, domination, exact
from .bounds import exact_bracket, quantity
from .config import ConfigError, Scenario, load_scenario
from .kernel import validate_schedule
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


def _regularity_scan(scenario: Scenario) -> domination.RegularityScan:
    reg = scenario.regularity
    return domination.estimate_regularity(
        scenario.schedule1,
        n0=reg.get("n0", 0),
        base_times=reg.get("t_grid", [0, 1, 2, 3]),
        lags=reg.get("lag_grid", [0, 1, 2, 3, 4]),
        n_paths=reg.get("n_paths", 5000),
        seed=scenario.master_seed,
        initial=scenario.initial1,
        n0_applies_to=reg.get("n0_applies_to", "base"),
    )


def _certified(scan: domination.RegularityScan) -> domination.RegularityCertificate:
    certificate = scan.certificate()
    if certificate is None:
        raise StatisticalCheckFailure(
            f"empirical regularity scan is consistent with gamma = 0 "
            f"(gamma_hat = {scan.gamma_hat:.6g}); certificate rejected"
        )
    return certificate


def _analytic_certificate(scenario: Scenario, p: float) -> domination.RegularityCertificate:
    if scenario.spec1 is None or scenario.spec2 is None:
        raise ValidationFailure("analytic regularity needs birth-death chains on both sides")
    return bounds.analytic_certificate(scenario.spec1, scenario.spec2, p, scenario.regularity.get("mu_hat"))


def _gamma_certificate(scenario: Scenario, p: float) -> domination.RegularityCertificate:
    if scenario.regularity.get("source", "analytic") == "analytic":
        return _analytic_certificate(scenario, p)
    return _certified(_regularity_scan(scenario))


def _cmd_simulate(scenario: Scenario, report: dict, args) -> None:
    plan = SimulationPlan(
        schedule1=scenario.schedule1,
        schedule2=scenario.schedule2,
        initial1=scenario.initial1,
        initial2=scenario.initial2,
        horizon=scenario.horizon,
        n_paths=scenario.n_paths,
        master_seed=scenario.master_seed,
    )
    est = estimate_joint_renewal(plan, workers=args.workers, tail_len=scenario.tail_len)
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
    reg = scenario.regularity
    surface = domination.estimate_renewal_tails(
        scenario.schedule1,
        start_times=reg.get("t_grid", [0, 1, 2, 3]),
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

    scan = None
    if reg.get("source", "analytic") == "empirical":
        scan = _regularity_scan(scenario)
        report["results"]["gamma_grid"] = [
            {"base_time": pt.base_time, "lag": pt.lag, "estimate": pt.estimate,
             "se": pt.se, "n_conditioned": pt.n_conditioned}
            for pt in scan.points
        ]
        report["results"]["gamma_hat"] = quantity(scan.gamma_hat, "mc")
        certificate = scan.certificate()
    else:
        certificate = _analytic_certificate(scenario, p)
    if certificate is not None:
        report["results"]["gamma"] = quantity(certificate.gamma, _prov_of(certificate))
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
        if scan is not None:
            grid_path = _write_csv(
                args.out_dir,
                f"{scenario.name}_gamma_grid",
                ["base_time", "lag", "estimate", "se", "n_conditioned"],
                [(pt.base_time, pt.lag, pt.estimate, pt.se, pt.n_conditioned)
                 for pt in scan.points],
            )
            report["results"]["gamma_csv"] = grid_path.name

    if not dom_report.passed:
        raise StatisticalCheckFailure(
            f"{len(dom_report.flags)} grid point(s) exceed the envelope by more than 3 SE"
        )
    if scan is not None:
        _certified(scan)


def _prov_of(certificate: domination.RegularityCertificate) -> str:
    return "analytic" if isinstance(certificate.provenance, domination.AnalyticProvenance) else "mc"


def _cmd_bound(scenario: Scenario, report: dict, args) -> None:
    p = _require_p(scenario)
    if scenario.spec1 is None or scenario.spec2 is None:
        raise ValidationFailure("the bound pipeline needs birth-death chains on both sides")
    result = bounds.full_report(
        scenario.spec1,
        scenario.spec2,
        scenario.initial1,
        scenario.initial2,
        p=p,
        series_len=scenario.series_len,
        horizon=scenario.horizon,
        n_paths=scenario.n_paths,
        master_seed=scenario.master_seed,
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
        gamma = _gamma_certificate(scenario, p).gamma
    report["results"].update(asdict(bounds.compare_bounds(p, float(gamma))))


COMMANDS = {
    "validate": lambda scenario, report, args: None,  # run() validates every scenario
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
    try:
        violations = validate_schedule(scenario.schedule1) + validate_schedule(scenario.schedule2)
        if args.subcommand == "validate":
            report["results"].update(violations=violations, valid=not violations)
        if violations:
            raise ValidationFailure("; ".join(violations))
        COMMANDS[args.subcommand](scenario, report, args)
    except (StatisticalCheckFailure, ValueError) as err:
        statistical = isinstance(err, StatisticalCheckFailure)
        report["results"]["error"] = str(err)
        _write_report(report, args.out_dir, f"{scenario.name}_{args.subcommand}")
        print(f"{'statistical check' if statistical else 'validation'} failure: {err}", file=sys.stderr)
        return 2 if statistical else 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3

    path = _write_report(report, args.out_dir, f"{scenario.name}_{args.subcommand}")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
