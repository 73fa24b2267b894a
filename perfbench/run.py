"""Benchmark renewalsim end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every measured operation is one fresh ``renewalsim`` CLI process (started
through ``launch.py``) on a scenario generated from the workload seed.
Invocation i of a run uses seed ``seed + i * SEED_STRIDE``, so the first one
uses the seed as given; the seed reaches the program only through the
scenario config.  Each report is checked, and every failed check or
non-zero exit counts as a failed operation.

``--trace 0`` runs the workload untraced at its timed worker count until
``--seconds`` is spent and prints the end-to-end metrics (medians over the
run's invocations).  ``--trace 1`` runs rounds on one seed each: untraced
at 1 worker, traced at 1 worker and, for the subcommands that take a worker
pool, untraced at 2 workers.  It prints the per-layer metrics (medians over
rounds), checks that the 1-worker and 2-worker reports agree byte for byte
apart from ``meta.created_at``, and checks that the tracing saw every call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import TARGETS, span_totals, summed_counts
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

DEFAULT_SEED = 20190814
SEED_STRIDE = 1_000_003
SETUP_PROBES = 5
# Three timed-out invocations of a traced round still end within 180 s.
INVOCATION_TIMEOUT_S = 40.0
# A run tests its pooled MC mean once against the exact mean.  Four SE of the
# pooled mean of k reports is narrower than three SE of a single report for
# k >= 2, and keeps the false-alarm rate over many seeded runs negligible.
Z_LIMIT = 4.0
SELF_TIME_TOLERANCE = 0.01

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB"}

LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "config.load_scenario.s": "s",
    "kernel.birth_death_schedule.s": "s",
    "rng.derive_stream.calls": "count",
    "rng.derive_stream.self_s": "s",
    "simulate.estimate_joint_renewal.s": "s",
    "simulate.estimate_joint_renewal.self_s": "s",
    "simulate.paths": "count",
    "simulate.meet_steps": "count",
    "simulate.censored": "count",
    "simulate.traces_kept": "count",
    "simulate.steps_per_s": "1/s",
    "simulate.trial_sequence.calls": "count",
    "simulate.trial_sequence.self_s": "s",
    "simulate.trial_scan_useful_ratio": "ratio",
    "simulate.parallel_efficiency": "ratio",
    "exact.product_tail.s": "s",
    "exact.product_tail.steps": "count",
    "exact.product_states": "count",
    "exact.product_step_us": "us",
    "exact.conservation_error": "prob",
    "exact.residual_mass": "prob",
    "exact.hitting_time_distribution.calls": "count",
    "exact.hitting_time_distribution.s": "s",
    "exact.hitting_time_distribution.steps": "count",
    "domination.estimate_regularity.s": "s",
    "domination.estimate_regularity.self_s": "s",
    "domination.estimate_regularity.paths": "count",
    "domination.estimate_regularity.steps": "count",
    "domination.estimate_renewal_tails.s": "s",
    "domination.estimate_renewal_tails.self_s": "s",
    "domination.estimate_renewal_tails.paths": "count",
    "bounds.full_report.self_s": "s",
    "bounds.trial_statistics.s": "s",
    "bounds.meeting_tail_envelope.s": "s",
    "trace.overhead_frac": "ratio",
}

SPAN_NAMES = {f"{layer}.{name}" for layer, names in TARGETS.items() for name in names}
# Subcommands whose only random draws and worker pool are in ``simulate``.
POOL_SUBCOMMANDS = ("simulate", "bound")
POOL_WORKERS = 2
SPAN_FIELDS = ("calls", "s", "self_s")


@dataclass
class Invocation:
    seed: int
    stats: dict | None
    report: Path | None = None
    results: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.stats["wall_s"]


def _launch(workdir: Path, tag: str, argv: list[str], trace: bool = False) -> tuple[dict | None, str]:
    """Run ``launch.py`` in a new process group; return its stats (plus ``setup_s``)
    or None, and its standard error."""
    stats_path = workdir / f"{tag}.stats.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(LAUNCH), str(stats_path), str(int(trace)), tag, *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    err = None
    try:
        _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:  # timed out or interrupted: stop the pool workers too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if err is None:
        return None, f"timed out after {INVOCATION_TIMEOUT_S} s"
    if proc.returncode != 0 or not stats_path.is_file():
        return None, f"launcher exited {proc.returncode}: {err.decode(errors='replace').strip()[-500:]}"
    stats = json.loads(stats_path.read_text())
    stats["setup_s"] = stats["call_epoch"] - started
    return stats, err.decode(errors="replace")


def setup_probe(workdir: Path, index: int) -> float | None:
    """Set-up seconds of a process that only imports the CLI; None if it failed
    (the invocations then fail and are counted)."""
    stats, _ = _launch(workdir, f"probe-{index}", [])
    return None if stats is None else stats["setup_s"]


def run_cli(
    workload: Workload, workdir: Path, tag: str, seed: int, workers: int, reference: dict, trace: bool = False
) -> Invocation:
    """One CLI invocation of the workload, with its report checked."""
    config = workdir / f"{tag}.json"
    config.write_text(json.dumps(workload.scenario(seed)))
    out_dir = workdir / tag
    argv = [workload.subcommand, "--config", str(config), "--out-dir", str(out_dir), "--workers", str(workers)]
    stats, err = _launch(workdir, tag, argv, trace)
    inv = Invocation(seed, stats)
    if stats is None:
        inv.problems.append(err)
        return inv
    if not Path(stats["module"]).resolve().is_relative_to(SRC.resolve()):
        inv.problems.append(f"renewalsim imported from {stats['module']}, not from {SRC}")
    if stats["exit"] != 0:
        inv.problems.append(f"exit code {stats['exit']}: {err.strip()[-500:]}")
        return inv
    inv.report = out_dir / f"{workload.name}_{workload.subcommand}.json"
    try:
        inv.results = json.loads(inv.report.read_text())["results"]
        inv.problems += workload.check(inv.results, reference)
    except (OSError, ValueError, KeyError, TypeError) as err:
        inv.problems.append(f"unreadable report {inv.report.name}: {err!r}")
    return inv


def mc_check(workload: Workload, invocations: list[Invocation], reference: dict) -> str | None:
    """Test the run's pooled MC mean against the exact mean; a problem or None."""
    if workload.estimate is None:
        return None
    pairs = [workload.estimate(inv.results) for inv in invocations if inv.results is not None]
    if not pairs:
        return None
    k = len(pairs)
    mean = sum(m for m, _ in pairs) / k
    se = math.sqrt(sum(s * s for _, s in pairs)) / k
    z = (mean - reference["mean"]) / se
    print(f"  mc check: pooled mean {mean:.6g} (SE {se:.3g}, {k} report(s)) vs exact "
          f"{reference['mean']:.6g}: z = {z:+.2f}")
    return f"pooled MC mean is {z:+.2f} SE from the exact mean" if abs(z) > Z_LIMIT else None


def _without_timestamp(path: Path) -> bytes:
    return re.sub(rb'"created_at": "[^"]*"', b'"created_at": ""', path.read_bytes())


def seed_at(seed: int, index: int) -> int:
    return seed + index * SEED_STRIDE


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: Workload, plain: Invocation, traced: Invocation, parallel: Invocation | None) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced round and its coverage problems.

    A layer that does no work on the workload reports 0.
    """
    spans, counts = traced.stats["spans"], traced.stats["counts"]
    totals = span_totals(spans)
    metrics = {}
    for name in LAYER_UNITS:
        span, _, key = name.rpartition(".")
        if span in SPAN_NAMES and key in SPAN_FIELDS:
            metrics[name] = totals.get(span, {}).get(key, 0)

    def count(span: str, key: str, combine=sum):
        return summed_counts(spans, counts, span, key, combine)

    joint, product = "simulate.estimate_joint_renewal", "exact.product_tail"
    paths = count(joint, "paths")
    metrics.update({
        "cli.report_bytes": traced.report.stat().st_size,
        "simulate.paths": paths,
        "simulate.meet_steps": count(joint, "meet_steps"),
        "simulate.censored": count(joint, "censored"),
        "simulate.traces_kept": count(joint, "traces_kept"),
        "simulate.steps_per_s": _ratio(count(joint, "meet_steps"), metrics[f"{joint}.s"]),
        "simulate.trial_scan_useful_ratio": _ratio(paths, metrics["simulate.trial_sequence.calls"]),
        "simulate.parallel_efficiency": 0.0 if parallel is None else plain.wall_s / (POOL_WORKERS * parallel.wall_s),
        "exact.product_tail.steps": count(product, "steps"),
        "exact.product_states": count(product, "states", max),
        "exact.product_step_us": _ratio(1e6 * metrics[f"{product}.s"], count(product, "steps")),
        "exact.conservation_error": count(product, "conservation_error", max),
        "exact.residual_mass": count(product, "residual", max),
        "exact.hitting_time_distribution.steps": count("exact.hitting_time_distribution", "steps"),
        "domination.estimate_regularity.paths": count("domination.estimate_regularity", "paths"),
        "domination.estimate_regularity.steps": count("domination.estimate_regularity", "steps"),
        "domination.estimate_renewal_tails.paths": count("domination.estimate_renewal_tails", "paths"),
        "trace.overhead_frac": (traced.wall_s - plain.wall_s) / plain.wall_s,
    })
    assert metrics.keys() == LAYER_UNITS.keys(), sorted(metrics.keys() ^ LAYER_UNITS.keys())

    problems = []
    if workload.subcommand in POOL_SUBCOMMANDS and metrics["rng.derive_stream.calls"] != paths:
        problems.append(f"rng.derive_stream.calls {metrics['rng.derive_stream.calls']} != simulate.paths {paths}")
    if metrics["simulate.trial_sequence.calls"] < paths - metrics["simulate.censored"]:
        problems.append("simulate.trial_sequence.calls < simulate.paths - simulate.censored")
    main_s = totals["cli.main"]["s"]
    self_sum = sum(t["self_s"] for t in totals.values())
    if abs(self_sum - main_s) > SELF_TIME_TOLERANCE * main_s:
        problems.append(f"self times add up to {self_sum:.6g} s, cli.main span is {main_s:.6g} s")
    return metrics, problems


def _keep_going(started: float, durations: list[float], seconds: float) -> bool:
    """Start another round only if a median-length one still fits."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def timed_pass(workload: Workload, workdir: Path, seed: int, seconds: float):
    started = time.perf_counter()
    reference = workload.reference()
    setup = [s for s in (setup_probe(workdir, i) for i in range(SETUP_PROBES)) if s is not None]
    invocations: list[Invocation] = []
    durations: list[float] = []
    while not durations or _keep_going(started, durations, seconds):
        t0 = time.perf_counter()
        index = len(invocations)
        invocations.append(run_cli(workload, workdir, f"run-{index}", seed_at(seed, index), workload.workers, reference))
        durations.append(time.perf_counter() - t0)
    measured = [inv for inv in invocations if inv.stats is not None]
    setup += [inv.stats["setup_s"] for inv in measured]
    samples = {
        "wall_s": [inv.wall_s for inv in measured],
        "setup_s": setup,
        "work_per_s": [workload.work / inv.wall_s for inv in measured],
        "peak_rss_mib": [inv.stats["peak_rss_mib"] for inv in measured],
    }
    pooled = mc_check(workload, invocations, reference)
    return invocations, pooled, samples


def traced_pass(workload: Workload, workdir: Path, seed: int, seconds: float):
    started = time.perf_counter()
    reference = workload.reference()
    invocations: list[Invocation] = []
    plain_reports: list[Invocation] = []
    samples: dict[str, list[float]] = {name: [] for name in LAYER_UNITS}
    durations: list[float] = []
    while not durations or _keep_going(started, durations, seconds):
        t0 = time.perf_counter()
        r = len(durations)
        s = seed_at(seed, r)
        plain = run_cli(workload, workdir, f"plain-{r}", s, 1, reference)
        traced = run_cli(workload, workdir, f"traced-{r}", s, 1, reference, trace=True)
        parallel = None
        if workload.subcommand in POOL_SUBCOMMANDS:
            parallel = run_cli(workload, workdir, f"parallel-{r}", s, POOL_WORKERS, reference)
        round_ = [inv for inv in (plain, traced, parallel) if inv is not None]
        invocations += round_
        plain_reports.append(plain)
        if not any(inv.problems for inv in round_):
            if parallel is not None and _without_timestamp(traced.report) != _without_timestamp(parallel.report):
                traced.problems.append(f"1-worker and {POOL_WORKERS}-worker reports differ")
            metrics, problems = layer_metrics(workload, plain, traced, parallel)
            traced.problems += problems
            for name, value in metrics.items():
                samples[name].append(value)
        durations.append(time.perf_counter() - t0)
    pooled = mc_check(workload, plain_reports, reference)
    return invocations, pooled, samples


def _highest_tail(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 75, 50):
        cut = float(np.percentile(values, q))
        if sum(v > cut for v in values) >= 10:
            return f"p{q:g} {cut:.6g}"
    return "no percentile has 10 samples beyond it"


def run_workload(workload: Workload, workdir: Path, seed: int, seconds: float, trace: bool) -> dict:
    workdir = workdir / workload.name
    workdir.mkdir()
    print(f"== {workload.name}: {workload.subcommand}, seed {seed}, "
          f"{'traced pass at 1 worker' if trace else f'{workload.workers} worker(s)'}")
    run_pass = traced_pass if trace else timed_pass
    invocations, pooled, samples = run_pass(workload, workdir, seed, seconds)
    failed = sum(bool(inv.problems) for inv in invocations)
    if pooled is not None:
        print(f"  FAILED run check: {pooled}")
        failed = len(invocations)
    for inv in invocations:
        for problem in inv.problems:
            print(f"  FAILED seed {inv.seed}: {problem}")
    units = LAYER_UNITS if trace else E2E_UNITS
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        if not values:
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        extra = "" if trace else f"  (median of {len(values)}; {_highest_tail(values)})"
        print(f"  {name} = {metrics[name]['value']:.6g} {unit}{extra}")
    print(f"  ops_failed_frac = {failed / len(invocations):.6g} ({failed} of {len(invocations)} invocations)")
    return {"correct": failed == 0, "attempted": len(invocations), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "renewalsim" / "cli.py").is_file():
        print(f"renewalsim sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_run"))
    try:
        results = {name: run_workload(WORKLOADS[name], workdir, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items() for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
