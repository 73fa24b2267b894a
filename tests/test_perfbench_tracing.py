"""The benchmark's traced pass against the current package.

``perfbench/tracing.py`` wraps functions by name and reads fields of their
arguments and results.  This test loads it read-only and checks that every
wrapped name still exists and that every count extractor still runs on one
small real call, so a change to the package cannot break ``--trace 1``
unnoticed.
"""

import importlib
import importlib.util
import inspect
import numbers
from pathlib import Path

import numpy as np
import pytest

import renewalsim.cli  # noqa: F401  (tracing wraps cli.main)
from renewalsim import SimulationPlan, birth_death_schedule, periodic_birth_death

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_calls():
    """Span name -> (args, kwargs) of one small call of that function."""
    schedule = birth_death_schedule(periodic_birth_death(6, [0.75, 0.7]))
    start = np.eye(7)[0]
    plan = SimulationPlan(schedule, schedule, start, start, horizon=60, n_paths=30, master_seed=4)
    return {
        "simulate.estimate_joint_renewal": ((plan,), {"tail_len": 20}),
        "exact.product_tail": ((schedule, schedule, start, start), {"horizon": 40}),
        "exact.hitting_time_distribution": ((schedule, start), {"horizon": 40}),
        "domination.estimate_regularity": ((schedule, 0, [0, 1], [0, 2], 50, 3), {}),
        "domination.estimate_renewal_tails": ((schedule, [0, 1], [0], 10, 40, 3), {}),
    }


def test_every_target_resolves(tracing):
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"renewalsim.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"renewalsim.{layer}.{name}"


def test_every_count_extractor_reads_a_real_call(tracing):
    calls = _small_calls()
    assert set(tracing.COUNTS) <= set(calls), "give each new extractor a small call here"
    for span_name, extract in tracing.COUNTS.items():
        layer, name = span_name.split(".")
        fn = getattr(importlib.import_module(f"renewalsim.{layer}"), name)
        args, kwargs = calls[span_name]
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        counts = extract(bound.arguments, fn(*args, **kwargs))
        assert counts, span_name
        for key, value in counts.items():
            assert isinstance(value, numbers.Real) and np.isfinite(value), (span_name, key, value)


def test_traced_pass_path_invariants_hold(monkeypatch):
    # perfbench's traced pass requires one derived stream per path and at
    # least one trial scan per path that meets; it checks them only under
    # --trace 1, so tier-1 keeps them true here.
    import renewalsim.simulate as simulate

    calls = {"derive_stream": 0, "trial_sequence": 0}

    def counting(name):
        original = getattr(simulate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(simulate, name, counting(name))
    schedule = birth_death_schedule(periodic_birth_death(6, [0.75, 0.7]))
    start = np.eye(7)[0]
    plan = SimulationPlan(schedule, schedule, start, start, horizon=5, n_paths=200, master_seed=4)
    est = simulate.estimate_joint_renewal(plan, workers=1)
    assert 0 < est.censored < plan.n_paths
    assert calls["derive_stream"] == plan.n_paths
    assert calls["trial_sequence"] >= plan.n_paths - est.censored
