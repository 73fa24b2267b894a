"""Span recorder for the traced pass, and the per-layer figures taken from it.

``install`` wraps the public functions named in ``TARGETS`` and rebinds each
wrapper in every ``renewalsim`` module namespace that binds the original, so
a call made through ``from .simulate import estimate_joint_renewal`` is
traced as well as one made through ``simulate.estimate_joint_renewal``.
Nothing under ``src/`` is edited.  Spans are kept in memory; the launcher
writes them once, when the invocation ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# layer (renewalsim module) -> public functions whose calls become spans
TARGETS = {
    "cli": ("main",),
    "config": ("load_scenario",),
    "kernel": ("birth_death_schedule",),
    "rng": ("derive_stream",),
    "simulate": ("estimate_joint_renewal", "trial_sequence"),
    "exact": ("product_tail", "hitting_time_distribution"),
    "domination": ("estimate_regularity", "estimate_renewal_tails"),
    "bounds": ("full_report", "trial_statistics", "meeting_tail_envelope"),
}


def _joint_renewal_counts(args, result) -> dict:
    meeting = result.meeting_times
    return {
        "paths": result.n_paths,
        "meet_steps": int(np.where(meeting < 0, result.horizon, meeting).sum()),
        "censored": result.censored,
        "traces_kept": len(result.traces or ()),
    }


def _product_counts(args, result) -> dict:
    return {
        "steps": args["horizon"],
        "states": args["schedule1"].space.size * args["schedule2"].space.size,
        "residual": result.table.residual,
        "conservation_error": result.conservation_error,
    }


def _regularity_counts(args, result) -> dict:
    max_t = max(p.base_time for p in result.points) + max(p.lag for p in result.points)
    return {"paths": args["n_paths"], "steps": args["n_paths"] * max_t}


def _renewal_tail_counts(args, result) -> dict:
    return {"paths": len(result.start_times) * len(result.start_states) * result.n_paths}


# span name -> (bound arguments, returned value) -> counts stored with the span
COUNTS = {
    "simulate.estimate_joint_renewal": _joint_renewal_counts,
    "exact.product_tail": _product_counts,
    "exact.hitting_time_distribution": lambda args, result: {"steps": args["horizon"]},
    "domination.estimate_regularity": _regularity_counts,
    "domination.estimate_renewal_tails": _renewal_tail_counts,
}


class Recorder:
    """Spans of one invocation: ``[name, start, end, parent index, invocation id]``.

    ``counts`` maps a span's index to the counts taken from its call.
    """

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, open_spans, stored = self.spans, self._open, self.counts
        clock, invocation = time.perf_counter, self.invocation
        signature = inspect.signature(fn) if counts is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1, invocation]
            spans.append(span)
            open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stored[index] = counts(bound.arguments, result)
            return result

        return traced


def install(invocation: str) -> Recorder:
    """Wrap every target in every renewalsim namespace that binds it."""
    import renewalsim.cli  # noqa: F401  (the package itself does not import the CLI)

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "renewalsim" or name.startswith("renewalsim."))
    ]
    recorder = Recorder(invocation)
    for layer, names in TARGETS.items():
        owner = sys.modules[f"renewalsim.{layer}"]
        for name in names:
            original = getattr(owner, name)
            span_name = f"{layer}.{name}"
            traced = recorder.wrap(span_name, original, COUNTS.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    return recorder


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``calls``, total seconds ``s`` and self seconds ``self_s``.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _parent, _invocation) in enumerate(spans):
        covered, reach = 0.0, start
        for child in children.get(index, ()):  # in start order
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
    return dict(totals)


def summed_counts(spans: list[list], counts: dict, name: str, key: str, combine=sum):
    """Combine one count over every span called ``name`` (0 when none)."""
    values = [c[key] for index, c in counts.items() if spans[int(index)][0] == name]
    return combine(values) if values else 0
