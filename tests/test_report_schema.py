"""Each subcommand's report schema, pinned: the ``results`` keys and each
field's provenance tag, or its lack of one.

Every subcommand runs on three small configs: a birth-death pair with
analytic regularity, the same pair with empirical regularity, and the
README's config schema example (whose explicit chain the analytic source
refuses).  A change to a report's fields must edit the table below on
purpose.  No float is compared, so the test does not depend on the BLAS.
"""

import json

import pytest

from renewalsim.cli import COMMANDS, main

from test_readme import code_block

PAIR = {
    "version": 1,
    "name": "pair",
    "target_set": [0],
    "chain1": {"birth_death": {"cap": 8, "tail": {"kind": "constant", "alphas": 0.75}}},
    "chain2": {"birth_death": {"cap": 8, "tail": {"kind": "periodic", "alphas": [0.8, 0.9]}}},
    "initial1": {"state": 0},
    "initial2": {"state": 0},
    "horizon": 300,
    "n_paths": 400,
    "seed": 7,
    "domination": {"p": 0.75, "series_len": 400},
    "regularity": {"source": "analytic"},
    "tail_len": 40,
}
EMPIRICAL = {**PAIR, "regularity": {"source": "empirical", "t_grid": [0, 2], "lag_grid": [1, 3]}}


def schema_example() -> dict:
    return {**json.loads(code_block("Config schema", "json")), "n_paths": 400}


CONFIGS = {"pair": lambda: PAIR, "empirical": lambda: EMPIRICAL, "schema": schema_example}

# field -> its provenance tag, or None for a bare value
VALIDATE = {"valid": None, "violations": None}
SIMULATE = {"censoring_rate": "mc", "mean_is_lower_bound": None, "meeting_time": "mc", "status": None,
            "tail": "mc"}
EXACT = {"mean_hit1": "exact", "mean_hit2": "exact", "meeting_time": "exact", "residual": "exact",
         "tail": "exact"}
ENVELOPE = {"domination_flags": None, "domination_passed": None, "envelope_head": "analytic",
            "envelope_mass": "analytic"}
BOUND = {
    **dict.fromkeys(["bound", "envelope_head", "envelope_mass", "first_moment_bound", "floor", "gamma",
                     "identity_residual", "n0", "p", "second_moment_bound", "walk_moment1",
                     "walk_moment2"], "analytic"),
    "mc_censoring_rate": "mc", "mc_mean": "mc", "mean_hit1": "exact", "mean_hit2": "exact",
    "bound_holds": None, "tail_envelope": None, "verdict": None, "warnings": None,
}
COMPARE = dict.fromkeys(["first_moment_bound", "gamma", "identity_residual", "p", "second_moment_bound",
                         "verdict", "walk_moment1", "walk_moment2"])
FAILED = {"error": None}

# (config, subcommand) -> (exit code, fields of ``results``)
SCHEMAS = {
    **{(config, "validate"): (0, VALIDATE) for config in CONFIGS},
    **{(config, "simulate"): (0, SIMULATE) for config in CONFIGS},
    **{(config, "exact"): (0, EXACT) for config in CONFIGS},
    ("pair", "condition-check"): (0, {**ENVELOPE, "gamma": "analytic", "n0": None}),
    ("empirical", "condition-check"): (0, {**ENVELOPE, "gamma": "exact", "gamma_grid": None,
                                           "gamma_hat": "exact", "n0": None}),
    ("schema", "condition-check"): (1, FAILED),
    ("pair", "bound"): (0, BOUND),
    ("empirical", "bound"): (1, FAILED),
    ("schema", "bound"): (1, FAILED),
    ("pair", "compare"): (0, COMPARE),
    ("empirical", "compare"): (0, COMPARE),
    ("schema", "compare"): (1, FAILED),
    ("pair", "birth-death-demo"): (0, BOUND),
    ("empirical", "birth-death-demo"): (1, FAILED),
    ("schema", "birth-death-demo"): (1, FAILED),
}


def test_the_table_covers_every_subcommand():
    assert set(SCHEMAS) == {(config, sub) for config in CONFIGS for sub in COMMANDS}


@pytest.mark.parametrize("config, sub", sorted(SCHEMAS))
def test_report_fields_and_provenance(tmp_path, config, sub):
    cfg = CONFIGS[config]()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([sub, "--config", str(path), "--out-dir", str(tmp_path)])
    results = json.loads((tmp_path / f"{cfg['name']}_{sub}.json").read_text())["results"]
    fields = {key: value.get("provenance") if isinstance(value, dict) else None
              for key, value in results.items()}
    assert (code, fields) == SCHEMAS[config, sub]
