"""The words and derived flags the CLI writes into reports, pinned.

Each case runs one subcommand on a small config: a ``bound`` run with
censored paths and both chains touching their cap, an all-censored and a
never-censored ``simulate``, a ``condition-check`` whose surface crosses
the envelope, and an ``exact`` run whose meeting law never closes.  No
float is compared, so the test does not depend on the BLAS.
"""

import json
import re

from renewalsim.cli import main

FLIP = [[0.0, 1.0], [1.0, 0.0]]  # 0 -> 1 -> 0
AWAY = [[0.0, 1.0], [0.0, 1.0]]  # leaves the target set for good
STAY = [[1.0, 0.0], [0.0, 1.0]]


def explicit(matrix) -> dict:
    return {"states": 2, "tail": {"kind": "constant", "matrices": [matrix]}}


def config(name, chain1, chain2, initial1, initial2, **rest) -> dict:
    return {"version": 1, "name": name, "target_set": [0], "chain1": chain1, "chain2": chain2,
            "initial1": initial1, "initial2": initial2, "horizon": 30, "n_paths": 200, "seed": 5,
            "tail_len": 10, "domination": {"p": 0.75, "series_len": 20},
            "regularity": {"source": "analytic"}, **rest}


# chains 0 -> 1 -> 0 in opposite phase: never in the target set together
NEVER = config("never", explicit(FLIP), explicit(FLIP), [1.0, 0.0], [0.0, 1.0])
# both absorbed in the target set: every path meets at step 1
AT_ONCE = config("at-once", explicit(STAY), explicit(STAY), [1.0, 0.0], [1.0, 0.0])
# cap 3 is three steps up from 0, and a horizon of 4 censors some paths
TIGHT = config("tight", *({"birth_death": {"cap": 3, "tail": {"kind": "constant", "alphas": 0.8}}},) * 2,
               {"state": 0}, {"state": 0}, horizon=4, n_paths=400, tail_len=4)
# the renewal tail is 1 at every lag, above the envelope from lag 2 on
GONE = config("gone", explicit(AWAY), explicit(AWAY), [1.0, 0.0], [1.0, 0.0],
              regularity={"source": "empirical", "t_grid": [0, 2], "lag_grid": [1]})


def run(tmp_path, capsys, sub, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([sub, "--config", str(path), "--out-dir", str(tmp_path)])
    results = json.loads((tmp_path / f"{cfg['name']}_{sub}.json").read_text())["results"]
    return code, results, capsys.readouterr().err


def test_bound_warns_of_censoring_and_of_each_cap(tmp_path, capsys):
    code, results, _ = run(tmp_path, capsys, "bound", TIGHT)
    assert code == 0
    censored = round(results["mc_censoring_rate"]["value"] * TIGHT["n_paths"])
    assert censored > 0
    censoring, *truncation = results["warnings"]
    assert censoring == (f"{censored} of 400 paths were censored at the horizon; "
                         "the Monte Carlo mean is a lower bound")
    assert len(truncation) == 2
    for chain, warning in enumerate(truncation, 1):
        assert re.fullmatch(f"truncation: chain{chain} touches the cap state within the horizon "
                            r"with probability [0-9.e-]+; consider a larger cap", warning), warning


def test_all_censored_status(tmp_path, capsys):
    code, results, _ = run(tmp_path, capsys, "simulate", NEVER)
    assert code == 0
    assert results["status"] == "all-censored"
    assert results["mean_is_lower_bound"] is True
    assert results["censoring_rate"] == {"value": 1.0, "provenance": "mc"}


def test_uncensored_status(tmp_path, capsys):
    code, results, _ = run(tmp_path, capsys, "simulate", AT_ONCE)
    assert code == 0
    assert results["status"] == "ok"
    assert results["mean_is_lower_bound"] is False
    assert results["censoring_rate"] == {"value": 0.0, "provenance": "mc"}


def test_domination_flags(tmp_path, capsys):
    code, results, err = run(tmp_path, capsys, "condition-check", GONE)
    assert code == 2
    flags = results["domination_flags"]
    assert results["domination_passed"] is False
    assert all(set(flag) == {"start_time", "lag", "estimate", "se", "bound"} for flag in flags)
    assert [(flag["start_time"], flag["lag"]) for flag in flags] == [
        (t0, lag) for t0 in (0, 2) for lag in range(2, 11)]
    # the flags come before the regularity grid's gamma = 0
    message = "18 grid point(s) exceed the envelope by more than 3 SE"
    assert results["error"] == message
    assert err == f"statistical check failure: {message}\n"


def test_unbounded_meeting_time(tmp_path, capsys):
    code, results, _ = run(tmp_path, capsys, "exact", NEVER)
    assert code == 0
    assert results["meeting_time"]["unbounded"] is True
    code, results, _ = run(tmp_path, capsys, "exact", AT_ONCE)
    assert code == 0
    assert results["meeting_time"]["unbounded"] is False
