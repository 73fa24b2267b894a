import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from renewalsim.cli import main
from renewalsim.config import ConfigError, load_scenario


def demo_config(**overrides):
    cfg = {
        "version": 1,
        "name": "t",
        "target_set": [0],
        "chain1": {"birth_death": {"cap": 8, "tail": {"kind": "constant", "alphas": 0.75}}},
        "chain2": {"birth_death": {"cap": 8, "tail": {"kind": "constant", "alphas": 0.75}}},
        "initial1": {"state": 0},
        "initial2": {"state": 0},
        "horizon": 300,
        "n_paths": 800,
        "seed": 99,
        "domination": {"p": 0.75, "series_len": 400},
        "regularity": {"source": "analytic"},
        "tail_len": 40,
    }
    cfg.update(overrides)
    return cfg


def explicit_chain(matrix):
    return {"states": 2, "body": [], "tail": {"kind": "constant", "matrices": [matrix]}}


def explicit_config():
    return demo_config(
        chain1=explicit_chain([[0.5, 0.5], [0.5, 0.5]]),
        chain2={"states": 2, "body": [[[0.9, 0.1], [0.2, 0.8]]],
                "tail": {"kind": "periodic", "matrices": [[[0.4, 0.6], [0.7, 0.3]]]}},
        initial1=[0.5, 0.5],
        initial2={"state": 1},
    )


def _leaf_paths(obj, prefix=()):
    """Key paths of every scalar, and of every empty list or dict, in a config."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


# Numbers stay small: a config may ask for a cap or a state count, and the
# parser allocates matrices of that size.
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=60),
    st.floats(min_value=-100, max_value=100),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-2, max_value=5), max_size=2),
)


def write_config(tmp_path: Path, cfg, name="cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def load_report(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        scenario = load_scenario(path)
        assert scenario.n_paths == 800
        assert scenario.schedule1.space.size == 9
        assert scenario.domination_p == 0.75

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        with pytest.raises(ConfigError, match="line"):
            load_scenario(path)

    def test_missing_key(self):
        cfg = demo_config()
        del cfg["chain2"]
        with pytest.raises(ConfigError, match="chain2"):
            load_scenario(cfg)

    def test_unknown_version(self):
        with pytest.raises(ConfigError, match="version"):
            load_scenario(demo_config(version=99))

    def test_explicit_matrices(self):
        cfg = demo_config(
            chain1=explicit_chain([[0.5, 0.5], [0.5, 0.5]]),
            chain2=explicit_chain([[0.4, 0.6], [0.7, 0.3]]),
            initial1=[0.5, 0.5],
            initial2={"state": 1},
        )
        scenario = load_scenario(cfg)
        assert scenario.spec1 is None
        assert scenario.schedule1.space.size == 2

    def test_seed_override(self):
        assert load_scenario(demo_config(), seed_override=7).master_seed == 7

    def test_constant_tail_takes_one_matrix(self):
        chain = explicit_chain([[0.5, 0.5], [0.5, 0.5]])
        chain["tail"]["matrices"].append([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ConfigError, match="one entry"):
            load_scenario(demo_config(chain1=chain, initial1=[1.0, 0.0]))

    @pytest.mark.parametrize("override", [{"horizon": "abc"}, {"regularity": "x"}])
    def test_bad_value_is_exit_3(self, tmp_path, override):
        path = write_config(tmp_path, demo_config(**override))
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "t_simulate.json").exists()

    @pytest.mark.parametrize("sub, regularity", [
        ("compare", {"source": "analytic", "mu_hat": "x"}),
        ("condition-check", {"source": "empirical", "t_grid": "ab"}),
        ("condition-check", {"source": "empirical", "lag_grid": [0, 1.5]}),
        ("condition-check", {"source": "empirical", "n_paths": True}),
    ])
    def test_bad_regularity_type_is_exit_3(self, tmp_path, sub, regularity):
        path = write_config(tmp_path, demo_config(regularity=regularity))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / f"t_{sub}.json").exists()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_leaf_mutation_is_config_error_or_loads(self, data):
        cfg = data.draw(st.sampled_from([demo_config(), explicit_config()]))
        leaves = list(_leaf_paths(cfg))
        path = data.draw(st.sampled_from(leaves))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_LEAVES)
        try:
            load_scenario(cfg)
        except ConfigError:
            pass


class TestCliExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_regularity_mutation_exits_cleanly(self, data):
        # every key the subcommands read from "regularity", under both sources
        source = data.draw(st.sampled_from(["analytic", "empirical"]))
        cfg = demo_config(n_paths=200, tail_len=20, regularity={
            "source": source, "t_grid": [0, 1], "lag_grid": [0, 1, 2], "n_paths": 300,
            "n0": 0, "n0_applies_to": "base", "mu_hat": 2.0, "gamma": None,
        })
        reg = cfg["regularity"]
        path = data.draw(st.sampled_from([(key,) for key in reg] + list(_leaf_paths(reg))))
        parent = reg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_LEAVES)
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = write_config(Path(tmp), cfg)
            for sub in ("condition-check", "compare"):
                code = main([sub, "--config", str(cfg_path), "--out-dir", tmp])
                assert code in (0, 1, 2, 3)
                assert (Path(tmp) / f"t_{sub}.json").exists() == (code != 3)

    def test_simulate_ok(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        code = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path, "t_simulate.json")
        assert report["results"]["meeting_time"]["provenance"] == "mc"
        assert "se" in report["results"]["meeting_time"]

    def test_missing_config_is_exit_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 3

    def test_malformed_config_is_exit_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3

    def test_invalid_matrix_is_exit_1(self, tmp_path):
        # every subcommand validates; only validate lists the violations
        for bad in ([[0.6, 0.5], [0.5, 0.5]], [[float("nan"), 0.5], [0.5, 0.5]]):
            cfg = demo_config(
                chain1=explicit_chain(bad),
                chain2=explicit_chain([[0.5, 0.5], [0.5, 0.5]]),
                initial1=[1.0, 0.0],
                initial2=[1.0, 0.0],
            )
            path = write_config(tmp_path, cfg)
            for sub in ("validate", "simulate", "exact"):
                assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1, (bad, sub)
                report = load_report(tmp_path, f"t_{sub}.json")
                assert "row 0" in report["results"]["error"]
                assert bool(report["results"].get("violations")) == (sub == "validate")

    def test_valid_schedule_validates(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        assert main(["validate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0

    def test_half_walk_parameter_is_exit_1(self, tmp_path):
        cfg = demo_config(domination={"p": 0.5, "series_len": 100})
        path = write_config(tmp_path, cfg)
        code = main(["bound", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        report = load_report(tmp_path, "t_bound.json")
        assert "p must lie in (0.5, 1)" in report["results"]["error"]

    def test_bound_pipeline_ok(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        assert main(["bound", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        report = load_report(tmp_path, "t_bound.json")
        assert report["results"]["bound_holds"] is True
        assert report["results"]["verdict"] == "first_moment_tighter"

    def test_exact_subcommand(self, tmp_path):
        cfg = demo_config(
            chain1=explicit_chain([[0.5, 0.5], [0.5, 0.5]]),
            chain2=explicit_chain([[0.5, 0.5], [0.5, 0.5]]),
            initial1={"state": 1},
            initial2={"state": 1},
            horizon=400,
        )
        path = write_config(tmp_path, cfg)
        assert main(["exact", "--config", str(path), "--out-dir", str(tmp_path),
                     "--format", "csv"]) == 0
        report = load_report(tmp_path, "t_exact.json")
        assert report["results"]["meeting_time"]["low"] == pytest.approx(4.0, abs=1e-8)
        assert (tmp_path / "t_exact_tail.csv").exists()

    def test_condition_check_ok(self, tmp_path):
        path = write_config(tmp_path, demo_config(n_paths=400))
        assert main(["condition-check", "--config", str(path),
                     "--out-dir", str(tmp_path)]) == 0
        report = load_report(tmp_path, "t_condition-check.json")
        assert report["results"]["domination_passed"] is True
        assert report["results"]["gamma"]["provenance"] == "analytic"

    def test_condition_check_periodic_chain_exit_2(self, tmp_path):
        flip = [[0.0, 1.0], [1.0, 0.0]]
        cfg = demo_config(
            chain1=explicit_chain(flip),
            chain2=explicit_chain(flip),
            initial1={"state": 0},
            initial2={"state": 0},
            regularity={"source": "empirical", "t_grid": [0, 1], "lag_grid": [0, 1, 2],
                        "n_paths": 300},
            n_paths=200,
        )
        path = write_config(tmp_path, cfg)
        code = main(["condition-check", "--config", str(path), "--out-dir", str(tmp_path),
                     "--format", "csv"])
        assert code == 2
        report = load_report(tmp_path, "t_condition-check.json")
        assert report["results"]["gamma_grid"]
        assert (tmp_path / "t_gamma_grid.csv").exists()

    def test_compare_subcommand(self, tmp_path):
        cfg = demo_config(regularity={"source": "analytic", "gamma": 0.1})
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        report = load_report(tmp_path, "t_compare.json")
        assert report["results"]["second_moment_bound"] == pytest.approx(570.0)
        assert report["results"]["first_moment_bound"] == pytest.approx(55.0)

    def test_demo_runs_without_config(self, tmp_path):
        code = main(["birth-death-demo", "--out-dir", str(tmp_path), "--seed", "4"])
        assert code == 0
        report = load_report(tmp_path, "birth-death-demo_birth-death-demo.json")
        assert report["results"]["bound_holds"] is True


class TestDeterminism:
    def test_same_seed_different_workers_identical_reports(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out1),
                     "--workers", "1", "--format", "csv"]) == 0
        assert main(["simulate", "--config", str(path), "--out-dir", str(out2),
                     "--workers", "3", "--format", "csv"]) == 0
        r1 = load_report(out1, "t_simulate.json")
        r2 = load_report(out2, "t_simulate.json")
        r1["meta"].pop("created_at")
        r2["meta"].pop("created_at")
        assert r1 == r2
        assert (out1 / "t_paths.csv").read_text() == (out2 / "t_paths.csv").read_text()

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["simulate", "--config", str(path), "--out-dir", str(out1)])
        main(["simulate", "--config", str(path), "--out-dir", str(out2), "--seed", "123"])
        r1 = load_report(out1, "t_simulate.json")
        r2 = load_report(out2, "t_simulate.json")
        assert r1["results"]["meeting_time"] != r2["results"]["meeting_time"]
