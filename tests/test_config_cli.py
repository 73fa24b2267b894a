import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import birth_death_schedule, down_probabilities, kernel
from renewalsim.cli import COMMANDS, main
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


# the analytic precondition's messages, the same under every subcommand
NOT_BIRTH_DEATH = "analytic regularity needs birth-death chains on both sides"
NOT_TARGET_ZERO = "analytic regularity needs target set {0}"


def birth_death_chain(cap):
    return {"birth_death": {"cap": cap, "tail": {"kind": "constant", "alphas": 0.75}}}


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

SCHEMA_KEYS = (
    "version", "name", "target_set", "chain1", "chain2", "birth_death", "cap", "alpha_table",
    "tail", "kind", "alphas", "states", "body", "matrices", "initial1", "initial2", "state",
    "horizon", "n_paths", "seed", "tail_len", "domination", "p", "series_len", "regularity",
    "source", "t_grid", "lag_grid", "n0", "mu_hat", "gamma", "n0_applies_to",
)
# Any JSON value, with object keys and some text from the schema so that some of it parses.
ANY_JSON = st.recursive(
    JSON_LEAVES | st.sampled_from(["constant", "periodic", "analytic", "empirical"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS), children, max_size=5),
    max_leaves=16,
)


@st.composite
def any_config(draw):
    """A small valid config with one leaf set to a JSON leaf value or to any
    JSON value, or any JSON value."""
    replacement = draw(st.sampled_from([JSON_LEAVES, ANY_JSON, None]))
    if replacement is None:
        return draw(ANY_JSON)
    cfg = demo_config(horizon=60, n_paths=40, tail_len=10, domination={"p": 0.75, "series_len": 100})
    path = draw(st.sampled_from(list(_leaf_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(replacement)
    return cfg


SCHEMA_STRINGS = ("constant", "periodic", "analytic", "empirical", "base", "lag", "x")


def same_type_values(value):
    """Values of the JSON type of ``value``, near its range: integers from -1
    to about twice it, probabilities in [0, 1] and other floats up to twice
    it, strings the schema uses, and empty containers as they are."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-1, max(2 * value, 3))
    if isinstance(value, float):
        return st.floats(0.0, 1.0) if 0.0 <= value <= 1.0 else st.floats(-1.0, 2.0 * value)
    if isinstance(value, str):
        return st.sampled_from((value, *SCHEMA_STRINGS))
    return st.just(value)


def fuzz_configs():
    """Small valid configs that between them hold every key the schema reads."""
    small = {"horizon": 60, "n_paths": 40, "tail_len": 10, "domination": {"p": 0.75, "series_len": 100}}
    regularity = {"source": "empirical", "t_grid": [0, 1, 2], "lag_grid": [0, 1, 3], "n0": 0,
                  "n_paths": 100, "n0_applies_to": "base", "mu_hat": 2.5}
    periodic = {"birth_death": {"cap": 6, "alpha_table": [[0.8, 0.9, 0.8, 0.9, 0.8, 0.9]],
                                "tail": {"kind": "periodic", "alphas": [0.75, [0.8] * 6]}}}
    return [
        demo_config(**small),
        demo_config(**small, regularity=regularity),
        demo_config(**small, chain1=periodic, regularity={**regularity, "gamma": 0.2}),
        {**explicit_config(), **small, "regularity": regularity},
    ]


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
        assert down_probabilities(scenario.schedule1) is None
        assert scenario.schedule1.space.size == 2

    def test_seed_override(self):
        assert load_scenario(demo_config(), seed_override=7).master_seed == 7

    def test_constant_tail_takes_one_matrix(self):
        chain = explicit_chain([[0.5, 0.5], [0.5, 0.5]])
        chain["tail"]["matrices"].append([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ConfigError, match="one entry"):
            load_scenario(demo_config(chain1=chain, initial1=[1.0, 0.0]))

    @pytest.mark.parametrize("override", [
        {"horizon": "abc"},
        {"regularity": "x"},
        {"horizon": 1.5},
        {"n_paths": 2.5},
        {"tail_len": 1.5},
        {"tail_len": -5},
        {"seed": 0.5},
        {"seed": True},
        {"domination": {"p": 0.75, "series_len": 400.5}},
        {"chain1": birth_death_chain(8.5)},
        {"chain1": birth_death_chain(True)},
        {"chain1": birth_death_chain("3")},
        {"chain1": {**explicit_chain([[0.5, 0.5], [0.5, 0.5]]), "states": 2.5}, "initial1": [1.0, 0.0]},
        {"chain1": {**explicit_chain([[0.5, 0.5], [0.5, 0.5]]), "states": "2"}, "initial1": [1.0, 0.0]},
        {"initial1": {"state": 0.5}},
        {"initial1": {"state": True}},
        {"initial2": {"state": "3"}},
        {"target_set": [0.5]},
        {"target_set": [True]},
        {"target_set": [0, True]},
        {"target_set": [1, True]},  # a set of the two would read {1}
        {"domination": {"p": "0.75", "series_len": 400}},
        {"domination": {"p": True, "series_len": 400}},
        {"domination": {"p": None, "series_len": 400}},
        {"domination": "p"},
    ])
    def test_bad_value_is_exit_3(self, tmp_path, override):
        path = write_config(tmp_path, demo_config(**override))
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "t_simulate.json").exists()

    @pytest.mark.parametrize("sub", ["simulate", "exact", "condition-check", "bound"])
    def test_negative_tail_len_is_exit_3(self, tmp_path, sub):
        path = write_config(tmp_path, demo_config(tail_len=-5))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / f"t_{sub}.json").exists()

    def test_integral_counts_are_read_as_int(self):
        scenario = load_scenario(demo_config(horizon=300.0, n_paths=800.0, seed=99.0, tail_len=40.0))
        assert (scenario.horizon, scenario.n_paths, scenario.master_seed, scenario.tail_len) == (300, 800, 99, 40)
        assert all(type(v) is int for v in (scenario.horizon, scenario.n_paths, scenario.master_seed,
                                             scenario.tail_len, scenario.series_len))

    def test_integral_sizes_are_read_as_int(self):
        scenario = load_scenario(demo_config(chain1=birth_death_chain(8.0), initial2={"state": 0.0}))
        assert scenario.schedule1.space.size == 9 and type(scenario.schedule1.space.size) is int
        assert scenario.initial2.tolist() == [1.0] + [0.0] * 8
        chain = {**explicit_chain([[0.5, 0.5], [0.5, 0.5]]), "states": 2.0}
        assert load_scenario(demo_config(chain1=chain, initial1=[1.0, 0.0])).schedule1.space.size == 2

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

    @pytest.mark.parametrize("name", ["sub/t", "t\0", "t" * 201])
    def test_name_unfit_for_a_file_name_is_exit_3(self, tmp_path, name):
        path = write_config(tmp_path, demo_config(name=name))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(path), "--out-dir", str(out)]) == 3
        assert not out.exists()

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
    @settings(max_examples=100, deadline=None)
    @given(any_config())
    def test_any_json_config_exits_cleanly(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = write_config(Path(tmp), value)
            for sub in COMMANDS:
                out = Path(tmp) / sub
                code = main([sub, "--config", str(cfg_path), "--out-dir", str(out)])
                assert code in (0, 1, 2, 3)
                if code == 3:
                    assert not any(out.glob("*"))

    def test_same_type_leaf_mutations_reach_the_subcommands(self):
        # one leaf of a valid config set to a value of its own type keeps most
        # configs loadable, so the subcommands themselves meet odd values
        codes = []

        @settings(max_examples=120, deadline=None)
        @given(st.data())
        def mutate_and_run(data):
            cfg = data.draw(st.sampled_from(fuzz_configs()), label="config")
            path = data.draw(st.sampled_from(list(_leaf_paths(cfg))), label="leaf")
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = data.draw(same_type_values(parent[path[-1]]), label="value")
            sub = data.draw(st.sampled_from(sorted(COMMANDS)), label="subcommand")
            with tempfile.TemporaryDirectory() as tmp:
                cfg_path = write_config(Path(tmp), cfg)
                out = Path(tmp) / "out"
                code = main([sub, "--config", str(cfg_path), "--out-dir", str(out)])
                assert code in (0, 1, 2, 3)
                assert any(out.glob("*.json")) == (code != 3)
            codes.append(code)

        mutate_and_run()
        reached = sum(code != 3 for code in codes)
        assert reached >= 0.6 * len(codes), (reached, len(codes))

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

    def test_config_error_comes_before_kernel_violations(self, tmp_path, capsys):
        cfg = demo_config(chain1=explicit_chain([[0.5, 0.5], [0.2, 0.3]]), initial1=[1.0, 0.0], tail_len=-1)
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "config.tail_len must be nonnegative" in capsys.readouterr().err
        cfg["tail_len"] = 5
        path = write_config(tmp_path, cfg)
        assert main(["validate", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert load_report(tmp_path, "t_validate.json")["results"]["violations"] == [
            "tail[0], row 1: sums to 0.5, not 1"]

    @pytest.mark.parametrize("sub, n_paths", [("validate", 800), ("simulate", 0)])
    def test_unwritable_out_dir_is_exit_3(self, tmp_path, capsys, sub, n_paths):
        # with no paths simulate fails, so there the error report is what cannot be written
        (tmp_path / "afile").write_text("")
        path = write_config(tmp_path, demo_config(n_paths=n_paths))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path / "afile" / "sub")]) == 3
        err = capsys.readouterr().err
        assert "i/o error" in err and "Traceback" not in err

    def test_count_too_big_to_allocate_is_exit_1(self, tmp_path, capsys):
        # 10**18 float64 entries are 6.94 EiB, beyond any 64-bit address
        # space, so the allocation fails before any memory is touched
        path = write_config(tmp_path, demo_config(horizon=10**18))
        assert main(["exact", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "allocate" in load_report(tmp_path, "t_exact.json")["results"]["error"]
        err = capsys.readouterr().err
        assert "validation failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        {"chain1": birth_death_chain(10**18)},
        {"chain1": {**explicit_chain([[0.5, 0.5], [0.5, 0.5]]), "states": 10**18}, "initial1": {"state": 1}},
    ])
    def test_state_count_too_big_to_allocate_is_exit_3(self, tmp_path, capsys, override):
        # 10**18 states fail the loader's memory rule (or, where physical
        # memory is unknown, the allocation) before any memory is touched
        path = write_config(tmp_path, demo_config(**override))
        assert main(["validate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "allocate" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        {"chain1": birth_death_chain(400)},  # one 401x401 kernel: 1.23 MiB
        # four 201x201 kernels of 0.31 MiB each, from the body and from the tail
        {"chain1": {"birth_death": {"cap": 200, "alpha_table": [0.75, 0.75, 0.75],
                                    "tail": {"kind": "constant", "alphas": 0.75}}}},
        {"chain1": {"birth_death": {"cap": 200, "tail": {"kind": "periodic", "alphas": [0.75] * 4}}}},
        {"chain1": {**explicit_chain([[0.5, 0.5], [0.5, 0.5]]), "states": 400}, "initial1": {"state": 1}},
    ])
    def test_kernels_past_physical_memory_are_exit_3(self, tmp_path, capsys, monkeypatch, override):
        """The loader counts a chain's dense kernels against physical memory
        (1 MiB here) before it builds any array of that chain."""
        monkeypatch.setattr(kernel, "physical_memory", lambda: 2**20)
        path = write_config(tmp_path, demo_config(**override))
        assert main(["validate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "cannot allocate" in err and "Traceback" not in err

    def test_kernels_within_physical_memory_load(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel, "physical_memory", lambda: 2**20)
        three = {"birth_death": {"cap": 200, "alpha_table": [0.75, 0.75],  # 0.92 MiB in all
                                 "tail": {"kind": "constant", "alphas": 0.75}}}
        path = write_config(tmp_path, demo_config(chain1=three))
        assert main(["validate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("sub", ["simulate", "bound"])
    def test_paths_past_physical_memory_are_exit_1(self, tmp_path, capsys, monkeypatch, sub):
        """60,000 paths hold 1.14 MiB of per-path results: the plan refuses
        them against 1 MiB before any path runs."""
        monkeypatch.setattr(kernel, "physical_memory", lambda: 2**20)
        path = write_config(tmp_path, demo_config(n_paths=60_000))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "cannot allocate the per-path results" in load_report(tmp_path, f"t_{sub}.json")["results"]["error"]
        err = capsys.readouterr().err
        assert "validation failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("sub, override, what", [
        ("exact", {"horizon": 50_000}, "the hitting-time tables of horizon 50000"),
        ("simulate", {"horizon": 50_000, "tail_len": 50_000}, "the meeting tail of length 50000"),
        ("bound", {"horizon": 50_000}, "the hitting-time tables of horizon 50000"),
        ("bound", {"domination": {"p": 0.75, "series_len": 50_000}}, "the dominating sequence of length 50000"),
        ("condition-check", {"domination": {"p": 0.75, "series_len": 50_000}},
         "the dominating sequence of length 50000"),
    ])
    def test_step_counts_past_available_memory_are_exit_1(self, tmp_path, capsys, monkeypatch, sub, override, what):
        """50,000 steps or lags take 1.14 MiB in three float arrays: refused
        against 1 MiB of available memory before any of them is allocated."""
        monkeypatch.setattr(kernel, "available_memory", lambda: 2**20)
        path = write_config(tmp_path, demo_config(**override))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        error = load_report(tmp_path, f"t_{sub}.json")["results"]["error"]
        assert f"cannot allocate {what}" in error and "available memory" in error
        err = capsys.readouterr().err
        assert "validation failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("sub", ["simulate", "exact", "bound", "condition-check"])
    def test_step_counts_within_available_memory_run(self, tmp_path, monkeypatch, sub):
        monkeypatch.setattr(kernel, "available_memory", lambda: 2**20)
        path = write_config(tmp_path, demo_config(n_paths=400))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("sub, override", [
        ("simulate", {"horizon": 1e300}),
        ("bound", {"tail_len": 1e300}),
    ])
    def test_count_beyond_a_machine_integer_is_exit_1(self, tmp_path, capsys, sub, override):
        path = write_config(tmp_path, demo_config(**override))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "too large" in load_report(tmp_path, f"t_{sub}.json")["results"]["error"]
        err = capsys.readouterr().err
        assert "validation failure" in err and "Traceback" not in err

    def test_horizon_past_int32_is_exit_1(self, tmp_path, capsys):
        """Path times are int32, so a horizon of 2**31 is refused before any path runs."""
        path = write_config(tmp_path, demo_config(horizon=2**31))
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "int32" in load_report(tmp_path, "t_simulate.json")["results"]["error"]
        err = capsys.readouterr().err
        assert "validation failure" in err and "Traceback" not in err

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

    def test_upward_drift_pair_is_exit_1(self, tmp_path):
        """alpha = 0.15 on both chains drifts away from 0 and p = 0.82: the
        envelope does not dominate (P(T > 11) is about 0.95), so no bound."""
        drift = {"birth_death": {"cap": 10, "tail": {"kind": "constant", "alphas": 0.15}}}
        cfg = demo_config(chain1=drift, chain2=drift, domination={"p": 0.82, "series_len": 400})
        path = write_config(tmp_path, cfg)
        assert main(["bound", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        report = load_report(tmp_path, "t_bound.json")
        assert "does not apply" in report["results"]["error"]
        assert "bound" not in report["results"]

    def test_bound_pipeline_ok(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        assert main(["bound", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        report = load_report(tmp_path, "t_bound.json")
        assert report["results"]["bound_holds"] is True
        assert report["results"]["verdict"] == "first_moment_tighter"

    def test_bound_reads_a_birth_death_pair_off_explicit_kernels(self, tmp_path):
        """The cap-8 birth-death kernels written out as explicit matrices give the
        birth-death config's results, also when written by hand with up entries
        that are not the float 1 - alpha; one entry moved by 1e-3 makes them not
        birth-death."""
        matrix = birth_death_schedule(8, [0.75]).tail[0].tolist()
        by_hand = [[0.0] * 9 for _ in range(9)]  # alpha 0.7: up entries 0.3, not 1.0 - 0.7
        by_hand[0][:2] = [0.7, 0.3]
        for j in range(1, 8):
            by_hand[j][j - 1], by_hand[j][j + 1] = 0.7, 0.3
        by_hand[8][7] = 1.0
        assert by_hand != birth_death_schedule(8, [0.7]).tail[0].tolist()

        def explicit(m):
            return {"states": 9, "body": [], "tail": {"kind": "constant", "matrices": [m]}}

        alpha_07 = {"birth_death": {"cap": 8, "tail": {"kind": "constant", "alphas": 0.7}}}
        walk_07 = {"p": 0.7, "series_len": 400}
        for pair in ((demo_config(), demo_config(chain1=explicit(matrix), chain2=explicit(matrix))),
                     (demo_config(chain1=alpha_07, chain2=alpha_07, domination=walk_07),
                      demo_config(chain1=explicit(by_hand), chain2=explicit(by_hand), domination=walk_07))):
            results = []
            for cfg in pair:
                path = write_config(tmp_path, cfg)
                assert main(["bound", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
                results.append(load_report(tmp_path, "t_bound.json")["results"])
            assert results[0] == results[1]
        moved = [row[:] for row in matrix]
        moved[3][2] -= 1e-3  # to a stay at 3: moved to state 4, it would be birth-death with alpha 0.749
        moved[3][3] += 1e-3
        path = write_config(tmp_path, demo_config(chain2=explicit(moved)))
        assert main(["bound", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        error = load_report(tmp_path, "t_bound.json")["results"]["error"]
        assert error == NOT_BIRTH_DEATH

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

    def test_regularity_n_paths_is_not_read(self, tmp_path):
        # the exact grids sample no paths, so n_paths 0 certifies the same
        # gamma as any other count, and never gamma = 1 on no evidence
        gammas = []
        for n_paths in (0, 5000):
            path = write_config(tmp_path, demo_config(regularity={"source": "empirical", "n_paths": n_paths}))
            for sub in ("condition-check", "compare"):
                assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 0
            gamma = load_report(tmp_path, "t_condition-check.json")["results"]["gamma"]
            assert gamma["provenance"] == "exact"
            assert load_report(tmp_path, "t_compare.json")["results"]["gamma"] == gamma["value"]
            gammas.append(gamma["value"])
        assert gammas[0] == gammas[1] < 1.0

    @pytest.mark.parametrize("flip_side", ["chain1", "chain2"])
    def test_regularity_checks_both_chains(self, tmp_path, flip_side):
        """A birth-death chain paired with the period-2 flip-flop: the flip-flop's
        grid is 0 at odd lags, whichever side it is on."""
        flip = [[0.0, 1.0], [1.0, 0.0]]
        cfg = demo_config(n_paths=400, regularity={"source": "empirical", "t_grid": [0, 1, 2],
                                                   "lag_grid": [0, 1, 2, 4]})
        cfg[flip_side] = explicit_chain(flip)
        cfg["initial" + flip_side[-1]] = {"state": 0}
        path = write_config(tmp_path, cfg)
        for sub in ("condition-check", "compare"):
            assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 2
            error = load_report(tmp_path, f"t_{sub}.json")["results"]["error"]
            assert f"chain {flip_side[-1]} gives gamma = 0 at base time 0, lag 1 (estimate 0)" in error
        results = load_report(tmp_path, "t_condition-check.json")["results"]
        assert results["domination_passed"] is True
        assert {pt["chain"] for pt in results["gamma_grid"]} == {1, 2}
        assert "gamma" not in results

    def test_empirical_regularity_samples_no_paths(self, tmp_path, monkeypatch):
        import renewalsim
        from renewalsim import domination

        def sampled(*args, **kwargs):
            raise AssertionError("the Monte Carlo regularity scan ran")

        monkeypatch.setattr(domination, "estimate_regularity", sampled)
        monkeypatch.setattr(renewalsim, "estimate_regularity", sampled)
        path = write_config(tmp_path, demo_config(n_paths=400, regularity={"source": "empirical"}))
        for sub in ("condition-check", "compare"):
            assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 0

    def test_regularity_scan_checks_its_initial_law(self, tmp_path):
        # sums to 1 but has a negative entry; simulate and exact already refuse it
        cfg = demo_config(initial1=[2, -1, 0, 0, 0, 0, 0, 0, 0],
                          regularity={"source": "empirical", "n_paths": 300})
        path = write_config(tmp_path, cfg)
        for sub in ("condition-check", "compare", "simulate", "exact"):
            assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
            report = load_report(tmp_path, f"t_{sub}.json")
            assert "initial vector has a negative entry" in report["results"]["error"]
            assert "gamma" not in report["results"]

    @pytest.mark.parametrize("key, initial, message", [
        ("initial1", [2, -1, 0, 0, 0, 0, 0, 0, 0], "initial vector has a negative entry"),
        ("initial2", [0.5, 0.2, 0, 0, 0, 0, 0, 0, 0], "initial vector sums to 0.7, not 1"),
    ])
    def test_invalid_initial_law_fails_validate(self, tmp_path, key, initial, message):
        path = write_config(tmp_path, demo_config(**{key: initial}))
        for sub in ("validate", "simulate"):
            assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
            report = load_report(tmp_path, f"t_{sub}.json")
            assert f"config.{key}: {message}" in report["results"]["error"]
        assert load_report(tmp_path, "t_validate.json")["results"]["valid"] is False

    @pytest.mark.parametrize("sub", sorted(COMMANDS))
    def test_nan_initial_law_is_exit_1(self, tmp_path, sub):
        path = write_config(tmp_path, demo_config(initial1=[float("nan"), 1.0] + [0.0] * 7))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        results = load_report(tmp_path, f"t_{sub}.json")["results"]
        assert "config.initial1: initial law, row 0: entry 0 is nan" in results["error"]
        assert sub != "validate" or results["valid"] is False

    def test_renewal_tails_without_paths_is_exit_1(self, tmp_path):
        path = write_config(tmp_path, demo_config(n_paths=0))
        assert main(["condition-check", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        report = load_report(tmp_path, "t_condition-check.json")
        assert "n_paths must be at least 1" in report["results"]["error"]
        assert "domination_passed" not in report["results"]

    def test_unobserved_grid_point_is_exit_2(self, tmp_path):
        # the flip-flop chain started at 0 is never in the target set at odd times
        flip = [[0.0, 1.0], [1.0, 0.0]]
        cfg = demo_config(
            chain1=explicit_chain(flip),
            chain2=explicit_chain(flip),
            regularity={"source": "empirical", "t_grid": [0, 1], "lag_grid": [0, 2],
                        "n_paths": 300},
            n_paths=200,
        )
        path = write_config(tmp_path, cfg)
        assert main(["condition-check", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        text = (tmp_path / "t_condition-check.json").read_text()
        assert "NaN" not in text
        results = json.loads(text)["results"]
        assert results["domination_passed"] is True
        assert results["gamma_hat"] == {"value": 0.0, "provenance": "exact"}
        assert "gamma" not in results
        assert "chain 1 gives gamma = 0 at base time 1, lag 0 (the chain is never in the target set" \
            in results["error"]
        unobserved = [pt for pt in results["gamma_grid"] if pt["base_time"] == 1]
        assert unobserved == [
            {"chain": chain, "base_time": 1, "lag": lag, "estimate": None, "se": None, "n_conditioned": 0}
            for chain in (1, 2) for lag in (0, 2)
        ]

    @pytest.mark.parametrize("sub", ["bound", "birth-death-demo"])
    @pytest.mark.parametrize("override", [
        {"regularity": {"source": "empirical", "n0": 3}},
        {"target_set": [0, 1]},
    ])
    def test_bound_rejects_what_its_report_cannot_state(self, tmp_path, sub, override):
        # the report tags gamma analytic and its schedules have target set {0}
        path = write_config(tmp_path, demo_config(**override))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        report = load_report(tmp_path, f"t_{sub}.json")
        source_only = "the bound pipeline takes analytic regularity only"
        assert report["results"]["error"] == (source_only if "regularity" in override else NOT_TARGET_ZERO)
        assert "bound" not in report["results"]

    @pytest.mark.parametrize("sub", ["condition-check", "compare", "bound", "birth-death-demo"])
    def test_analytic_gamma_needs_target_set_zero(self, tmp_path, sub):
        # the floor formula is about the stay probability at state 0
        chain = {"birth_death": {"cap": 20, "tail": {"kind": "constant", "alphas": 0.8}}}
        path = write_config(tmp_path, demo_config(target_set=[0, 1], chain1=chain, chain2=chain))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        results = load_report(tmp_path, f"t_{sub}.json")["results"]
        assert results["error"] == NOT_TARGET_ZERO
        assert "gamma" not in results

    @pytest.mark.parametrize("sub", ["condition-check", "compare", "bound", "birth-death-demo"])
    def test_analytic_gamma_needs_birth_death_chains(self, tmp_path, sub):
        path = write_config(tmp_path, demo_config(chain2=explicit_chain([[0.5, 0.5], [0.5, 0.5]]),
                                                  initial2={"state": 0}))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        results = load_report(tmp_path, f"t_{sub}.json")["results"]
        assert results["error"] == NOT_BIRTH_DEATH
        assert "gamma" not in results

    @pytest.mark.parametrize("source, provenance", [("analytic", "analytic"), ("empirical", "exact")])
    def test_condition_check_and_compare_share_gamma(self, tmp_path, source, provenance):
        cfg = demo_config(n_paths=400, regularity={
            "source": source, "t_grid": [0, 1, 2], "lag_grid": [0, 1, 2, 4], "n_paths": 2000,
        })
        path = write_config(tmp_path, cfg)
        for sub in ("condition-check", "compare"):
            assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        checked = load_report(tmp_path, "t_condition-check.json")["results"]["gamma"]
        compared = load_report(tmp_path, "t_compare.json")["results"]["gamma"]
        assert checked["provenance"] == provenance
        assert checked["value"] == compared
        assert 0.0 < compared <= 1.0

    def test_compare_subcommand(self, tmp_path):
        cfg = demo_config(regularity={"source": "analytic", "gamma": 0.1})
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        report = load_report(tmp_path, "t_compare.json")
        assert report["results"]["second_moment_bound"] == pytest.approx(570.0)
        assert report["results"]["first_moment_bound"] == pytest.approx(55.0)

    def test_compare_gamma_too_small_is_exit_1(self, tmp_path):
        # gamma^2 underflows to zero in the second-moment bound
        cfg = demo_config(regularity={"source": "analytic", "gamma": 1e-200})
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "underflows" in load_report(tmp_path, "t_compare.json")["results"]["error"]

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

    @pytest.mark.parametrize("sub", ["simulate", "bound", "validate"])
    def test_report_records_the_stream_contract(self, tmp_path, sub):
        path = write_config(tmp_path, demo_config(n_paths=50))
        assert main([sub, "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert load_report(tmp_path, f"t_{sub}.json")["meta"]["rng"] == "counter-splitmix64"

    def test_seed_override_changes_results(self, tmp_path):
        path = write_config(tmp_path, demo_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["simulate", "--config", str(path), "--out-dir", str(out1)])
        main(["simulate", "--config", str(path), "--out-dir", str(out2), "--seed", "123"])
        r1 = load_report(out1, "t_simulate.json")
        r2 = load_report(out2, "t_simulate.json")
        assert r1["results"]["meeting_time"] != r2["results"]["meeting_time"]
