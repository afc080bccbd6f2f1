import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sstac import ConfigError, SstacError, chain2, load_trace, run_linear_ac, tabular_features
from sstac.cli import main
from sstac.harness import (
    ALGORITHMS,
    DIAG_SERIES,
    ExperimentConfig,
    diag_checks,
    diag_series_csv,
    execute_run,
    run_command,
    run_id,
    sweep_command,
)
from sstac.mdp import mdp_to_json

GOLDEN = Path(__file__).parent / "data" / "golden_chain2" / "trace.csv"
GOLDEN_COLUMNS = GOLDEN.read_text().splitlines()[0].split(",")

BASE_CFG = {"mdp": "chain2", "algorithm": "linear_exact", "K": 4, "seeds": [0]}
LOOP_MANIFEST_KEYS = ("rng_id", "version", "params")
DIAG_CHECK_NAMES = ["row-count", "regret-consistency", "decomposition-identity", "kl-telescoping", "exact-critic-eps-c"]


BAD_MDP_CAUSE = {
    "missing": "No such file or directory",
    "undecodable": "codec can't decode",
    "truncated": "Expecting",
    "wrong_type": "invalid literal for int()",
    "nan_reward": "reward entry (1, 0) is nan",
}


# Linux's overcommit mode 1 grants every allocation, so a refused one cannot be provoked safely.
_OVERCOMMIT = Path("/proc/sys/vm/overcommit_memory")
ALWAYS_OVERCOMMITS = _OVERCOMMIT.is_file() and _OVERCOMMIT.read_text().strip() == "1"


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExperimentConfig:
    def test_round_trip_equality(self):
        cfg = ExperimentConfig.from_dict(
            {
                "mdp": "chain2",
                "algorithm": "linear_sampled",
                "K": 8,
                "N": 256,
                "seeds": [0, 1],
                "beta": 2.5,
                "R": 3.0,
                "ridge": 1e-8,
            }
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({**BASE_CFG, "typo_key": 1})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="algorithm"):
            ExperimentConfig.from_dict({"mdp": "chain2", "K": 4})

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            ExperimentConfig.from_dict({**BASE_CFG, "algorithm": "qlearning"})

    def test_numeric_ranges(self):
        with pytest.raises(ConfigError, match="K"):
            ExperimentConfig.from_dict({**BASE_CFG, "K": 0})
        with pytest.raises(ConfigError, match="beta"):
            ExperimentConfig.from_dict({**BASE_CFG, "beta": -1})
        with pytest.raises(ConfigError, match="N"):
            ExperimentConfig.from_dict({**BASE_CFG, "algorithm": "linear_sampled"})

    def test_arch_rejects_input_dimension(self):
        # The input dimension is always S + A; a "d" entry would be ignored.
        with pytest.raises(ConfigError, match="arch"):
            ExperimentConfig.from_dict({**BASE_CFG, "algorithm": "neural", "arch": {"d": 99, "m": 8, "H": 2}})

    def test_neural_requires_arch(self):
        with pytest.raises(ConfigError, match="arch"):
            ExperimentConfig.from_dict({**BASE_CFG, "algorithm": "neural"})

    def test_round_trip_emits_only_set_fields(self):
        cfg = ExperimentConfig.from_dict({**BASE_CFG, "algorithm": "neural", "arch": {"m": 8, "H": 2}, "N_c": 5})
        doc = cfg.to_dict()
        assert doc == {**BASE_CFG, "algorithm": "neural", "arch": {"m": 8, "H": 2}, "N_c": 5}
        assert ExperimentConfig.from_dict(doc) == cfg

    def test_run_ids_are_greppable(self):
        cfg = ExperimentConfig.from_dict(BASE_CFG)
        assert run_id(cfg, 3) == "linear_exact-chain2-K4-seed3"
        cfg2 = ExperimentConfig.from_dict({**BASE_CFG, "mdp": "random(10,5,7)"})
        assert run_id(cfg2, 0) == "linear_exact-random-10-5-7-K4-seed0"

    def test_run_id_drops_spaces_in_random_source(self):
        # build_mdp reads "random(4, 2, 1)" as random(4,2,1); both spellings name one run.
        spaced = ExperimentConfig.from_dict({**BASE_CFG, "mdp": "random(4, 2, 1)"})
        compact = ExperimentConfig.from_dict({**BASE_CFG, "mdp": "random(4,2,1)"})
        assert run_id(spaced, 0) == run_id(compact, 0) == "linear_exact-random-4-2-1-K4-seed0"


class TestExecuteRun:
    def test_manifest_schema_and_config_echo(self):
        cfg = ExperimentConfig.from_dict(BASE_CFG)
        manifest = execute_run(cfg, 0).manifest
        assert set(manifest) == {*LOOP_MANIFEST_KEYS, "config", "started_at", "duration_s", "run_id"}
        assert ExperimentConfig.from_dict(manifest["config"]) == cfg
        assert manifest["run_id"] == run_id(cfg, 0)

    def test_cli_adds_to_the_run_record_and_rewrites_none_of_it(self):
        # Each manifest key has one writer: the loop writes the run record, execute_run only adds to it.
        api = run_linear_ac(chain2(), tabular_features(2, 2), 4).manifest
        assert set(api) == set(LOOP_MANIFEST_KEYS)
        manifest = execute_run(ExperimentConfig.from_dict(BASE_CFG), 0).manifest
        assert {key: manifest[key] for key in LOOP_MANIFEST_KEYS} == api

    def test_trace_row_count(self):
        cfg = ExperimentConfig.from_dict({**BASE_CFG, "K": 7})
        trace = execute_run(cfg, 0)
        assert len(trace.rows) == 8

    def test_schema_columns_are_stable(self):
        assert GOLDEN_COLUMNS == [
            "k", "gap", "cum_regret", "eps_c_l2", "eps_c_sup", "e_sup",
            "theta_kl", "eps_a", "eps_b", "phi_star", "sigma_star", "J_pi",
            "kl_to_opt", "a_resid", "inv_tau", "actor_norm", "critic_norm",
        ]
        assert execute_run(ExperimentConfig.from_dict(BASE_CFG), 0).columns == GOLDEN_COLUMNS


class TestCliRun:
    def test_run_writes_trace_and_manifest(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CFG)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "runs")]) == 0
        out_dir = tmp_path / "runs" / "linear_exact-chain2-K4-seed0"
        assert (out_dir / "trace.csv").is_file()
        assert (out_dir / "manifest.json").is_file()
        trace = load_trace(out_dir)
        assert len(trace.rows) == 5

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "seeds": [0, 1]})
        assert main(["run", "--config", cfg_path, "--seed", "5", "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "linear_exact-chain2-K4-seed5").is_dir()
        assert not (tmp_path / "r" / "linear_exact-chain2-K4-seed0").exists()

    @pytest.mark.parametrize("seeds", [[-1], [True], [0, 1.5]])
    def test_bad_seeds_exit_2(self, tmp_path, capsys, seeds):
        cfg = {**BASE_CFG, "algorithm": "linear_sampled", "N": 64, "seeds": seeds}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("sstac: error: config: seeds must be")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("R", "nan", "R must be >= 0.0, got nan"),
            ("beta", "nan", "beta must be > 0.0, got nan"),
            ("ridge", "nan", "ridge must be >= 0.0, got nan"),
            ("R", "inf", "R must be finite, got inf"),
            ("beta", "inf", "beta must be finite, got inf"),
            ("ridge", "inf", "ridge must be finite, got inf"),
            ("R", "-inf", "R must be >= 0.0, got -inf"),
        ],
        ids=["R->=", "beta->", "ridge->=", "R-inf", "beta-inf", "ridge-inf", "R--inf"],
    )
    def test_nan_number_exits_2(self, tmp_path, capsys, key, value, message):
        # JSON's NaN and Infinity tokens parse; every comparison with NaN is False, so a NaN
        # ridge was silently ignored, and an infinite ridge zeroed every critic solve.
        cfg_path = write_config(tmp_path, {**BASE_CFG, "algorithm": "linear_sampled", "N": 64, key: float(value)})
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"sstac: error: config: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "algorithm": "linear_sampled", "N": 64})
        assert main(["run", "--config", cfg_path, "--seed", "-1", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("sstac: error: config: seeds must be")

    def test_malformed_json_exits_2_naming_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mdp": ')
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "byte 8" in err and err.startswith("sstac: error: config:")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("sstac: error: config: cannot read config file:")
        assert not (tmp_path / "r").exists()

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "bogus": True})
        assert main(["run", "--config", cfg_path]) == 2

    @pytest.mark.parametrize(
        "algorithm, key, value",
        [
            ("linear_exact", "N", 64),
            ("linear_exact", "ridge", 1e-3),
            ("linear_exact", "N_a", 8),
            ("linear_sampled", "arch", {"m": 8, "H": 2}),
            ("linear_sampled", "N_c", 8),
            ("neural", "ridge", 1e-3),
            ("neural", "N", 64),
        ],
    )
    def test_key_the_algorithm_does_not_read_exits_2(self, tmp_path, capsys, algorithm, key, value):
        cfg = {**BASE_CFG, "algorithm": algorithm, **MODE_EXTRAS.get(algorithm, {}), key: value}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: algorithm {algorithm!r} does not read config keys [{key!r}]")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key, value", [("rho_eval", "rho_star"), ("out_dir", "runs")])
    def test_retired_keys_exit_2(self, tmp_path, capsys, key, value):
        cfg_path = write_config(tmp_path, {**BASE_CFG, key: value})
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(f"sstac: error: config: unknown config keys: [{key!r}]")
        assert not (tmp_path / "r").exists()

    def test_singular_gram_exits_3_with_conditioning_class(self, tmp_path, capsys):
        # N=2 draws cannot cover chain2's four pairs: the batch Gram is
        # singular with the ridge disabled.
        cfg_path = write_config(
            tmp_path,
            {"mdp": "chain2", "algorithm": "linear_sampled", "K": 1, "N": 2, "seeds": [0]},
        )
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("sstac: error: conditioning:")
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("case", ["missing", "undecodable", "truncated", "wrong_type", "nan_reward"])
    def test_bad_mdp_file_exits_2_naming_path(self, tmp_path, capsys, verb, case):
        doc = mdp_to_json(chain2())
        if case == "wrong_type":
            doc["n_states"] = "x"
        elif case == "nan_reward":
            doc["reward"][1][0] = float("nan")  # written as the bare token NaN, which json.load accepts
        text = json.dumps(doc).encode()
        mdp_path = tmp_path / "mdp.json"
        if case != "missing":
            mdp_path.write_bytes({"undecodable": b"\xff\xfe" + text, "truncated": text[: len(text) // 2]}.get(case, text))
        cfg_path = write_config(tmp_path, {**BASE_CFG, "mdp": str(mdp_path)})
        argv = [verb, "--config", cfg_path, "--out", str(tmp_path / "r")]
        argv += ["--param", "K", "--values", "2"] if verb == "sweep" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: cannot load MDP {str(mdp_path)!r}")
        assert BAD_MDP_CAUSE[case] in err
        assert not (tmp_path / "r").exists()

    def test_repeated_seed_exits_2_before_any_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "seeds": [0, 1, 0]})
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err == "sstac: error: config: seeds must be distinct; seed 0 is listed more than once\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "source, cause",
        [
            ("random(0,2,1)", "an MDP needs n_states >= 1 and n_actions >= 1, got 0 and 2"),
            ("random(4097,1,0)", "n_states * n_actions = 4097 exceeds cap 4096"),
        ],
        ids=["empty", "over-cap"],
    )
    def test_random_mdp_size_exits_2_before_drawing(self, tmp_path, capsys, source, cause):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "mdp": source})
        tracemalloc.start()
        try:
            assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == f"sstac: error: config: cannot load MDP {source!r}: {cause}\n"
        # numpy reports its array buffers to tracemalloc: no S x A x S table was drawn.
        assert peak < 10 * 2**20, peak
        assert not (tmp_path / "r").exists()

    @pytest.mark.skipif(ALWAYS_OVERCOMMITS, reason="the kernel would grant the terabytes and the run would fill them")
    def test_refused_allocation_exits_2(self, tmp_path, capsys):
        # 10**12 draws ask for 7.28 TiB at once; the allocator refuses before touching memory.
        cfg = {"mdp": "chain2", "algorithm": "linear_sampled", "K": 1, "N": 1000000000000, "seeds": [0]}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sstac: error: config: cannot allocate the run's arrays (Unable to allocate")
        assert err.endswith("; use smaller sizes (N, N_a, N_c, arch)\n")
        assert not (tmp_path / "r").exists()

    def test_determinism_across_invocations(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {"mdp": "chain2", "algorithm": "linear_sampled", "K": 4, "N": 128, "seeds": [2]},
        )
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "linear_sampled-chain2-K4-seed2" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "linear_sampled-chain2-K4-seed2" / "trace.csv").read_bytes()
        assert a == b


class TestCliSweep:
    def test_sweep_layout_and_summary(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**BASE_CFG, "seeds": [0, 1]})
        summary_path, rows = sweep_command(cfg, "K", [2, 4, 8], out_dir=str(tmp_path / "sw"))
        assert len(rows) == 6
        dirs = [p for p in (tmp_path / "sw").iterdir() if p.is_dir()]
        assert len(dirs) == 6
        header = summary_path.read_text().splitlines()[0]
        assert header == "param_value,seed,final_gap,cum_regret,regret_over_sqrtK"

    def test_non_k_sweep_saves_every_run(self, tmp_path):
        # The run id names K but not N, so each N value's runs get their own suffix.
        cfg = ExperimentConfig.from_dict(
            {"mdp": "random(6,3,1)", "algorithm": "linear_sampled", "K": 4, "seeds": [0, 1], "N": 256, "ridge": 1e-3}
        )
        _, rows = sweep_command(cfg, "N", [512, 128], out_dir=str(tmp_path / "sw"))
        names = {f"linear_sampled-random-6-3-1-K4-seed{row['seed']}-N{row['param_value']}": row for row in rows}
        assert len(names) == 4
        assert {p.name for p in (tmp_path / "sw").iterdir() if p.is_dir()} == set(names)
        for name, row in names.items():
            trace = load_trace(tmp_path / "sw" / name)
            assert trace.manifest["run_id"] == name
            assert row["final_gap"] == trace.column("gap")[-1]

    def test_regret_over_sqrtk_column_arithmetic(self, tmp_path):
        cfg = ExperimentConfig.from_dict(BASE_CFG)
        _, rows = sweep_command(cfg, "K", [4, 16], out_dir=str(tmp_path / "sw"))
        for row in rows:
            trace = load_trace(tmp_path / "sw" / f"linear_exact-chain2-K{row['param_value']}-seed{row['seed']}")
            cum = trace.rows[-1][trace.columns.index("cum_regret")]
            assert abs(row["regret_over_sqrtK"] - cum / np.sqrt(row["param_value"])) < 1e-12

    def test_sweep_reproduces_summary_bytes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(BASE_CFG)
        path1, _ = sweep_command(cfg, "K", [2, 4], out_dir=str(tmp_path / "s1"))
        path2, _ = sweep_command(cfg, "K", [2, 4], out_dir=str(tmp_path / "s2"))
        assert path1.read_bytes() == path2.read_bytes()

    def test_rejects_unknown_parameter(self, tmp_path):
        cfg = ExperimentConfig.from_dict(BASE_CFG)
        with pytest.raises(ConfigError, match="sweep parameter"):
            sweep_command(cfg, "gamma", [1], out_dir=str(tmp_path))

    def test_cli_sweep_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BASE_CFG)
        argv = ["sweep", "--config", cfg_path, "--param", "K", "--values", "2,4", "--out", str(tmp_path / "sw")]
        assert main(argv) == 0
        assert (tmp_path / "sw" / "summary.csv").is_file()

    @pytest.mark.parametrize(
        "values, message",
        [
            ("2,4,2", "sweep values must be distinct; K=2 is listed more than once"),
            ("4,x", "--values must be comma-separated integers"),
            (",", "--values must list at least one value"),
        ],
        ids=["repeated", "non-integer", "empty"],
    )
    def test_bad_values_exit_2_before_any_run(self, tmp_path, capsys, values, message):
        cfg_path = write_config(tmp_path, BASE_CFG)
        argv = ["sweep", "--config", cfg_path, "--param", "K", "--values", values, "--out", str(tmp_path / "sw")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: {message}")
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("algorithm, param", [("linear_exact", "N"), ("neural", "N"), ("linear_sampled", "N_a")])
    def test_sweep_over_a_key_the_algorithm_does_not_read_exits_2(self, tmp_path, capsys, algorithm, param):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "algorithm": algorithm, **MODE_EXTRAS.get(algorithm, {})})
        argv = ["sweep", "--config", cfg_path, "--param", param, "--values", "2,4", "--out", str(tmp_path / "sw")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: algorithm {algorithm!r} does not read config keys [{param!r}]")


class TestCliDiag:
    def _fresh_trace_dir(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**BASE_CFG, "K": 8})
        return run_command(cfg, out_dir=str(tmp_path / "runs"))[0]

    def test_fresh_trace_passes_all_checks(self, tmp_path, capsys):
        trace_dir = self._fresh_trace_dir(tmp_path)
        assert main(["diag", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def _trace_dir_with_cell(self, tmp_path, column, text):
        """A fresh trace whose k=3 row (line 5 of trace.csv) holds ``text`` in ``column``."""
        trace_dir = self._fresh_trace_dir(tmp_path)
        lines = (trace_dir / "trace.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[GOLDEN_COLUMNS.index(column)] = text
        lines[4] = ",".join(cells)
        (trace_dir / "trace.csv").write_text("\n".join(lines) + "\n")
        return trace_dir

    @pytest.mark.parametrize(
        "column, value, failure",
        [
            ("K", 9, "row-count: expected 10 rows, found 9"),
            ("cum_regret", "100.0", "regret-consistency: cum_regret mismatch at row k=3"),
            ("a_resid", "0.001", "decomposition-identity: A1+A2+A3 residual 1.000e-03 at row k=3"),
            ("theta_kl", "100.0", "kl-telescoping: telescoped KL mismatch at row k=3"),
            ("eps_c_sup", "0.001", "exact-critic-eps-c: eps_c sup norm 1.000e-03 at row k=3 outside [0, 1e-9]"),
            # Both columns are sup norms, so a negative value is as impossible as a large one.
            ("a_resid", "-1.0", "decomposition-identity: A1+A2+A3 residual -1.000e+00 at row k=3"),
            ("a_resid", "-inf", "decomposition-identity: A1+A2+A3 residual -inf at row k=3"),
            ("eps_c_sup", "-1.0", "exact-critic-eps-c: eps_c sup norm -1.000e+00 at row k=3 outside [0, 1e-9]"),
            ("eps_c_sup", "-inf", "exact-critic-eps-c: eps_c sup norm -inf at row k=3 outside [0, 1e-9]"),
        ],
        ids=[
            *DIAG_CHECK_NAMES,
            "decomposition-identity-negative",
            "decomposition-identity-neg-inf",
            "exact-critic-eps-c-negative",
            "exact-critic-eps-c-neg-inf",
        ],
    )
    def test_corrupted_trace_fails_one_check(self, tmp_path, capsys, column, value, failure):
        # K edits the manifest's params; every other case edits the k=3 cell of that trace column.
        if column == "K":
            trace_dir = self._fresh_trace_dir(tmp_path)
            manifest = trace_dir / "manifest.json"
            doc = json.loads(manifest.read_text())
            manifest.write_text(json.dumps({**doc, "params": {**doc["params"], "K": value}}))
        else:
            trace_dir = self._trace_dir_with_cell(tmp_path, column, value)
        assert main(["diag", "--trace", str(trace_dir)]) == 1
        failed = failure.split(":")[0]
        expected = [f"FAIL {failure}" if name == failed else f"PASS {name}" for name in DIAG_CHECK_NAMES]
        assert capsys.readouterr().out.splitlines() == [*expected, str(trace_dir / "diag_series.csv")]

    @pytest.mark.parametrize(
        "text, cause",
        [
            # Every diag comparison with NaN is False, so a NaN cell would pass all checks.
            ("nan", "column 'cum_regret' is nan"),
            ("x", "could not convert string to float: 'x'"),
            ("1.0,2.0", f"expected {len(GOLDEN_COLUMNS)} cells, got {len(GOLDEN_COLUMNS) + 1}"),
        ],
        ids=["nan", "non-numeric", "ragged"],
    )
    def test_bad_cell_exits_2_naming_line(self, tmp_path, capsys, text, cause):
        trace_dir = self._trace_dir_with_cell(tmp_path, "cum_regret", text)
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sstac: error: config:")
        assert f"trace.csv:5: {cause}" in err

    def test_infinite_phi_star_is_accepted(self, tmp_path, capsys):
        # phi_star is infinite when rho_{k+1} lacks support; that is a value, not corruption.
        trace_dir = self._trace_dir_with_cell(tmp_path, "phi_star", "inf")
        assert main(["diag", "--trace", str(trace_dir)]) == 0

    @pytest.mark.parametrize("case, cause", [("truncated", "malformed JSON"), ("list", "must be a JSON object")])
    def test_bad_manifest_exits_2_naming_file(self, tmp_path, capsys, case, cause):
        trace_dir = self._fresh_trace_dir(tmp_path)
        manifest = trace_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:20] if case == "truncated" else "[1, 2]")
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: {manifest}: {cause}")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {key: value for key, value in doc.items() if key != "params"},
            lambda doc: {**doc, "params": [doc["params"]]},
            lambda doc: {**doc, "params": {**doc["params"], "K": "8"}},
            lambda doc: {**doc, "params": {**doc["params"], "K": 8.0}},
            lambda doc: {**doc, "params": {key: v for key, v in doc["params"].items() if key != "algorithm"}},
        ],
        ids=["params-missing", "params-list", "K-string", "K-float", "algorithm-missing"],
    )
    def test_bad_manifest_params_exits_2_naming_file_and_key(self, tmp_path, capsys, edit):
        trace_dir = self._fresh_trace_dir(tmp_path)
        manifest = trace_dir / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        cause = "'params' must be an object with an integer 'K' and a string 'algorithm'"
        assert capsys.readouterr().err == f"sstac: error: config: {manifest}: {cause}\n"

    def test_python_api_trace_gets_every_check(self, tmp_path, capsys):
        # A trace saved without the CLI has no config section; diag reads K and the algorithm from params.
        trace = run_linear_ac(chain2(), tabular_features(2, 2), 8, mode="exact")
        trace.rows = trace.rows[:4]
        trace.rows[3][trace.columns.index("eps_c_sup")] = 1.0
        trace_dir = trace.save(tmp_path / "api-run")
        assert main(["diag", "--trace", str(trace_dir)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:5] == [
            "FAIL row-count: expected 9 rows, found 4",
            "PASS regret-consistency",
            "PASS decomposition-identity",
            "PASS kl-telescoping",
            "FAIL exact-critic-eps-c: eps_c sup norm 1.000e+00 at row k=3 outside [0, 1e-9]",
        ]

    def test_trace_without_a_read_column_exits_2_naming_it(self, tmp_path, capsys):
        trace_dir = self._fresh_trace_dir(tmp_path)
        csv_path = trace_dir / "trace.csv"
        drop = GOLDEN_COLUMNS.index("a_resid")
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        csv_path.write_text("".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows))
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        assert capsys.readouterr().err == f"sstac: error: config: {csv_path}: missing column 'a_resid'\n"

    def test_header_only_trace_exits_2(self, tmp_path, capsys):
        trace_dir = self._fresh_trace_dir(tmp_path)
        csv_path = trace_dir / "trace.csv"
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        assert capsys.readouterr().err == f"sstac: error: config: {csv_path}: no rows after the header\n"

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["diag", "--trace", str(tmp_path / "nope")]) == 2

    def test_series_csv_has_exactly_four_series(self, tmp_path):
        trace_dir = self._fresh_trace_dir(tmp_path)
        assert main(["diag", "--trace", str(trace_dir)]) == 0
        text = (trace_dir / "diag_series.csv").read_text().splitlines()
        assert text[0] == "series,iter,value"
        names = {line.split(",")[0] for line in text[1:]}
        assert names == set(DIAG_SERIES)
        assert len(names) == 4


class TestNeuralThroughHarness:
    def test_neural_config_runs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"mdp": "chain2", "algorithm": "neural", "K": 1, "N_a": 8, "N_c": 8,
             "arch": {"m": 8, "H": 2}, "seeds": [0]}
        )
        trace = execute_run(cfg, 0)
        assert len(trace.rows) == 2
        checks = diag_checks(trace)
        assert all(c.ok for c in checks)


# The column each diag_checks invariant reads, mapped to that invariant's name.
CHECK_OF_COLUMN = {
    "gap": "regret-consistency",
    "cum_regret": "regret-consistency",
    "a_resid": "decomposition-identity",
    "theta_kl": "kl-telescoping",
    "kl_to_opt": "kl-telescoping",
    "eps_c_sup": "exact-critic-eps-c",
}


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("column", list(CHECK_OF_COLUMN))
def test_nan_fails_the_check_that_reads_it(column, row):
    # load_trace rejects a NaN cell, but an in-memory trace reaches diag_checks as it is.
    trace = execute_run(ExperimentConfig.from_dict(BASE_CFG), 0)
    trace.rows[row][trace.columns.index(column)] = float("nan")
    assert [c.name for c in diag_checks(trace) if not c.ok] == [CHECK_OF_COLUMN[column]]


MODE_EXTRAS = {"linear_sampled": {"N": 256}, "neural": {"arch": {"m": 8, "H": 2}, "N_a": 8, "N_c": 8}}


@pytest.mark.parametrize("mdp", ["chain2", "gridworld5", "random(16,4,0)"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_mode_runs_or_fails_early_on_every_builtin(algorithm, mdp):
    cfg = ExperimentConfig.from_dict({"mdp": mdp, "algorithm": algorithm, "K": 2, **MODE_EXTRAS.get(algorithm, {})})
    try:
        trace = execute_run(cfg, 0)
    except SstacError as exc:
        assert str(exc).startswith("at k="), str(exc)
        return
    assert len(trace.rows) == 3
    failed = [c for c in diag_checks(trace) if not c.ok]
    assert not failed, failed
