import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstac import (
    ConfigError,
    SstacError,
    chain2,
    load_trace,
    random_features,
    random_mdp,
    run_linear_ac,
    run_neural_ac,
    tabular_features,
)
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

from conftest import mdp_doc

GOLDEN = Path(__file__).parent / "data" / "golden_chain2" / "trace.csv"
GOLDEN_COLUMNS = GOLDEN.read_text().splitlines()[0].split(",")

BASE_CFG = {"mdp": "chain2", "algorithm": "linear_exact", "K": 4, "seeds": [0]}
LOOP_MANIFEST_KEYS = ("rng_id", "version", "params")
DIAG_CHECK_NAMES = [
    "row-count", "regret-consistency", "decomposition-identity", "kl-telescoping", "exact-critic-eps-c", "regret-bound",
]


BAD_MDP_CAUSE = {
    "missing": "No such file or directory",
    "undecodable": "codec can't decode",
    "truncated": "Expecting",
    "wrong_type": "n_states must be an integer, got 'x'",
    "nan_reward": "reward entry (1, 0) is nan",
    "float_size": "n_states must be an integer, got 2.7",
    "string_size": "n_states must be an integer, got '2'",
    "bool_size": "n_actions must be an integer, got True",
    "string_gamma": "gamma must be a number, got '0.5'",
    "string_r_max": "r_max must be a number, got '1'",
    "bool_r_max": "r_max must be a number, got True",
    "string_entry": "transition entry (0, 1, 0) must be a number, got '1'",
    "huge_entry": "int too large to convert to float",
}

# Edits of a valid MDP document that each make one value the wrong JSON type.
BAD_MDP_EDIT = {
    "wrong_type": ("n_states", "x"),
    "float_size": ("n_states", 2.7),
    "string_size": ("n_states", "2"),
    "bool_size": ("n_actions", True),
    "string_gamma": ("gamma", "0.5"),
    "string_r_max": ("r_max", "1"),
    "bool_r_max": ("r_max", True),
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

    @pytest.mark.parametrize("seeds", [10**5000, {"seed": 10**5000}], ids=["int-beyond-repr", "dict"])
    def test_seeds_that_are_not_a_list_name_their_type(self, seeds):
        # Python will not repr an int of more than 4,300 digits, so the message names the type.
        message = f"^seeds must be a non-empty list of integers >= 0, got type {type(seeds).__name__}$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({**BASE_CFG, "seeds": seeds})

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

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ([-1], "seed must be an integer >= 0, got -1"),
            ([True], "seed must be an integer >= 0, got True"),
            ([0, 1.5], "seed must be an integer >= 0, got 1.5"),
            ([2**53 + 1], f"seed must be <= 2**53, got {2**53 + 1}"),
            ([], "seeds must be a non-empty list of integers >= 0, got []"),
            (0, "seeds must be a non-empty list of integers >= 0, got type int"),
        ],
        ids=["negative", "bool", "float", "beyond-2**53", "empty", "not-a-list"],
    )
    def test_bad_seeds_exit_2(self, tmp_path, capsys, seeds, message):
        cfg = {**BASE_CFG, "algorithm": "linear_sampled", "N": 64, "seeds": seeds}
        assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"sstac: error: config: {message}\n"
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
            ("R", 10**400, "R must be finite, got inf"),
            ("K", 10**400, "K must be <= 2**53, got a 1329-bit integer"),
        ],
        ids=[
            "R->=", "beta->", "ridge->=", "R-inf", "beta-inf", "ridge-inf", "R--inf", "R-huge-integer", "K-huge-integer",
        ],
    )
    def test_nan_number_exits_2(self, tmp_path, capsys, key, value, message):
        # JSON's NaN and Infinity tokens parse; every comparison with NaN is False, so a NaN
        # ridge was silently ignored, and an infinite ridge zeroed every critic solve.
        # An integer beyond the float range reads as infinite, and an integer setting stops at 2**53.
        value = float(value) if isinstance(value, str) else value
        cfg_path = write_config(tmp_path, {**BASE_CFG, "algorithm": "linear_sampled", "N": 64, key: value})
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"sstac: error: config: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**BASE_CFG, "algorithm": "linear_sampled", "N": 64})
        assert main(["run", "--config", cfg_path, "--seed", "-1", "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "sstac: error: config: seed must be an integer >= 0, got -1\n"

    def test_malformed_json_exits_2_naming_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mdp": ')
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "byte 8" in err and err.startswith("sstac: error: config:")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(["run", "--config", absent, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"sstac: error: config: cannot read {absent!r}: No such file or directory\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_undecodable_config_exits_2_naming_file(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b"\xff" + json.dumps(BASE_CFG).encode())
        argv = [verb, "--config", str(cfg_path), "--out", str(tmp_path / "r")]
        argv += ["--param", "K", "--values", "2"] if verb == "sweep" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: cannot read {str(cfg_path)!r}: 'utf-8' codec can't decode ")
        assert "\n" not in err.strip()
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_out_below_a_file_exits_2_naming_directory(self, tmp_path, capsys, verb):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "r"
        argv = [verb, "--config", write_config(tmp_path, BASE_CFG), "--out", str(out)]
        argv += ["--param", "K", "--values", "2"] if verb == "sweep" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        # A sweep writes its summary's header before its first run; a run's first write is its trace.
        written = out / "summary.csv" if verb == "sweep" else out / "linear_exact-chain2-K4-seed0" / "trace.csv"
        assert err == f"sstac: error: config: cannot write {str(written)!r}: Not a directory\n"

    @pytest.mark.parametrize("verb", ["sweep", "diag"])
    def test_output_file_blocked_by_a_directory_exits_2_naming_it(self, tmp_path, capsys, verb):
        # The verb's summary.csv or diag_series.csv meets a directory of that name.
        if verb == "sweep":
            blocked = tmp_path / "sw" / "summary.csv"
            argv = ["sweep", "--config", write_config(tmp_path, BASE_CFG), "--param", "K", "--values", "2"]
            argv += ["--out", str(tmp_path / "sw")]
        else:
            trace_dir = run_command(ExperimentConfig.from_dict(BASE_CFG), out_dir=str(tmp_path / "runs"))[0]
            blocked = trace_dir / "diag_series.csv"
            argv = ["diag", "--trace", str(trace_dir)]
        blocked.mkdir(parents=True)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"sstac: error: config: cannot write {str(blocked)!r}: Is a directory\n"
        if verb == "sweep":  # the header is written before the first run, so no run directory is made
            assert [path.name for path in blocked.parent.iterdir()] == ["summary.csv"]

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
    @pytest.mark.parametrize("case", list(BAD_MDP_CAUSE))
    def test_bad_mdp_file_exits_2_naming_path(self, tmp_path, capsys, verb, case):
        doc = mdp_doc(chain2())
        if case in BAD_MDP_EDIT:
            key, value = BAD_MDP_EDIT[case]
            doc[key] = value
        elif case == "nan_reward":
            doc["reward"][1][0] = float("nan")  # written as the bare token NaN, which json.load accepts
        elif case == "string_entry":
            doc["transition"][0][1][0] = "1"  # chain2's action 1 moves state 0 to state 0
        elif case == "huge_entry":
            doc["reward"][0][0] = 10**400  # a JSON integer past the float range
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
        if verb == "sweep":  # the summary's header is written before the first run, which stops at the MDP
            assert [path.name for path in (tmp_path / "r").iterdir()] == ["summary.csv"]
            header = (tmp_path / "r" / "summary.csv").read_text()
            assert header == "param_value,seed,final_gap,cum_regret,regret_over_sqrtK\n"
        else:
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

    def test_sweep_that_stops_keeps_the_summary_of_finished_runs(self, tmp_path, capsys):
        # At N=128 the sampled critic's Gram turns singular at k=4; the N=512 runs finish first.
        cfg = {"mdp": "random(6,3,1)", "algorithm": "linear_sampled", "K": 8, "N": 256, "seeds": [0, 1]}
        argv = ["sweep", "--config", write_config(tmp_path, cfg), "--param", "N", "--out"]
        assert main([*argv, str(tmp_path / "stops"), "--values", "512,128"]) == 3
        assert capsys.readouterr().err.startswith("sstac: error: conditioning: at k=4: ")
        assert main([*argv, str(tmp_path / "first"), "--values", "512"]) == 0
        summary = (tmp_path / "stops" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "first" / "summary.csv").read_bytes()
        assert len(summary.splitlines()) == 3

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
            (",", "a sweep needs at least one value"),
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
        assert out.count("PASS") == 6
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
            # e_sup is a sup norm too; at -10 the bound's critic term turns it negative.
            ("e_sup", "-10.0", "regret-bound: gap 0.392117 exceeds the bound -1799.6 at row k=3"),
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

    @pytest.mark.parametrize(
        "edit, failure",
        [
            ({1: "2", 2: "1"}, "row 1 has k=2, expected k=1"),  # k reads 0 2 1 3 ...
            ({3: "inf"}, "row 3 has k=inf, expected k=3"),
        ],
        ids=["permuted", "inf"],
    )
    def test_k_out_of_place_fails_row_count(self, tmp_path, capsys, edit, failure):
        trace_dir = self._fresh_trace_dir(tmp_path)
        csv_path = trace_dir / "trace.csv"
        lines = csv_path.read_text().splitlines()
        for row, text in edit.items():
            lines[row + 1] = ",".join([text, *lines[row + 1].split(",")[1:]])
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(["diag", "--trace", str(trace_dir)]) == 1
        expected = [f"FAIL row-count: {failure}", *(f"PASS {name}" for name in DIAG_CHECK_NAMES[1:])]
        out, err = capsys.readouterr()
        assert out.splitlines() == [*expected, str(trace_dir / "diag_series.csv")]
        assert err == ""
        # The series are indexed by row position, whatever the k column reads.
        gap_rows = [line for line in (trace_dir / "diag_series.csv").read_text().splitlines() if line.startswith("gap,")]
        assert [line.split(",")[1] for line in gap_rows] == [str(i) for i in range(9)]

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

    def test_gap_past_the_regret_bound_fails_it(self, tmp_path, capsys):
        # gap_3 rises by 10 and every later cum_regret with it, so only the bound can see the change.
        trace_dir = self._fresh_trace_dir(tmp_path)
        csv_path = trace_dir / "trace.csv"
        lines = csv_path.read_text().splitlines()
        for row in range(3, len(lines) - 1):
            cells = lines[row + 1].split(",")
            for column in ("gap", "cum_regret") if row == 3 else ("cum_regret",):
                cells[GOLDEN_COLUMNS.index(column)] = repr(float(cells[GOLDEN_COLUMNS.index(column)]) + 10.0)
            lines[row + 1] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(["diag", "--trace", str(trace_dir)]) == 1
        *passed, failed, series = capsys.readouterr().out.splitlines()
        assert passed == [f"PASS {name}" for name in DIAG_CHECK_NAMES[:-1]]
        assert failed == "FAIL regret-bound: gap 10.3921 exceeds the bound 7.17663 at row k=3"
        assert series == str(trace_dir / "diag_series.csv")

    def test_trace_without_gamma_skips_the_regret_bound(self, tmp_path, capsys):
        # A manifest written before the loop recorded gamma gets every other check.
        trace_dir = self._fresh_trace_dir(tmp_path)
        manifest = trace_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["params"]["gamma"]
        manifest.write_text(json.dumps(doc))
        assert main(["diag", "--trace", str(trace_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [f"PASS {name}" for name in DIAG_CHECK_NAMES[:-1]]

    @pytest.mark.parametrize(
        "edit, shown",
        [
            ({"gamma": "0.9"}, "'0.9', 2.8284271247461903"),
            ({"gamma": 1.0}, "1.0, 2.8284271247461903"),
            ({"gamma": None}, "None, 2.8284271247461903"),
            ({"gamma": True}, "True, 2.8284271247461903"),
            ({"beta": 0.0}, "0.9, 0.0"),
            ({"beta": "8"}, "0.9, '8'"),
            ({"beta": None}, "0.9, None"),
        ],
        ids=["gamma-string", "gamma-one", "gamma-null", "gamma-bool", "beta-zero", "beta-string", "beta-null"],
    )
    def test_bad_gamma_or_beta_exits_2_naming_file(self, tmp_path, capsys, edit, shown):
        trace_dir = self._fresh_trace_dir(tmp_path)
        manifest = trace_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "params": {**doc["params"], **edit}}))
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        cause = f"'params' needs 'gamma' in [0, 1) and 'beta' > 0, got {shown}"
        assert capsys.readouterr().err == f"sstac: error: config: {manifest}: {cause}\n"

    @pytest.mark.parametrize(
        "R, shown", [("1", "'1'"), (-1.0, "-1.0"), (None, "None"), (True, "True"), (float("nan"), "nan")],
        ids=["string", "negative", "null", "bool", "nan"],
    )
    def test_bad_radius_exits_2_naming_file(self, tmp_path, capsys, R, shown):
        trace_dir = self._fresh_trace_dir(tmp_path)
        manifest = trace_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "params": {**doc["params"], "R": R}}))
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        cause = f"'params' needs a number 'R' >= 0, got {shown}"
        assert capsys.readouterr().err == f"sstac: error: config: {manifest}: {cause}\n"

    def test_critic_clipped_by_the_ball_passes_the_exact_critic_check(self, tmp_path, capsys):
        # At R = 1e-3 the ball clips every critic step on gridworld5, so eps_c is about 0.0995 on every row.
        config = tmp_path / "clipped.json"
        config.write_text(json.dumps({"mdp": "gridworld5", "algorithm": "linear_exact", "K": 4, "R": 1e-3}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
        trace_dir = tmp_path / "runs" / "linear_exact-gridworld5-K4-seed0"
        capsys.readouterr()
        assert main(["diag", "--trace", str(trace_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [f"PASS {name}" for name in DIAG_CHECK_NAMES]
        # The same row read as unclipped (its norm below R) is checked, and its eps_c fails.
        csv_path = trace_dir / "trace.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[4].split(",")
        assert float(cells[GOLDEN_COLUMNS.index("eps_c_sup")]) > 0.09
        cells[GOLDEN_COLUMNS.index("critic_norm")] = "0.0005"
        lines[4] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        assert main(["diag", "--trace", str(trace_dir)]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL exact-critic-eps-c: eps_c sup norm 9.950e-02 at row k=3 outside [0, 1e-9]"]

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

    def test_undecodable_trace_exits_2_naming_it(self, tmp_path, capsys):
        trace_dir = self._fresh_trace_dir(tmp_path)
        csv_path = trace_dir / "trace.csv"
        csv_path.write_bytes(b"\xff" + csv_path.read_bytes())
        assert main(["diag", "--trace", str(trace_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sstac: error: config: cannot read {str(csv_path)!r}: 'utf-8' codec can't decode byte 0xff")
        assert "\n" not in err.strip()

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


# Each column diag_checks reads, mapped to the names of the invariants that read it.
CHECKS_OF_COLUMN = {
    "k": ["row-count"],
    "gap": ["regret-consistency", "regret-bound"],
    "cum_regret": ["regret-consistency"],
    "a_resid": ["decomposition-identity"],
    "theta_kl": ["kl-telescoping", "regret-bound"],
    "kl_to_opt": ["kl-telescoping"],
    "eps_c_sup": ["exact-critic-eps-c"],
    "e_sup": ["regret-bound"],
    "eps_a": ["regret-bound"],
    "critic_norm": ["exact-critic-eps-c"],
}


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("column", list(CHECKS_OF_COLUMN))
def test_nan_fails_the_check_that_reads_it(column, row):
    # load_trace rejects a NaN cell, but an in-memory trace reaches diag_checks as it is.
    trace = execute_run(ExperimentConfig.from_dict(BASE_CFG), 0)
    trace.rows[row][trace.columns.index(column)] = float("nan")
    assert [c.name for c in diag_checks(trace) if not c.ok] == CHECKS_OF_COLUMN[column]


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


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["exact", "sampled", "neural"]),
    st.integers(1, 6),
    st.one_of(st.none(), st.floats(0.1, 10.0)),
    st.sampled_from([None, 0.0, 1e-3]),
    st.data(),
)
def test_regret_bound_holds_on_random_mdps(n_states, n_actions, mdp_seed, mode, K, beta, R, data):
    # The bound holds for any critic and any actor fit, so it holds on every row of every run: tabular or
    # random features of any dimension, a ball that clips the critic or zeroes it, any beta.
    mdp = random_mdp(n_states, n_actions, seed=mdp_seed)
    run_args = {"seed": data.draw(st.integers(0, 99), label="seed"), "beta": beta, "R": R}
    if mode == "neural":
        trace = run_neural_ac(mdp, 8, data.draw(st.integers(1, 2), label="H"), K, N_a=8, N_c=8, **run_args)
    else:
        dim = data.draw(st.one_of(st.none(), st.integers(1, n_states * n_actions)), label="random feature dim")
        features = random_features(n_states, n_actions, dim, seed=1) if dim else tabular_features(n_states, n_actions)
        trace = run_linear_ac(mdp, features, K, mode=mode, N=256, ridge=1e-3, **run_args)
    assert trace.manifest["params"]["gamma"] == mdp.gamma
    (check,) = [c for c in diag_checks(trace) if c.name == "regret-bound"]
    assert check.ok, check.detail


class TestModuleEntryPoint:
    @staticmethod
    def python_m_sstac(*args):
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "sstac", *args], env=env, capture_output=True, text=True, timeout=60)

    def test_help_exits_0(self):
        result = self.python_m_sstac("--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: sstac ")

    def test_a_missing_config_exits_2_with_one_error_line(self, tmp_path):
        result = self.python_m_sstac("run", "--config", str(tmp_path / "missing.json"))
        assert result.returncode == 2
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line == f"sstac: error: config: cannot read {str(tmp_path / 'missing.json')!r}: No such file or directory"
