"""CLI: config validation, pipeline orchestration, provenance discipline."""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import dial.features
from dial.cli import (
    _DEFAULT_CONFIG,
    _SECTION_KEYS,
    ConfigError,
    build_parser,
    cmd_eval,
    cmd_explore,
    cmd_fit,
    cmd_stats,
    cmd_sweep,
    cmd_verify,
    fit_dataset,
    load_config,
    main,
    write_report_csv,
    write_report_json,
)
from dial.explore import dataset_summary, load_dataset_jsonl, run_exploration
from dial.features import HttpProposalClient, MockProposalClient, build_pool, summary_digest
from dial.gate import load_model_json, model_from_dict, reverse_direction
from dial.rng import derive_seed
from dial.twosource import TwoSourceEnv, TwoSourceParams
from direction_experiments import explore_and_fit

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


def write_config(path, **overrides):
    config = {
        "environment": {"p_i0": 0.5, "noise_sd": 0.1, "fidelity_q": 1.0, "horizon": 8},
        "exploration": {"eps": 0.5, "n_episodes": 25},
        "eval": {"n_episodes": 60},
        "seed": 5,
        "output_dir": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return str(path)


# -- config validation -------------------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"environments": {}}))
    with pytest.raises(ConfigError, match="environments"):
        load_config(str(path))


def test_unknown_section_key_named_with_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"environment": {"alhpa": 2.0}}))
    with pytest.raises(ConfigError, match="environment.alhpa"):
        load_config(str(path))


@pytest.mark.parametrize(
    "section, key, value", [("environment", "type", "twosource"), ("eval", "trigger_cost_units", 2.0)]
)
def test_removed_settings_are_unknown_keys(tmp_path, section, key, value):
    # Each setting has one key: the environment section is the two-source
    # parameters, and deployment cost is environment.trigger_cost_units.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=f"^{section}.{key}: unknown key$"):
        load_config(str(path))


def test_env_params_validated_before_work(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"environment": {"alpha": -1.0}}))
    with pytest.raises(ConfigError, match="environment"):
        load_config(str(path))


def test_non_integer_horizon_refused_by_name(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"environment": {"horizon": 4.5}}))
    with pytest.raises(ConfigError, match="^environment.horizon: must be a positive integer, got 4.5$"):
        load_config(str(path))


@pytest.mark.parametrize("key", ["n_rollouts", "horizon_h"])
def test_rollout_sizes_validated_before_work(tmp_path, capsys, key):
    config_path = write_config(tmp_path / "config.json", exploration={key: 0})
    assert main(["explore", "--config", config_path]) == 2
    assert capsys.readouterr().err.startswith(f"dial: error: exploration.{key}: ")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gate", "c_grid", []),
        ("gate", "c_grid", [0.1, 0.0, 1.0]),
        ("gate", "c_grid", [-1.0]),
        ("gate", "folds", 1),
        ("gate", "mi_k", 0),
        ("gate", "mi_bins", 1),
        ("environment", "trigger_cost_units", 0),
        ("environment", "trigger_cost_units", -2.0),
        ("gate", "tau", "cv"),
    ],
)
def test_fit_and_eval_settings_validated_before_work(tmp_path, capsys, section, key, value):
    # Each value would fail fit or eval; refused at load, it stops the
    # run before explore writes anything.
    config_path = write_config(tmp_path / "config.json", **{section: {key: value}})
    assert main(["explore", "--config", config_path]) == 2
    assert capsys.readouterr().err.startswith(f"dial: error: {section}.{key}: ")
    assert not os.path.exists(tmp_path / "out")


def _float_valued(section, key):
    # A key of the config's key table whose value is a float, or a list of
    # floats: a float TwoSourceParams field, or a key with such a default.
    if section == "environment":
        return {f.name: f.type for f in fields(TwoSourceParams)}[key] == "float"
    default = _DEFAULT_CONFIG[section][key]
    return all(isinstance(v, float) for v in default) if isinstance(default, list) else isinstance(default, float)


# Every float-valued key written as each non-finite literal Python's JSON
# reader accepts (NaN, Infinity, -Infinity).
_NON_FINITE = [
    ({section: {key: [value] if isinstance(_DEFAULT_CONFIG.get(section, {}).get(key), list) else value}},
     f"{section}.{key}", f"{section}.{key}={literal}")
    for section in sorted(_SECTION_KEYS)
    for key in sorted(_SECTION_KEYS[section])
    if _float_valued(section, key)
    for literal, value in (("NaN", float("nan")), ("Infinity", float("inf")), ("-Infinity", float("-inf")))
]


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"exploration": {"k_candidates": 2.7}}, "exploration.k_candidates"),
        ({"exploration": {"n_episodes": "many"}}, "exploration.n_episodes"),
        ({"exploration": {"eps": "half"}}, "exploration.eps"),
        ({"gate": {"tau": "auto"}}, "gate.tau"),
        ({"gate": {"c_grid": [0.1, "x"]}}, "gate.c_grid"),
        ({"gate": {"c_grid": [0.1, float("inf")]}}, "gate.c_grid"),
        ({"gate": {"c_grid": [0.1, 10**400]}}, "gate.c_grid"),
        ({"gate": {"folds": None}}, "gate.folds"),
        ({"eval": {"n_episodes": True}}, "eval.n_episodes"),
        ({"seed": "abc"}, "seed"),
        ({"environment": {"base_reward": "1"}}, "environment.base_reward"),
        ({"environment": {"p_i_slope": "0.1"}}, "environment.p_i_slope"),
        ({"environment": {"noise_sd": float("nan")}}, "environment.noise_sd"),
        ({"environment": {"alpha": "x"}}, "environment.alpha"),
        ({"environment": {"fidelity_q": True}}, "environment.fidelity_q"),
        ({"gate": {"c_grid": [0.1, 0.1, 1.0]}}, "gate.c_grid"),
        ({"gate": {"c_grid": [1, 10.0, 1.0]}}, "gate.c_grid"),
        ({"output_dir": None}, "output_dir"),
        ({"output_dir": ""}, "output_dir"),
        ({"output_dir": 7}, "output_dir"),
    ] + [(overrides, key) for overrides, key, _ in _NON_FINITE],
    ids=["k-fraction", "n-text", "eps-text", "tau-text", "c-grid-text", "c-grid-inf", "c-grid-huge",
         "folds-null", "n-bool", "seed-text", "env-reward-text", "env-slope-text", "env-noise-nan",
         "env-alpha-text", "env-bool", "c-grid-duplicate", "c-grid-duplicate-int", "output-dir-null",
         "output-dir-empty", "output-dir-number"] + [case_id for _, _, case_id in _NON_FINITE],
)
def test_ill_typed_settings_are_refused_by_name(tmp_path, overrides, key):
    # Neither truncated to an integer nor left to fail as a bare error; a
    # non-finite float never stands for a default.
    config_path = write_config(tmp_path / "config.json", **overrides)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(config_path)



@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"gate": {"c_grid": [0.1, 0.1, 1.0]}}, "gate.c_grid: duplicate value 0.1"),
        ({"output_dir": None}, "output_dir: must be a non-empty string, got None"),
        ({"gate": {"tau": "cv"}}, "gate.tau: must be a probability in (0, 1), got 'cv'"),
    ],
    ids=["c-grid", "output-dir", "tau-cv"],
)
def test_refusal_messages_name_the_value(tmp_path, overrides, message):
    # A null output_dir once wrote every artifact into ./None; a repeated
    # C was cross-validated twice.
    config_path = write_config(tmp_path / "config.json", **overrides)
    with pytest.raises(ConfigError) as excinfo:
        load_config(config_path)
    assert str(excinfo.value) == message


def _threshold(**keys):
    return {"kind": "fixed_threshold", **keys}


@pytest.mark.parametrize(
    "policies, key",
    [
        (["base_only", _threshold(threshold="x")], "eval.policies[1].threshold"),
        ([_threshold(threshold=None)], "eval.policies[0].threshold"),
        ([_threshold(threshold=float("nan"))], "eval.policies[0].threshold"),
        ([_threshold(threshold=10**400)], "eval.policies[0].threshold"),
        ([_threshold(direction=1.5)], "eval.policies[0].direction"),
        ([_threshold(direction=True)], "eval.policies[0].direction"),
        ([_threshold(direction=2)], "eval.policies[0].direction"),
        (["dial", _threshold(signal=3)], "eval.policies[1].signal"),
        ([_threshold(scale=2)], "eval.policies[0].scale"),
        ("dial", "eval.policies: must be a list"),
    ],
    ids=["threshold-text", "threshold-null", "threshold-nan", "threshold-huge", "direction-fraction",
         "direction-bool", "direction-two", "signal-number", "unknown-key", "policies-text"],
)
def test_ill_typed_policies_are_refused_by_name(tmp_path, policies, key):
    # Each would fail as a bare error, or run as a different policy.
    config_path = write_config(tmp_path / "config.json", eval={"policies": policies})
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}"):
        load_config(config_path)


def test_a_threshold_signal_no_observation_carries_is_refused_at_load(tmp_path, capsys):
    # It once passed load; eval then died with an EnvFault traceback and
    # exit status 1 at its first step, after explore and fit had run.
    demo = json.loads(DEMO_CONFIG.read_text())
    demo["eval"]["policies"][2]["signal"] = "sigal"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(demo))
    out = tmp_path / "out"
    assert main(["explore", "--config", str(config_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dial: error: eval.policies[2].signal: must be an observation field, one of "
                            "step_count, signal, type_proxy, num_options, is_finish; got 'sigal'\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "policies, index, name",
    [
        (["dial", "dial"], 1, "dial"),
        (["base_only", "dial", "base_only"], 2, "base_only"),
        ([_threshold(threshold=0.5), "dial", _threshold(threshold=0.5, signal="signal")], 2, "fixed(signal>0.5)"),
    ],
    ids=["gate-twice", "bound-twice", "threshold-twice"],
)
def test_duplicate_policies_are_refused(tmp_path, policies, index, name):
    # The eval reports hold one row per policy name.
    config_path = write_config(tmp_path / "config.json", eval={"policies": policies})
    with pytest.raises(ConfigError, match=f"^{re.escape(f'eval.policies[{index}]: duplicate policy {name!r}')}$"):
        load_config(config_path)


def test_thresholds_apart_by_less_than_six_digits_load_as_two_policies(tmp_path):
    policies = [_threshold(threshold=0.5), _threshold(threshold=0.5000001)]
    config = load_config(write_config(tmp_path / "config.json", eval={"policies": policies}))
    assert config.eval["policies"] == policies


def test_bad_policy_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eval": {"policies": ["sometimes"]}}))
    with pytest.raises(ConfigError, match="policies"):
        load_config(str(path))


def test_defaults_fill_missing_sections(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3}))
    config = load_config(str(path))
    assert config.exploration["eps"] == 0.5
    assert config.gate["regularizer"] == "l1"
    assert config.seed == 3


def test_seed_and_out_overrides(tmp_path):
    path = write_config(tmp_path / "config.json")
    config = load_config(path, seed_override=99, out_override=str(tmp_path / "elsewhere"))
    assert config.seed == 99
    assert config.output_dir.endswith("elsewhere")


# -- pipeline ------------------------------------------------------------------


def test_full_pipeline_produces_artifacts(tmp_path):
    config_path = write_config(tmp_path / "config.json")
    config = load_config(config_path)
    dataset_path = cmd_explore(config)
    assert os.path.exists(dataset_path)
    model_path = cmd_fit(config, dataset_path)
    assert os.path.exists(model_path)
    with open(model_path) as fh:
        model = json.load(fh)
    assert model["meta"]["config_digest"] == config.digest()
    assert "direction_diagnostic" in model["meta"]

    outputs = cmd_eval(config, model_path)
    with open(outputs["summary"]) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["policy"] for r in rows] == ["base_only", "always_trigger", "dial", "reversed_dial"]
    base = [r for r in rows if r["policy"] == "base_only"][0]
    assert float(base["cost_x_base"]) == 1.0

    stats_outputs = cmd_stats(config, dataset_path)
    with open(stats_outputs["cells"]) as fh:
        cells = list(csv.DictReader(fh))
    assert cells[0]["group"] == "all"
    groups = {r["group"] for r in cells}
    assert {"all", "early", "late"} <= groups
    assert "transform:u_negated" in groups


def test_stats_records_why_temporal_split_was_skipped(tmp_path):
    config = load_config(write_config(
        tmp_path / "config.json", environment={"horizon": 1}, exploration={"eps": 1.0},
    ))
    outputs = cmd_stats(config, cmd_explore(config))
    with open(outputs["json"]) as fh:
        report = json.load(fh)
    assert "needs >= 3 labeled records per bucket" in report["temporal"]["skipped"]
    with open(outputs["cells"]) as fh:
        groups = {r["group"] for r in csv.DictReader(fh)}
    assert "all" in groups and not {"early", "late"} & groups


def test_stats_records_why_simpson_was_skipped(tmp_path):
    config = load_config(write_config(tmp_path / "config.json"))
    dataset_path = cmd_explore(config)
    stripped = tmp_path / "no_debug.jsonl"
    with open(dataset_path) as fh, open(stripped, "w") as out:
        for line in fh:
            row = json.loads(line)
            row.pop("latent_type_debug", None)
            out.write(json.dumps(row) + "\n")
    with open(cmd_stats(config, str(stripped))["json"]) as fh:
        report = json.load(fh)
    assert "no latent-type debug fields" in report["simpson"]["skipped"]
    assert "early" in report["temporal"]


@pytest.mark.parametrize("name", ["temporal_split", "simpson_decomposition"])
def test_stats_propagates_errors_that_are_not_stats_errors(tmp_path, monkeypatch, name):
    config = load_config(write_config(tmp_path / "config.json"))
    dataset_path = cmd_explore(config)

    def broken(*args):
        raise RuntimeError("bug in the stats layer")

    monkeypatch.setattr(f"dial.cli.{name}", broken)
    with pytest.raises(RuntimeError, match="bug in the stats layer"):
        cmd_stats(config, dataset_path)


def test_explore_is_reproducible_across_runs(tmp_path):
    # The digest covers run content, not placement: two runs that differ
    # only in output directory give byte-identical datasets.
    config_a = load_config(write_config(tmp_path / "a.json"), out_override=str(tmp_path / "out_a"))
    config_b = load_config(write_config(tmp_path / "b.json"), out_override=str(tmp_path / "out_b"))
    path_a = cmd_explore(config_a)
    path_b = cmd_explore(config_b)
    assert open(path_a, "rb").read() == open(path_b, "rb").read()


def test_outputs_are_write_once(tmp_path):
    config = load_config(write_config(tmp_path / "config.json"))
    path = cmd_explore(config)
    before = open(path, "rb").read()
    with pytest.raises(FileExistsError):
        cmd_explore(config)
    assert open(path, "rb").read() == before
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


# -- the artifact writers ----------------------------------------------------------


def test_failed_write_leaves_no_file_and_does_not_block_the_rerun(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        write_report_json(str(path), {"a": 1.0, "z": object()})
    assert os.listdir(tmp_path) == []
    write_report_json(str(path), {"a": 1.0})
    assert json.loads(path.read_text()) == {"a": 1.0}
    assert os.listdir(tmp_path) == ["report.json"]


def _refuse_constant(name):
    raise ValueError(f"not JSON (RFC 8259): {name}")


def test_report_json_writes_a_non_finite_float_as_null(tmp_path):
    path = tmp_path / "report.json"
    write_report_json(str(path), {"rows": [(float("nan"), 1.5)], "inf": float("-inf")})
    assert json.loads(path.read_text(), parse_constant=_refuse_constant) == {"inf": None, "rows": [[None, 1.5]]}


def test_writer_refuses_an_existing_file_and_leaves_it_unchanged(tmp_path):
    path = tmp_path / "cells.csv"
    write_report_csv(str(path), [{"a": 1, "b": None}], ("a", "b"))
    assert path.read_bytes() == b"a,b\r\n1,\r\n"
    with pytest.raises(FileExistsError):
        write_report_csv(str(path), [{"a": 2, "b": 3}], ("a", "b"))
    assert path.read_bytes() == b"a,b\r\n1,\r\n"
    assert os.listdir(tmp_path) == ["cells.csv"]


def test_artifact_mode_matches_a_plain_open(tmp_path):
    write_report_json(str(tmp_path / "report.json"), {"a": 1})
    (tmp_path / "sibling.json").write_text("{}")
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes["report.json"] == modes["sibling.json"]


def test_fit_refuses_digest_mismatch(tmp_path):
    config = load_config(write_config(tmp_path / "config.json"))
    dataset_path = cmd_explore(config)
    other = load_config(write_config(tmp_path / "other.json", seed=6),
                        out_override=str(tmp_path / "out2"))
    with pytest.raises(ConfigError, match="digest"):
        cmd_fit(other, dataset_path)


def test_fit_requires_labeled_rows(tmp_path):
    config = load_config(
        write_config(tmp_path / "config.json", exploration={"eps": 0.0, "n_episodes": 5})
    )
    dataset_path = cmd_explore(config)
    with pytest.raises(ConfigError, match="eps"):
        cmd_fit(config, dataset_path)


def test_fit_with_proposals_off_builds_no_summary(tmp_path, monkeypatch):
    def no_summary(dataset):
        raise AssertionError("a dataset summary was built with proposals off")

    monkeypatch.setattr("dial.cli.dataset_summary", no_summary)
    config = load_config(write_config(tmp_path / "config.json", gate={"llm_features": "off"}))
    model = load_model_json(cmd_fit(config, cmd_explore(config)))
    assert all(spec.source != "llm" for spec in model.feature_specs)


def test_cli_fit_and_library_fit_give_the_same_gate(tmp_path):
    # dial explore + dial fit on the demo config, against the same run in
    # memory and against the acceptance suite's explore_and_fit (the demo
    # config's exploration and gate sections are the defaults).
    config = load_config(str(DEMO_CONFIG), seed_override=42, out_override=str(tmp_path / "out"))
    assert config.gate["llm_features"] == "mock"
    written = load_model_json(cmd_fit(config, cmd_explore(config)))

    env = TwoSourceEnv(config.env_params)
    expl = config.exploration
    dataset = run_exploration(
        env, eps=float(expl["eps"]), n_episodes=int(expl["n_episodes"]),
        seed=derive_seed(config.seed, "explore"), k_candidates=int(expl["k_candidates"]),
        n_rollouts=int(expl["n_rollouts"]), horizon_h=int(expl["horizon_h"]),
    )
    in_memory = fit_dataset(dataset, config.gate, MockProposalClient(), config.seed)
    harness, _ = explore_and_fit(env, 42, eps=0.5, n_explore=50, proposal_client=MockProposalClient())

    for model in (in_memory, harness):
        assert model.weights.tobytes() == written.weights.tobytes()
        assert (model.bias, model.tau, model.meta["chosen_c"]) == (
            written.bias, written.tau, written.meta["chosen_c"])
        assert [s.name for s in model.feature_specs] == [s.name for s in written.feature_specs]
    assert len(written.feature_specs) == 12  # five mock proposals joined the pool


def test_each_feature_list_compiles_once(tmp_path, monkeypatch):
    # Building specs and a pool only checks their expressions; a fit
    # compiles the pool's row and the gate's, each once, and neither the
    # copies dial fit makes of its gate, nor loading it, nor
    # reverse_direction compiles again.
    compiled = []

    def counting_compile(*args, **kwargs):
        compiled.append(args[1])
        return compile(*args, **kwargs)

    monkeypatch.setattr("dial.dsl.compile", counting_compile, raising=False)
    dial.features._compile_row.cache_clear()
    pool = build_pool(MockProposalClient().propose({}))
    assert len(pool) == 12 and compiled == []

    config = load_config(write_config(tmp_path / "config.json", gate={"llm_features": "mock"}))
    model = load_model_json(cmd_fit(config, cmd_explore(config)))
    rows = {tuple(s.extractor for s in specs) for specs in (pool, model.feature_specs)}
    assert len(compiled) == len(rows)
    reverse_direction(model)
    assert len(compiled) == len(rows)


def test_eval_trigger_cost_override(tmp_path):
    # Deployment cost is the environment's: 2.0 in place of the default 5.0.
    config = load_config(
        write_config(tmp_path / "config.json", environment={"trigger_cost_units": 2.0}, eval={"n_episodes": 30})
    )
    dataset_path = cmd_explore(config)
    model_path = cmd_fit(config, dataset_path)
    outputs = cmd_eval(config, model_path)
    with open(outputs["summary"]) as fh:
        rows = {r["policy"]: r for r in csv.DictReader(fh)}
    assert float(rows["always_trigger"]["cost_x_base"]) == pytest.approx(3.0)


def test_verify_emits_eq2_sweep(tmp_path):
    config = load_config(write_config(tmp_path / "config.json"))
    outputs = cmd_verify(config)
    with open(outputs["eq2_sweep"]) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["p_i0"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(r["sign_match"] == "True" for r in rows)
    with open(outputs["json"]) as fh:
        bundle = json.load(fh)
    assert {"eq2_sweep", "simpson", "temporal", "transforms", "normalization"} <= set(bundle)
    assert all(row["abs_diff"] < 1e-15 for row in bundle["normalization"])


SWEEP_GOLDEN_SHA256 = {
    "sweep_summary.csv": "b9634120a374da015fa5c47bd77df24d4a8785b3b10bec5f32b2041fed03529d",
    "p_i0=0.2/eval_summary-302a1cbf.csv": "df3884fdb51b1925aebda7c4e337fd63aa269ed7e28105127b4d52cfbe44e390",
    "p_i0=0.8/eval_summary-5eb089a5.csv": "1df9dafcd4c74bd997221ef1519af557a6f20b08d85d3b60f26c185caa56ab72",
}

SWEEP_CONFIG_SHA256 = {
    "p_i0=0.2/config.json": "967faaa6ac6e3bea3b867e6e967e80e2420ac6f7693b3614865b8bd311a0dfa1",
    "p_i0=0.8/config.json": "0ea468e1df60fd9594a1ed77c38f0b703ed53e833507a313881c3d927a07fb48",
}


def test_sweep_axis(tmp_path):
    config_path = write_config(
        tmp_path / "config.json",
        exploration={"eps": 0.5, "n_episodes": 12},
        eval={"n_episodes": 20},
    )
    config = load_config(config_path)
    summary_path = cmd_sweep(config, "environment.p_i0=0.2,0.8")
    with open(summary_path) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["environment.p_i0"] for r in rows} == {"0.2", "0.8"}
    assert len(rows) == 8  # 2 values x 4 policies
    sweep_dir = os.path.dirname(summary_path)
    digests = {
        os.path.relpath(p, sweep_dir): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in [summary_path] + sorted(glob.glob(os.path.join(sweep_dir, "*", "eval_summary-*.csv")))
    }
    assert digests == SWEEP_GOLDEN_SHA256
    # A sub-run's config.json carries no output_dir, so it is pinned too,
    # and the same sweep placed elsewhere writes the same bytes.
    configs = {
        os.path.relpath(p, sweep_dir): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in sorted(glob.glob(os.path.join(sweep_dir, "*", "config.json")))
    }
    assert configs == SWEEP_CONFIG_SHA256
    elsewhere = load_config(config_path, out_override=str(tmp_path / "elsewhere"))
    other_dir = os.path.dirname(cmd_sweep(elsewhere, "environment.p_i0=0.2,0.8"))
    assert _tree_bytes(other_dir) == _tree_bytes(sweep_dir)


def test_a_sweep_runs_config_json_replays_that_run(tmp_path):
    # The config.json a sweep writes for a run loads again, to that run's
    # digest, and an explore of it writes that run's dataset bytes.
    config = load_config(str(DEMO_CONFIG), out_override=str(tmp_path / "sweep"))
    sweep_dir = os.path.dirname(cmd_sweep(config, "exploration.eps=0.25"))
    [run_config] = glob.glob(os.path.join(sweep_dir, "*", "config.json"))
    [dataset_path] = glob.glob(os.path.join(os.path.dirname(run_config), "dataset-*.jsonl"))
    replay = load_config(run_config, out_override=str(tmp_path / "replay"))
    assert replay.digest() == load_dataset_jsonl(dataset_path).meta["config_digest"]
    assert os.path.basename(dataset_path) == f"dataset-{replay.short_digest()}.jsonl"
    with open(cmd_explore(replay), "rb") as replayed, open(dataset_path, "rb") as original:
        assert replayed.read() == original.read()


def _tree_bytes(root):
    paths = glob.glob(os.path.join(root, "**", "*"), recursive=True)
    return {os.path.relpath(p, root): open(p, "rb").read() for p in paths if os.path.isfile(p)}


def test_sweep_axis_validation(tmp_path):
    config = load_config(write_config(tmp_path / "config.json"))
    with pytest.raises(ConfigError):
        cmd_sweep(config, "environment.p_i0")
    with pytest.raises(ConfigError):
        cmd_sweep(config, "environment.nope=1,2")


@pytest.mark.parametrize(
    "axis, message",
    [
        ("exploration.eps=0.25,2.0", "sweep axis exploration.eps=2.0: exploration.eps: must be a number in [0, 1]"),
        ("exploration.eps=0.5,0.50", "sweep axis exploration.eps: value 0.50 repeats an earlier value"),
        ("exploration.eps=[0.25,0.5", "sweep axis exploration.eps: unbalanced bracket in '[0.25,0.5'"),
        ("exploration.eps=0.25],[0.5", "sweep axis exploration.eps: unbalanced bracket in '0.25],[0.5'"),
    ],
    ids=["bad-second-value", "repeated-value", "unclosed-bracket", "unopened-bracket"],
)
def test_sweep_checks_every_value_before_the_first_run(tmp_path, axis, message):
    # The first value's pipeline once ran in full before the second one
    # failed, and a corrected rerun then stopped on the first's files.
    config = load_config(write_config(tmp_path / "config.json"))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        cmd_sweep(config, axis)
    assert not os.path.exists(os.path.join(config.output_dir, "sweep_exploration.eps"))


def test_sweep_a_list_valued_key(tmp_path):
    # The axis was once split at every comma, inside brackets too.
    config = load_config(write_config(tmp_path / "config.json", exploration={"eps": 0.5, "n_episodes": 12},
                                      eval={"n_episodes": 20}))
    summary_path = cmd_sweep(config, "gate.c_grid=[0.1,1.0], [0.3,3.0]")
    sweep_dir = os.path.dirname(summary_path)
    assert sorted(os.listdir(sweep_dir)) == ["c_grid=[0.1,1.0]", "c_grid=[0.3,3.0]", "sweep_summary.csv"]
    with open(os.path.join(sweep_dir, "c_grid=[0.3,3.0]", "config.json")) as fh:
        assert json.load(fh)["gate"]["c_grid"] == [0.3, 3.0]
    with open(summary_path) as fh:
        assert [r["gate.c_grid"] for r in csv.DictReader(fh)] == ["[0.1,1.0]"] * 4 + ["[0.3,3.0]"] * 4


def test_main_entry_point(tmp_path, capsys):
    config_path = write_config(tmp_path / "config.json", gate={"llm_features": "mock"},
                               exploration={"eps": 0.5, "n_episodes": 6})
    assert main(["explore", "--config", config_path]) == 0
    dataset_path = capsys.readouterr().out.strip()
    assert os.path.exists(dataset_path)
    assert main(["fit", "--config", config_path, "--dataset", dataset_path]) == 0


def test_a_config_error_is_one_stderr_line_and_exit_status_2(tmp_path, capsys):
    config_path = write_config(tmp_path / "config.json", exploration={"eps": 2.0})
    assert main(["explore", "--config", config_path]) == 2
    assert capsys.readouterr() == ("", "dial: error: exploration.eps: must be a number in [0, 1], got 2.0\n")
    assert not os.path.exists(tmp_path / "out")


def test_an_out_of_range_sweep_value_is_one_stderr_line_and_exit_status_2(tmp_path, capsys):
    out = tmp_path / "badsweep"
    argv = ["sweep", "--config", write_config(tmp_path / "config.json"), "--out", str(out),
            "--axis", "exploration.eps=0.25,2.0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dial: error: sweep axis exploration.eps=2.0: exploration.eps: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_a_rerun_into_an_existing_output_is_one_stderr_line_and_exit_status_2(tmp_path, capsys):
    # The rerun once ended in a FileExistsError traceback and exit status 1.
    argv = ["explore", "--config", write_config(tmp_path / "config.json", exploration={"n_episodes": 6}),
            "--out", str(tmp_path / "D")]
    assert main(argv) == 0
    path = capsys.readouterr().out.strip()
    before = open(path, "rb").read()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"dial: error: refusing to overwrite existing output {path}\n")
    assert open(path, "rb").read() == before
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


@pytest.mark.parametrize(
    "kind, message",
    [("missing", "cannot be read"), ("directory", "cannot be read"),
     ("truncated", "not valid JSON"), ("not-utf8", "not valid JSON")],
    ids=["missing", "directory", "truncated", "not-utf8"],
)
def test_a_config_file_that_does_not_load_is_a_config_error_naming_it(tmp_path, kind, message):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "truncated":
        path.write_text('{"seed": 1,')
    elif kind == "not-utf8":
        path.write_bytes(b'\xff{"seed": 1}')
    with pytest.raises(ConfigError, match=f"^config {re.escape(str(path))}: {message} \\("):
        load_config(str(path))


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command, flag, noun", [("fit", "--dataset", "dataset"), ("stats", "--dataset", "dataset"),
                                                 ("eval", "--model", "model")])
def test_an_input_file_that_cannot_be_opened_is_one_stderr_line_and_exit_status_2(
    tmp_path, capsys, command, flag, noun, kind
):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path / "config.json"), "--out", str(out), flag, str(path)]
    assert main(argv) == 2
    strerror = "Is a directory" if kind == "directory" else "No such file or directory"
    assert capsys.readouterr() == ("", f"dial: error: {noun} {path}: cannot be read ({strerror})\n")
    assert not out.exists()


_SPEC = {"name": "f0", "source": "llm", "extractor": "signal"}
_MODEL = {"feature_specs": [_SPEC], "weights": [0.5], "bias": 0.0, "tau": 0.5, "regularizer": "l1",
          "standardizer": {"means": [0.0], "sds": [1.0]}, "cv_report": [], "meta": {}}


def _model_text(**changes):
    return json.dumps({**_MODEL, **changes})


@pytest.mark.parametrize(
    "noun, text",
    [
        ("model", "not json"),
        ("model", "1"),
        ("model", _model_text(tau=None)),
        ("model", _model_text(feature_specs=[{**_SPEC, "name": 1}])),
        ("model", _model_text(feature_specs=["f0"])),
        ("model", _model_text(standardizer=[[0.0], [1.0]])),
        ("model", _model_text(cv_report="none")),
        ("model", _model_text(meta=[])),
        ("model", json.dumps({k: v for k, v in _MODEL.items() if k != "meta"})),
        ("model", _model_text(weights=[10**400])),
        ("model", _model_text(bias=10**400)),
        ("model", _model_text(feature_specs=[{**_SPEC, "extractor": "length(signal)"}])),
        ("model", _model_text(feature_specs=[{**_SPEC, "extractor": "1" + "0" * 400}])),
        ("model", _model_text(feature_specs=[_SPEC, _SPEC], weights=[0.5, 0.5],
                              standardizer={"means": [0.0, 0.0], "sds": [1.0, 1.0]})),
        ("model", _model_text(regularizer="bogus")),
        ("model", _model_text(regularizer=7)),
        ("dataset", '{"env_meta": {}}\nnot json\n'),
        ("dataset", '{"env_meta": {}}\n' + json.dumps({"episode_id": 0, "step_index": 0, "obs": {"signal": 0.5},
                                                        "utility_label": 1, "signal": 0.5, "true_utility_debug": "x"})),
    ],
    ids=["not-json", "number", "tau-null", "spec-name-number", "spec-not-object", "standardizer-list",
         "cv-report-text", "meta-list", "meta-missing", "weight-huge", "bias-huge", "text-function", "literal-huge",
         "spec-name-twice", "regularizer-unknown", "regularizer-number", "bad-record-line", "bad-debug-line"],
)
def test_an_input_file_that_does_not_load_is_one_stderr_line_and_exit_status_2(tmp_path, capsys, noun, text):
    model_from_dict(_MODEL)  # the base model loads, so each case fails on its own fault
    path = tmp_path / "input"
    path.write_text(text)
    out = tmp_path / "out"
    command, flag = ("eval", "--model") if noun == "model" else ("stats", "--dataset")
    assert main([command, "--config", write_config(tmp_path / "config.json"), "--out", str(out), flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"dial: error: {noun} {path}: not a valid {noun} (")
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"standardizer": {"means": [0.0], "sds": [1e-320]}}, "standardizer sds must have finite reciprocals, got [1e-320]"),
        ({"weights": ["0.5"]}, "model JSON: weights[0] must be a number within float range, got '0.5'"),
        ({"weights": [True]}, "model JSON: weights[0] must be a number within float range, got True"),
        ({"standardizer": {"means": [None], "sds": [1.0]}},
         "model JSON: standardizer means[0] must be a number within float range, got None"),
        ({"standardizer": {"means": [0.0], "sds": ["2"]}},
         "model JSON: standardizer sds[0] must be a number within float range, got '2'"),
    ],
    ids=["sd-subnormal", "weight-text", "weight-bool", "mean-null", "sd-text"],
)
def test_a_model_number_no_gate_can_read_is_refused_at_load_by_name(tmp_path, capsys, changes, reason):
    # Each once loaded: the subnormal sd overflowed at the first gated step, and
    # np.asarray read text and bools as numbers and null as NaN.
    path = tmp_path / "model.json"
    path.write_text(_model_text(**changes))
    out = tmp_path / "out"
    assert main(["eval", "--config", write_config(tmp_path / "config.json"), "--out", str(out), "--model", str(path)]) == 2
    assert capsys.readouterr() == ("", f"dial: error: model {path}: not a valid model ({reason})\n")
    assert not out.exists()


def test_a_fit_with_no_proposal_endpoint_is_one_stderr_line_and_exit_status_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DIAL_LLM_URL", raising=False)
    config_path = write_config(tmp_path / "config.json", gate={"llm_features": "http"})
    out = tmp_path / "out"
    assert main(["explore", "--config", config_path, "--out", str(out)]) == 0
    dataset_path = capsys.readouterr().out.strip()
    assert main(["fit", "--config", config_path, "--out", str(out), "--dataset", dataset_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dial: error: no proposal endpoint configured (set DIAL_LLM_URL)\n"
    assert list(out.glob("model-*.json")) == []


@pytest.mark.parametrize(
    "overrides, labeled, reason",
    [({"exploration": {"n_episodes": 1, "eps": 0.05}}, 1, "a gate fit needs at least 2 rows"),
     ({"environment": {"p_i0": 1.0, "noise_sd": 0.0}}, None, "training labels contain a single class"),
     ({"gate": {"folds": 1000}}, None, "not enough rows (")],
    ids=["one-row", "one-class", "fewer-rows-than-folds"],
)
def test_a_dataset_no_gate_can_be_fit_from_is_one_stderr_line_and_exit_status_2(
        tmp_path, capsys, overrides, labeled, reason):
    # Each once escaped as a traceback with exit status 1.
    config_path = write_config(tmp_path / "config.json", **overrides)
    out = tmp_path / "out"
    assert main(["explore", "--config", config_path, "--out", str(out)]) == 0
    dataset_path = capsys.readouterr().out.strip()
    if labeled is not None:
        assert len(load_dataset_jsonl(dataset_path).labeled()) == labeled
    assert main(["fit", "--config", config_path, "--out", str(out), "--dataset", dataset_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dial: error: a gate cannot be fit from this dataset: {reason}")
    assert captured.err.count("\n") == 1
    assert list(out.rglob("model-*.json")) == []


def test_a_sweep_run_no_gate_can_be_fit_from_is_one_stderr_line_and_exit_status_2(tmp_path, capsys):
    # A noiseless all-unsuitable run labels every step 0.
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", write_config(tmp_path / "config.json", environment={"p_i0": 1.0}),
            "--out", str(out), "--axis", "environment.noise_sd=0.0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dial: error: a gate cannot be fit from this dataset: "
                                   "training labels contain a single class")
    assert captured.err.count("\n") == 1
    assert list(out.rglob("model-*.json")) == []


def test_a_dataset_the_stats_layer_refuses_is_one_stderr_line_and_exit_status_2(tmp_path, capsys):
    # Every signal lowered by 2, the header left as is: the digest check
    # passes, and the transforms refuse the negative values. This once
    # escaped as a StatsError traceback with exit status 1.
    config_path = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    assert main(["explore", "--config", config_path, "--out", str(out)]) == 0
    dataset_path = capsys.readouterr().out.strip()
    header, *lines = Path(dataset_path).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        record["signal"] -= 2.0
    lowered = tmp_path / "lowered.jsonl"
    lowered.write_text("\n".join([header, *map(json.dumps, records)]) + "\n")
    stats_out = tmp_path / "stats"
    assert main(["stats", "--config", config_path, "--out", str(stats_out), "--dataset", str(lowered)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"dial: error: dataset {lowered}: no correlation report can be made "
                            "(signal transforms need nonnegative values)\n")
    assert not stats_out.exists()


def test_an_environment_verify_cannot_run_on_is_one_stderr_line_and_exit_status_2(tmp_path, capsys):
    # A one-step horizon leaves the temporal check no late bucket; this
    # once escaped as a StatsError traceback with exit status 1.
    out = tmp_path / "out"
    config_path = write_config(tmp_path / "config.json", environment={"horizon": 1})
    assert main(["verify", "--config", config_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dial: error: the verification bundle cannot be made for this environment: "
                            "temporal split needs >= 3 labeled records per bucket, got 240/0\n")
    assert not out.exists()


def test_a_degenerate_correlation_is_null_in_strict_report_json(tmp_path):
    # A noiseless all-unsuitable run labels every step 0, so every
    # correlation with the label is undefined; the report once held bare NaN.
    config = load_config(write_config(tmp_path / "config.json", environment={"p_i0": 1.0, "noise_sd": 0.0}))
    outputs = cmd_stats(config, cmd_explore(config))
    with open(outputs["json"]) as fh:
        report = json.load(fh, parse_constant=_refuse_constant)
    assert report["overall"]["spearman"] is None and report["temporal"]["delta"] is None
    with open(outputs["cells"]) as fh:
        assert next(csv.DictReader(fh))["spearman"] == "nan"


@pytest.mark.parametrize(
    "make_cache, reason",
    [(lambda path: path.write_bytes(b"\xff\xfe{}"), "'utf-8' codec can't decode byte 0xff in position 0"),
     (lambda path: path.mkdir(), "Is a directory")],
    ids=["not-utf8", "directory"],
)
def test_a_proposal_cache_that_cannot_be_read_is_one_stderr_line_and_exit_status_2(
        tmp_path, capsys, monkeypatch, make_cache, reason):
    # Both once escaped as tracebacks with exit status 1. The cache is read
    # before any request, so the unroutable endpoint is never contacted.
    monkeypatch.setenv("DIAL_LLM_URL", "http://192.0.2.1/v1/chat/completions")
    monkeypatch.setattr(HttpProposalClient, "_request", lambda self, prompt: pytest.fail("requested"))
    config_path = write_config(tmp_path / "config.json", gate={"llm_features": "http"})
    out = tmp_path / "out"
    assert main(["explore", "--config", config_path, "--out", str(out)]) == 0
    dataset_path = capsys.readouterr().out.strip()
    cache = out / "proposal_cache" / f"{summary_digest(dataset_summary(load_dataset_jsonl(dataset_path)))}.json"
    cache.parent.mkdir()
    make_cache(cache)
    assert main(["fit", "--config", config_path, "--out", str(out), "--dataset", dataset_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"dial: error: proposal cache {cache}: cannot be read ({reason}")
    assert captured.err.count("\n") == 1
    assert list(out.glob("model-*.json")) == []


def test_the_console_script_reports_a_missing_config_with_exit_status_2(tmp_path):
    import dial

    src = os.path.dirname(os.path.dirname(dial.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    path = tmp_path / "missing.json"
    done = subprocess.run([sys.executable, "-m", "dial.cli", "explore", "--config", str(path)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"dial: error: config {path}: cannot be read (No such file or directory)\n"


@pytest.mark.parametrize(
    "argv",
    [["explore"], ["fit", "--dataset", "d.jsonl"], ["eval", "--model", "m.json"],
     ["stats", "--dataset", "d.jsonl"], ["verify"], ["sweep", "--axis", "environment.p_i0=0.2"]],
    ids=["explore", "fit", "eval", "stats", "verify", "sweep"],
)
def test_llm_mock_is_no_option(argv, capsys):
    # The proposal provider is gate.llm_features, which the config digest records.
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--config", "config.json", "--llm-mock"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --llm-mock" in capsys.readouterr().err


# Each subcommand's one input flag, beside --config, --seed and --out.
INPUT_FLAGS = {"explore": [], "fit": ["--dataset"], "eval": ["--model"], "stats": ["--dataset"],
               "verify": [], "sweep": ["--axis"]}


def test_cli_surface_is_pinned(capsys):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [s for action in sub._actions for s in action.option_strings if s not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }
    assert options == {name: ["--config", "--seed", "--out"] + flags for name, flags in INPUT_FLAGS.items()}
    assert sum(map(len, options.values())) == 22
    for name in INPUT_FLAGS:
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: dial {name} ")


def test_cli_import_loads_neither_scipy_nor_requests():
    import dial

    src = os.path.dirname(os.path.dirname(dial.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, dial.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
