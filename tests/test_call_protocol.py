"""The call protocol perfbench's traced runs check, counted by patching
the class attributes as its tracer does (``expected_counts`` in
perfbench/workloads.py):

- ``GateModel.decide``: once per gated deployed step
- ``TwoSourceEpisode.step``: once per deployed step, each while
  ``dial.cli.run_deployment`` runs (perfbench's ``evaluate.steps``
  counts the steps inside that span)
- ``TwoSourceEpisode.fork``: k x n per paired label, in ``cmd_explore``
  and in ``cmd_verify``'s temporal explorations alike; each call returns
  one rollout's return and steps nothing

and the draw that one deployment of all policies saves: ``cmd_eval``
draws each eval episode once, not once per policy.

Untraced benchmark runs never see these counts, so a change that breaks
them would otherwise surface only in a traced run. ROADMAP item 3
(column-wise deploy: one decision over the rows of a step) and item 4
(column-wise labels: one call per paired label) change them on purpose;
each must land after a benchmark change that re-points perfbench's checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dial import cli, twosource
from dial.gate import GateModel
from dial.twosource import TwoSourceEpisode

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


@pytest.fixture
def counts(monkeypatch):
    counted = {"decide": 0, "step": 0, "fork": 0}

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(GateModel, "decide")
    counting(TwoSourceEpisode, "step")
    counting(TwoSourceEpisode, "fork")
    return counted


def test_demo_pipeline_keeps_the_traced_call_counts(tmp_path, counts, monkeypatch):
    raw = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    raw["exploration"]["n_episodes"] = 12
    raw["eval"]["n_episodes"] = 15
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = cli.load_config(str(path), out_override=str(tmp_path / "out"))
    expl, horizon = config.exploration, config.env_params.horizon

    dataset_path = cli.cmd_explore(config)
    labels = len(cli.load_dataset_jsonl(dataset_path).labeled())
    assert labels > 0
    assert counts["fork"] == expl["k_candidates"] * expl["n_rollouts"] * labels
    model_path = cli.cmd_fit(config, dataset_path)

    for name in counts:
        counts[name] = 0
    real_draw, real_deploy, real_step = twosource._draw, cli.run_deployment, TwoSourceEpisode.step
    draws, deploying, steps_outside = [], [0], [0]

    def counting_draw(seeds, n):
        draws.append((len(seeds), n))
        return real_draw(seeds, n)

    def deploy(*args):
        deploying[0] += 1
        try:
            return real_deploy(*args)
        finally:
            deploying[0] -= 1

    def step(*args):
        steps_outside[0] += not deploying[0]
        return real_step(*args)

    monkeypatch.setattr(twosource, "_draw", counting_draw)
    monkeypatch.setattr(cli, "run_deployment", deploy)
    monkeypatch.setattr(TwoSourceEpisode, "step", step)
    cli.cmd_eval(config, model_path)
    assert draws == [(config.eval["n_episodes"], horizon)]  # one block: a row per episode, for every policy
    assert steps_outside[0] == 0
    policies = config.eval["policies"]
    gated = sum(p in ("dial", "reversed_dial") for p in policies)
    deployed_steps = config.eval["n_episodes"] * horizon
    assert gated == 2
    assert counts == {"decide": gated * deployed_steps, "step": len(policies) * deployed_steps, "fork": 0}


def test_verify_forks_k_times_n_per_label(tmp_path, counts, monkeypatch):
    # verify's temporal explorations make most of the demo's forks.
    config = cli.load_config(str(DEMO_CONFIG), out_override=str(tmp_path / "out"))
    real_explore, rollouts, records = cli.run_exploration, [0], [0]

    def exploring(*args, **kwargs):
        dataset = real_explore(*args, **kwargs)
        rollouts[0] += dataset.meta["k_candidates"] * dataset.meta["n_rollouts"] * len(dataset.labeled())
        records[0] += len(dataset.records)
        return dataset

    monkeypatch.setattr(cli, "run_exploration", exploring)
    cli.cmd_verify(config)
    assert rollouts[0] > 0
    # One episode step per record: the forks step nothing.
    assert counts == {"decide": 0, "step": records[0], "fork": rollouts[0]}


def test_verify_labels_with_the_configs_exploration_settings(tmp_path, monkeypatch):
    # verify's artifacts carry the config's digest, so its labels use the
    # config's exploration settings, not the library defaults.
    raw = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    raw["exploration"].update(k_candidates=3, n_rollouts=2, horizon_h=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = cli.load_config(str(path), out_override=str(tmp_path / "out"))
    real_explore, settings = cli.run_exploration, []

    def exploring(*args, **kwargs):
        dataset = real_explore(*args, **kwargs)
        settings.append({k: dataset.meta[k] for k in ("k_candidates", "n_rollouts", "rollout_horizon")})
        return dataset

    monkeypatch.setattr(cli, "run_exploration", exploring)
    cli.cmd_verify(config)
    assert settings == [{"k_candidates": 3, "n_rollouts": 2, "rollout_horizon": 2}] * 2
