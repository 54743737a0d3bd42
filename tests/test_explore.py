"""Exploration: randomized triggering, paired labels, dataset handling."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from dial.envs import EnvFault
from dial.explore import (
    DEFAULT_K_CANDIDATES,
    DEFAULT_N_ROLLOUTS,
    LabeledDataset,
    StepRecord,
    dataset_summary,
    dataset_to_jsonl,
    estimate_utility_paired,
    load_dataset_jsonl,
    run_exploration,
)
from dial.features import UNIVERSAL_FEATURES, UNIVERSAL_SPECS, compile_features, extract_features
from dial import twosource
from dial.cli import VERIFY_TEMPORAL_MIN_NOISE, VERIFY_TEMPORAL_P0, VERIFY_TEMPORAL_SLOPE, save_dataset_jsonl
from dial.rng import derive_seed
from dial.twosource import TwoSourceEnv, TwoSourceEpisode, TwoSourceParams
from conftest import EpisodeRun, first_episode


# -- a minimal scripted episode for exact paired-label checks -----------------


class ScriptedEpisode:
    """An untriggered step yields reward values[0], a triggered one
    values[1]. A fork returns the snapshot step's reward plus values[0]
    for each step up to its lookahead, as the Episode contract says."""

    def __init__(self, values, horizon=3):
        self.values = values
        self.horizon = horizon
        self.t = 0

    def done(self):
        return self.t >= self.horizon

    def observe(self):
        return {"signal": 0.5, "step_count": float(self.t)}

    def step(self, triggered):
        self.t += 1
        return float(self.values[triggered])

    def fork(self, reseed, lookahead, *, triggered, index=0, count=1):
        total = float(self.values[triggered])
        for _ in range(min(lookahead, self.horizon - self.t - 1)):
            total += float(self.values[0])
        return total

    def debug_state(self):
        return None


def test_paired_label_one_when_pick_strictly_wins():
    episode = ScriptedEpisode(values=[0.5, 0.8])
    assert estimate_utility_paired(episode, 5, 3, 2, seed=0) == 1


def test_paired_label_zero_on_tie():
    episode = ScriptedEpisode(values=[0.5, 0.5])
    assert estimate_utility_paired(episode, 5, 3, 2, seed=0) == 0


def test_paired_label_zero_when_base_wins():
    episode = ScriptedEpisode(values=[0.9, 0.2])
    assert estimate_utility_paired(episode, 5, 3, 2, seed=0) == 0


class SiblingScriptedEpisode(ScriptedEpisode):
    """The fork made as sibling ``index`` returns returns[index], triggered
    or not, and records its index and snapshot action in ``actions``."""

    def __init__(self, returns):
        super().__init__(values=None, horizon=1)
        self.returns = returns
        self.actions = []

    def fork(self, reseed, lookahead, *, triggered, index=0, count=1):
        self.actions.append((index, triggered))
        return float(self.returns[index])


@pytest.mark.parametrize("label", [0], ids=["one-intervention"])
def test_paired_label_pools_equal_candidates(label):
    # One lucky rollout must not make the intervention win: its arm is
    # scored over all of its rollouts (mean 0.3 < 0.5).
    episode = SiblingScriptedEpisode(returns=[0.5, 0.9, 0.1, 0.1, 0.1])
    assert estimate_utility_paired(episode, 5, 1, 1, seed=0) == label


@pytest.mark.parametrize("k, n", [(5, 5), (2, 1), (3, 2)])
def test_paired_label_forks_the_base_arm_then_the_intervention_arm(k, n):
    # Forks 0 .. n-1 take the untriggered step at the snapshot, the
    # other (k-1)*n the triggered one.
    episode = SiblingScriptedEpisode(returns=[0.0] * (k * n))
    estimate_utility_paired(episode, k, n, 1, seed=0)
    assert episode.actions == list(enumerate([False] * n + [True] * ((k - 1) * n)))


def test_paired_label_requires_base_plus_alternative():
    with pytest.raises(ValueError):
        estimate_utility_paired(ScriptedEpisode([0.1, 0.2]), 1, 3, 2, seed=0)
    with pytest.raises(ValueError):
        estimate_utility_paired(ScriptedEpisode([0.1, 0.2]), 2, 3, 0, seed=0)
    with pytest.raises(ValueError, match="at least one rollout"):
        estimate_utility_paired(ScriptedEpisode([0.1, 0.2]), 2, 0, 2, seed=0)


def test_noise_free_labels_match_hidden_utility_sign():
    env = TwoSourceEnv(TwoSourceParams(p_i0=0.5, noise_sd=0.0, horizon=8))
    checked = 0
    for ep_seed in range(12):
        episode = first_episode(env, ep_seed)
        while not episode.done():
            label = estimate_utility_paired(episode, 5, 5, 3, seed=ep_seed * 100 + checked)
            hidden = episode.debug_state()["true_utility"]
            assert label == int(hidden > 0)
            episode.step(False)
            checked += 1
    assert checked == 96


def test_paired_arms_fork_from_identical_state():
    # At lookahead 0 a fork returns the snapshot step's reward, triggered
    # or not, whatever its reseed: the reward the episode takes there.
    env = TwoSourceEnv(TwoSourceParams(noise_sd=0.2))
    for triggered in (False, True):
        episode = first_episode(env, 42)
        returns = {episode.fork(reseed=s, lookahead=0, triggered=triggered) for s in (1, 2, 3)}
        assert returns == {episode.step(triggered)}


def _count_forks(monkeypatch):
    # The benchmark's traced check counts twosource.fork spans: a label
    # must fork k x n times, once per rollout of either arm, even where a
    # rollout reads nothing of its fork's lookahead.
    calls = []
    real_fork = TwoSourceEpisode.fork

    def counting_fork(self, *args, **kwargs):
        calls.append(kwargs.get("lookahead"))
        return real_fork(self, *args, **kwargs)

    monkeypatch.setattr(TwoSourceEpisode, "fork", counting_fork)
    return calls


@pytest.mark.parametrize("k, n, h", [(5, 5, 3), (2, 1, 1), (3, 2, 6)])
def test_paired_label_forks_once_per_candidate_rollout(monkeypatch, k, n, h):
    calls = _count_forks(monkeypatch)
    episode = first_episode(TwoSourceEnv(TwoSourceParams(horizon=6)), 3)
    episode.step(False)
    estimate_utility_paired(episode, k, n, h, seed=11)
    assert calls == [h - 1] * (k * n)


def _count_streams(monkeypatch):
    # The seed of every stream dial.twosource builds from here on.
    built = []
    real_stream = twosource.stream

    def counting_stream(seed):
        built.append(seed)
        return real_stream(seed)

    monkeypatch.setattr(twosource, "stream", counting_stream)
    return built


@pytest.mark.parametrize(
    "horizon, k, n, h, labelled, streams",
    [(6, 5, 5, 3, (1, 2, 4), 1), (6, 3, 2, 6, range(6), 1), (6, 5, 5, 3, (5,), 1),
     (6, 2, 1, 1, range(6), 0), (1, 5, 5, 3, (0,), 0)],
    ids=["mid-episode", "long-rollout", "last-step", "one-step-rollout", "one-step-episode"],
)
def test_paired_label_builds_one_stream(monkeypatch, horizon, k, n, h, labelled, streams):
    # The k x n forks of every label of an episode share one keyed draw,
    # which covers every state, the last one too; rollouts that can take
    # no step past any snapshot (h = 1, or a one-step episode) draw nothing.
    episode = first_episode(TwoSourceEnv(TwoSourceParams(horizon=horizon, noise_sd=0.3)), 3)
    built = _count_streams(monkeypatch)
    for t in range(horizon):
        if t in labelled:
            estimate_utility_paired(episode, k, n, h, seed=11)
        episode.step(False)
    assert built == [11] * streams


def test_exploration_builds_one_label_stream_per_labelled_episode(monkeypatch):
    # Past the one stream per episode that draws the run's states, each
    # episode with a label builds one stream, on its label seed, and an
    # episode without one builds none.
    built = _count_streams(monkeypatch)
    ds = run_exploration(TwoSourceEnv(TwoSourceParams(horizon=3, noise_sd=0.3)), eps=0.2, n_episodes=12, seed=5)
    labelled = sorted({r.episode_id for r in ds.labeled()})
    assert 0 < len(labelled) < 12
    assert built == ([derive_seed(5, "episode", i) for i in range(12)]
                     + [derive_seed(5, "label", i) for i in labelled])


def test_paired_label_rollouts_read_noise_of_their_own(monkeypatch):
    # Episode.fork's contract: a label's k x n forks share one reseed and
    # differ by index alone, so each must roll out on noise of its own:
    # each fork, remade with the untriggered snapshot step, returns a
    # value no other does.
    episode = first_episode(TwoSourceEnv(TwoSourceParams(horizon=6, noise_sd=0.3)), 3)
    episode.step(False)
    calls = []
    real_fork = TwoSourceEpisode.fork

    def recording_fork(self, *args, **kwargs):
        calls.append((args, kwargs))
        return real_fork(self, *args, **kwargs)

    monkeypatch.setattr(TwoSourceEpisode, "fork", recording_fork)
    estimate_utility_paired(episode, 5, 5, 3, seed=11)
    untriggered = {real_fork(episode, *args, **{**kwargs, "triggered": False}) for args, kwargs in calls}
    assert len(calls) == 25 and len(untriggered) == 25


def test_exploration_forks_k_times_n_per_label(monkeypatch):
    calls = _count_forks(monkeypatch)
    ds = run_exploration(TwoSourceEnv(TwoSourceParams(horizon=5)), eps=0.5, n_episodes=6, seed=2)
    labels = len(ds.labeled())
    assert labels > 0
    assert len(calls) == DEFAULT_K_CANDIDATES * DEFAULT_N_ROLLOUTS * labels


# -- run_exploration -----------------------------------------------------------


def test_eps_zero_collects_no_labels():
    env = TwoSourceEnv(TwoSourceParams(horizon=5))
    ds = run_exploration(env, eps=0.0, n_episodes=10, seed=0)
    assert len(ds.records) == 50
    assert len(ds.labeled()) == 0


def test_eps_one_labels_every_step():
    env = TwoSourceEnv(TwoSourceParams(horizon=5))
    ds = run_exploration(env, eps=1.0, n_episodes=10, seed=0)
    assert len(ds.labeled()) == 50


def test_eps_half_labeled_fraction_binomial():
    env = TwoSourceEnv(TwoSourceParams(horizon=10))
    ds = run_exploration(env, eps=0.5, n_episodes=50, seed=3)
    n = len(ds.records)
    fraction = len(ds.labeled()) / n
    bound = 3 * np.sqrt(0.25 / n)
    assert abs(fraction - 0.5) < bound


def test_trigger_decisions_independent_of_signal():
    env = TwoSourceEnv(TwoSourceParams(horizon=10))
    ds = run_exploration(env, eps=0.5, n_episodes=1100, seed=4)
    assert len(ds.records) >= 10_000
    signals = np.array([r.signal for r in ds.records])
    triggers = np.array([float(r.utility_label is not None) for r in ds.records])
    corr = np.corrcoef(signals, triggers)[0, 1]
    assert abs(corr) < 0.03


def test_a_label_depends_only_on_the_seed_episode_and_step():
    # Each episode draws its label noise once, whichever of its steps
    # trigger: the steps that eps 0.5 labels, eps 1.0 labels too (one
    # trigger stream, a lower bar), with the same labels.
    env = TwoSourceEnv(TwoSourceParams(noise_sd=0.3, horizon=6))
    half, every = (run_exploration(env, eps=eps, n_episodes=40, seed=13) for eps in (0.5, 1.0))
    labels = {(r.episode_id, r.step_index): r.utility_label for r in every.records}
    shared = [(r.episode_id, r.step_index, r.utility_label) for r in half.labeled()]
    assert 0 < len(shared) < len(labels)
    assert [label for *_, label in shared] == [labels[ep, t] for ep, t, _ in shared]
    assert 0 < sum(label for *_, label in shared) < len(shared)


def test_exploration_replay_is_byte_identical():
    env = TwoSourceEnv(TwoSourceParams(noise_sd=0.2))
    a = dataset_to_jsonl(run_exploration(env, eps=0.5, n_episodes=8, seed=9))
    b = dataset_to_jsonl(run_exploration(env, eps=0.5, n_episodes=8, seed=9))
    assert a == b


def test_exploration_validates_inputs():
    env = TwoSourceEnv(TwoSourceParams())
    with pytest.raises(ValueError):
        run_exploration(env, eps=1.5, n_episodes=5, seed=0)
    with pytest.raises(ValueError):
        run_exploration(env, eps=0.5, n_episodes=0, seed=0)


class FaultyEnv:
    env_id = "faulty"

    def __init__(self, episode_type=None):
        self.episode_type = episode_type or FaultyEpisode

    def episodes(self, seeds):
        return EpisodeRun(lambda i: self.episode_type())

    def episode_success(self, r):
        return True

    def trigger_cost_units(self):
        return 5.0


class FaultyEpisode(ScriptedEpisode):
    def __init__(self):
        super().__init__([0.0, 0.0], horizon=3)

    def observe(self):
        if self.t == 1:
            raise RuntimeError("backend went away")
        return super().observe()


def test_environment_fault_carries_context():
    with pytest.raises(EnvFault, match="episode 0, step 1"):
        run_exploration(FaultyEnv(), eps=0.0, n_episodes=1, seed=0)


def test_an_episode_that_cannot_fork_is_an_environment_fault():
    def unforkable():
        episode = ScriptedEpisode([0.0, 0.0])
        episode.fork = None  # shadow the method: this environment cannot snapshot
        return episode

    with pytest.raises(EnvFault, match="episode 0, step 0: "):
        run_exploration(FaultyEnv(unforkable), eps=1.0, n_episodes=1, seed=0)


class BadRewardEpisode(ScriptedEpisode):
    def __init__(self):
        super().__init__([0.0, 0.0], horizon=5)

    def step(self, triggered):
        if self.t == 3:
            raise ValueError("bad reward")
        return super().step(triggered)


def test_environment_value_error_carries_context():
    # An environment's own ValueError is a fault like any other.
    with pytest.raises(EnvFault, match="episode 0, step 3: bad reward"):
        run_exploration(FaultyEnv(BadRewardEpisode), eps=0.0, n_episodes=1, seed=0)


class FixedObservationEpisode(ScriptedEpisode):
    """Every step shows ``obs`` plus its step count."""

    def __init__(self, obs):
        super().__init__([0.0, 0.0], horizon=2)
        self.obs = obs

    def observe(self):
        return {**self.obs, "step_count": float(self.t)}


@pytest.mark.parametrize(
    "obs, signal",
    [
        ({"token_entropy": 0.8, "signal": 0.1}, 0.8),
        ({"signal": "high"}, 0.0),
        ({"token_entropy": "high", "signal": 0.3}, 0.3),
    ],
    ids=["both-keys", "text", "text-entropy"],
)
def test_record_signal_is_the_value_the_gate_reads(obs, signal):
    # dial stats correlates StepRecord.signal; the gate's token_entropy
    # feature must read the same value from the same observation.
    ds = run_exploration(FaultyEnv(lambda: FixedObservationEpisode(obs)), eps=0.0, n_episodes=1, seed=0)
    assert len(ds.records) == 2
    for record in ds.records:
        universal = dict(zip(UNIVERSAL_FEATURES, extract_features(compile_features(UNIVERSAL_SPECS), record.obs)))
        assert record.signal == signal == universal["token_entropy"]


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"k_candidates": 1}, "base action plus at least one alternative"),
        ({"n_rollouts": 0}, "at least one rollout per candidate"),
        ({"horizon_h": 0}, "rollout horizon must be >= 1"),
    ],
    ids=["k", "n", "h"],
)
def test_exploration_checks_label_settings_before_the_first_episode(setting, message):
    # Checked up front, so even a run that never triggers refuses them,
    # and an episode is never built.
    env = FaultyEnv(lambda: pytest.fail("an episode was built"))
    with pytest.raises(ValueError, match=message):
        run_exploration(env, eps=0.0, n_episodes=1, seed=0, **setting)


# -- records and datasets ---------------------------------------------------------


def test_step_record_label_trigger_consistency():
    # A label is None (the step did not trigger), 0 or 1; nothing else.
    for label in (None, 0, 1):
        assert StepRecord(0, 0, {}, utility_label=label, signal=0.0).utility_label == label
    for label in (2, -1, True, 1.0):
        with pytest.raises(ValueError, match="utility_label must be binary"):
            StepRecord(0, 0, {}, utility_label=label, signal=0.0)


def _tiny_dataset(labels):
    records = [
        StepRecord(0, i, {"signal": 0.1 * i, "step_count": float(i)},
                   utility_label=lab, signal=0.1 * i)
        for i, lab in enumerate(labels)
    ]
    return LabeledDataset(records, {"env": "test"})


def test_summary_all_positive():
    ds = _tiny_dataset([1, 1, 1])
    assert dataset_summary(ds)["positive_fraction"] == 1.0


def test_summary_single_labeled_row():
    summary = dataset_summary(_tiny_dataset([None, 1, None]))
    assert summary["n_labeled"] == 1
    assert summary["n_steps"] == 3
    assert len([s for s in summary["per_step"].values() if s["n_triggered"]]) == 1


def test_summary_counting():
    labels = [1] * 40 + [0] * 60
    summary = dataset_summary(_tiny_dataset(labels))
    assert summary["positive_fraction"] == pytest.approx(0.40)
    assert summary["n_labeled"] == 100


def test_summary_examples_capped_and_deterministic():
    labels = [1] * 50 + [0] * 50
    ds = _tiny_dataset(labels)
    s1, s2 = dataset_summary(ds), dataset_summary(ds)
    assert s1 == s2
    assert len(s1["examples_positive"]) == 5
    assert len(s1["examples_negative"]) == 5


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        dataset_summary(LabeledDataset([], {"env": "test"}))


def test_jsonl_round_trip(tmp_path):
    env = TwoSourceEnv(TwoSourceParams(noise_sd=0.1))
    ds = run_exploration(env, eps=0.6, n_episodes=6, seed=5)
    path = tmp_path / "data.jsonl"
    ds.meta["config_digest"] = "abc"
    save_dataset_jsonl(ds, str(path))
    loaded = load_dataset_jsonl(str(path))
    assert len(loaded.records) == len(ds.records)
    assert loaded.meta == ds.meta
    assert loaded.meta["eps_explore"] == 0.6
    for a, b in zip(ds.records, loaded.records):
        assert a.obs == b.obs and a.utility_label == b.utility_label


def test_jsonl_rewrite_of_a_loaded_file_is_byte_identical(tmp_path):
    env = TwoSourceEnv(TwoSourceParams(noise_sd=0.2, fidelity_q=0.7, p_i_slope=0.03))
    ds = run_exploration(env, eps=0.5, n_episodes=5, seed=12)
    path = tmp_path / "data.jsonl"
    ds.meta.update({"config_digest": "abc", "seed": 99, "tool_version": "x"})
    save_dataset_jsonl(ds, str(path))
    assert dataset_to_jsonl(load_dataset_jsonl(str(path))) == path.read_text()


def test_jsonl_contract_fields_present(tmp_path):
    env = TwoSourceEnv(TwoSourceParams())
    ds = run_exploration(env, eps=1.0, n_episodes=1, seed=6)
    header, line = dataset_to_jsonl(ds).splitlines()[:2]
    assert json.loads(header) == {"env_meta": ds.meta}
    row = json.loads(line)
    assert set(row) == {
        "episode_id", "step_index", "obs", "utility_label", "signal", "latent_type_debug", "true_utility_debug",
    }


@pytest.mark.parametrize("field", ["signal", "extra"])
def test_jsonl_refuses_non_finite_observations(field):
    ds = run_exploration(TwoSourceEnv(TwoSourceParams()), eps=1.0, n_episodes=1, seed=6)
    for value in (float("nan"), float("inf"), -np.inf, 10**400):
        ds.records[2].obs[field] = value
        message = f"episode 0, step 2: obs '{field}' must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataset_to_jsonl(ds)


def test_jsonl_names_the_step_of_a_text_observation():
    # Exploration takes text observation values (the features read them
    # as 0.0), but a dataset line holds numbers only.
    ds = run_exploration(FaultyEnv(lambda: FixedObservationEpisode({"signal": "high"})), eps=0.0, n_episodes=1, seed=0)
    with pytest.raises(ValueError, match=r"^episode 0, step 0: obs 'signal' must be a finite number, got 'high'$"):
        dataset_to_jsonl(ds)


def test_paired_estimate_deterministic_for_seed():
    env = TwoSourceEnv(TwoSourceParams(noise_sd=0.3))
    labels = []
    for _ in range(2):
        episode = first_episode(env, 33)
        labels.append(estimate_utility_paired(episode, 5, 5, 3, seed=91))
    assert labels[0] == labels[1]


# -- the labels' distribution against its closed form -------------------------------


def _oracle_scores(dataset, params, k, n, h):
    """z scores of a dataset's labels against their closed form: overall,
    then per probability decile ([0, .1), ..., [.9, 1]), each
    sum(label - p) / sqrt(sum p (1 - p)). A label at step t reads
    m = min(h - 1, H - t - 1) rollout steps past its snapshot. Both arms
    share the snapshot's reward noise, so their snapshot rewards differ by
    exactly the true utility u, and each rollout adds m independent
    N(0, sd^2) noises: the difference of the arm means is N(u, sigma^2),
    with sigma^2 = sd^2 m (1/n + 1/((k - 1) n)), so P(label = 1 | u) =
    Phi(u / sigma). At m = 0 the label is exactly [u > 0] (a tie labels
    0), which is asserted here."""
    labeled = dataset.labeled()
    t = np.array([r.step_index for r in labeled])
    u = np.array([r.true_utility_debug for r in labeled])
    y = np.array([r.utility_label for r in labeled], dtype=float)
    m = np.minimum(h - 1, params.horizon - t - 1)
    assert np.array_equal(y[m == 0], u[m == 0] > 0)
    y, u, m = y[m > 0], u[m > 0], m[m > 0]
    sigma = params.noise_sd * np.sqrt(m * (1 / n + 1 / ((k - 1) * n)))
    p = np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in (u / sigma).tolist()])
    decile = np.minimum((p * 10).astype(int), 9)
    groups = [np.ones(len(p), dtype=bool)] + [decile == d for d in range(10)]
    return [(y[g] - p[g]).sum() / math.sqrt((p[g] * (1 - p[g])).sum()) for g in groups if g.any()]


_ORACLE_CASES = {  # params, (k, n, h), episodes
    "verify-drifting": (TwoSourceParams(p_i0=VERIFY_TEMPORAL_P0, p_i_slope=VERIFY_TEMPORAL_SLOPE,
                                        noise_sd=VERIFY_TEMPORAL_MIN_NOISE), (5, 5, 3), 300),
    "k3-n2-h4": (TwoSourceParams(noise_sd=0.5), (3, 2, 4), 300),
    "demo": (TwoSourceParams(), (5, 5, 3), 600),
}


def _oracle_dataset(params, k, n, h, episodes):
    return run_exploration(TwoSourceEnv(params), eps=1.0, n_episodes=episodes, seed=11,
                           k_candidates=k, n_rollouts=n, horizon_h=h)


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_labels_follow_their_closed_form(case):
    # Signal-agnostic exploration labels each state with probability
    # Phi(u / sigma), a known, monotone function of its true utility.
    # Bound |z| <= 4 on each of the 11 scores. Its false-alarm rate,
    # measured over 20,000 label sets drawn from the formula at each
    # case's own probabilities: about 1 in 1,000 per case (max |z| > 4 in
    # 0.090-0.100% of them), so ~0.3% over the three. A normal score alone
    # would give 6.3e-5; the deciles of near-certain labels are closer to
    # Poisson, which widens the tail.
    params, (k, n, h), episodes = _ORACLE_CASES[case]
    scores = _oracle_scores(_oracle_dataset(params, k, n, h, episodes), params, k, n, h)
    assert len(scores) == 11 and max(abs(z) for z in scores) <= 4, scores


@pytest.mark.parametrize("actual, claimed", [(1, 4), (4, 1)], ids=["sigma-doubled", "sigma-halved"])
def test_the_label_oracle_rejects_a_sigma_off_by_two(actual, claimed):
    # The oracle's power: labels rolled out ``actual`` times per arm and
    # scored as if ``claimed`` times, so their sigma is 2x (sigma^2 scales
    # as 1/n) or 1/2x the formula's, fail the bound.
    params, (k, _, h), _ = _ORACLE_CASES["verify-drifting"]
    scores = _oracle_scores(_oracle_dataset(params, k, actual, h, 600), params, k, claimed, h)
    assert max(abs(z) for z in scores) > 4, scores


def test_loader_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_dataset_jsonl(str(path))


def test_loader_refuses_the_per_line_header_layout(tmp_path):
    # Each line of the older layout is a record carrying the header as
    # env_meta and the universal features; it has no header line.
    row = {"episode_id": 0, "step_index": 0, "obs": {"signal": 0.5, "step_count": 0.0},
           "triggered": True, "utility_label": 1, "signal": 0.5,
           "latent_type_debug": "D", "true_utility_debug": 0.25,
           "features": {"step_count": 0.0, "token_entropy": 0.5, "evidence_count": 0.0,
                        "num_available_actions": 0.0, "is_finish": 0.0},
           "env_meta": {"env": "two_source", "seed": 1, "config_digest": "abc"}}
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(row, sort_keys=True) + "\n")
    message = f'{path}: line 1: not the dataset header {{"env_meta": {{...}}}} ('
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        load_dataset_jsonl(str(path))


@pytest.mark.parametrize(
    "header",
    [None, "", "{", "[]", '{"env_meta": []}', '{"env_meta": {}, "seed": 1}', '{"meta": {}}'],
    ids=["no-header", "blank", "bad-json", "not-an-object", "meta-list", "extra-key", "other-key"],
)
def test_loader_refuses_a_bad_header_at_line_1(tmp_path, header):
    ds = run_exploration(TwoSourceEnv(TwoSourceParams()), eps=0.5, n_episodes=1, seed=8)
    lines = dataset_to_jsonl(ds).splitlines()
    lines[:1] = [] if header is None else [header]  # no header: line 1 is episode 0's step 0
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: not the dataset header"):
        load_dataset_jsonl(str(path))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: "{" + json.dumps(row), r"line 3: invalid JSON: Expecting property name enclosed in double "
                                            r"quotes at column 2$"),
        (lambda row: json.dumps({k: v for k, v in row.items() if k != "signal"}), r"line 3: missing field 'signal'$"),
        (lambda row: json.dumps({**row, "utility_label": 2}), r"line 3: utility_label must be binary, got 2$"),
        (lambda row: json.dumps(list(row)), r"line 3: not a JSON object$"),
        (lambda row: json.dumps({**row, "signal": "x"}), r"line 3: signal must be a finite number, got 'x'$"),
        (lambda row: json.dumps({**row, "signal": True}), r"line 3: signal must be a finite number, got True$"),
        (lambda row: json.dumps({**row, "signal": float("nan")}), r"line 3: signal must be a finite number, got nan$"),
        (lambda row: json.dumps({**row, "signal": 10**400}), r"line 3: signal must be a finite number, got 1000"),
        (lambda row: json.dumps({**row, "obs": None}), r"line 3: obs must be an object, got None$"),
        (lambda row: json.dumps({**row, "obs": [0.5]}), r"line 3: obs must be an object, got \[0.5\]$"),
        (lambda row: json.dumps({**row, "obs": {**row["obs"], "signal": "x"}}),
         r"line 3: obs must map names to numbers, got \{.*'signal': 'x'"),
        (lambda row: json.dumps({**row, "obs": {"signal": False}}),
         r"line 3: obs must map names to numbers, got \{'signal': False\}$"),
        (lambda row: json.dumps({**row, "obs": {**row["obs"], "signal": float("nan")}}),
         r"line 3: episode 0, step 1: obs 'signal' must be a finite number, got nan$"),
        (lambda row: json.dumps({**row, "obs": {**row["obs"], "step_count": float("-inf")}}),
         r"line 3: episode 0, step 1: obs 'step_count' must be a finite number, got -inf$"),
        (lambda row: json.dumps({**row, "obs": {**row["obs"], "step_count": 10**400}}),
         r"line 3: episode 0, step 1: obs 'step_count' must be a finite number, got 1000"),
        (lambda row: json.dumps({**row, "triggered": 1}), r"line 3: unknown field 'triggered'$"),
        (lambda row: json.dumps({**row, "features": {"step_count": 1.0}}), r"line 3: unknown field 'features'$"),
        (lambda row: json.dumps({**row, "env_meta": {"env": "x"}}), r"line 3: unknown field 'env_meta'$"),
        (lambda row: json.dumps({**row, "utility_label": True}), r"line 3: utility_label must be binary, got True$"),
        (lambda row: json.dumps({**row, "utility_label": 1.0}), r"line 3: utility_label must be binary, got 1.0$"),
        (lambda row: json.dumps({**row, "episode_id": "a"}), r"line 3: episode_id must be a non-negative integer, got 'a'$"),
        (lambda row: json.dumps({**row, "episode_id": -1}), r"line 3: episode_id must be a non-negative integer, got -1$"),
        (lambda row: json.dumps({**row, "step_index": 2.5}), r"line 3: step_index must be a non-negative integer, got 2.5$"),
        (lambda row: json.dumps({**row, "step_index": True}), r"line 3: step_index must be a non-negative integer, got True$"),
    ],
    ids=["bad-json", "no-signal", "label-two", "not-an-object", "signal-text", "signal-bool",
         "signal-nan", "signal-huge", "obs-null", "obs-list", "obs-text", "obs-bool", "obs-nan", "obs-inf", "obs-huge",
         "triggered-one", "features", "env-meta", "label-bool",
         "label-float", "episode-text", "episode-negative", "step-fraction", "step-bool"],
)
def test_loader_names_the_file_and_line_of_a_bad_record(tmp_path, edit, message):
    ds = run_exploration(TwoSourceEnv(TwoSourceParams()), eps=0.5, n_episodes=1, seed=8)
    lines = dataset_to_jsonl(ds).splitlines()  # the header, then episode 0's steps 0, 1, ...
    lines[2] = edit(json.loads(lines[2]))
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_dataset_jsonl(str(path))
