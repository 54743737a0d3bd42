"""Two-source environment: determinism, mixture structure, reward rule."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dial.envs import EnvFault
from dial.explore import estimate_utility_paired
from dial.rng import stream
from dial.stats import spearman
from dial.twosource import (
    TYPE_D,
    TYPE_I,
    InvalidParams,
    TwoSourceEnv,
    TwoSourceEpisode,
    TwoSourceParams,
    _draw_states,
    _episode_columns,
    sample_states,
)


def collect_episode(params, seed):
    ep = TwoSourceEpisode(params, seed)
    rows = []
    while not ep.done():
        obs = ep.observe()
        debug = ep.debug_state()
        rows.append((obs, debug))
        ep.step(False)
    return rows


def test_same_seed_identical_step_sequence():
    params = TwoSourceParams(noise_sd=0.2, fidelity_q=0.7)
    assert collect_episode(params, 123) == collect_episode(params, 123)


def test_different_seeds_differ():
    params = TwoSourceParams()
    a = collect_episode(params, 1)
    b = collect_episode(params, 2)
    assert any(ra[0]["signal"] != rb[0]["signal"] for ra, rb in zip(a, b))


def test_degenerate_horizon_rejected():
    with pytest.raises(InvalidParams):
        TwoSourceParams(horizon=0)


@pytest.mark.parametrize("horizon", [4.5, 10.0, True, "10"], ids=["fraction", "float", "bool", "text"])
def test_non_integer_horizon_rejected(horizon):
    # A fractional horizon would run ceil(horizon) steps with no finishing
    # step and a fractional success threshold.
    with pytest.raises(InvalidParams, match="^horizon: must be a positive integer"):
        TwoSourceParams(horizon=horizon)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"base_reward": "1"}, "base_reward: must be a real number"),
        ({"p_i_slope": "0.1"}, "p_i_slope: must be a real number"),
        ({"alpha": "x"}, "alpha: must be a real number"),
        ({"fidelity_q": True}, "fidelity_q: must be a real number"),
        ({"noise_sd": float("nan")}, "noise_sd: must be finite"),
        ({"success_threshold": float("inf")}, "success_threshold: must be finite"),
        ({"alpha": 10**400}, "alpha: must be finite"),
        ({"base_reward": np.float32("inf")}, "base_reward: must be finite"),
        ({"noise_sd": np.float16("inf")}, "noise_sd: must be finite"),
        ({"beta": 0.0}, "beta: must be positive"),
    ],
    ids=["reward-text", "slope-text", "alpha-text", "bool", "nan", "inf-threshold", "past-float-range",
         "float32-inf", "float16-inf", "beta-zero"],
)
def test_ill_typed_params_refused_by_name(kwargs, message):
    # Never loaded as a string that later repeats or compares as text.
    with pytest.raises(InvalidParams, match=f"^{message}"):
        TwoSourceParams(**kwargs)


def test_numpy_float_params_build():
    params = TwoSourceParams(base_reward=np.float32(0.5), horizon=np.int64(4))
    assert params.base_reward == 0.5 and params.success_threshold == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"beta": -1.0},
        {"p_i0": 1.5},
        {"noise_sd": -0.1},
        {"fidelity_q": 2.0},
        {"trigger_cost_units": 0.0},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidParams):
        TwoSourceParams(**kwargs)


def test_mixture_schedule_clamp_arithmetic():
    params = TwoSourceParams(p_i0=0.3, p_i_slope=0.05, horizon=10)
    assert params.p_i(9) == pytest.approx(0.75)
    assert params.p_i(0) == pytest.approx(0.3)
    steep = TwoSourceParams(p_i0=0.9, p_i_slope=0.2, horizon=10)
    assert steep.p_i(9) == 1.0  # clamped


def test_fidelity_one_makes_proxy_deterministic():
    states = sample_states(TwoSourceParams(fidelity_q=1.0), 5000, seed=0)
    assert np.array_equal(states["type_proxy"], states["is_type_d"].astype(int))


def test_fidelity_zero_decouples_proxy_from_type():
    states = sample_states(TwoSourceParams(fidelity_q=0.0, p_i0=0.5), 10_000, seed=1)
    corr = np.corrcoef(states["type_proxy"], states["is_type_d"].astype(float))[0, 1]
    assert abs(corr) < 0.05


def test_intermediate_fidelity_match_probability():
    q = 0.6
    states = sample_states(TwoSourceParams(fidelity_q=q, p_i0=0.5), 20_000, seed=2)
    match = (states["type_proxy"] == states["is_type_d"].astype(int)).mean()
    assert match == pytest.approx((1 + q) / 2, abs=0.02)


def test_observation_hides_latent_fields():
    ep = TwoSourceEpisode(TwoSourceParams(), seed=3)
    obs = ep.observe()
    assert set(obs) == {"step_count", "signal", "type_proxy", "num_options", "is_finish"}
    assert "true_utility" not in obs and "latent_type" not in obs


def _arms(params, seed, **state):
    # Per step of the episode with this seed: the triggered and the
    # untriggered reward of the state (a fork of lookahead 0 returns the
    # triggered one) and the state's debug record. ``state`` overrides
    # the first state's columns.
    ep = TwoSourceEpisode(params, seed)
    ep._cols = {name: [state.get(name, column[0])] + column[1:] for name, column in ep._cols.items()}
    arms = []
    while not ep.done():
        debug = ep.debug_state()
        arms.append((ep.fork(reseed=seed, lookahead=0, triggered=True), ep.step(False), debug))
    return arms


def test_step_return_difference_is_utility_type_d():
    params = TwoSourceParams(beta=1.0, p_i0=0.0, noise_sd=0.0)
    for triggered, untriggered, debug in _arms(params, seed=12):
        assert debug["latent_type"] == TYPE_D and debug["true_utility"] > 0
        assert triggered - untriggered == pytest.approx(debug["true_utility"])


def test_step_return_difference_is_utility_type_i():
    params = TwoSourceParams(alpha=1.0, p_i0=1.0, noise_sd=0.0)
    for triggered, untriggered, debug in _arms(params, seed=13):
        assert debug["latent_type"] == TYPE_I and debug["true_utility"] < 0
        assert triggered - untriggered == pytest.approx(debug["true_utility"])


def test_zero_signal_zero_noise_arms_equal():
    params = TwoSourceParams(noise_sd=0.0)
    triggered, untriggered, debug = _arms(params, seed=14, is_type_d=False, signal=0.0, true_utility=0.0)[0]
    assert debug["true_utility"] == 0.0
    assert triggered == untriggered == params.base_reward


def test_reward_noise_shared_between_arms():
    # The paired difference stays exactly the utility even with noise.
    params = TwoSourceParams(noise_sd=0.5)
    arms = _arms(params, seed=15)
    assert len({untriggered for _, untriggered, _ in arms}) == params.horizon  # the noise varies per step
    for triggered, untriggered, debug in arms:
        assert triggered - untriggered == pytest.approx(debug["true_utility"], abs=1e-12)


def test_snapshot_returns_differ_by_the_true_utility():
    # At lookahead 0 a fork's return is the snapshot step alone, so the
    # two arms differ by the state's utility, noise and all.
    ep = TwoSourceEpisode(TwoSourceParams(noise_sd=0.3, p_i_slope=0.05), seed=16)
    while not ep.done():
        triggered, untriggered = (ep.fork(reseed=7, lookahead=0, triggered=arm) for arm in (True, False))
        assert triggered - untriggered == pytest.approx(ep.debug_state()["true_utility"], abs=1e-12)
        ep.step(False)


def test_pure_type_extremes_have_exact_rank_correlation():
    pure_i = sample_states(TwoSourceParams(p_i0=1.0, noise_sd=0.0), 500, seed=4)
    assert spearman(pure_i["signal"], pure_i["true_utility"]).rho == pytest.approx(-1.0)
    pure_d = sample_states(TwoSourceParams(p_i0=0.0, noise_sd=0.0), 500, seed=5)
    assert spearman(pure_d["signal"], pure_d["true_utility"]).rho == pytest.approx(1.0)


def test_mixture_sign_tracks_prediction():
    # Quick version of the full acceptance sweep.
    for p_i0, expect in ((0.25, 1), (0.75, -1)):
        states = sample_states(
            TwoSourceParams(p_i0=p_i0, noise_sd=0.3), 5000, seed=int(p_i0 * 100)
        )
        rho = spearman(states["signal"], states["true_utility"]).rho
        assert np.sign(rho) == expect


def test_simpson_reversal_at_high_mixture():
    states = sample_states(TwoSourceParams(p_i0=0.8, noise_sd=0.3), 5000, seed=6)
    d = states["is_type_d"]
    within_d = spearman(states["signal"][d], states["true_utility"][d]).rho
    aggregate = spearman(states["signal"], states["true_utility"]).rho
    assert within_d > 0.3 and aggregate < -0.1


def test_episode_return_is_sum_of_step_returns_and_reproducible():
    params = TwoSourceParams(noise_sd=0.2)
    triggers = [True, False] * 5
    totals = []
    for _ in range(2):
        ep = TwoSourceEpisode(params, seed=7)
        total = 0.0
        for trig in triggers:
            total += ep.step(trig)
        totals.append(total)
    assert totals[0] == totals[1]  # bit-identical


def _read_state(episode, triggered):
    # observe(), debug_state() and the step reward read every state
    # column between them; the reward adds true_utility when triggered.
    return episode.observe(), episode.debug_state(), episode.step(triggered)


def test_episode_must_be_built_from_params():
    with pytest.raises(InvalidParams, match="TwoSourceParams"):
        TwoSourceEpisode({"horizon": 10}, seed=1)


def test_episodes_built_on_one_seed_share_one_draw():
    params = TwoSourceParams(noise_sd=0.3)
    first = TwoSourceEpisode(params, seed=4)
    first.step(True)
    second = TwoSourceEpisode(params, seed=4)
    assert second._cols is first._cols  # the second episode draws nothing
    assert second.observe()["step_count"] == 0.0  # but keeps a cursor of its own
    expected = sample_states(params, params.horizon, 4)
    assert second._cols.keys() == expected.keys()
    for name, column in expected.items():
        assert second._cols[name] == column.tolist()
    other = TwoSourceEpisode(params, seed=5)
    assert other._cols != first._cols
    again = TwoSourceEpisode(params, seed=4)  # one slot: seed 5 evicted seed 4, so this is a fresh draw
    assert again._cols == first._cols and again._cols is not first._cols


def test_fork_reseed_shares_snapshot_but_diverges_later():
    for triggered in (False, True):
        ep = TwoSourceEpisode(TwoSourceParams(noise_sd=0.3), seed=9)
        ep.step(False)
        snapshot = {ep.fork(reseed=s, lookahead=0, triggered=triggered) for s in (100, 200)}
        later = {ep.fork(reseed=s, triggered=triggered) for s in (100, 200)}
        assert snapshot == {_read_state(ep, triggered)[2]}
        assert len(later) == 2


def test_fork_rollouts_do_not_mutate_parent():
    # A fork moves neither the cursor nor the observation of the episode
    # it is made on, whatever its lookahead, arm or sibling.
    for triggered in (False, True):
        ep = TwoSourceEpisode(TwoSourceParams(noise_sd=0.3), seed=10)
        twin = TwoSourceEpisode(TwoSourceParams(noise_sd=0.3), seed=10)
        while not twin.done():
            for lookahead in (None, 0, 2):
                for index in (0, 4):
                    ep.fork(reseed=1, lookahead=lookahead, triggered=True, index=index, count=5)
            assert ep._cursor == twin._cursor
            assert _read_state(ep, triggered) == _read_state(twin, triggered)
        assert ep.done()


def test_stepping_past_horizon_raises():
    ep = TwoSourceEpisode(TwoSourceParams(horizon=2), seed=11)
    ep.step(False)
    ep.step(False)
    assert ep.done()
    with pytest.raises(EnvFault):
        ep.step(False)


def test_success_threshold_defaults_to_base_return():
    params = TwoSourceParams(horizon=10, base_reward=1.0)
    assert params.success_threshold == pytest.approx(10.0)
    env = TwoSourceEnv(params)
    assert env.episode_success(10.0) and not env.episode_success(9.99)


def test_base_only_success_rate_is_interior_with_noise():
    # Shared reward noise makes the never-trigger return a proper
    # distribution around the threshold instead of a point mass.
    params = TwoSourceParams(noise_sd=0.1)
    env = TwoSourceEnv(params)
    successes = 0
    for i in range(400):
        ep = env.episode(i)
        total = 0.0
        while not ep.done():
            total += ep.step(False)
        successes += int(env.episode_success(total))
    assert 0.35 < successes / 400 < 0.65


@pytest.mark.parametrize(
    "params",
    [
        TwoSourceParams(),
        TwoSourceParams(fidelity_q=0.4, noise_sd=0.3, horizon=7),
        TwoSourceParams(alpha=2.5, beta=0.4, p_i0=0.9, p_i_slope=0.04, fidelity_q=0.0, noise_sd=0.0),
        TwoSourceParams(p_i0=0.1, p_i_slope=0.3, fidelity_q=0.8, noise_sd=0.05, horizon=12),
    ],
)
@pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
def test_episode_rows_equal_sample_states_bit_for_bit(params, seed):
    # sample_states draws on its own stream; over one episode's
    # positions it must give the states an episode with that seed gives.
    states = sample_states(params, params.horizon, seed)
    ep = TwoSourceEpisode(params, seed)
    for i in range(params.horizon):
        obs, debug = ep.observe(), ep.debug_state()
        assert obs["step_count"] == states["step_index"][i]
        assert obs["signal"] == states["signal"][i]
        assert obs["type_proxy"] == states["type_proxy"][i]
        assert obs["num_options"] == states["num_options"][i]
        assert obs["is_finish"] == states["is_finish"][i]
        assert (debug["latent_type"] == "D") == states["is_type_d"][i]
        assert debug["true_utility"] == states["true_utility"][i]
        assert ep.step(False) == params.base_reward + states["reward_noise"][i]
    assert ep.done()


_COLUMN_TYPES = {
    "step_index": int, "is_type_d": bool, "signal": float, "type_proxy": int,
    "num_options": int, "true_utility": float, "reward_noise": float, "is_finish": bool,
}


@pytest.mark.parametrize("params", [TwoSourceParams(), TwoSourceParams(p_i0=0.3, fidelity_q=0.5, horizon=4)])
def test_episode_columns_carry_python_scalars_equal_to_sample_states(params):
    # An episode's cached columns hold Python scalars (never numpy
    # scalars) with the values sample_states draws for the same seed and
    # positions, and every observation value is a Python float.
    _episode_columns.cache_clear()
    columns = _episode_columns(params, 23)
    states = sample_states(params, params.horizon, 23)
    assert columns.keys() == states.keys() == _COLUMN_TYPES.keys()
    for name, column in columns.items():
        assert isinstance(column, list) and len(column) == params.horizon
        assert {type(v) for v in column} == {_COLUMN_TYPES[name]}
        assert column == states[name].tolist()
    ep = TwoSourceEpisode(params, 23)
    assert ep._cols is columns
    while not ep.done():
        assert {type(v) for v in ep.observe().values()} == {float}
        ep.step(False)


def _columns_digest(states):
    h = hashlib.sha256()
    for key in sorted(states):
        col = np.ascontiguousarray(states[key])
        h.update(f"{key}:{col.dtype.str}:{col.shape};".encode())
        h.update(col.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "params, seed, golden",
    [
        (TwoSourceParams(noise_sd=0.0), 3,
         "df51a523a5521cb4454a40dd45e8ab6114d2eb662061bbde9b9af2715880fdc8"),
        (TwoSourceParams(fidelity_q=0.0, p_i0=0.3), 5,
         "c60497e9b088bda48bbef6bc451b1a8e772ca63775ebc1da1aaf37a47640f982"),
        (TwoSourceParams(p_i0=0.2, p_i_slope=0.07, noise_sd=0.25, fidelity_q=0.6), 8,
         "e21280ea78046265e8321afc9ee7ee923677713fc473b88ffe626be24d21074f"),
        # 500 is not a multiple of the horizon: the last cycle is cut short.
        (TwoSourceParams(horizon=7, alpha=2.0, beta=0.5), 2**40 + 1,
         "747f34e673e1cbd85a304fe01d24fad1e6a90b085d32ea728c3ecac9048d6a59"),
    ],
    ids=["noiseless", "uninformative-proxy", "drifting", "horizon7-cut-cycle"],
)
def test_sample_states_columns_are_pinned(params, seed, golden):
    # Keys, dtypes, shapes and bits of every column; verify's bundle and
    # the acceptance criteria read these columns.
    assert _columns_digest(sample_states(params, 500, seed)) == golden


# -- forks: a rollout's return sums the snapshot reward and its own noise -----


def _repr_digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _episode_labels(params, k, n, h, seeds=range(12)):
    # One label at every step, so snapshots near the end (lookahead cut
    # by the horizon) are covered.
    labels = []
    for seed in seeds:
        ep = TwoSourceEpisode(params, seed)
        t = 0
        while not ep.done():
            labels.append(estimate_utility_paired(ep, k, n, h, seed=1000 * seed + t))
            ep.step(t % 3 == 0)
            t += 1
    return labels


def _rollout_returns(params, lookahead, seeds=range(8)):
    returns = []
    for seed in seeds:
        ep = TwoSourceEpisode(params, seed)
        for t in range(params.horizon):
            returns.append(ep.fork(reseed=100 * seed + t, lookahead=lookahead, triggered=True))
            ep.step(False)
    return returns


@pytest.mark.parametrize(
    "params, knh, golden",
    [
        (TwoSourceParams(), (5, 5, 3),
         "0d95589d9f996a0f6e5f171599e9eedc4a96df5db27be1045ae4eb156cfff8fc"),
        (TwoSourceParams(noise_sd=0.0), (5, 5, 3),
         "6902b0e7f1715312750b979a94c277f7f8fea7e870e68484129e63f05ce3bb6d"),
        (TwoSourceParams(horizon=1), (5, 5, 3),
         "6ee777b96d657fad57763d1bc0eca7711fc126b258960fc2e499f10d8f773b48"),
        (TwoSourceParams(horizon=4, noise_sd=0.3, fidelity_q=0.5), (2, 1, 1),
         "4e95dda99ae6bd3a6b7d958b80a32738f57afa584031bb351e83ec64e74e5462"),
        (TwoSourceParams(p_i0=0.2, p_i_slope=0.07, noise_sd=0.25, fidelity_q=0.6, horizon=7), (3, 2, 6),
         "7a75ef8383025e8439c32ffc87f842e21d2056c8d47f4865828a042897640173"),
    ],
    ids=["default", "noiseless", "horizon1", "k2-n1-h1", "drifting-h6"],
)
def test_paired_labels_are_pinned(params, knh, golden):
    assert _repr_digest(_episode_labels(params, *knh)) == golden


@pytest.mark.parametrize(
    "lookahead, golden",
    [
        (None, "b641d2ed905d302dda3359228bbe73482a735dc6ffc7ff30e48a6e6db6f522f3"),
        (0, "2bd6fb1e46a81dd48e1a5cb030539e6b5fdd0a2e93fc5616a1375f014958a989"),
        (2, "385ab1603a75b70048c0d141966361cfaaf047b8da1acb0540c23567b08a347e"),
    ],
    ids=["to-horizon", "lookahead0", "lookahead2"],
)
def test_rollout_rewards_are_pinned(lookahead, golden):
    # Each golden is the digest of the per-step rewards of version 0.3.0's
    # stepped forks, each row summed in step order: a fork's return keeps
    # the bits of the rollout it replaced.
    params = TwoSourceParams(noise_sd=0.3, fidelity_q=0.6, p_i_slope=0.05, horizon=7)
    assert _repr_digest(_rollout_returns(params, lookahead)) == golden


@pytest.mark.parametrize("lookahead", [-1, -4])
def test_fork_rejects_negative_lookahead(lookahead):
    ep = TwoSourceEpisode(TwoSourceParams(), seed=4)
    with pytest.raises(ValueError, match="lookahead must be nonnegative"):
        ep.fork(reseed=1, lookahead=lookahead, triggered=False)


# -- sibling forks: one keyed draw per paired label ----------------------------

_SIBLING_PARAMS = TwoSourceParams(noise_sd=0.3, fidelity_q=0.6, p_i_slope=0.05, horizon=8)
_COUNTS = [1, 5, 25]
_LOOKAHEADS = [0, 1, 3, None]


def _siblings(count, lookahead, order=None, triggered=True):
    # A fresh parent each call, so no family's noise is shared with
    # another call; the forks are made in ``order``.
    ep = TwoSourceEpisode(_SIBLING_PARAMS, 33)
    ep.step(False)
    returns = {i: ep.fork(5, lookahead, triggered=triggered, index=i, count=count) for i in (order or range(count))}
    return [returns[i] for i in range(count)]


@pytest.mark.parametrize("lookahead", _LOOKAHEADS)
@pytest.mark.parametrize("count", _COUNTS)
def test_sibling_noise_read_equals_observed_twin(count, lookahead):
    # The twin is the one state derivation itself: sibling i's return is
    # the snapshot's triggered reward, then base_reward plus each value of
    # its slice of the reward_noise column that _draw_states gives on
    # stream(reseed) for the lookahead steps tiled count times, added in
    # step order, bit for bit, whether the siblings are made in forward
    # or in reverse order.
    params = _SIBLING_PARAMS
    steps = np.arange(2, params.horizon if lookahead is None else min(2 + lookahead, params.horizon))
    m = len(steps)
    noise = _draw_states(params, stream(5), np.tile(steps, count))["reward_noise"].tolist()
    columns = sample_states(params, params.horizon, 33)
    snapshot = params.base_reward + columns["reward_noise"][1].item() + columns["true_utility"][1].item()
    expected = []
    for i in range(count):
        total = snapshot
        for z in noise[i * m : (i + 1) * m]:
            total += params.base_reward + z
        expected.append(total)
    for order in (list(range(count)), list(reversed(range(count)))):
        assert _siblings(count, lookahead, order) == expected


@pytest.mark.parametrize("lookahead", _LOOKAHEADS)
@pytest.mark.parametrize("count", _COUNTS)
def test_siblings_are_pairwise_distinct(count, lookahead):
    # Siblings share the snapshot step and no noise past it; at lookahead
    # 0 a sibling's return is the snapshot step alone.
    for triggered in (False, True):
        returns = _siblings(count, lookahead, triggered=triggered)
        assert len(set(returns)) == (1 if lookahead == 0 else count)


@pytest.mark.parametrize("lookahead", _LOOKAHEADS)
@pytest.mark.parametrize("count", _COUNTS)
def test_fork_is_done_at_its_lookahead(count, lookahead):
    # Noise-free, from every snapshot, first and last sibling, the
    # snapshot step triggered or not: the return adds base_reward once per
    # step past the snapshot, min(lookahead, horizon - t - 1) times
    # (horizon - t - 1 when None). On a finished episode a fork raises.
    params = TwoSourceParams(noise_sd=0.0, fidelity_q=0.6, p_i_slope=0.05, horizon=8)
    ep = TwoSourceEpisode(params, 33)
    for t in range(params.horizon):
        past = params.horizon - t - 1 if lookahead is None else min(lookahead, params.horizon - t - 1)
        for triggered in (False, True):
            expected = params.base_reward + (ep.debug_state()["true_utility"] if triggered else 0.0)
            for _ in range(past):
                expected += params.base_reward
            for index in sorted({0, count - 1}):
                assert ep.fork(5, lookahead, triggered=triggered, index=index, count=count) == expected
        ep.step(False)
    with pytest.raises(EnvFault, match="finished"):
        ep.fork(5, lookahead, triggered=False, index=count - 1, count=count)


@pytest.mark.parametrize("index, count", [(0, 0), (0, -2), (-1, 5), (5, 5), (30, 25)])
def test_fork_rejects_a_sibling_outside_its_family(index, count):
    ep = TwoSourceEpisode(TwoSourceParams(), seed=4)
    with pytest.raises(ValueError, match="index < count"):
        ep.fork(reseed=1, lookahead=2, triggered=True, index=index, count=count)
