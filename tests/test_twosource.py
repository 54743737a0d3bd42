"""Two-source environment: determinism, mixture structure, reward rule."""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dial.cli import VERIFY_TEMPORAL_MIN_NOISE, VERIFY_TEMPORAL_P0, VERIFY_TEMPORAL_SLOPE, load_config
from dial.envs import EnvFault
from dial.explore import estimate_utility_paired
from dial.rng import derive_seed, stream
from dial.stats import spearman
from dial import twosource
from dial.twosource import (
    OBSERVATION_FIELDS,
    TYPE_D,
    TYPE_I,
    InvalidParams,
    TwoSourceEnv,
    TwoSourceParams,
    _derive,
    _draw,
    sample_states,
)


def _episode(params, seed):
    # A fresh episode on ``seed``: row 0 of a one-seed run.
    return TwoSourceEnv(params).episodes([seed]).start(0)


def _assert_finished(ep):
    # Past its last step an episode has no current state to read.
    with pytest.raises(EnvFault, match="^episode is finished$"):
        ep.observe()


def collect_episode(params, seed):
    ep = _episode(params, seed)
    rows = []
    for _ in range(params.horizon):
        obs = ep.observe()
        debug = ep.debug_state()
        rows.append((obs, debug))
        ep.step(False)
    _assert_finished(ep)
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
        ({"trigger_cost_units": float("inf")}, "trigger_cost_units: must be finite"),
        ({"alpha": 10**400}, "alpha: must be finite"),
        ({"base_reward": np.float32("inf")}, "base_reward: must be finite"),
        ({"noise_sd": np.float16("inf")}, "noise_sd: must be finite"),
        ({"beta": 0.0}, "beta: must be positive"),
    ],
    ids=["reward-text", "slope-text", "alpha-text", "bool", "nan", "inf-cost", "past-float-range",
         "float32-inf", "float16-inf", "beta-zero"],
)
def test_ill_typed_params_refused_by_name(kwargs, message):
    # Never loaded as a string that later repeats or compares as text.
    with pytest.raises(InvalidParams, match=f"^{message}"):
        TwoSourceParams(**kwargs)


def test_numpy_float_params_build():
    params = TwoSourceParams(base_reward=np.float32(0.5), horizon=np.int64(4))
    env = TwoSourceEnv(params)
    assert params.base_reward == 0.5 and env.episode_success(2.0) and not env.episode_success(math.nextafter(2.0, 0))


# A lookahead past every horizon in this module: the fork clips it at the
# episode's end, so the rollout runs to the end.
_TO_END = 100


def _rewards(params, seed):
    # Every step's reward and a triggered and an untriggered fork at each state.
    ep, out = _episode(params, seed), []
    for _ in range(params.horizon):
        out += [ep.fork(reseed=seed, lookahead=2, triggered=True, count=3, index=1),
                ep.fork(reseed=seed, lookahead=_TO_END, triggered=False), ep.step(True)]
    return out


@pytest.mark.parametrize(
    "kwargs",
    [{"base_reward": np.float32(0.5)},
     {"base_reward": np.float32(0.7), "noise_sd": np.float32(0.3), "alpha": np.float16(1.7), "horizon": np.int64(6)}],
    ids=["float32-reward", "mixed"],
)
def test_numpy_scalar_params_step_and_fork_as_python_floats(kwargs):
    # Each field is stored as a Python scalar, so numpy-scalar params give
    # the bits of the params holding those values as Python floats.
    params = TwoSourceParams(**kwargs)
    assert {f.name: type(getattr(params, f.name)) for f in fields(params)} == {
        f.name: int if f.name == "horizon" else float for f in fields(params)}
    as_floats = TwoSourceParams(**{k: int(v) if k == "horizon" else float(v) for k, v in kwargs.items()})
    got = _rewards(params, 11)
    expected = _rewards(as_floats, 11)
    assert {type(r) for r in got} == {float}
    assert [r.hex() for r in got] == [r.hex() for r in expected]


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
    ep = _episode(TwoSourceParams(), seed=3)
    obs = ep.observe()
    assert set(obs) == {"step_count", "signal", "type_proxy", "num_options", "is_finish"}
    assert "true_utility" not in obs and "latent_type" not in obs


def test_each_observation_is_a_new_dict():
    # Episodes on one seed share their observation records; observe hands
    # out copies, so a caller that writes to one changes no other.
    params = TwoSourceParams(noise_sd=0.3)
    run = TwoSourceEnv(params).episodes([6])
    ep = run.start(0)
    first = ep.observe()
    expected = dict(first)
    first["signal"] = 99.0
    first["extra"] = 1.0
    second = ep.observe()
    assert second is not first and second == expected
    second.clear()
    twin = run.start(0)
    assert twin._observations is ep._observations and twin.observe() == expected
    ep.step(False)
    twin.step(False)
    assert ep.observe() == twin.observe() and ep.observe() is not twin.observe()


def _arms(params, seed):
    # Per step of the episode with this seed: the triggered and the
    # untriggered reward of the state (a fork of lookahead 0 returns the
    # triggered one) and the state's debug record.
    ep = _episode(params, seed)
    arms = []
    for _ in range(params.horizon):
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


def test_zero_signal_zero_noise_arms_equal(monkeypatch):
    # The first state's signal and type uniforms drawn as 0.0: an
    # unsuitable state of signal 0, so of utility 0 with no noise.
    draw = twosource._draw

    def zero_first_state(seeds, n):
        z, u = draw(seeds, n)
        u[:, [0, n]] = 0.0
        return z, u

    monkeypatch.setattr(twosource, "_draw", zero_first_state)
    params = TwoSourceParams(noise_sd=0.0)
    triggered, untriggered, debug = _arms(params, seed=14)[0]
    assert debug == {"latent_type": TYPE_I, "true_utility": 0.0}
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
    # Each is exactly what ``step`` returns for its arm: both read the
    # run's reward columns.
    params = TwoSourceParams(noise_sd=0.3, p_i_slope=0.05)
    run = TwoSourceEnv(params).episodes([16])
    ep, twin = run.start(0), run.start(0)
    for _ in range(params.horizon):
        triggered, untriggered = (ep.fork(reseed=7, lookahead=0, triggered=arm) for arm in (True, False))
        assert triggered - untriggered == pytest.approx(ep.debug_state()["true_utility"], abs=1e-12)
        assert (triggered, untriggered) == (twin.step(True), ep.step(False))


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
        ep = _episode(params, seed=7)
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
        TwoSourceEnv({"horizon": 10}).episodes([1])


def test_episodes_built_on_one_seed_share_one_draw():
    # Episodes started on one row of a run share its lists, and the row
    # cache holds one row: starting another evicts it.
    params = TwoSourceParams(noise_sd=0.3)
    run = TwoSourceEnv(params).episodes([4, 5])
    first = run.start(0)
    first.step(True)
    second = run.start(0)
    assert second._cols is first._cols  # the second episode builds nothing
    assert second.observe()["step_count"] == 0.0  # but keeps a cursor of its own
    expected = {name: column.tolist() for name, column in sample_states(params, params.horizon, 4).items()}
    expected["reward"] = [params.base_reward + z for z in expected["reward_noise"]]
    expected["triggered_reward"] = [r + u for r, u in zip(expected["reward"], expected["true_utility"])]
    assert second._cols == expected
    other = run.start(1)
    assert other._cols != first._cols
    again = run.start(0)  # one slot: row 1 evicted row 0, so this is a fresh build
    assert again._cols == first._cols and again._cols is not first._cols


def test_fork_reseed_shares_snapshot_but_diverges_later():
    for triggered in (False, True):
        ep = _episode(TwoSourceParams(noise_sd=0.3), seed=9)
        ep.step(False)
        snapshot = {ep.fork(reseed=s, lookahead=0, triggered=triggered) for s in (100, 200)}
        later = {ep.fork(reseed=s, lookahead=_TO_END, triggered=triggered) for s in (100, 200)}
        assert snapshot == {_read_state(ep, triggered)[2]}
        assert len(later) == 2


def test_fork_rollouts_do_not_mutate_parent():
    # A fork moves neither the cursor nor the observation of the episode
    # it is made on, whatever its lookahead, arm or sibling.
    params = TwoSourceParams(noise_sd=0.3)
    for triggered in (False, True):
        ep = _episode(params, seed=10)
        twin = _episode(params, seed=10)
        for _ in range(params.horizon):
            for lookahead in (_TO_END, 0, 2):
                for index in (0, 4):
                    ep.fork(reseed=1, lookahead=lookahead, triggered=True, index=index, count=5)
            assert ep._cursor == twin._cursor
            assert _read_state(ep, triggered) == _read_state(twin, triggered)
        _assert_finished(ep)


def test_stepping_past_horizon_raises():
    env = TwoSourceEnv(TwoSourceParams(horizon=2))
    assert env.horizon == 2
    ep = env.episodes([11]).start(0)
    ep.step(False)
    ep.step(False)
    for call in (lambda: ep.step(False), ep.observe, ep.debug_state,
                 lambda: ep.fork(reseed=1, lookahead=0, triggered=False)):
        with pytest.raises(EnvFault, match="^episode is finished$"):
            call()


def test_an_episode_succeeds_when_its_return_reaches_horizon_times_base_reward():
    # A return of exactly horizon * base_reward succeeds; one a ulp below fails.
    for horizon, base_reward in ((10, 1.0), (7, 0.3)):
        env = TwoSourceEnv(TwoSourceParams(horizon=horizon, base_reward=base_reward))
        threshold = horizon * base_reward
        assert env.episode_success(threshold) and not env.episode_success(math.nextafter(threshold, -math.inf))


def test_base_only_success_rate_is_interior_with_noise():
    # Shared reward noise makes the never-trigger return a proper
    # distribution around the threshold instead of a point mass.
    params = TwoSourceParams(noise_sd=0.1)
    env = TwoSourceEnv(params)
    successes = 0
    episodes = env.episodes(range(400))
    for i in range(400):
        ep = episodes.start(i)
        total = 0.0
        for _ in range(env.horizon):
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
    ep = _episode(params, seed)
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
    _assert_finished(ep)


_COLUMN_TYPES = {
    "step_index": int, "is_type_d": bool, "signal": float, "type_proxy": int,
    "num_options": int, "true_utility": float, "reward_noise": float, "is_finish": bool,
    "reward": float, "triggered_reward": float,
}


@pytest.mark.parametrize("params", [TwoSourceParams(), TwoSourceParams(p_i0=0.3, fidelity_q=0.5, horizon=4)])
def test_episode_columns_carry_python_scalars_equal_to_sample_states(params):
    # An episode's cached columns hold Python scalars (never numpy
    # scalars) with the values sample_states draws for the same seed and
    # positions, each arm's reward besides, and every observation value
    # is a Python float.
    run = TwoSourceEnv(params).episodes([23])
    ep = run.start(0)
    columns, observations = ep._cols, ep._observations
    states = {name: column.tolist() for name, column in sample_states(params, params.horizon, 23).items()}
    states["reward"] = [params.base_reward + z for z in states["reward_noise"]]
    states["triggered_reward"] = [r + u for r, u in zip(states["reward"], states["true_utility"])]
    assert columns.keys() == states.keys() == _COLUMN_TYPES.keys()
    for name, column in columns.items():
        assert isinstance(column, list) and len(column) == params.horizon
        assert {type(v) for v in column} == {_COLUMN_TYPES[name]}
        assert column == states[name]
    ep = run.start(0)
    assert ep._cols is columns and ep._observations is observations
    for _ in range(params.horizon):
        assert {type(v) for v in ep.observe().values()} == {float}
        ep.step(False)
    _assert_finished(ep)


def test_every_observation_carries_exactly_the_declared_fields():
    # Config load refuses a threshold signal outside OBSERVATION_FIELDS.
    ep = TwoSourceEnv(TwoSourceParams(horizon=3)).episodes([4]).start(0)
    for _ in range(3):
        assert tuple(ep.observe()) == OBSERVATION_FIELDS
        ep.step(False)


_DEMO_PARAMS = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "demo.json")).env_params
_VERIFY_DRIFTING = replace(_DEMO_PARAMS, p_i0=VERIFY_TEMPORAL_P0, p_i_slope=VERIFY_TEMPORAL_SLOPE,
                           noise_sd=max(_DEMO_PARAMS.noise_sd, VERIFY_TEMPORAL_MIN_NOISE))  # as cmd_verify builds it


@pytest.mark.parametrize("params", [_DEMO_PARAMS, _VERIFY_DRIFTING, TwoSourceParams(fidelity_q=0.5, horizon=7)],
                         ids=["demo", "verify-drifting", "q0.5-horizon7"])
def test_a_run_is_one_block_of_the_per_seed_states(params):
    # A run of 2,000 episodes is drawn and derived as one (N, H) block;
    # row i of every column has the bits of sample_states on seed i, and
    # the episode start(i) makes replays that seed's observations, hidden
    # states and rewards, both arms of each step.
    seeds = [derive_seed(37, "block", i) for i in range(2000)]
    run = TwoSourceEnv(params).episodes(seeds)
    assert {column.shape for column in run._block.values()} == {(len(seeds), params.horizon)}
    for i, seed in enumerate(seeds):
        states = sample_states(params, params.horizon, seed)
        states["reward"] = params.base_reward + states["reward_noise"]
        states["triggered_reward"] = states["reward"] + states["true_utility"]
        assert run._block.keys() == states.keys()
        for name, column in states.items():
            assert run._block[name][i].dtype == column.dtype and run._block[name][i].tobytes() == column.tobytes()
        ep = run.start(i)
        for t in range(params.horizon):
            assert ep.observe() == {"step_count": float(t), "signal": states["signal"][t].item(),
                                    "type_proxy": float(states["type_proxy"][t]),
                                    "num_options": float(states["num_options"][t]),
                                    "is_finish": float(states["is_finish"][t])}
            assert ep.debug_state() == {"latent_type": TYPE_D if states["is_type_d"][t] else TYPE_I,
                                        "true_utility": states["true_utility"][t].item()}
            untriggered = params.base_reward + states["reward_noise"][t].item()
            assert ep.fork(reseed=seed, lookahead=0, triggered=False) == untriggered
            assert ep.step(True) == untriggered + states["true_utility"][t].item()
        _assert_finished(ep)


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
        ep = _episode(params, seed)
        for t in range(params.horizon):
            labels.append(estimate_utility_paired(ep, k, n, h, seed=1000 * seed + t))
            ep.step(t % 3 == 0)
    return labels


def _rollout_returns(params, lookahead, seeds=range(8)):
    returns = []
    for seed in seeds:
        ep = _episode(params, seed)
        for t in range(params.horizon):
            returns.append(ep.fork(reseed=100 * seed + t, lookahead=lookahead, triggered=True))
            ep.step(False)
    return returns


@pytest.mark.parametrize(
    "params, knh, golden",
    [
        (TwoSourceParams(), (5, 5, 3),
         "a99720f0d5bbbc0c2f14936fd71303be5ea28477d23f0bd91ffb2f9098531a60"),
        (TwoSourceParams(noise_sd=0.0), (5, 5, 3),
         "6902b0e7f1715312750b979a94c277f7f8fea7e870e68484129e63f05ce3bb6d"),
        (TwoSourceParams(horizon=1), (5, 5, 3),
         "6ee777b96d657fad57763d1bc0eca7711fc126b258960fc2e499f10d8f773b48"),
        (TwoSourceParams(horizon=4, noise_sd=0.3, fidelity_q=0.5), (2, 1, 1),
         "4e95dda99ae6bd3a6b7d958b80a32738f57afa584031bb351e83ec64e74e5462"),
        (TwoSourceParams(p_i0=0.2, p_i_slope=0.07, noise_sd=0.25, fidelity_q=0.6, horizon=7), (3, 2, 6),
         "b35de80122e29bb035941629580fc367021971bdbdde939329bd009b1a9fd569"),
    ],
    ids=["default", "noiseless", "horizon1", "k2-n1-h1", "drifting-h6"],
)
def test_paired_labels_are_pinned(params, knh, golden):
    assert _repr_digest(_episode_labels(params, *knh)) == golden


@pytest.mark.parametrize(
    "lookahead, golden",
    [
        (_TO_END, "014f881b591072b11ddb62fd38876af07c6f7726c1e4efe9a63ef6f2837e2f33"),
        (0, "2bd6fb1e46a81dd48e1a5cb030539e6b5fdd0a2e93fc5616a1375f014958a989"),
        (2, "0fa359b59ac976454449ad1e12ec1faf218aaede42d1699759cf70206e681436"),
    ],
    ids=["to-horizon", "lookahead0", "lookahead2"],
)
def test_rollout_rewards_are_pinned(lookahead, golden):
    # Each golden is the digest of the returns of version 0.4.0's forks,
    # one fresh reseed per state, so each state's fork draws its family's
    # (H, 1, L) block and reads its own row. A fork of lookahead 0 reads
    # no noise, so its golden is the one of version 0.3.0's stepped forks.
    params = TwoSourceParams(noise_sd=0.3, fidelity_q=0.6, p_i_slope=0.05, horizon=7)
    assert _repr_digest(_rollout_returns(params, lookahead)) == golden


@pytest.mark.parametrize("lookahead", [-1, -4])
def test_fork_rejects_negative_lookahead(lookahead):
    ep = _episode(TwoSourceParams(), seed=4)
    with pytest.raises(ValueError, match="lookahead must be nonnegative"):
        ep.fork(reseed=1, lookahead=lookahead, triggered=False)


# -- sibling forks: one keyed draw per episode ---------------------------------

_SIBLING_PARAMS = TwoSourceParams(noise_sd=0.3, fidelity_q=0.6, p_i_slope=0.05, horizon=8)
_COUNTS = [1, 5, 25]
_LOOKAHEADS = [0, 1, 3, None]  # None: to the episode's end


def _ahead(lookahead):
    # A fork's lookahead for an entry of a lookahead table.
    return _TO_END if lookahead is None else lookahead


def _siblings(count, lookahead, order=None, triggered=True):
    # A fresh parent each call, so no family's noise is shared with
    # another call; the forks are made in ``order``.
    ep = _episode(_SIBLING_PARAMS, 33)
    ep.step(False)
    returns = {i: ep.fork(5, lookahead, triggered=triggered, index=i, count=count) for i in (order or range(count))}
    return [returns[i] for i in range(count)]


def _family_noise(params, reseed, lookahead, count):
    # The twin of a family's draw is the one state derivation itself: the
    # reward_noise column that _derive gives from one row of H*count*L
    # draws on stream(reseed), L = min(lookahead, H - 1), reshaped to
    # (H, count, L): state t reads row t, sibling i its slice i.
    horizon = params.horizon
    ahead = min(lookahead, horizon - 1)
    size = horizon * count * ahead
    noise = _derive(params, *_draw([reseed], size), np.arange(size) % horizon)["reward_noise"][0]
    return noise.reshape(horizon, count, ahead).tolist()


@pytest.mark.parametrize("lookahead", _LOOKAHEADS)
@pytest.mark.parametrize("count", _COUNTS)
def test_sibling_noise_read_equals_observed_twin(count, lookahead):
    # Sibling i at state t returns the state's triggered reward, then
    # base_reward plus each of the first min(lookahead, H - t - 1) values
    # of its slice of the twin's row t, added in step order, bit for bit,
    # at every state, whether the siblings are made in forward or in
    # reverse order.
    params, lookahead = _SIBLING_PARAMS, _ahead(lookahead)
    noise = _family_noise(params, 5, lookahead, count)
    columns = sample_states(params, params.horizon, 33)
    expected = []
    for t in range(params.horizon):
        snapshot = params.base_reward + columns["reward_noise"][t].item() + columns["true_utility"][t].item()
        for i in range(count):
            total = snapshot
            for z in noise[t][i][: min(lookahead, params.horizon - t - 1)]:
                total += params.base_reward + z
            expected.append(total)
    for order in (list(range(count)), list(reversed(range(count)))):
        ep, got = _episode(params, 33), []
        for _ in range(params.horizon):
            returns = {i: ep.fork(5, lookahead, triggered=True, index=i, count=count) for i in order}
            got += [returns[i] for i in range(count)]
            ep.step(False)
        assert got == expected


class _PoisonedStream:
    # A stand-in for stream(reseed) whose draw is zeros but for one NaN.
    def __init__(self, position):
        self.position = position

    def standard_normal(self, size):
        z = np.zeros(size)
        z[self.position] = np.nan
        return z


@pytest.mark.parametrize("lookahead", [1, 2, None])
@pytest.mark.parametrize("count", [1, 3])
def test_no_two_rollouts_of_an_episode_read_the_same_normal(monkeypatch, count, lookahead):
    # Poison one normal of the family's draw at a time: a rollout (state,
    # sibling) reads it iff its return, of either arm, turns NaN. Each
    # normal is read by at most one rollout, and each rollout reads as
    # many as it takes steps past its snapshot.
    import dial.twosource

    params, lookahead = replace(_SIBLING_PARAMS, horizon=5), _ahead(lookahead)
    size = params.horizon * count * min(lookahead, params.horizon - 1)
    reads = {}
    for position in range(size):
        ep = _episode(params, 33)  # draws its states before the stream is replaced
        readers = set()
        with monkeypatch.context() as patch:
            patch.setattr(dial.twosource, "stream", lambda seed: _PoisonedStream(position))
            for t in range(params.horizon):
                for i in range(count):
                    if any(math.isnan(ep.fork(5, lookahead, triggered=arm, index=i, count=count))
                           for arm in (False, True)):
                        readers.add((t, i))
                        reads[t, i] = reads.get((t, i), 0) + 1
                ep.step(False)
        assert len(readers) <= 1, (position, readers)
    for t in range(params.horizon):
        for i in range(count):
            assert reads.get((t, i), 0) == min(lookahead, params.horizon - t - 1)


@pytest.mark.parametrize("lookahead", _LOOKAHEADS)
@pytest.mark.parametrize("count", _COUNTS)
def test_siblings_are_pairwise_distinct(count, lookahead):
    # Siblings share the snapshot step and no noise past it; at lookahead
    # 0 a sibling's return is the snapshot step alone.
    for triggered in (False, True):
        returns = _siblings(count, _ahead(lookahead), triggered=triggered)
        assert len(set(returns)) == (1 if lookahead == 0 else count)


@pytest.mark.parametrize("lookahead", _LOOKAHEADS)
@pytest.mark.parametrize("count", _COUNTS)
def test_fork_is_done_at_its_lookahead(count, lookahead):
    # Noise-free, from every snapshot, first and last sibling, the
    # snapshot step triggered or not: the return adds base_reward once per
    # step past the snapshot, min(lookahead, horizon - t - 1) times. On a
    # finished episode a fork raises.
    params = TwoSourceParams(noise_sd=0.0, fidelity_q=0.6, p_i_slope=0.05, horizon=8)
    lookahead = _ahead(lookahead)
    ep = _episode(params, 33)
    for t in range(params.horizon):
        past = min(lookahead, params.horizon - t - 1)
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
    ep = _episode(TwoSourceParams(), seed=4)
    with pytest.raises(ValueError, match="index < count"):
        ep.fork(reseed=1, lookahead=2, triggered=True, index=index, count=count)


# -- fork families: the first sibling sums them all, later ones look up -------


def _scalar_fork(params, seed, t, reseed, lookahead, count, index, triggered):
    # The fork rule in Python floats, one sibling at a time: the snapshot
    # reward, then base_reward plus each of the sibling's noise values,
    # read from row t of its family's (H, count, L) draw, added in step
    # order.
    columns = sample_states(params, params.horizon, seed)
    total = params.base_reward + columns["reward_noise"][t].item()
    if triggered:
        total += columns["true_utility"][t].item()
    ahead = min(lookahead, params.horizon - 1)
    z = (stream(reseed).standard_normal(params.horizon * count * ahead) * params.noise_sd).tolist()
    row = z[(t * count + index) * ahead : (t * count + index + 1) * ahead]
    for value in row[: min(lookahead, params.horizon - t - 1)]:
        total += params.base_reward + value
    return total


def _counted_streams(monkeypatch):
    import dial.twosource

    calls = []

    def counted(seed):
        calls.append(seed)
        return stream(seed)

    monkeypatch.setattr(dial.twosource, "stream", counted)
    return calls


@pytest.mark.parametrize("lookahead", [None, 0, 2])
@pytest.mark.parametrize("count", [1, 25])
def test_each_sibling_equals_the_scalar_sum_in_step_order(monkeypatch, count, lookahead):
    # At every step, the last one (no step past the snapshot) included,
    # with one reseed throughout; the arms interleave. A family sums every
    # state at its first fork and a step does not evict it, so the episode
    # draws once, and not at all when no state has a rollout step.
    params, lookahead = _SIBLING_PARAMS, _ahead(lookahead)
    forks = [(t, index, triggered)
             for t in range(params.horizon) for index in range(count) for triggered in (True, False)]
    expected = [_scalar_fork(params, 33, t, 5, lookahead, count, index, triggered) for t, index, triggered in forks]
    ep = _episode(params, 33)
    calls = _counted_streams(monkeypatch)
    got = []
    for t in range(params.horizon):
        got += [ep.fork(5, lookahead, triggered=triggered, index=index, count=count)
                for step, index, triggered in forks if step == t]
        ep.step(t % 2 == 0)
    assert got == expected
    assert calls == ([5] if lookahead else [])


def test_interleaved_families_evict_and_redraw(monkeypatch):
    # Families that differ in reseed, in lookahead or in count, forked in
    # turn on one episode, across its states: each fork evicts the other
    # family and draws again, and every sibling still reads its own
    # family's returns.
    params = _SIBLING_PARAMS
    families = [(5, 2, 25), (6, 2, 25), (5, _TO_END, 25), (5, 2, 5)]
    for other in families[1:]:
        forks = [(t, *family, index) for t in (1, 4) for index in range(5) for family in (families[0], other)]
        expected = [_scalar_fork(params, 33, t, reseed, lookahead, count, index, index % 2 == 0)
                    for t, reseed, lookahead, count, index in forks]
        ep = _episode(params, 33)
        calls = _counted_streams(monkeypatch)
        got = []
        for t, reseed, lookahead, count, index in forks:
            while ep._cursor < t:
                ep.step(False)
            got.append(ep.fork(reseed, lookahead, triggered=index % 2 == 0, index=index, count=count))
        assert got == expected
        assert len(calls) == len(forks)


def test_each_refusal_holds_on_a_familys_first_and_later_siblings():
    params = _SIBLING_PARAMS
    refusals = [({"index": 25}, "index < count"), ({"index": -1}, "index < count"),
                ({"lookahead": -1}, "lookahead must be nonnegative")]
    for bad, message in refusals:
        call = {"reseed": 5, "lookahead": 2, "triggered": True, "index": 0, "count": 25, **bad}
        ep = _episode(params, 33)
        with pytest.raises(ValueError, match=message):  # a family's first call
            ep.fork(**call)
        ep.fork(5, 2, triggered=True, index=0, count=25)
        with pytest.raises(ValueError, match=message):  # a later sibling of the kept family
            ep.fork(**call)
    ep = _episode(params, 33)
    for _ in range(params.horizon - 1):
        ep.step(False)
    ep.fork(5, 2, triggered=False, index=0, count=25)  # the last step forks
    ep.step(False)
    for reseed, index in ((5, 1), (6, 0)):  # a later sibling of the family kept from the last step; a new family
        with pytest.raises(EnvFault, match="finished"):
            ep.fork(reseed, 2, triggered=False, index=index, count=25)
