"""Deployment harness: policies, cost accounting, direction experiments."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from dial.cli import load_config
from dial.evaluate import EvalError, PolicySpec, run_deployment, wilson_interval
from dial.envs import EnvFault
from dial.gate import GateModel
from dial.features import FeatureSpec
from dial.twosource import TwoSourceEnv, TwoSourceParams
from conftest import EpisodeRun
from direction_experiments import explore_and_fit, prop1_counterexample, wrong_direction_experiment


def _env(**kwargs):
    return TwoSourceEnv(TwoSourceParams(**kwargs))


def _signal_model(weight, bias=0.0, tau=0.5, center=0.0):
    spec = (FeatureSpec("sig", "llm", "signal * 1"),)
    return GateModel(
        feature_specs=spec, means=np.full(1, center), sds=np.ones(1), weights=np.array([float(weight)]),
        bias=bias, tau=tau, regularizer="l1",
    )


# -- policy construction -------------------------------------------------------


def test_policy_kind_validation():
    with pytest.raises(EvalError):
        PolicySpec("sometimes")
    with pytest.raises(EvalError):
        PolicySpec("fixed_threshold", signal="signal", direction=2)
    with pytest.raises(EvalError):
        PolicySpec("fixed_threshold", direction=1)
    with pytest.raises(EvalError):
        PolicySpec("dial")
    # The bad values a config's policy table refuses, refused by the
    # library too, each by its field's name.
    for field, value in (("direction", True), ("direction", 1.5), ("threshold", float("nan")),
                         ("threshold", 10**400), ("threshold", "x"), ("signal", 3), ("signal", "")):
        keys = {"signal": "signal", "direction": 1, "threshold": 0.5, field: value}
        with pytest.raises(EvalError, match=f"^{field}: "):
            PolicySpec("fixed_threshold", **keys)
    assert PolicySpec("fixed_threshold", signal="signal", threshold=1).name() == "fixed(signal>1.0)"


def test_fixed_threshold_directions():
    up = PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.5).build()
    down = PolicySpec("fixed_threshold", signal="signal", direction=-1, threshold=0.5).build()
    assert up({"signal": 0.9}) and not up({"signal": 0.1})
    assert down({"signal": 0.1}) and not down({"signal": 0.9})
    assert not up({"signal": 0.5}) and not down({"signal": 0.5})  # strict


@pytest.mark.parametrize(
    "direction, threshold, name",
    [(1, 0.5, "fixed(signal>0.5)"), (1, 0.5000001, "fixed(signal>0.5000001)"),
     (-1, 0.1 + 0.2, "fixed(signal<0.30000000000000004)"), (1, 1e-7, "fixed(signal>1e-07)")],
)
def test_fixed_threshold_name_spells_the_threshold_exactly(direction, threshold, name):
    # Two thresholds that differ have names that differ, so eval rows stay apart.
    assert PolicySpec("fixed_threshold", signal="signal", direction=direction, threshold=threshold).name() == name


# -- run_deployment and cost accounting --------------------------------------------


def test_base_only_cost_is_exactly_one():
    (result,) = run_deployment(_env(), [PolicySpec("base_only")], 50, seed=0)
    assert result.cost_x_base == 1.0
    assert result.trigger_rate == 0.0


def test_always_trigger_cost_matches_units():
    (result,) = run_deployment(_env(trigger_cost_units=5.0), [PolicySpec("always_trigger")], 50, seed=0)
    assert result.cost_x_base == pytest.approx(6.0, abs=1e-12)
    assert result.trigger_rate == 1.0


def test_cost_formula_hand_arithmetic_three_episode_fixture():
    # 3 episodes x horizon 4; count the triggers of a threshold policy by
    # hand from the observed signals, then check the cost identity.
    env = _env(horizon=4, trigger_cost_units=5.0)
    policy = PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.5)
    (result,) = run_deployment(env, [policy], 3, seed=21)

    from dial.rng import derive_seed

    triggered = 0
    episodes = env.episodes([derive_seed(21, "eval-episode", i) for i in range(3)])
    for i in range(3):
        ep = episodes.start(i)
        for _ in range(4):
            triggered += int(ep.observe()["signal"] > 0.5)
            ep.step(False)
    expected = 1.0 + 5.0 * triggered / 12.0
    assert result.cost_x_base == pytest.approx(expected, abs=1e-9)
    assert result.trigger_rate == pytest.approx(triggered / 12.0, abs=1e-12)


class _ScriptedEpisode:
    """Steps through fixed signals; a step returns 1, or 2 if triggered.
    Past its last signal it refuses, as a finished episode does."""

    def __init__(self, signals):
        self.signals, self.t = signals, 0

    def _current(self):
        if self.t >= len(self.signals):
            raise EnvFault("episode is finished")
        return self.t

    def observe(self):
        return {"signal": self.signals[self._current()]}

    def step(self, triggered):
        self.t = self._current() + 1
        return 2.0 if triggered else 1.0

    def fork(self, reseed, lookahead, *, triggered, index=0, count=1):
        raise EnvFault("scripted deployment episodes do not fork")

    def debug_state(self):
        return None


class _ScriptedEnv:
    """Episode i of a run steps through SIGNALS[i], all ``horizon`` long
    unless ``horizon`` is set past them."""

    env_id = "scripted"
    SIGNALS = ([0.9, 0.1, 0.6], [0.1, 0.2, 0.8], [0.7, 0.9, 0.6])

    def __init__(self, horizon=3):
        self.horizon = horizon

    def episodes(self, seeds):
        return EpisodeRun(lambda i: _ScriptedEpisode(self.SIGNALS[i]))

    def trigger_cost_units(self):
        return 2.0

    def episode_success(self, total_return):
        return total_return > 4.5


def test_scripted_episodes_hand_arithmetic():
    # Triggers (signal > 0.5) by step: t=0 in episodes 0 and 2, t=1 in
    # episode 2, t=2 in all three; every step index is reached by all 3.
    policy = PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.5)
    (result,) = run_deployment(_ScriptedEnv(), [policy], 3, seed=0)
    assert [(p.step, p.n, p.rate) for p in result.per_step_trigger] == [
        (0, 3, 2 / 3), (1, 3, 1 / 3), (2, 3, 1.0),
    ]
    # 95% Wilson intervals of 2/3, 1/3 and 3/3 (z = 1.959964); the last
    # is [1 / (1 + z^2 / 3), 1]
    bounds = [(p.ci_low, p.ci_high) for p in result.per_step_trigger]
    expected = [(0.2076596, 0.9385081), (0.0614919, 0.7923404), (0.4385030, 1.0)]
    for got, want in zip(bounds, expected):
        assert got == pytest.approx(want, abs=1e-7)
    # 9 steps cost 1 each, the 6 triggered ones 2 more: (9 + 12) / 9
    assert result.cost_x_base == 21.0 / 9.0
    assert result.trigger_rate == 6 / 9
    assert result.sr == 2 / 3  # returns 5, 4 and 6 against 4.5


def test_an_episode_that_ends_before_the_horizon_is_a_fault():
    # Every episode runs the environment's horizon; one that runs out of
    # steps before it is a fault of its environment, not a short episode.
    policy = PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.5)
    message = r"^policy fixed\(signal>0.5\): environment fault at eval episode 0, step 3: episode is finished$"
    with pytest.raises(EnvFault, match=message):
        run_deployment(_ScriptedEnv(horizon=4), [policy], 3, seed=0)


def test_never_firing_gate_equals_base_only():
    env = _env(noise_sd=0.2)
    silent = _signal_model(weight=0.0, bias=0.0, tau=0.5)  # sigmoid(0) = 0.5, never > tau
    base, gated = run_deployment(env, [PolicySpec("base_only"), PolicySpec("dial", model=silent)], 80, seed=3)
    assert gated.sr == base.sr
    assert gated.cost_x_base == 1.0


def test_deployment_deterministic():
    env = _env(noise_sd=0.3)
    policy = PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.3)
    a = run_deployment(env, [policy], 60, seed=5)
    b = run_deployment(env, [policy], 60, seed=5)
    assert a == b


def test_deployment_validates_episode_count():
    with pytest.raises(EvalError):
        run_deployment(_env(), [PolicySpec("base_only")], 0, seed=0)


# -- trigger profiles ------------------------------------------------------------------


def test_trigger_profile_bounds_policies():
    env = _env(horizon=6)
    always, base = run_deployment(env, [PolicySpec("always_trigger"), PolicySpec("base_only")], 40, seed=1)
    assert all(p.rate == 1.0 for p in always.per_step_trigger)
    assert all(p.rate == 0.0 for p in base.per_step_trigger)
    assert [p.step for p in always.per_step_trigger] == list(range(6))


def test_wilson_interval_sanity():
    low, high = wilson_interval(50, 100)
    assert 0.4 < low < 0.5 < high < 0.6
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(100, 100)[1] == 1.0


def test_profile_decays_when_late_steps_turn_unsuitable():
    # Mixture drifts toward unsuitable over the episode; the fitted gate
    # should trigger less at later steps.
    params = TwoSourceParams(p_i0=0.1, p_i_slope=0.09, noise_sd=0.2, fidelity_q=1.0)
    env = TwoSourceEnv(params)
    model, _ = explore_and_fit(env, seed=8, n_explore=120)
    (result,) = run_deployment(env, [PolicySpec("dial", model=model)], 500, seed=9)
    profile = result.per_step_trigger
    early = np.mean([p.rate for p in profile[:3]])
    late = np.mean([p.rate for p in profile[-3:]])
    assert late < early


# -- reversal -------------------------------------------------------------------------


def test_reversed_policy_complements_zero_bias_gate():
    env = _env(noise_sd=0.2)
    model = _signal_model(weight=2.0, bias=0.0, tau=0.5)
    dial, rev = run_deployment(
        env, [PolicySpec("dial", model=model), PolicySpec("reversed_dial", model=model)], 50, seed=11
    )
    assert dial.trigger_rate + rev.trigger_rate == pytest.approx(1.0, abs=1e-12)
    for p_d, p_r in zip(dial.per_step_trigger, rev.per_step_trigger):
        assert p_d.rate + p_r.rate == pytest.approx(1.0, abs=1e-12)


def test_dial_beats_base_where_rollouts_harm_on_average():
    params = TwoSourceParams(alpha=2.0, beta=1.0, p_i0=0.85, noise_sd=0.2, fidelity_q=1.0)
    env = TwoSourceEnv(params)
    model, _ = explore_and_fit(env, seed=5, n_explore=100)
    base, always, dial = run_deployment(
        env, [PolicySpec("base_only"), PolicySpec("always_trigger"), PolicySpec("dial", model=model)], 300, seed=77
    )
    assert always.sr < base.sr  # net-harmful optimizer
    assert dial.sr >= base.sr - 0.02
    assert dial.trigger_rate < always.trigger_rate


# -- wrong-direction experiment ----------------------------------------------------------


def test_wrong_direction_requires_three_strengths():
    with pytest.raises(EvalError):
        wrong_direction_experiment([TwoSourceParams(), TwoSourceParams()], seed=0)


def test_wrong_direction_smoke():
    envs = [
        TwoSourceParams(p_i0=0.5, fidelity_q=0.0, noise_sd=0.3),
        TwoSourceParams(p_i0=0.5, fidelity_q=0.5, noise_sd=0.15, alpha=0.6, beta=0.6),
        TwoSourceParams(p_i0=0.5, fidelity_q=1.0, noise_sd=0.1),
    ]
    report = wrong_direction_experiment(envs, seed=1, n_explore=40, n_eval=120)
    assert len(report.rows) == 3
    rhos = [r.rho_star for r in report.rows]
    assert rhos == sorted(rhos)
    assert report.rows[-1].delta_sr < -0.15


# -- counterexample -----------------------------------------------------------------------


def test_prop1_rejects_same_side_pair():
    pair = (TwoSourceParams(p_i0=0.1), TwoSourceParams(p_i0=0.1))
    with pytest.raises(EvalError):
        prop1_counterexample(pair, seed=0)


def test_prop1_degenerate_grid_still_well_formed():
    pair = (TwoSourceParams(p_i0=0.1, fidelity_q=1.0, noise_sd=0.1),
            TwoSourceParams(p_i0=0.9, fidelity_q=1.0, noise_sd=0.1))
    verdict = prop1_counterexample(pair, threshold_grid=[0.5], seed=2, n_eval=60, n_explore=30)
    assert len(verdict.sigma_gates) == 2  # one threshold x two directions
    assert isinstance(verdict.any_sigma_passes_both, bool)
    assert isinstance(verdict.dial_passes_both, bool)


# -- environment faults -----------------------------------------------------------------------


class _FaultyEpisode:
    """A two-source episode whose step ``fail_at`` raises ``error``."""

    def __init__(self, inner, fail_at, error):
        self.inner, self.fail_at, self.error, self.t = inner, fail_at, error, 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def step(self, triggered):
        if self.t == self.fail_at:
            raise self.error("simulator crashed")
        self.t += 1
        return self.inner.step(triggered)


class _FaultyEnv:
    """A two-source environment whose second episode started fails at step 2."""

    def __init__(self, error=RuntimeError):
        self.inner = _env(horizon=5)
        self.error = error
        self.started = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def episodes(self, seeds):
        run = self.inner.episodes(seeds)

        def start(i):
            self.started += 1
            return _FaultyEpisode(run.start(i), 2 if self.started == 2 else None, self.error)

        return EpisodeRun(start)


@pytest.mark.parametrize(
    "kind, error", [("eval", RuntimeError), ("eval", EnvFault)], ids=["eval", "eval-env-fault"]
)
def test_step_fault_names_episode_and_step(kind, error):
    # An environment's own EnvFault gets the same context as any other error.
    env = _FaultyEnv(error)
    with pytest.raises(EnvFault, match=f"at {kind} episode 1, step 2: simulator crashed"):
        run_deployment(env, [PolicySpec("always_trigger")], 3, seed=0)


def test_fault_names_the_policy_that_meets_it_first():
    # Episode-major: the second episode started is the second policy's
    # episode 0, so it faults before the first policy reaches episode 1.
    env = _FaultyEnv()
    policies = [PolicySpec("base_only"), PolicySpec("always_trigger")]
    with pytest.raises(EnvFault, match="^policy always_trigger: environment fault at eval episode 0, step 2: "):
        run_deployment(env, policies, 3, seed=0)


def test_missing_signal_is_named():
    policy = PolicySpec("fixed_threshold", signal="sigal", direction=1, threshold=0.5)
    with pytest.raises(EvalError, match="observation has no signal 'sigal'"):
        policy.build()({"signal": 0.9})
    message = r"policy fixed\(sigal>0.5\): environment fault at eval episode 0, step 0: observation has no signal 'sigal'"
    with pytest.raises(EnvFault, match=message):
        run_deployment(_env(), [policy], 3, seed=0)


def test_one_deployment_of_many_policies_equals_one_per_policy():
    demo = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "demo.json"))
    env = TwoSourceEnv(demo.env_params)
    model = _signal_model(weight=3.0, center=0.3)  # triggers above signal 0.3; reversed, below
    policies = [
        PolicySpec("base_only"),
        PolicySpec("always_trigger"),
        PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.5),
        PolicySpec("dial", model=model),
        PolicySpec("reversed_dial", model=model),
    ]
    together = run_deployment(env, policies, 200, seed=13)
    apart = [result for policy in policies for result in run_deployment(env, [policy], 200, seed=13)]
    assert together == apart
    assert [repr(r) for r in together] == [repr(r) for r in apart]  # floats bit for bit
    assert len({r.trigger_rate for r in together}) == len(policies)  # five different policies
