"""Deployment harness: gated policies, success/cost accounting, and the
direction experiments.

All policies evaluated on one environment share the episode seed
schedule, so success-rate differences reflect trigger choices rather
than draw noise. Cost is counted in abstract call units: 1 per step,
plus the environment's trigger cost on triggered steps, normalized by
the never-trigger baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .envs import EnvFault, Environment
from .explore import LabeledDataset, dataset_summary, run_exploration
from .features import build_matrix, build_pool, propose_llm_features
from .gate import GateModel, fit_gate, reverse_direction
from .rng import derive_seed
from .stats import spearman
from .twosource import TwoSourceEnv, TwoSourceParams

WILSON_Z = 1.959963984540054  # two-sided 95% standard normal quantile


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class PolicySpec:
    """A gating policy: the two bounds, a fixed-direction threshold on
    one signal, or a fitted gate (optionally direction-reversed)."""

    kind: str  # base_only | always_trigger | fixed_threshold | dial | reversed_dial
    signal: Optional[str] = None
    direction: int = 1
    threshold: float = 0.5
    model: Optional[GateModel] = None

    def __post_init__(self) -> None:
        kinds = ("base_only", "always_trigger", "fixed_threshold", "dial", "reversed_dial")
        if self.kind not in kinds:
            raise EvalError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fixed_threshold":
            if self.direction not in (1, -1):
                raise EvalError(f"fixed_threshold direction must be +1 or -1, got {self.direction}")
            if not self.signal:
                raise EvalError("fixed_threshold needs a signal name")
        if self.kind in ("dial", "reversed_dial") and self.model is None:
            raise EvalError(f"{self.kind} policy needs a fitted gate model")

    def name(self) -> str:
        if self.kind == "fixed_threshold":
            arrow = ">" if self.direction == 1 else "<"
            return f"fixed({self.signal}{arrow}{self.threshold:g})"
        return self.kind

    def build(self):
        """Realize the per-observation trigger decision."""
        if self.kind == "base_only":
            return lambda obs: False
        if self.kind == "always_trigger":
            return lambda obs: True
        if self.kind == "fixed_threshold":
            signal, direction, theta = self.signal, self.direction, self.threshold
            return lambda obs: direction * float(obs.get(signal, 0.0)) > direction * theta
        model = self.model if self.kind == "dial" else reverse_direction(self.model)
        return model.decide


@dataclass(frozen=True)
class PerStepTrigger:
    step_index: int
    rate: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class EvalResult:
    sr: float
    cost_x_base: float
    trigger_rate: float
    per_step_trigger: Tuple[PerStepTrigger, ...]
    n_episodes: int
    seed: int
    policy: str = ""
    env_id: str = ""


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95% binomial (Wilson score) interval."""
    if n == 0:
        return 0.0, 1.0
    z = WILSON_Z
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_deployment(env: Environment, policy: PolicySpec, n_episodes: int, seed: int) -> EvalResult:
    """Evaluate one policy: success rate, cost relative to the
    never-trigger baseline under the same seed schedule, and the
    per-step trigger profile.

    Cost adds 1 per step plus the environment's trigger cost on
    triggered steps, one step at a time. Any fault while deciding or
    stepping becomes an EnvFault naming the episode and step.
    """
    if n_episodes < 1:
        raise EvalError("n_episodes must be >= 1")
    decide = policy.build()
    tcu = env.trigger_cost_units()
    successes = 0
    cost = 0.0
    step_counts: Dict[int, int] = {}
    step_triggers: Dict[int, int] = {}
    for i in range(n_episodes):
        episode = env.episode(derive_seed(seed, "eval-episode", i))
        episode_return = 0.0
        t = 0
        while not episode.done():
            try:
                triggered = bool(decide(episode.observe()))
                episode_return += episode.step(triggered)
            except EnvFault:
                raise
            except Exception as exc:
                raise EnvFault(f"environment fault at eval episode {i}, step {t}: {exc}") from exc
            cost += 1.0 + (tcu if triggered else 0.0)
            step_counts[t] = step_counts.get(t, 0) + 1
            step_triggers[t] = step_triggers.get(t, 0) + int(triggered)
            t += 1
        successes += int(env.episode_success(episode_return))

    profile = []
    for t in sorted(step_counts):
        hits, n = step_triggers[t], step_counts[t]
        low, high = wilson_interval(hits, n)
        profile.append(PerStepTrigger(t, hits / n, low, high, n))
    steps = sum(step_counts.values())
    return EvalResult(
        sr=successes / n_episodes,
        cost_x_base=cost / steps,  # base policy costs 1 unit per step
        trigger_rate=sum(step_triggers.values()) / steps,
        per_step_trigger=tuple(profile),
        n_episodes=n_episodes,
        seed=seed,
        policy=policy.name(),
        env_id=env.env_id,
    )


# -- gate fitting against an environment -----------------------------------------


def explore_and_fit(
    env: Environment,
    seed: int,
    *,
    eps: float = 0.5,
    n_explore: int = 50,
    proposal_client: Optional[Any] = None,
) -> Tuple[GateModel, LabeledDataset]:
    """Convenience pipeline: explore, summarize/propose (optional),
    build the pool, fit the default l1 gate."""
    dataset = run_exploration(env, eps=eps, n_episodes=n_explore, seed=derive_seed(seed, "explore"))
    llm_specs = None
    if proposal_client is not None:
        llm_specs = propose_llm_features(dataset_summary(dataset), proposal_client).specs
    specs = build_pool(llm_specs)
    X, y, _ = build_matrix(dataset.records, specs)
    model = fit_gate(X, y, specs, seed=derive_seed(seed, "fit"))
    return model, dataset


def strongest_signal(dataset: LabeledDataset, specs: Sequence) -> Tuple[str, float]:
    """Feature with the largest |Spearman| against the utility label."""
    X, y, names = build_matrix(dataset.records, specs)
    if len(y) < 3:
        raise EvalError("not enough labeled rows to measure signal strength")
    best_name, best_abs = "", 0.0
    for j, name in enumerate(names):
        report = spearman(X[:, j], y)
        if not report.degenerate and abs(report.rho) > best_abs:
            best_name, best_abs = name, abs(report.rho)
    return best_name, best_abs


# -- direction experiments ---------------------------------------------------------


@dataclass(frozen=True)
class WrongDirectionRow:
    rho_star: float
    dominant_signal: str
    sr_dial: float
    sr_reversed: float
    delta_sr: float
    trigger_rate_dial: float


@dataclass(frozen=True)
class WrongDirectionReport:
    rows: Tuple[WrongDirectionRow, ...]  # sorted by rho_star ascending
    monotone: bool  # delta_sr weakly decreasing in rho_star


def wrong_direction_experiment(
    envs: Sequence[TwoSourceParams],
    seed: int,
    *,
    n_explore: int = 100,
    n_eval: int = 500,
) -> WrongDirectionReport:
    """Fit a gate per environment, evaluate it and its weight-reversed
    copy on shared seeds, and relate the damage to signal strength."""
    if len(envs) < 3:
        raise EvalError("need at least 3 signal strengths")
    rows: List[WrongDirectionRow] = []
    for idx, params in enumerate(envs):
        env = TwoSourceEnv(params, env_id=f"twosource[{idx}]")
        env_seed = derive_seed(seed, "wrong-direction", idx)
        model, dataset = explore_and_fit(env, env_seed, n_explore=n_explore)
        name, rho_star = strongest_signal(dataset, model.feature_specs)
        eval_seed = derive_seed(env_seed, "eval")
        dial = run_deployment(env, PolicySpec("dial", model=model), n_eval, eval_seed)
        rev = run_deployment(env, PolicySpec("reversed_dial", model=model), n_eval, eval_seed)
        rows.append(
            WrongDirectionRow(
                rho_star=rho_star,
                dominant_signal=name,
                sr_dial=dial.sr,
                sr_reversed=rev.sr,
                delta_sr=rev.sr - dial.sr,
                trigger_rate_dial=dial.trigger_rate,
            )
        )
    rows.sort(key=lambda r: r.rho_star)
    monotone = all(rows[i + 1].delta_sr <= rows[i].delta_sr for i in range(len(rows) - 1))
    return WrongDirectionReport(rows=tuple(rows), monotone=monotone)


@dataclass(frozen=True)
class GatePassRecord:
    direction: int
    threshold: float
    sr_a: float
    sr_b: float
    passes_a: bool
    passes_b: bool


@dataclass(frozen=True)
class CounterexampleVerdict:
    base_sr: Tuple[float, float]
    sigma_gates: Tuple[GatePassRecord, ...]
    any_sigma_passes_both: bool
    dial_sr: Tuple[float, float]
    dial_passes_both: bool


def _passes(sr: float, n: int, base_sr: float) -> bool:
    """CI-aware pass rule: the 95% binomial lower bound must reach the
    base success rate minus one point."""
    low, _ = wilson_interval(round(sr * n), n)
    return low >= base_sr - 0.01


def prop1_counterexample(
    env_pair: Tuple[TwoSourceParams, TwoSourceParams],
    threshold_grid: Optional[Sequence[float]] = None,
    seed: int = 0,
    *,
    n_eval: int = 500,
    n_explore: int = 100,
) -> CounterexampleVerdict:
    """Exhaustively evaluate signal-only threshold gates on a mixture
    pair straddling the direction crossing, against the multi-feature
    gate fitted per environment.

    A policy "passes" an environment when its SR interval lower bound
    reaches that environment's base SR minus 1 point.
    """
    params_a, params_b = env_pair
    if not params_a.p_i0 < params_a.p_i_star():
        raise EvalError(
            f"first environment must be decision-dominated: p_i0={params_a.p_i0} "
            f">= crossing {params_a.p_i_star():.3f}"
        )
    if not params_b.p_i0 > params_b.p_i_star():
        raise EvalError(
            f"second environment must be unsuitable-dominated: p_i0={params_b.p_i0} "
            f"<= crossing {params_b.p_i_star():.3f}"
        )
    grid = np.linspace(0.0, 1.0, 41) if threshold_grid is None else np.asarray(threshold_grid, dtype=float)
    if grid.size < 1:
        raise EvalError("threshold grid is empty")

    env_a = TwoSourceEnv(params_a, env_id="twosource[A]")
    env_b = TwoSourceEnv(params_b, env_id="twosource[B]")
    eval_seed_a = derive_seed(seed, "prop1-eval", 0)
    eval_seed_b = derive_seed(seed, "prop1-eval", 1)

    base_a = run_deployment(env_a, PolicySpec("base_only"), n_eval, eval_seed_a)
    base_b = run_deployment(env_b, PolicySpec("base_only"), n_eval, eval_seed_b)

    gates: List[GatePassRecord] = []
    for direction in (1, -1):
        for theta in grid:
            spec = PolicySpec("fixed_threshold", signal="signal", direction=direction, threshold=float(theta))
            res_a = run_deployment(env_a, spec, n_eval, eval_seed_a)
            res_b = run_deployment(env_b, spec, n_eval, eval_seed_b)
            gates.append(
                GatePassRecord(
                    direction=direction,
                    threshold=float(theta),
                    sr_a=res_a.sr,
                    sr_b=res_b.sr,
                    passes_a=_passes(res_a.sr, n_eval, base_a.sr),
                    passes_b=_passes(res_b.sr, n_eval, base_b.sr),
                )
            )

    dial_srs = []
    dial_pass = []
    for env, eval_seed, base in ((env_a, eval_seed_a, base_a), (env_b, eval_seed_b, base_b)):
        model, _ = explore_and_fit(env, derive_seed(seed, f"prop1-fit-{env.env_id}"), n_explore=n_explore)
        res = run_deployment(env, PolicySpec("dial", model=model), n_eval, eval_seed)
        dial_srs.append(res.sr)
        dial_pass.append(_passes(res.sr, n_eval, base.sr))

    return CounterexampleVerdict(
        base_sr=(base_a.sr, base_b.sr),
        sigma_gates=tuple(gates),
        any_sigma_passes_both=any(g.passes_a and g.passes_b for g in gates),
        dial_sr=(dial_srs[0], dial_srs[1]),
        dial_passes_both=all(dial_pass),
    )
