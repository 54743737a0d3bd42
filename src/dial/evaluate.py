"""Deployment harness: gated policies and the one success/cost
accounting loop.

All policies evaluated on one environment share the episode seed
schedule, so success-rate differences reflect trigger choices rather
than draw noise. The N episode seeds are derived up front and the
environment draws them as one run (``env.episodes``). The loop is
episode-major: episode i is run by every policy in turn, each on a
fresh episode started on seed i, so a two-source episode's row is built
once, by the first policy, and a fault surfaces at the first episode
that has one, and within it at the first policy. Every episode runs the
environment's ``horizon`` H steps, so every policy's tallies are one
count per step index, each over all N episodes. Cost is counted in
abstract call units: 1 per step, plus the environment's trigger cost on
triggered steps, normalized by the never-trigger baseline (N * H units).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .envs import EnvFault, Environment
from .gate import GateModel, reverse_direction
from .rng import derive_seed

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
        if self.kind == "fixed_threshold":  # each refusal starts with the field's name
            if not (isinstance(self.signal, str) and self.signal):
                raise EvalError(f"signal: must be a non-empty string, got {self.signal!r}")
            if type(self.direction) is not int or self.direction not in (1, -1):  # a bool is not an int here
                raise EvalError(f"direction: must be the integer 1 or -1, got {self.direction!r}")
            theta = self.threshold  # finite: not NaN (fails every comparison), infinite or past float range
            if isinstance(theta, bool) or not (isinstance(theta, (int, float)) and abs(theta) <= sys.float_info.max):
                raise EvalError(f"threshold: must be a finite number, got {theta!r}")
            object.__setattr__(self, "threshold", float(theta))
        if self.kind in ("dial", "reversed_dial") and self.model is None:
            raise EvalError(f"{self.kind} policy needs a fitted gate model")

    def name(self) -> str:
        if self.kind == "fixed_threshold":
            arrow = ">" if self.direction == 1 else "<"
            return f"fixed({self.signal}{arrow}{self.threshold!r})"  # repr: distinct thresholds, distinct names
        return self.kind

    def build(self):
        """Realize the per-observation trigger decision."""
        if self.kind == "base_only":
            return lambda obs: False
        if self.kind == "always_trigger":
            return lambda obs: True
        if self.kind == "fixed_threshold":
            signal, direction, theta = self.signal, self.direction, self.threshold

            def decide(obs) -> bool:
                value = obs.get(signal)
                if value is None:
                    raise EvalError(f"observation has no signal {signal!r}")
                return direction * float(value) > direction * theta

            return decide
        model = self.model if self.kind == "dial" else reverse_direction(self.model)
        return model.decide


@dataclass(frozen=True)
class PerStepTrigger:
    step: int
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
    policy: str = ""
    env: str = ""


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


def run_deployment(
    env: Environment, policies: Sequence[PolicySpec], n_episodes: int, seed: int
) -> List[EvalResult]:
    """Evaluate policies on one seed schedule, one result per policy in
    order: success rate, cost relative to the never-trigger baseline,
    and the per-step trigger profile.

    The episode seeds are drawn as one run; every policy then runs a
    fresh episode started on each, for the environment's ``horizon``
    steps (see the module notes). Cost adds 1 per step plus the
    environment's trigger cost on triggered steps, one step at a time,
    per policy, and is divided by the ``n_episodes * horizon`` steps;
    each step index's trigger rate is over the ``n_episodes`` episodes.
    Any fault while deciding or stepping, an episode that ends before
    the horizon too, becomes an EnvFault naming the policy, the episode
    and the step.
    """
    if n_episodes < 1:
        raise EvalError("n_episodes must be >= 1")
    decides = [policy.build() for policy in policies]
    tcu = env.trigger_cost_units()
    successes = [0] * len(policies)
    costs = [0.0] * len(policies)
    episodes = env.episodes([derive_seed(seed, "eval-episode", i) for i in range(n_episodes)])
    horizon = env.horizon
    step_triggers = [[0] * horizon for _ in policies]  # per policy and step index t: episodes triggered at t
    for i in range(n_episodes):
        for p, decide in enumerate(decides):
            episode = episodes.start(i)
            observe, step = episode.observe, episode.step
            triggers, cost = step_triggers[p], costs[p]
            episode_return = 0.0
            for t in range(horizon):
                try:
                    triggered = bool(decide(observe()))
                    episode_return += step(triggered)
                except Exception as exc:
                    raise EnvFault(
                        f"policy {policies[p].name()}: environment fault at eval episode {i}, step {t}: {exc}"
                    ) from exc
                cost += 1.0 + (tcu if triggered else 0.0)
                triggers[t] += triggered
            costs[p] = cost
            successes[p] += int(env.episode_success(episode_return))

    steps = n_episodes * horizon
    return [
        EvalResult(
            sr=wins / n_episodes,
            cost_x_base=cost / steps,  # base policy costs 1 unit per step
            trigger_rate=sum(hits_at) / steps,
            per_step_trigger=tuple(
                PerStepTrigger(t, hits / n_episodes, *wilson_interval(hits, n_episodes), n_episodes)
                for t, hits in enumerate(hits_at)
            ),
            n_episodes=n_episodes,
            policy=policy.name(),
            env=env.env_id,
        )
        for policy, hits_at, cost, wins in zip(policies, step_triggers, costs, successes)
    ]
