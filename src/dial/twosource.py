"""Synthetic two-source episodic environment.

Each step is one of two latent regimes: intervention-unsuitable states
("I", utility slopes down in the signal) and decision-difficult states
("D", utility slopes up). The per-step mixture drifts with the step
index, an observed binary proxy tracks the latent type with adjustable
fidelity, and triggering the optimizer injects the state's hidden
utility into the step reward. This makes the sign structure of the
signal-utility relationship fully controllable at desk scale.

Conventions (fixed for reproducibility):
  - signal ~ Uniform(0, 1) per step.
  - latent noise is Normal(0, noise_sd), drawn as a standard normal and
    scaled, so seeds align across noise settings.
  - every step also carries a zero-mean reward noise (same sd) shared by
    the triggered and untriggered arms, so the paired return difference
    is exactly the state's true utility while episode returns (and hence
    success rates) remain non-degenerate under the base policy.
  - type_proxy = 1 marks the decision-difficult type ("evidence
    available"); it matches the latent indicator with probability
    (1 + fidelity_q) / 2.
  - num_options is an auxiliary decision-space count drawn independently
    of the latent type (a decoy feature the gate should learn to drop).
  - one function derives every state, as numpy columns, for episodes
    and ``sample_states`` alike, so a seed gives one state sequence; a
    fork draws only the reward noise that leads its columns. Every
    stream is a ``dial.rng.stream``.
  - a fork is one rollout, returned as its truncated return: the
    snapshot state's reward, triggered or not, then ``+= base_reward +
    z`` for each untriggered step up to the lookahead (to the horizon
    when None), each ``z`` the rollout's own reward noise. It reads no
    other state and leaves the episode where it was. The ``count``
    sibling forks of one snapshot (one paired label's rollouts) share
    one draw: sibling i's noise is slice ``[i*m, (i+1)*m)`` of
    ``count*m`` normals from ``stream(reseed)``, the reward noise
    ``_draw_states`` gives for the lookahead steps tiled ``count``
    times. The episode keeps the last family's noise, so siblings forked
    one after another draw once; a family with no step past its snapshot
    draws nothing. ``count=1`` is a single fork.
  - an episode reads the ``sample_states`` columns of its seed, as lists
    of Python scalars, at its step index. They come from a one-slot cache
    keyed by (params, seed): a deployment builds each episode once per
    policy, one policy after another, so only the first policy of an
    episode draws it. Nothing writes to the columns, so episodes share
    them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .envs import EnvFault
from .rng import stream

TYPE_I = "I"
TYPE_D = "D"

_NUM_OPTIONS_LO = 2
_NUM_OPTIONS_HI = 6  # inclusive


class InvalidParams(ValueError):
    """Generative parameters violate their invariants."""


@dataclass(frozen=True)
class TwoSourceParams:
    """Generative parameters of the two-source environment. Each is a
    finite real number (not a bool); a refusal starts with the field's name."""

    alpha: float = 1.0            # within-type slope, unsuitable states (> 0)
    beta: float = 1.0             # within-type slope, decision states (> 0)
    p_i0: float = 0.5             # base fraction of unsuitable states
    p_i_slope: float = 0.0        # per-step drift of that fraction
    noise_sd: float = 0.1         # sd of latent utility noise and reward noise
    fidelity_q: float = 1.0       # informativeness of the type proxy, in [0, 1]
    horizon: int = 10             # steps per episode
    base_reward: float = 1.0      # mean untriggered step reward
    success_threshold: float = float("nan")  # default: horizon * base_reward
    trigger_cost_units: float = 5.0          # cost added per trigger, base-step units

    def __post_init__(self) -> None:
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise InvalidParams(f"horizon: must be a positive integer, got {self.horizon!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise InvalidParams(f"{f.name}: must be a real number, got {value!r}")
            # Finite as a Python float (numpy compares a float32 in float32); an int past float range is not.
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if not (math.isfinite(number) or (f.name == "success_threshold" and math.isnan(number))):
                raise InvalidParams(f"{f.name}: must be finite, got {value!r}")
        for name in ("alpha", "beta", "trigger_cost_units"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name}: must be positive, got {getattr(self, name)!r}")
        for name in ("p_i0", "fidelity_q"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidParams(f"{name}: must be in [0, 1], got {getattr(self, name)!r}")
        if self.noise_sd < 0:
            raise InvalidParams(f"noise_sd: must be nonnegative, got {self.noise_sd!r}")
        if math.isnan(self.success_threshold):
            object.__setattr__(self, "success_threshold", self.horizon * self.base_reward)

    def p_i(self, step_index: int | np.ndarray) -> float | np.ndarray:
        """Unsuitable-state probability at a step, elementwise over an
        array of steps: clamp(p_i0 + slope * t, 0, 1)."""
        return np.minimum(np.maximum(self.p_i0 + self.p_i_slope * step_index, 0.0), 1.0)


def _draw_states(params: TwoSourceParams, rng: np.random.Generator, steps: np.ndarray) -> Dict[str, np.ndarray]:
    """Draw one state per step index in ``steps``, as the columns
    ``sample_states`` returns: the one place a state is derived, so
    identical seeds give identical sequences everywhere.

    Draw order for n states: reward and latent noise normals (one call
    of length 2n, reward noise first), then signal, type, proxy-flip and
    num_options uniforms (one call of length 4n). A fork draws only the
    first n normals for the reward noise of its rollout steps, so it
    relies on this order. num_options is ``2 + floor(5u)``.
    """
    n = len(steps)
    z = rng.standard_normal(2 * n)
    u = rng.random(4 * n)
    sd = params.noise_sd
    signal = u[:n]
    is_type_d = u[n : 2 * n] >= params.p_i(steps)
    flipped = u[2 * n : 3 * n] < (1.0 - params.fidelity_q) / 2.0
    n_values = _NUM_OPTIONS_HI - _NUM_OPTIONS_LO + 1
    return {
        "step_index": steps,
        "is_type_d": is_type_d,
        "signal": signal,
        "type_proxy": (is_type_d != flipped).astype(np.int64),
        "num_options": _NUM_OPTIONS_LO + (u[3 * n :] * n_values).astype(np.int64),
        "true_utility": np.where(is_type_d, params.beta, -params.alpha) * signal + z[n:] * sd,
        "reward_noise": z[:n] * sd,
        "is_finish": steps == params.horizon - 1,
    }


@functools.lru_cache(maxsize=1)
def _episode_columns(params: TwoSourceParams, seed: int) -> Dict[str, list]:
    """The columns of the episode with this seed, as lists of Python
    scalars, drawn once for a run of episodes built on one seed (see the
    module notes)."""
    return {name: column.tolist() for name, column in sample_states(params, params.horizon, seed).items()}


class TwoSourceEpisode:
    """Handle over one episode: a deterministic pre-drawn step sequence.

    State transitions are exogenous (trigger decisions never change which
    states arrive), so policies compared under one episode seed see
    identical state streams. A fork returns the truncated return of one
    rollout from the current state (see the module notes) and moves
    nothing. Sibling forks share one draw but never a value, which is how
    paired rollout arms are decoupled.
    """

    def __init__(self, params: TwoSourceParams, seed: int):
        if not isinstance(params, TwoSourceParams):
            raise InvalidParams("params must be a TwoSourceParams instance")
        self.params = params
        self._cols = _episode_columns(params, seed)
        self._cursor = 0  # step index of the current state
        self._family: Optional[Tuple[tuple, Tuple[float, ...]]] = None  # key and noise of the last fork family here

    # -- episode protocol -------------------------------------------------

    def done(self) -> bool:
        return self._cursor >= self.params.horizon

    def _current(self) -> int:
        """The step index of the current state, which may be read."""
        if self.done():
            raise EnvFault("episode is finished")
        return self._cursor

    def observe(self) -> Dict[str, float]:
        """Observation record of the current state; hidden fields stay hidden."""
        t, cols = self._current(), self._cols
        return {
            "step_count": float(cols["step_index"][t]),
            "signal": cols["signal"][t],
            "type_proxy": float(cols["type_proxy"][t]),
            "num_options": float(cols["num_options"][t]),
            "is_finish": float(cols["is_finish"][t]),
        }

    def _reward(self, triggered: bool) -> float:
        # Triggered minus untriggered is exactly the state's true utility.
        t = self._current()
        reward = self.params.base_reward + self._cols["reward_noise"][t]
        if triggered:
            reward += self._cols["true_utility"][t]
        return reward

    def step(self, triggered: bool) -> float:
        reward = self._reward(triggered)
        self._cursor += 1
        return reward

    def fork(
        self, reseed: int, lookahead: Optional[int] = None, *, triggered: bool, index: int = 0, count: int = 1
    ) -> float:
        """Truncated return of sibling ``index`` of the ``count`` rollouts
        forked here with this ``reseed`` and ``lookahead`` (see the module
        notes). The last family's noise is kept here, so siblings forked
        one after another share their draw."""
        if lookahead is not None and lookahead < 0:
            raise ValueError(f"lookahead must be nonnegative, got {lookahead}")
        if not 0 <= index < count:
            raise ValueError(f"need 0 <= index < count, got index={index}, count={count}")
        total = self._reward(triggered)  # refuses a finished episode
        cursor = self._cursor
        end = self.params.horizon if lookahead is None else min(cursor + 1 + lookahead, self.params.horizon)
        m = end - cursor - 1
        if m:
            key = (reseed, count, cursor, end)
            if self._family is None or self._family[0] != key:
                z = stream(reseed).standard_normal(count * m)
                self._family = (key, tuple((z * self.params.noise_sd).tolist()))
            base = self.params.base_reward
            for z in self._family[1][index * m : (index + 1) * m]:
                total += base + z
        return total

    def debug_state(self) -> Dict[str, Any]:
        t = self._current()
        return {"latent_type": TYPE_D if self._cols["is_type_d"][t] else TYPE_I,
                "true_utility": self._cols["true_utility"][t]}


class TwoSourceEnv:
    """Environment wrapper: builds episodes and owns the success rule."""

    def __init__(self, params: TwoSourceParams, env_id: str = "twosource"):
        self.params = params
        self.env_id = env_id

    def episode(self, seed: int) -> TwoSourceEpisode:
        return TwoSourceEpisode(self.params, seed)

    def episode_success(self, episode_return: float) -> bool:
        return episode_return >= self.params.success_threshold

    def trigger_cost_units(self) -> float:
        return self.params.trigger_cost_units


def sample_states(params: TwoSourceParams, n_states: int, seed: int) -> Dict[str, np.ndarray]:
    """State sample for verification sweeps, as columns.

    Steps cycle through episode positions (so mixture drift is
    represented) but are drawn in one flat pass on the sampler's own
    stream: the same states an episode with this seed draws, for as many
    positions as it has.
    """
    if n_states < 1:
        raise ValueError("n_states must be positive")
    return _draw_states(params, stream(seed), np.arange(n_states, dtype=np.int64) % params.horizon)
