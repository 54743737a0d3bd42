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
  - a seed's states are drawn in one fixed order from its own
    ``dial.rng.stream`` into one row of draws (``_draw``), and one
    function derives every state from rows of draws, elementwise, as
    numpy columns with one row per seed (``_derive``): a run of episodes
    and ``sample_states`` (one row) alike, so a seed gives one state
    sequence whatever else is drawn with it. A fork draws only the
    reward noise that leads its row.
  - a fork is one rollout, returned as its truncated return: the
    snapshot state's reward, triggered or not, then ``+= base_reward +
    z`` for each untriggered step up to the lookahead (clipped at the
    horizon), each ``z`` the rollout's own reward noise. It reads no
    other state and leaves the episode where it was. The forks of one
    episode with one ``(reseed, lookahead, count)`` are one family: the
    ``count`` siblings at each of its H states (one paired label's
    rollouts at every state it may label) share one draw, ``H*count*L``
    normals from ``stream(reseed)`` with ``L = min(lookahead, H - 1)``,
    read as an (H, count, L) block scaled by ``noise_sd``. State t reads
    row t, and sibling i the first ``min(lookahead, H - t - 1)`` values
    of its slice, so no two rollouts read the same value. A family's
    first fork sums every state's siblings of both arms as numpy vector
    adds in step order (one sibling's IEEE adds, per element), and the
    episode keeps the last family's returns, so every later fork, at any
    state, is a lookup; a family with no step past any snapshot
    (``L = 0``) draws nothing. ``count=1`` is a single fork.
  - every episode has the params' ``horizon`` H steps, which
    ``TwoSourceEnv.horizon`` reports; past step H - 1 an episode refuses
    to observe, step, fork or report its debug state (``EnvFault``).
  - a run of episodes (``TwoSourceEnv.episodes``) is one block: the
    (N, H) columns of its N seeds, drawn and derived once. An episode
    reads row i of the block, as lists of Python scalars, at its step
    index, and each state's observation record, built from that row.
    ``start(i)`` builds them on first use and keeps them in a one-slot
    row cache: a deployment starts each episode once per policy, one
    policy after another, so only the first policy of an episode builds
    its row, and no more than one row's records are ever held. Nothing
    writes to the row or the records (``observe`` returns a copy), so
    episodes share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .envs import EnvFault
from .rng import stream

TYPE_I = "I"
TYPE_D = "D"

# The keys of every observation record, which ``TwoSourceEpisodes.start``
# builds; the only signals a fixed-threshold policy can read.
OBSERVATION_FIELDS = ("step_count", "signal", "type_proxy", "num_options", "is_finish")

_NUM_OPTIONS_LO = 2
_NUM_OPTIONS_HI = 6  # inclusive


class InvalidParams(ValueError):
    """Generative parameters violate their invariants."""


@dataclass(frozen=True)
class TwoSourceParams:
    """Generative parameters of the two-source environment. Each is a
    finite real number (not a bool), stored as a Python float (``horizon``
    as an int); a refusal starts with the field's name."""

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
        for f in fields(self):  # Python scalars, so numpy-scalar params give the bits of float params
            object.__setattr__(self, f.name, (int if f.name == "horizon" else float)(getattr(self, f.name)))
        if math.isnan(self.success_threshold):
            object.__setattr__(self, "success_threshold", self.horizon * self.base_reward)

    def p_i(self, step_index: int | np.ndarray) -> float | np.ndarray:
        """Unsuitable-state probability at a step, elementwise over an
        array of steps: clamp(p_i0 + slope * t, 0, 1)."""
        return np.minimum(np.maximum(self.p_i0 + self.p_i_slope * step_index, 0.0), 1.0)


def _draw(seeds: Sequence[int], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The draws behind n states per seed: row i of the first array holds
    the 2n normals of ``stream(seeds[i])`` (reward noise first, then
    latent noise), then row i of the second its 4n uniforms (signal,
    type, proxy flip, num_options). This fixes the stream order; a fork
    draws only the leading n normals, for its rollout steps' reward
    noise, so it relies on it."""
    z = np.empty((len(seeds), 2 * n))
    u = np.empty((len(seeds), 4 * n))
    for row, seed in enumerate(seeds):
        rng = stream(seed)
        rng.standard_normal(out=z[row])
        rng.random(out=u[row])
    return z, u


def _derive(params: TwoSourceParams, z: np.ndarray, u: np.ndarray, steps: np.ndarray) -> Dict[str, np.ndarray]:
    """The states at step indices ``steps`` of every row of draws, as the
    columns ``sample_states`` returns, each with one row per row of draws:
    the one place a state is derived, elementwise, so identical seeds give
    identical sequences everywhere. num_options is ``2 + floor(5u)``."""
    n = len(steps)
    sd = params.noise_sd
    signal = u[:, :n]
    is_type_d = u[:, n : 2 * n] >= params.p_i(steps)
    flipped = u[:, 2 * n : 3 * n] < (1.0 - params.fidelity_q) / 2.0
    n_values = _NUM_OPTIONS_HI - _NUM_OPTIONS_LO + 1
    return {
        "step_index": np.tile(steps, (len(u), 1)),
        "is_type_d": is_type_d,
        "signal": signal,
        "type_proxy": (is_type_d != flipped).astype(np.int64),
        "num_options": _NUM_OPTIONS_LO + (u[:, 3 * n :] * n_values).astype(np.int64),
        "true_utility": np.where(is_type_d, params.beta, -params.alpha) * signal + z[:, n:] * sd,
        "reward_noise": z[:, :n] * sd,
        "is_finish": np.tile(steps == params.horizon - 1, (len(u), 1)),
    }


class TwoSourceEpisode:
    """Handle over one episode: a deterministic pre-drawn step sequence,
    one row of a run's block, made by ``TwoSourceEpisodes.start``.

    State transitions are exogenous (trigger decisions never change which
    states arrive), so policies compared under one episode seed see
    identical state streams. A fork returns the truncated return of one
    rollout from the current state (see the module notes) and moves
    nothing. The forks of one family share one draw but never a value,
    at one state or across states, which is how paired rollout arms are
    decoupled.
    """

    def __init__(self, params: TwoSourceParams, cols: Dict[str, list], observations: List[Dict[str, float]]):
        self.params = params
        self._cols, self._observations = cols, observations
        self._cursor = 0  # step index of the current state
        self._family: Optional[Tuple[tuple, List[List[List[float]]]]] = None  # last family: key, its returns

    # -- episode protocol -------------------------------------------------

    def _current(self) -> int:
        """The step index of the current state, which may be read."""
        if self._cursor >= self.params.horizon:
            raise EnvFault("episode is finished")
        return self._cursor

    def observe(self) -> Dict[str, float]:
        """Observation record of the current state, a new dict on every call."""
        return self._observations[self._current()].copy()

    def step(self, triggered: bool) -> float:
        t = self._current()
        self._cursor = t + 1
        # Triggered minus untriggered is exactly the true utility of state t.
        reward = self.params.base_reward + self._cols["reward_noise"][t]
        if triggered:
            reward += self._cols["true_utility"][t]
        return reward

    def fork(self, reseed: int, lookahead: int, *, triggered: bool, index: int = 0, count: int = 1) -> float:
        """Truncated return of sibling ``index`` of the ``count`` rollouts
        forked at the current state with this ``reseed`` and ``lookahead``
        (see the module notes). The last family's returns at every state
        are kept here, so of the forks of one family only the first draws
        and sums."""
        if lookahead < 0:
            raise ValueError(f"lookahead must be nonnegative, got {lookahead}")
        if not 0 <= index < count:
            raise ValueError(f"need 0 <= index < count, got index={index}, count={count}")
        t = self._current()  # refuses a finished episode
        key = (reseed, lookahead, count)
        if self._family is None or self._family[0] != key:  # a new family: every sibling of both arms at every state
            horizon, base = self.params.horizon, self.params.base_reward
            snapshot = base + np.array(self._cols["reward_noise"])  # each sibling starts at its arm's snapshot reward
            totals = np.empty((2, horizon, count))  # [arm][t][index], arm 1 triggered
            totals[0] = snapshot[:, None]
            totals[1] = (snapshot + np.array(self._cols["true_utility"]))[:, None]
            ahead = min(lookahead, horizon - 1)
            if ahead:
                z = stream(reseed).standard_normal(horizon * count * ahead).reshape(horizon, count, ahead)
                for j in range(ahead):  # step j past the snapshot, from every state with more than j steps left
                    totals[:, : horizon - j - 1] += base + z[: horizon - j - 1, :, j] * self.params.noise_sd
            self._family = (key, totals.tolist())
        return self._family[1][1 if triggered else 0][t][index]

    def debug_state(self) -> Dict[str, Any]:
        t = self._current()
        return {"latent_type": TYPE_D if self._cols["is_type_d"][t] else TYPE_I,
                "true_utility": self._cols["true_utility"][t]}


class TwoSourceEpisodes:
    """A run of episodes, one per seed, drawn as one block (see the module
    notes); ``start(i)`` makes a fresh episode on the i-th seed's states."""

    def __init__(self, params: TwoSourceParams, seeds: Sequence[int]):
        if not isinstance(params, TwoSourceParams):
            raise InvalidParams("params must be a TwoSourceParams instance")
        self.params = params
        steps = np.arange(params.horizon, dtype=np.int64)
        self._block = _derive(params, *_draw(seeds, params.horizon), steps)
        self._row: Optional[Tuple[int, Dict[str, list], List[Dict[str, float]]]] = None  # the last row started

    def start(self, i: int) -> TwoSourceEpisode:
        if self._row is None or self._row[0] != i:
            cols = {name: column[i].tolist() for name, column in self._block.items()}
            observations = [
                {"step_count": float(t), "signal": signal, "type_proxy": float(proxy),
                 "num_options": float(options), "is_finish": float(finish)}
                for t, signal, proxy, options, finish in zip(
                    cols["step_index"], cols["signal"], cols["type_proxy"], cols["num_options"], cols["is_finish"]
                )
            ]
            self._row = (i, cols, observations)
        return TwoSourceEpisode(self.params, self._row[1], self._row[2])


class TwoSourceEnv:
    """Environment wrapper: builds runs of episodes and owns the success rule."""

    def __init__(self, params: TwoSourceParams, env_id: str = "twosource"):
        self.params = params
        self.env_id = env_id

    @property
    def horizon(self) -> int:
        """Steps in every episode; read from the params, which ``episodes``
        checks."""
        return self.params.horizon

    def episodes(self, seeds: Sequence[int]) -> TwoSourceEpisodes:
        return TwoSourceEpisodes(self.params, seeds)

    def episode_success(self, episode_return: float) -> bool:
        return episode_return >= self.params.success_threshold

    def trigger_cost_units(self) -> float:
        return self.params.trigger_cost_units


def sample_states(params: TwoSourceParams, n_states: int, seed: int) -> Dict[str, np.ndarray]:
    """State sample for verification sweeps, as columns.

    Steps cycle through episode positions (so mixture drift is
    represented) but are drawn in one flat pass on the sampler's own
    stream: one row of draws, so the same states an episode with this
    seed draws, for as many positions as it has.
    """
    if n_states < 1:
        raise ValueError("n_states must be positive")
    steps = np.arange(n_states, dtype=np.int64) % params.horizon
    return {name: column[0] for name, column in _derive(params, *_draw([seed], n_states), steps).items()}
