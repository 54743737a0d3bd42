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
  - one function derives every state, as numpy columns, for episodes,
    forks and ``sample_states`` alike, so a seed gives one state
    sequence. Every stream is a ``dial.rng.stream``.
  - the ``count`` sibling forks of one snapshot (one paired label's
    rollouts) share one keyed draw: sibling i's lookahead rows are rows
    ``[i*m, (i+1)*m)`` of one ``_draw_states`` call on ``stream(reseed)``
    over the block's steps tiled ``count`` times. Nothing is drawn until
    a row is read. An untriggered lookahead step reads only reward
    noise, which leads the draw; any other read draws the full rows, so
    the bits do not depend on which read, or which sibling, comes first.
    The episode forked from keeps its last block, so siblings made one
    after another draw once. ``count=1`` is a single fork.
  - a fork ends at its lookahead: it is done after its snapshot step and
    ``lookahead`` more (to the horizon when None), and reads no row past
    them. Every stream is a fresh ``stream(seed)`` read forward.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

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
    """Generative parameters of the two-source environment."""

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
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidParams(f"slopes must be positive, got alpha={self.alpha}, beta={self.beta}")
        if not 0.0 <= self.p_i0 <= 1.0:
            raise InvalidParams(f"p_i0 must be in [0, 1], got {self.p_i0}")
        if self.noise_sd < 0:
            raise InvalidParams(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if not 0.0 <= self.fidelity_q <= 1.0:
            raise InvalidParams(f"fidelity_q must be in [0, 1], got {self.fidelity_q}")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise InvalidParams(f"horizon must be a positive integer, got {self.horizon!r}")
        if not self.trigger_cost_units > 0:
            raise InvalidParams(f"trigger_cost_units must be positive, got {self.trigger_cost_units}")
        if np.isnan(self.success_threshold):
            object.__setattr__(self, "success_threshold", self.horizon * self.base_reward)

    def p_i(self, step_index: int | np.ndarray) -> float | np.ndarray:
        """Unsuitable-state probability at a step, elementwise over an
        array of steps: clamp(p_i0 + slope * t, 0, 1)."""
        return np.minimum(np.maximum(self.p_i0 + self.p_i_slope * step_index, 0.0), 1.0)

    def p_i_star(self) -> float:
        """Mixture at which the aggregate signal-utility correlation crosses zero."""
        return self.beta / (self.alpha + self.beta)


class SimState(NamedTuple):
    """One pre-drawn decision step. Hidden fields (latent_type,
    true_utility, reward_noise) are never exposed through observations."""

    step_index: int
    latent_type: str              # TYPE_I or TYPE_D
    signal: float
    type_proxy: int               # noisy indicator of the decision-difficult type
    num_options: int
    true_utility: float
    reward_noise: float
    is_finish: bool


def step_return(params: TwoSourceParams, state: SimState, triggered: bool) -> float:
    """Realized step reward. The triggered-minus-untriggered difference
    from the same state is exactly the state's true utility."""
    reward = params.base_reward + state.reward_noise
    if triggered:
        reward += state.true_utility
    return reward


def _draw_states(params: TwoSourceParams, rng: np.random.Generator, steps: np.ndarray) -> Dict[str, np.ndarray]:
    """Draw one state per step index in ``steps``, as the columns
    ``sample_states`` returns: the one place a state is derived, so
    identical seeds give identical sequences everywhere.

    Draw order for n states: reward and latent noise normals (one call
    of length 2n, reward noise first), then signal, type, proxy-flip and
    num_options uniforms (one call of length 4n). A fork's rollout reads
    only the first n normals (``_SiblingBlock.reward_noise``), so it
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


def _draw_rows(params: TwoSourceParams, rng: np.random.Generator, steps: np.ndarray) -> Tuple[SimState, ...]:
    """``_draw_states`` for the step indices in ``steps``, as the rows an
    episode steps through."""
    columns = [column.tolist() for column in _draw_states(params, rng, steps).values()]
    # The columns come in SimState's field order, is_type_d for latent_type.
    columns[1] = [TYPE_D if d else TYPE_I for d in columns[1]]
    return tuple(map(SimState, *columns))


class _SiblingBlock:
    """The one draw shared by the sibling forks of one snapshot (see the
    module notes). A pure function of (params, key), it holds only drawn
    values, filled on first read and never a generator, so what one
    sibling reads does not depend on what its siblings read before it.
    """

    __slots__ = ("params", "key", "_noise", "_rows")

    def __init__(self, params: TwoSourceParams, key: Tuple[int, int, int, int]):
        self.params = params
        self.key = key  # (reseed, count, snapshot step, step just past the block)
        self._noise: Optional[Tuple[float, ...]] = None
        self._rows: Optional[Tuple[SimState, ...]] = None

    def reward_noise(self) -> Tuple[float, ...]:
        """Reward noise of every sibling's rows, the same bits the full
        draw gives: the first count*m normals of the stream."""
        if self._noise is None:
            reseed, count, cursor, end = self.key
            z = stream(reseed).standard_normal(count * (end - cursor - 1))
            self._noise = tuple((z * self.params.noise_sd).tolist())
        return self._noise

    def rows(self, index: int) -> Tuple[SimState, ...]:
        """Sibling ``index``'s lookahead rows."""
        reseed, count, cursor, end = self.key
        if self._rows is None:
            steps = np.tile(np.arange(cursor + 1, end, dtype=np.int64), count)
            self._rows = _draw_rows(self.params, stream(reseed), steps)
        m = end - cursor - 1
        return self._rows[index * m : (index + 1) * m]


class TwoSourceEpisode:
    """Handle over one episode: a deterministic pre-drawn step sequence.

    State transitions are exogenous (trigger decisions never change which
    states arrive), so policies compared under one episode seed see
    identical state streams. A fork snapshots the current state and
    continues on rows of its own up to its lookahead, where it is done:
    sibling forks share one keyed draw but never a row, which is how
    paired rollout arms are decoupled. A fork's lookahead rows are drawn
    on first read (its ``_block`` is kept until then); a paired rollout,
    which only sums untriggered rewards past the snapshot, reads the
    reward noise alone, once per label.
    """

    def __init__(self, params: TwoSourceParams, seed: int):
        self.params = params
        self._rows = _draw_rows(params, stream(seed), np.arange(params.horizon, dtype=np.int64))
        self._first = 0   # step index of _rows[0]
        self._cursor = 0  # step index of the current state
        self._end = params.horizon  # done at this step index
        self._block: Optional[_SiblingBlock] = None  # a fork's sibling block, until its rows are read
        self._siblings: Optional[_SiblingBlock] = None  # block of the last fork made here

    # -- episode protocol -------------------------------------------------

    def done(self) -> bool:
        return self._cursor >= self._end

    def _current(self) -> SimState:
        if self.done():
            raise EnvFault("episode is finished")
        i = self._cursor - self._first
        if i >= len(self._rows):
            # First read of a fork's lookahead: take its rows of the sibling block.
            self._rows += self._block.rows(self._index)
            self._block = None
        return self._rows[i]

    def observe(self) -> Dict[str, float]:
        return observe(self._current())

    def step(self, triggered: bool) -> float:
        if self._block is not None and not triggered and self._first < self._cursor < self._end:
            reward = self.params.base_reward + self._block.reward_noise()[self._noise_offset + self._cursor]
        else:
            reward = step_return(self.params, self._current(), bool(triggered))
        self._cursor += 1
        return reward

    def candidate_actions(self, k: int) -> List[int]:
        """The base action (0), then the one intervention (1) k - 1
        times: every candidate past the base triggers the optimizer."""
        if k < 1:
            raise ValueError("need at least one candidate action")
        return [0] + [1] * (k - 1)

    def apply_action(self, action: int) -> float:
        return self.step(triggered=action != 0)

    def fork(
        self, reseed: int, lookahead: Optional[int] = None, *, index: int = 0, count: int = 1
    ) -> "TwoSourceEpisode":
        """Fork at the current state: sibling ``index`` of the ``count``
        forks made here with this ``reseed`` and ``lookahead``. The fork
        keeps the snapshot row; its next ``lookahead`` rows (to the
        horizon when None) are its rows of the siblings' one draw from
        ``stream(reseed)`` (see ``_SiblingBlock``), and it is done after
        them. ``count=1`` is a single fork. Nothing is drawn here, and
        the last block made here is kept, so siblings made one after
        another share their draw."""
        if lookahead is not None and lookahead < 0:
            raise ValueError(f"lookahead must be nonnegative, got {lookahead}")
        if not 0 <= index < count:
            raise ValueError(f"need 0 <= index < count, got index={index}, count={count}")
        if self.done():
            raise EnvFault("cannot fork a finished episode")
        snapshot = self._current()  # materialize the snapshot step
        cursor = self._cursor
        end = self.params.horizon
        if lookahead is not None:
            end = min(cursor + 1 + lookahead, end)
        key = (reseed, count, cursor, end)
        block = self._siblings
        if block is None or block.key != key:
            block = self._siblings = _SiblingBlock(self.params, key)
        fork = TwoSourceEpisode.__new__(TwoSourceEpisode)
        fork.params = self.params
        fork._cursor = fork._first = cursor
        fork._rows = (snapshot,)
        fork._end = end
        fork._block = block
        fork._index = index
        fork._noise_offset = index * (end - cursor - 1) - cursor - 1  # reward_noise()[offset + t] is step t's
        fork._siblings = None
        return fork

    def state_digest(self) -> str:
        s = self._current()
        payload = np.array(
            [s.step_index, s.signal, s.type_proxy, s.num_options, s.true_utility, s.reward_noise],
            dtype=np.float64,
        ).tobytes()
        return hashlib.sha256(payload + s.latent_type.encode()).hexdigest()

    def debug_state(self) -> Dict[str, Any]:
        s = self._current()
        return {
            "latent_type": s.latent_type,
            "true_utility": s.true_utility,
            "p_i": float(self.params.p_i(s.step_index)),
        }


class TwoSourceEnv:
    """Environment wrapper: builds episodes and owns the success rule."""

    def __init__(self, params: TwoSourceParams, env_id: str = "twosource"):
        self.params = params
        self.env_id = env_id

    def episode(self, seed: int) -> TwoSourceEpisode:
        return spawn_episode(self.params, seed)

    def episode_success(self, episode_return: float) -> bool:
        return episode_return >= self.params.success_threshold

    def trigger_cost_units(self) -> float:
        return self.params.trigger_cost_units


def spawn_episode(params: TwoSourceParams, seed: int) -> TwoSourceEpisode:
    """Deterministic episode handle for (params, seed)."""
    if not isinstance(params, TwoSourceParams):
        raise InvalidParams("params must be a TwoSourceParams instance")
    return TwoSourceEpisode(params, seed=seed)


def observe(state: SimState) -> Dict[str, float]:
    """Observation record for a state; hidden fields stay hidden."""
    return {
        "step_count": float(state.step_index),
        "signal": float(state.signal),
        "type_proxy": float(state.type_proxy),
        "num_options": float(state.num_options),
        "is_finish": float(state.is_finish),
    }


def sample_states(params: TwoSourceParams, n_states: int, seed: int) -> Dict[str, np.ndarray]:
    """State sample for verification sweeps, as columns.

    Steps cycle through episode positions (so mixture drift is
    represented) but are drawn in one flat pass on the sampler's own
    stream: the same rows an episode with this seed draws, for as many
    positions as it has.
    """
    if n_states < 1:
        raise ValueError("n_states must be positive")
    return _draw_states(params, stream(seed), np.arange(n_states, dtype=np.int64) % params.horizon)
