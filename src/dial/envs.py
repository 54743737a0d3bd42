"""Episodic environment contract consumed by exploration and deployment.

An Environment builds a run of episodes from their per-episode seeds at
once, so it may draw the whole run as one block; the run starts a fresh
episode on any of its seeds, as often as asked, and an episode's states
depend on its seed alone. An Episode is a single-threaded handle over
one trajectory. A step takes
one of two actions, the base policy's (untriggered) or the base policy
with the optimizer invoked (triggered). Episodes must support forking (a
rollout from the current state that returns its truncated return and
never moves the episode) so utility labels can be estimated by paired
counterfactual rollouts of the two arms from the same state snapshot.
A truncated return is the sum of step rewards, so environments express
task-specific scoring through the reward channel.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Sequence, runtime_checkable


class EnvFault(RuntimeError):
    """An environment failed while stepping; carries episode/step context."""


@runtime_checkable
class Episode(Protocol):
    """One in-progress trajectory."""

    def done(self) -> bool:
        ...

    def observe(self) -> Dict[str, float]:
        """Raw observation record for the current step. Never exposes
        hidden state (latent type, true utility)."""
        ...

    def step(self, triggered: bool) -> float:
        """Execute the current step (base action or optimizer
        intervention) and advance. Returns the realized step reward."""
        ...

    def fork(self, reseed: int, lookahead: int, *, triggered: bool, index: int = 0, count: int = 1) -> float:
        """Truncated return of one rollout from the current state: sibling
        ``index`` (0 <= index < count) of the ``count`` forks made here
        with this ``reseed``. The rollout takes the current step,
        ``triggered`` or not, then ``lookahead`` untriggered steps,
        clipped at the episode's end, and sums their rewards in step
        order. The episode does not move.
        The forks of one episode may share one keyed draw, but no two
        rollouts may read the same noise: paired labeling uses one
        ``reseed`` per episode, for every rollout of every label, and
        tells a label's rollouts apart by ``index`` alone, and its labels
        by the state they fork at, so forks at different states must read
        disjoint noise too. ``count=1`` is a single fork on the
        ``reseed`` stream. A finished episode refuses to fork."""
        ...

    def debug_state(self) -> Optional[Dict[str, Any]]:
        """Hidden per-step diagnostics (simulators only), or None."""
        ...


@runtime_checkable
class Episodes(Protocol):
    """A run of episodes, one per seed."""

    def start(self, i: int) -> Episode:
        """A fresh episode on the i-th seed of the run."""
        ...


@runtime_checkable
class Environment(Protocol):
    """Episode factory plus the episode-level success rule."""

    env_id: str

    def episodes(self, seeds: Sequence[int]) -> Episodes:
        ...

    def episode_success(self, episode_return: float) -> bool:
        ...

    def trigger_cost_units(self) -> float:
        ...
