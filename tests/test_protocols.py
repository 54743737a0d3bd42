"""Every environment, run of episodes and episode that the package and
its tests run is an instance of the runtime-checkable protocols in
``dial.envs`` and adds no public method of its own, so a method dropped
from a protocol or from one implementation, without the other, fails
here. Every episode that forks returns a float from ``fork``."""

from __future__ import annotations

import pytest

from conftest import EpisodeRun, first_episode
from dial.envs import Environment, Episode, Episodes
from dial.twosource import TwoSourceEnv, TwoSourceEpisode, TwoSourceEpisodes, TwoSourceParams
from test_eval import _FaultyEnv, _ScriptedEnv, _ScriptedEpisode
from test_explore import ScriptedEpisode, SiblingScriptedEpisode


def _public_methods(cls):
    return {name for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))}


_ENV = TwoSourceEnv(TwoSourceParams())

_CASES = {
    "twosource-env": (_ENV, Environment),
    "twosource-episodes": (_ENV.episodes([0]), Episodes),
    "twosource-episode": (first_episode(_ENV, 0), Episode),
    "explore-scripted-episode": (ScriptedEpisode([0.1, 0.2]), Episode),
    "explore-sibling-episode": (SiblingScriptedEpisode([0.5, 0.9]), Episode),
    "eval-scripted-episode": (_ScriptedEpisode([0.5]), Episode),
    "eval-scripted-env": (_ScriptedEnv(), Environment),
    "eval-scripted-episodes": (_ScriptedEnv().episodes([0]), Episodes),
    # These two delegate every other name to a two-source env or episode.
    "eval-faulty-env": (_FaultyEnv(), Environment),
    "eval-faulty-episode": (first_episode(_FaultyEnv(), 0), Episode),
}


@pytest.mark.parametrize("name", _CASES)
def test_implementation_is_an_instance_of_its_protocol(name):
    instance, protocol = _CASES[name]
    assert isinstance(instance, protocol)


@pytest.mark.parametrize(
    "cls, protocol",
    [
        (TwoSourceEnv, Environment),
        (TwoSourceEpisodes, Episodes),
        (EpisodeRun, Episodes),
        (TwoSourceEpisode, Episode),
        (ScriptedEpisode, Episode),
        (_ScriptedEpisode, Episode),
        (_ScriptedEnv, Environment),
    ],
    ids=lambda value: value.__name__,
)
def test_implementation_adds_no_public_method(cls, protocol):
    assert _public_methods(cls) == _public_methods(protocol)


@pytest.mark.parametrize(
    "episode",
    [first_episode(_ENV, 0), ScriptedEpisode([1, 2]), SiblingScriptedEpisode([1, 2])],
    ids=["twosource-episode", "explore-scripted-episode", "explore-sibling-episode"],
)
@pytest.mark.parametrize("triggered", [False, True])
def test_a_fork_returns_a_float(episode, triggered):
    # Episode.fork returns its rollout's truncated return, never a handle.
    assert type(episode.fork(reseed=1, lookahead=2, triggered=triggered, index=1, count=3)) is float
