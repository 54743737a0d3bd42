"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from dial.twosource import TwoSourceParams


@pytest.fixture
def balanced_params():
    return TwoSourceParams(p_i0=0.5, noise_sd=0.05, fidelity_q=1.0, horizon=10)


def run_episode_returns(env, seed, decide):
    """Total return and per-step trigger flags for one episode."""
    episode = env.episode(seed)
    total, triggers = 0.0, []
    while not episode.done():
        trig = bool(decide(episode.observe()))
        total += episode.step(trig)
        triggers.append(trig)
    return total, triggers


def assert_close(actual, expected, tol=1e-9):
    assert abs(actual - expected) <= tol, f"{actual} != {expected} within {tol}"


def make_rng(seed=0):
    return np.random.default_rng(seed)
