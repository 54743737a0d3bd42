"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from dial.twosource import TwoSourceParams


@pytest.fixture
def balanced_params():
    return TwoSourceParams(p_i0=0.5, noise_sd=0.05, fidelity_q=1.0, horizon=10)


class EpisodeRun:
    """A run of episodes for a test environment: ``start(i)`` returns
    ``make(i)``, a fresh episode on the run's i-th seed."""

    def __init__(self, make):
        self._make = make

    def start(self, i):
        return self._make(i)


def first_episode(env, seed):
    """A fresh episode on ``seed``: the only episode of a one-seed run."""
    return env.episodes([seed]).start(0)


def assert_close(actual, expected, tol=1e-9):
    assert abs(actual - expected) <= tol, f"{actual} != {expected} within {tol}"


def make_rng(seed=0):
    return np.random.default_rng(seed)
