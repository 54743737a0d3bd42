"""Deterministic seed fan-out and the one stream constructor.

Every stochastic component derives its own stream from
(master seed, component name, index) so that runs are reproducible and
concurrent episode generation cannot entangle streams. The derivation is
a keyed blake2b hash, stable across platforms and Python versions.

A stream is a PCG64 generator whose 128-bit state and increment are the
four little-endian words of a 32-byte blake2b of its seed (O'Neill,
"PCG", 2014: a PCG stream is its state and increment). No
``SeedSequence`` runs, so a fresh stream costs a hash and two object
constructions; paired labeling builds at most one per labelled episode,
from which the episode's fork calls read their rollouts' reward noise.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_SEED_BYTES = 8


class InvalidSeed(ValueError):
    """A stream seed that is not a nonnegative integer."""


@functools.cache
def _hash_key_type() -> type:
    """numpy's seeding interface, answered by a hash: PCG64 asks for four
    uint64 words (its 128-bit state and increment) and gets the
    little-endian words of a 32-byte blake2b of the seed. Built on first
    use, because numpy loads ``numpy.random`` lazily and ``import dial``
    would otherwise pay for it."""
    from numpy.random.bit_generator import ISeedSequence

    class HashKey(ISeedSequence):
        __slots__ = ("_seed",)

        def __init__(self, seed: int):
            self._seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            digest = hashlib.blake2b(str(self._seed).encode(), digest_size=32).digest()
            return np.frombuffer(digest, dtype="<u8").astype(np.uint64, copy=False)

    return HashKey


def stream(seed: int) -> np.random.Generator:
    """Fresh generator for a nonnegative integer seed; equal seeds give
    equal streams on every platform."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSeed(f"stream seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(_hash_key_type()(int(seed))))


def derive_seed(master: int, name: str, index: int = 0) -> int:
    """Child seed = hash(master, component name, index), as a 64-bit int."""
    payload = f"{int(master)}:{name}:{int(index)}".encode()
    digest = hashlib.blake2b(payload, digest_size=_SEED_BYTES).digest()
    return int.from_bytes(digest, "little")


def rng_for(master: int, name: str, index: int = 0) -> np.random.Generator:
    """Stream of the derived child seed."""
    return stream(derive_seed(master, name, index))
