"""The stream scheme: a PCG64 stream keyed by a hash of its seed."""

from __future__ import annotations

import ast
import hashlib
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from dial.rng import InvalidSeed, derive_seed, rng_for, stream
from dial.twosource import TwoSourceEnv, TwoSourceParams

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/dial/*.py"))
SEEDING_CALLS = {"default_rng", "SeedSequence", "RandomState"}
# Ways to jump a stream or to restore one from a saved state.
STREAM_JUMPS = {"advance", "jumped"}

# PCG64's 128-bit LCG multiplier (O'Neill's PCG_DEFAULT_MULTIPLIER_128).
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
MASK_128 = (1 << 128) - 1


def _first_draws_digest(seed):
    rng = stream(seed)
    draws = np.concatenate([rng.random(4), rng.standard_normal(4), rng.integers(0, 2**62, 4).astype(float)])
    return hashlib.sha256(draws.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "seed, golden",
    [
        (0, "153365f8c985efff38ff3b4966763a1a900ea2fb443b8766bd4e3d852e953871"),
        (1, "c0bdfdbb700580848f7f6a7268e7c3df0dfd4b295a3d71ee4704a4e1c0826362"),
        (2**64 - 1, "8822027eff1b5d8dcad05eefc9e59f5c8b38cd74c7a917ac2855aab8d7a02d32"),
        (2**70 + 5, "8b48cd41db0d34a44560edfc5cc28cc377763864970b95f38d69a73729b82a52"),
    ],
    ids=["0", "1", "2**64-1", "2**70+5"],
)
def test_stream_first_draws_are_pinned(seed, golden):
    assert _first_draws_digest(seed) == golden


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 11])
def test_stream_state_is_the_seed_hash(seed):
    # The key's four little-endian words are the PCG64 (state, increment)
    # seed pair; PCG64 then seeds as O'Neill's pcg_setseq_128_srandom_r.
    digest = hashlib.blake2b(str(seed).encode(), digest_size=32).digest()
    w = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    initstate, initseq = (w[0] << 64) | w[1], (w[2] << 64) | w[3]
    inc = ((initseq << 1) | 1) & MASK_128
    state = 0
    state = (state * PCG_MULT + inc) & MASK_128
    state = (state + initstate) & MASK_128
    state = (state * PCG_MULT + inc) & MASK_128
    pcg = stream(seed).bit_generator.state["state"]
    assert (pcg["state"], pcg["inc"]) == (state, inc)


def test_equal_seeds_give_equal_fresh_streams():
    a, b = stream(42), stream(42)
    assert a is not b and a.bit_generator is not b.bit_generator
    assert np.array_equal(a.random(16), b.random(16))
    assert np.array_equal(rng_for(3, "x", 2).random(4), stream(derive_seed(3, "x", 2)).random(4))


def test_distinct_keys_give_distinct_streams():
    keys = list(product((0, 1, 2**40), ("trigger", "cv-folds", "resample"), (0, 1, 7)))
    firsts = {tuple(rng_for(*key).random(2)) for key in keys}
    assert len(firsts) == len(keys)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", None, [1, 2]])
def test_bad_seeds_are_refused(seed):
    with pytest.raises(InvalidSeed, match="nonnegative integer"):
        stream(seed)
    assert issubclass(InvalidSeed, ValueError)


def test_numpy_integer_seed_is_its_value():
    assert np.array_equal(stream(np.uint64(9)).random(4), stream(9).random(4))


def test_episode_seed_is_required():
    with pytest.raises(TypeError):
        TwoSourceEnv(TwoSourceParams()).episodes()
    with pytest.raises(InvalidSeed):
        TwoSourceEnv(TwoSourceParams()).episodes([3, None])


def seeding_calls(source: str) -> list:
    """Calls that seed a stream other than through ``stream``, calls that
    jump a stream, and reads of a generator's ``bit_generator``, whose
    state can be saved and restored: every stream is to be a fresh
    ``stream(seed)``, read forward."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SEEDING_CALLS | STREAM_JUMPS:
                calls.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == "bit_generator":
            calls.append((node.lineno, "bit_generator"))
    return sorted(calls)


def test_scan_finds_seeding_calls():
    source = (
        "import numpy as np\nfrom numpy.random import SeedSequence\n"
        "a = np.random.default_rng(1)\nb = SeedSequence(2)\nc = np.random.RandomState\nd = RandomState(3)\n"
    )
    assert seeding_calls(source) == [(3, "default_rng"), (4, "SeedSequence"), (6, "RandomState")]


def test_scan_finds_stream_jumps_and_saved_states():
    source = (
        "rng = stream(1)\nafter = rng.bit_generator.state\n"
        "rng.bit_generator.advance(3 << 64)\nbits = PCG64(2).jumped(1)\nstate = rng.bit_generator\n"
    )
    assert seeding_calls(source) == [
        (2, "bit_generator"), (3, "advance"), (3, "bit_generator"), (4, "jumped"), (5, "bit_generator"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_seeds_only_through_stream(path):
    assert seeding_calls(path.read_text(encoding="utf-8")) == []
