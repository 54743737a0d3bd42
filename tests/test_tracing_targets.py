"""perfbench's tracer patches dial's functions by name: every target it
names must still be defined where it looks, or traced runs break."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", [*tracing.SPANS, tracing.RESAMPLE_COUNTER])
def test_span_target_is_defined_on_its_owner(target):
    owner, attr = tracing._resolve(target)
    assert attr in owner.__dict__, f"{target} does not resolve"
