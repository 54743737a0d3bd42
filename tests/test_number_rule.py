"""One table of values against every boundary at which a run number
enters dial: each accepts a value exactly when ``dial.dsl.finite_number``
accepts it (an int or float, never a bool, that is finite) and the value
lies in that boundary's own range, and refuses every other value with its
own message."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dial.cli import ConfigError, _config_from_dict
from dial.dsl import finite_number
from dial.evaluate import EvalError, PolicySpec
from dial.explore import StepRecord
from dial.features import FeatureSpec
from dial.gate import GateError, GateModel
from dial.twosource import InvalidParams, TwoSourceParams

VALUES = {
    "half": 0.5,
    "one": 1,
    "bool": True,
    "numpy-bool": np.bool_(True),
    "text": "0.5",
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -math.inf,
    "int-past-float-range": 10**400,
    "subnormal": 1e-320,
}


def test_the_rule_accepts_finite_ints_and_floats_only():
    assert [name for name, value in VALUES.items() if finite_number(value)] == ["half", "one", "subnormal"]


def _gate_model(**fields):
    spec = FeatureSpec("a", "llm", "a * 1")
    return GateModel(**{"feature_specs": (spec,), "means": [0.0], "sds": [1.0], "weights": [1.0], "bias": 0.0,
                        "tau": 0.5, "regularizer": "l1", **fields})


def _c_grid_refusal(value):
    if finite_number(value) and value > 0:
        return f"gate.c_grid: value {value!r} has no finite reciprocal"
    return f"gate.c_grid: must be a non-empty list of positive finite values, got [{value!r}]"


def _weight_refusal(value):
    if isinstance(value, float):  # a NaN or an infinity is a number, but not a finite one
        return f"weights must be finite, got [{value!r}]"
    return f"weights must be a list of numbers, got [{value!r}]"


def _param_refusal(value):
    held = value.item() if isinstance(value, np.generic) else value
    if isinstance(held, bool) or not isinstance(held, (int, float)):
        return f"p_i_slope: must be a real number, got {value!r}"
    return f"p_i_slope: must be finite, got {value!r}"


# name -> (build from the value, the refusal's type, its range, its message for a value)
BOUNDARIES = {
    "config-eps": (lambda v: _config_from_dict({"exploration": {"eps": v}}), ConfigError,
                   lambda v: 0.0 <= v <= 1.0, lambda v: f"exploration.eps: must be a number in [0, 1], got {v!r}"),
    "config-tau": (lambda v: _config_from_dict({"gate": {"tau": v}}), ConfigError,
                   lambda v: 0.0 < v < 1.0, lambda v: f"gate.tau: must be a probability in (0, 1), got {v!r}"),
    "config-c-grid": (lambda v: _config_from_dict({"gate": {"c_grid": [v]}}), ConfigError,
                      lambda v: v > 0 and math.isfinite(1.0 / v), _c_grid_refusal),
    "twosource-param": (lambda v: TwoSourceParams(p_i_slope=v), InvalidParams, lambda v: True, _param_refusal),
    "policy-threshold": (lambda v: PolicySpec("fixed_threshold", signal="signal", threshold=v), EvalError,
                         lambda v: True, lambda v: f"threshold: must be a finite number, got {v!r}"),
    "step-record-signal": (lambda v: StepRecord(episode_id=0, step_index=0, obs={}, utility_label=None, signal=v),
                           ValueError, lambda v: True, lambda v: f"signal must be a finite number, got {v!r}"),
    "gate-bias": (lambda v: _gate_model(bias=v), GateError, lambda v: True, lambda v: f"bias must be finite, got {v!r}"),
    "gate-weight": (lambda v: _gate_model(weights=[v]), GateError, lambda v: True, _weight_refusal),
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_applies_the_one_rule(boundary, value):
    build, error, in_range, refusal = BOUNDARIES[boundary]
    if finite_number(value) and in_range(value):
        build(value)
        return
    with pytest.raises(error) as excinfo:
        build(value)
    assert str(excinfo.value) == refusal(value)


_NUMPY_SCALARS = {
    "float64-half": np.float64(0.5),
    "int64-one": np.int64(1),
    "float32-nan": np.float32("nan"),
    "float64-inf": np.float64("inf"),
    "float16-minus-inf": np.float16("-inf"),
    "float64-subnormal": np.float64(1e-320),
    "text": np.str_("0.5"),
}


@pytest.mark.parametrize("value", _NUMPY_SCALARS.values(), ids=_NUMPY_SCALARS.keys())
def test_a_numpy_scalar_param_is_read_as_the_python_scalar_it_holds(value):
    # Only the environment parameters take numpy scalars; each is stored
    # as the Python float of the same bits.
    held = value.item()
    if not finite_number(held):
        with pytest.raises(InvalidParams) as excinfo:
            TwoSourceParams(p_i_slope=value)
        assert str(excinfo.value) == _param_refusal(value)
        return
    stored = TwoSourceParams(p_i_slope=value).p_i_slope
    assert type(stored) is float and stored == held
