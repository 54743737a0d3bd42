"""Gate fitting: standardizer, solver, CV, selection, and the decision rule."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import dial.gate
from dial.cli import load_config, save_model_json
from dial.dsl import DslError
from dial.envs import EnvFault
from dial.evaluate import PolicySpec, run_deployment
from dial.features import (
    FeatureError, FeatureSpec, MockProposalClient, build_matrix, build_pool, compile_features, extract_features,
)
from dial.gate import (
    DEFAULT_C_GRID,
    GateError,
    GateModel,
    SingleClassError,
    cross_validate_c,
    fit_gate,
    fit_sparse_logistic,
    load_model_json,
    mean_logloss,
    mi_topk_select,
    model_from_dict,
    model_to_dict,
    objective,
    reverse_direction,
    weight_diagnostic,
    _sigmoid,
)
from dial.rng import derive_seed
from dial.twosource import TwoSourceEnv, sample_states
from direction_experiments import explore_and_fit

_DEMO_PARAMS = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "demo.json")).env_params


# -- standardizer ------------------------------------------------------------


def _specs(names):
    return [FeatureSpec(n, "llm", n + " * 1") for n in names]


def _labels(n):
    return np.resize([0.0, 1.0, 1.0, 0.0], n)


def _standardize(model, X):
    """The matrix standardize of ``X`` by the model's fitted statistics."""
    return (X - model.means) / model.sds


def _fit_stats(X):
    """The unpenalized gate ``fit_gate`` gives on ``X`` (columns a, b, ...)
    against ``_labels``, which the test matrices do not separate."""
    return fit_gate(X, _labels(len(X)), _specs("abcd"[: X.shape[1]]), regularizer="none", seed=0)


def test_standardizer_drops_constant_columns():
    X = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0], [1.0, 8.0]])
    model = _fit_stats(X)
    assert model.feature_names == ("b",)
    assert model.meta["dropped"] == {"a": "zero variance"}
    assert model.means.tolist() == [5.0] and len(model.sds) == 1
    assert _standardize(model, X[:, 1:]).shape == (4, 1)
    assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))).feature_names == ("b",)


def test_a_constant_column_whose_mean_rounds_is_dropped():
    # 0.1 summed over 252 rows does not divide back to 0.1, so the column's
    # sd is 1.4e-17, not 0, and standardized it is a constant beside the bias.
    X = np.column_stack([np.full(252, 0.1), np.arange(252.0) % 7])
    assert np.sqrt(((X[:, 0] - X[:, 0].mean()) ** 2).mean()) > 0.0
    model = _fit_stats(X)
    assert model.feature_names == ("b",)
    assert model.meta["dropped"] == {"a": "zero variance"}


def test_standardizer_is_idempotent_on_standard_columns():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(500)
    col = (col - col.mean()) / col.std()
    out = _standardize(_fit_stats(col.reshape(-1, 1)), col.reshape(-1, 1))[:, 0]
    assert np.abs(out - col).max() < 1e-12


def test_standardizer_population_convention():
    X = np.array([[0.0], [2.0], [2.0], [0.0]])
    assert _standardize(_fit_stats(X), X)[:, 0].tolist() == [-1.0, 1.0, 1.0, -1.0]


def test_standardizer_fit_output_is_centered_unit():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 7, size=(200, 3))
    out = _standardize(_fit_stats(X), X)
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(np.sqrt((out**2).mean(axis=0)) - 1).max() < 1e-9


def test_standardizer_apply_matrix_equals_the_masked_formula_bit_for_bit():
    # The model holds the read columns' statistics, and the fit
    # solves on the boolean-masked standardize of the full matrix.
    rng = np.random.default_rng(3)
    X = rng.normal(2.0, 3.0, size=(40, 4))
    X[:, 1] = 2.5
    model = _fit_stats(X)
    assert model.meta["dropped"] == {"b": "zero variance"}
    keep = np.array([True, False, True, True])
    means = X.mean(axis=0)
    sds = np.sqrt(((X - means) ** 2).mean(axis=0))
    for M in (X, rng.normal(size=(7, 4)), X[:1]):
        expected = (M[:, keep] - means[keep]) / sds[keep]
        assert _standardize(model, M[:, keep]).tobytes() == expected.tobytes()
    w, b = fit_sparse_logistic((X[:, keep] - means[keep]) / sds[keep], _labels(len(X)), c=1.0, reg="none")
    assert model.weights.tobytes() == w.tobytes() and model.bias == b


def test_standardizer_needs_two_rows():
    with pytest.raises(GateError, match="at least 2 rows"):
        fit_gate(np.array([[1.0]]), np.array([1.0]), _specs("a"))


@pytest.mark.parametrize("constant", [True, False], ids=["constant", "varying"])
def test_fit_refuses_a_repeated_feature_name_before_any_solve(monkeypatch, constant):
    # Two constant x columns once fit, with one "dropped" entry for both;
    # two varying ones were refused only by GateModel, after the whole CV fit.
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit_sparse_logistic(*args, **kwargs)

    monkeypatch.setattr(dial.gate, "fit_sparse_logistic", counting_fit)
    X = np.random.default_rng(5).normal(size=(40, 3))
    if constant:
        X[:, :2] = 1.0
    with pytest.raises(GateError, match="^feature name 'x' is given more than once$"):
        fit_gate(X, _labels(40), _specs(["x", "x", "z"]))
    assert calls == []


@pytest.mark.parametrize(
    "means, sds",
    [([0.0, 1.0], [1.0]), ([0.0], [0.0]), ([0.0, 0.0], [1.0, -2.0]), ([0.0], [float("nan")])],
    ids=["lengths", "zero-sd", "negative-sd", "nan-sd"],
)
def test_standardizer_refuses_misaligned_or_nonpositive_scales(means, sds):
    # A zero sd would divide by zero at every decision of a loaded model.
    n = len(means)
    with pytest.raises(GateError, match="standardizer"):
        GateModel(feature_specs=tuple(_specs("ab"[:n])), means=np.array(means), sds=np.array(sds),
                  weights=np.zeros(n), bias=0.0, tau=0.5, regularizer="l1")


def test_a_model_built_from_lists_decides_like_one_built_from_arrays():
    # Lists once failed with a bare TypeError, and so did reversing list weights.
    fields = dict(feature_specs=tuple(_specs("ab")), bias=0.1, tau=0.5, regularizer="l1")
    lists = GateModel(means=[0.5, 1], sds=[2.0, 0.5], weights=[0.3, -0.7], **fields)
    arrays = GateModel(means=np.array([0.5, 1.0]), sds=np.array([2.0, 0.5]), weights=np.array([0.3, -0.7]), **fields)
    observations = [{"a": a, "b": b} for a in (-1.0, 0.4, 3.0) for b in (0.0, 1.2, 2.5)]
    for one, other in ((lists, arrays), (reverse_direction(lists), reverse_direction(arrays))):
        assert [one.score(obs) for obs in observations] == [other.score(obs) for obs in observations]
        assert [one.decide(obs) for obs in observations] == [other.decide(obs) for obs in observations]
    assert len({lists.decide(obs) for obs in observations}) == 2


@pytest.mark.parametrize("field", ["means", "sds", "weights"])
@pytest.mark.parametrize("value", [["x"], None, [[1.0]], ["0.5"], [True]],
                         ids=["text", "none", "nested", "numeric-text", "bool"])
def test_a_model_field_that_is_no_list_of_numbers_is_refused_by_name(field, value):
    values = {"means": [0.0], "sds": [1.0], "weights": [1.0], field: value}
    with pytest.raises(GateError, match=f"^{field} must be a list of numbers"):
        GateModel(feature_specs=tuple(_specs("a")), bias=0.0, tau=0.5, regularizer="l1", **values)


@pytest.mark.parametrize("field, message", [("bias", "bias must be finite"), ("tau", r"threshold must lie in \(0, 1\)")],
                         ids=["bias", "tau"])
def test_a_text_bias_or_tau_is_refused_by_name(field, message):
    # A text bias or tau once failed with a bare TypeError.
    values = {"bias": 0.0, "tau": 0.5, field: "0.5"}
    with pytest.raises(GateError, match=f"^{message}, got '0.5'$"):
        GateModel(feature_specs=tuple(_specs("a")), means=[0.0], sds=[1.0], weights=[1.0], regularizer="l1", **values)


def test_duplicate_column_is_read_once():
    # Two equal standardized columns make the l1 optimum non-unique; the
    # fit keeps the earlier one and names the other, so it solves the
    # single-column problem.
    rng = np.random.default_rng(4)
    x = rng.standard_normal(120)
    other = rng.standard_normal(120)
    y = (rng.random(120) < 1 / (1 + np.exp(-1.5 * x))).astype(float)
    dup = fit_gate(np.column_stack([x, other, x]), y, _specs(["x", "other", "x_copy"]), seed=1)
    single = fit_gate(np.column_stack([x, other]), y, _specs(["x", "other"]), seed=1)
    assert dup.feature_names == ("x", "other")
    assert dup.meta["dropped"] == {"x_copy": "duplicate of x"}
    c = dup.meta["chosen_c"]
    assert c == single.meta["chosen_c"]
    Xs = _standardize(single, np.column_stack([x, other]))
    assert objective(Xs, y, dup.weights, dup.bias, c, "l1") == objective(Xs, y, single.weights, single.bias, c, "l1")


# -- solver -------------------------------------------------------------------


def test_total_shrinkage_gives_intercept_only():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 4))
    y = (rng.random(200) < 0.7).astype(float)
    w, b = fit_sparse_logistic(X, y, c=1e-6, reg="l1")
    assert np.abs(w).max() < 1e-4
    pos = y.mean()
    assert b == pytest.approx(math.log(pos / (1 - pos)), abs=1e-3)


def test_separable_single_feature_sign_recovery():
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    X = (y * 2 - 1).reshape(-1, 1)
    w, _ = fit_sparse_logistic(X, y, c=1.0, reg="l1")
    assert w[0] > 0


def test_single_class_raises():
    X = np.zeros((5, 2))
    with pytest.raises(SingleClassError):
        fit_sparse_logistic(X, np.ones(5), c=1.0, reg="l1")


@pytest.mark.parametrize("c", [float("nan"), 1e-320, 0, -1.0], ids=["nan", "subnormal", "zero", "negative"])
def test_solver_refuses_a_c_without_a_finite_positive_reciprocal(c):
    # 1/C weighs the penalty: a NaN C or a subnormal one (1/C overflows)
    # once ran and returned an all-zero gate.
    X = np.array([[-1.0], [1.0], [-0.5], [0.5]])
    with pytest.raises(GateError, match=f"^C must be a positive number with a finite reciprocal, got {c!r}$"):
        fit_sparse_logistic(X, np.array([0.0, 1.0, 1.0, 0.0]), c=c, reg="none")


def test_solver_beats_grid_oracle_small():
    # Smaller twin of the acceptance criterion, one instance.
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    y = (rng.random(20) < 0.5).astype(float)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    w, b = fit_sparse_logistic(X, y, c=0.5, reg="l1")
    achieved = objective(X, y, w, b, 0.5, "l1")
    axis = np.linspace(-3, 3, 21)
    best = np.inf
    for w0 in axis:
        for w1 in axis:
            for w2 in axis:
                for bias in axis:
                    cand = objective(X, y, np.array([w0, w1, w2]), bias, 0.5, "l1")
                    best = min(best, cand)
    assert achieved <= best + 1e-6


@pytest.mark.parametrize("reg", ["l1", "l2", "none", "elastic_net"])
def test_solver_matches_objective_gradient_conditions(reg):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3))
    w_true = np.array([1.0, -1.0, 0.0])
    y = (rng.random(60) < 1 / (1 + np.exp(-X @ w_true))).astype(float)
    w, b = fit_sparse_logistic(X, y, c=1.0, reg=reg)
    base = objective(X, y, w, b, 1.0, reg)
    for j in range(3):  # local perturbations never improve the objective
        for delta in (1e-4, -1e-4):
            w2 = w.copy()
            w2[j] += delta
            assert objective(X, y, w2, b, 1.0, reg) >= base - 1e-9
    assert objective(X, y, w, b + 1e-4, 1.0, reg) >= base - 1e-9


def test_l1_sparsity_path_monotone_in_c():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((150, 8))
    w_true = np.array([1.5, -1.0, 0.5, 0, 0, 0, 0, 0])
    y = (rng.random(150) < 1 / (1 + np.exp(-X @ w_true))).astype(float)
    nnz_small = np.count_nonzero(fit_sparse_logistic(X, y, 0.01, "l1")[0])
    nnz_large = np.count_nonzero(fit_sparse_logistic(X, y, 10.0, "l1")[0])
    assert nnz_small <= nnz_large


@pytest.mark.parametrize("reg", ["l2", "none"])
def test_l2_and_none_honour_warm_start(monkeypatch, reg):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((80, 4))
    y = (rng.random(80) < 1 / (1 + np.exp(-X @ np.array([1.0, -0.5, 0.0, 0.3])))).astype(float)
    cold = fit_sparse_logistic(X, y, 1.0, reg)
    far = fit_sparse_logistic(X, y, 1.0, reg, warm_start=(np.full(4, 2.0), -1.0))
    assert objective(X, y, *far, 1.0, reg) == pytest.approx(objective(X, y, *cold, 1.0, reg), abs=1e-9)
    monkeypatch.setattr(dial.gate, "SOLVER_MAX_ITER", 1)
    resumed = fit_sparse_logistic(X, y, 1.0, reg, warm_start=cold)
    assert np.abs(resumed[0] - cold[0]).max() < 1e-9  # starts, and stays, at the optimum


def test_solver_logs_only_a_stop_at_its_cap(monkeypatch, caplog):
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])  # separable: "none" has no finite optimum, "l2" has one
    monkeypatch.setattr(dial.gate, "SOLVER_MAX_ITER", 20)
    with caplog.at_level("WARNING", logger="dial.gate"):
        fit_sparse_logistic(X, y, 1.0, "l2")
        fit_sparse_logistic(X, y, 1.0, "none")
    messages = [r.getMessage() for r in caplog.records if r.name == "dial.gate"]
    assert len(messages) == 1
    assert "cap of 20 outer iterations" in messages[0]
    assert "lam1=0, lam2=0" in messages[0] and "last update" in messages[0]


def test_cap_stops_are_recorded_in_the_model(monkeypatch, caplog):
    # Separable data and a cap lowered to one outer iteration, in which no
    # l2 fit certifies: every fit of the five CV folds' C paths and of the
    # final path stops at the cap, and each is logged.
    monkeypatch.setattr(dial.gate, "SOLVER_MAX_ITER", 1)
    X = np.linspace(-2.0, 2.0, 10).reshape(-1, 1)
    y = (X[:, 0] > 0).astype(float)
    with caplog.at_level("WARNING", logger="dial.gate"):
        model = fit_gate(X, y, [FeatureSpec("x", "llm", "signal")], regularizer="l2")
    final, totals = model.meta["solver"]["final"], model.meta["solver"]["all"]
    fits = 5 * len(DEFAULT_C_GRID) + sum(c <= model.meta["chosen_c"] for c in DEFAULT_C_GRID)
    assert len([r for r in caplog.records if r.name == "dial.gate"]) == fits
    assert final["converged"] is False and final["stop"] == "cap"
    assert final["outer_iterations"] == 1 and final["violation"] > 1e-8
    assert totals["fits"] == fits and totals["converged"] == 0
    assert totals["stops"] == {"certificate": 0, "no_improving_step": 0, "cap": fits}
    assert totals["outer_iterations"] == fits


def test_demo_fit_records_a_certified_final_fit(demo_data):
    model, _, _ = demo_data
    final, totals = model.meta["solver"]["final"], model.meta["solver"]["all"]
    assert final["converged"] is True and final["stop"] == "certificate"
    assert final["violation"] <= 1e-8
    path = sum(c <= model.meta["chosen_c"] for c in DEFAULT_C_GRID)
    assert totals["fits"] == 5 * len(DEFAULT_C_GRID) + path  # the CV folds' paths, then the final path
    assert totals["stops"]["cap"] == 0
    assert sum(totals["stops"].values()) == totals["fits"]
    assert totals["active_set_solves"] >= totals["outer_iterations"] > 0


@pytest.mark.parametrize("reg", ["l1", "l2", "elastic_net", "none", "mi_topk"])
def test_every_demo_solver_call_certifies(demo_data, reg):
    # A total objective of ~100 once hid the last steps' decrease, so CV
    # fits stopped on "no_improving_step", and a floor under the working
    # weights cut the unpenalized Newton steps until they crawled to the cap.
    model, X, y = demo_data
    totals = fit_gate(X, y, model.feature_specs, regularizer=reg, seed=model.meta["seed"]).meta["solver"]["all"]
    assert totals["converged"] == totals["fits"]
    assert totals["outer_iterations"] <= 30 * totals["fits"]


def test_fit_does_not_depend_on_column_order(demo_data):
    model, X, y = demo_data
    specs = list(model.feature_specs)
    base = fit_gate(X, y, specs, seed=5)
    c = base.meta["chosen_c"]
    base_obj = objective(_standardize(base, X), y, base.weights, base.bias, c, "l1")
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = rng.permutation(X.shape[1])
        permuted = fit_gate(X[:, perm], y, [specs[j] for j in perm], seed=5)
        assert permuted.meta["chosen_c"] == c
        obj = objective(_standardize(permuted, X[:, perm]), y, permuted.weights, permuted.bias, c, "l1")
        assert abs(obj - base_obj) <= 1e-9
        by_name = dict(zip(permuted.feature_names, permuted.weights))
        assert np.abs(np.array([by_name[n] for n in base.feature_names]) - base.weights).max() <= 1e-6
        assert weight_diagnostic(permuted) == weight_diagnostic(base)


def test_columns_in_the_span_of_earlier_ones_are_dropped_in_either_order(demo_data):
    # An affine copy of token_entropy and the sum step_count + token_entropy
    # leave [X 1] rank-deficient; both were read before the span rule (the
    # copy with weight 0 in whichever position came second). Each order
    # drops the two columns that come last in their span and names why.
    model, X, y = demo_data
    specs, names, seed = list(model.feature_specs), list(model.feature_names), model.meta["seed"]
    entropy, steps = X[:, names.index("token_entropy")], X[:, names.index("step_count")]
    wide = np.column_stack([X, 3 * entropy + 1, steps + entropy])
    wide_specs = specs + [FeatureSpec("entropy_affine", "llm", "3 * token_entropy + 1"),
                          FeatureSpec("steps_plus_entropy", "llm", "step_count + token_entropy")]
    wide_names = [s.name for s in wide_specs]

    def fit(cols, reg="l1"):
        """The gate fit on ``wide``'s columns ``cols`` in that order, and the
        standardized columns it reads."""
        cols = list(cols)
        fitted = fit_gate(wide[:, cols], y, [wide_specs[j] for j in cols], regularizer=reg, seed=seed)
        return fitted, _standardize(fitted, wide[:, [wide_names.index(n) for n in fitted.feature_names]])

    pool, reverse = range(14), range(13, -1, -1)
    in_pool_order, Xs = fit(pool)
    assert in_pool_order.meta["dropped"] == {
        "entropy_affine": "duplicate of token_entropy", "steps_plus_entropy": "in the span of step_count, token_entropy"}
    base = fit_gate(X, y, specs, seed=seed)
    assert in_pool_order.meta["chosen_c"] == base.meta["chosen_c"]
    by_name = dict(zip(in_pool_order.feature_names, in_pool_order.weights))
    assert np.abs(np.array([by_name[n] for n in base.feature_names]) - base.weights).max() <= 1e-8

    # Unpenalized, the optimum depends only on the span read, which is the
    # same in either order.
    (none_pool, Xs_pool), (none_reversed, Xs_reversed) = fit(pool, "none"), fit(reverse, "none")
    assert none_reversed.meta["dropped"] == {
        "token_entropy": "duplicate of entropy_affine", "step_count": "in the span of steps_plus_entropy, entropy_affine"}
    assert abs(objective(Xs_pool, y, none_pool.weights, none_pool.bias, 1.0, "none")
               - objective(Xs_reversed, y, none_reversed.weights, none_reversed.bias, 1.0, "none")) <= 1e-9

    # The l1 penalty reads the basis, not just the span: in reversed order
    # steps_plus_entropy stands for step_count, and the training logits
    # differ by 0.038. The affine copy alone leaves the l1 problem as it
    # was, so the logits agree and the entropy column keeps its direction.
    only_copy, Xs_copy = fit(range(12, -1, -1))
    assert only_copy.meta["dropped"] == {"token_entropy": "duplicate of entropy_affine"}
    logits = Xs @ in_pool_order.weights + in_pool_order.bias
    assert np.abs(Xs_copy @ only_copy.weights + only_copy.bias - logits).max() <= 1e-6
    diagnostic = in_pool_order.meta["direction_diagnostic"]["token_entropy"]
    assert only_copy.meta["direction_diagnostic"]["entropy_affine"] == diagnostic == "type_i_proxy"


@pytest.mark.parametrize("reg", ["l2", "elastic_net"])
def test_warm_start_on_an_all_zero_column_is_zeroed(reg):
    # The all-zero column's weight moves nothing, so its only pull is the
    # penalty's; the ridge keeps the active-set system nonsingular, the
    # solve zeroes the weight, and the fit then follows the cold fit's
    # path. Without a ridge the system is singular: fit_gate's column rule
    # keeps such a column out of every l1 and unpenalized fit.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 3))
    X[:, 1] = 0.0
    y = (rng.random(60) < 1 / (1 + np.exp(-X @ np.array([1.0, 0.0, -0.5])))).astype(float)
    cold = fit_sparse_logistic(X, y, 1.0, reg)
    runs = []
    w, b = fit_sparse_logistic(X, y, 1.0, reg, warm_start=(np.array([0.0, 0.5, 0.0]), 0.0), runs=runs)
    assert runs[0].stop == "certificate"
    assert w[1] == 0.0
    assert w.tolist() == cold[0].tolist() and b == cold[1]


# -- cross-validation ------------------------------------------------------------


def test_cv_grid_of_one_returns_it():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 2))
    y = (rng.random(40) < 0.5).astype(float)
    y[:3] = 1.0
    y[3:6] = 0.0
    c, report = cross_validate_c(X, y, [0.3], folds=4, seed=0)
    assert c == 0.3 and len(report) == 1


def test_cv_default_grid_matches_contract():
    assert DEFAULT_C_GRID == (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)


def _tie_data():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 2))
    y = (rng.random(60) < 0.5).astype(float)
    y[:5], y[5:10] = 1.0, 0.0
    return X, y


def test_cv_prefers_smaller_c_on_ties():
    # C values small enough that l1 zeroes every weight force exact ties
    # (each fit is its intercept alone); the smaller C wins, wherever it
    # stands in the grid.
    X, y = _tie_data()
    c, report = cross_validate_c(X, y, [1e-3, 1e-4], folds=3, seed=1)
    assert report[0]["fold_losses"] == report[1]["fold_losses"]
    assert c == 1e-4


@pytest.mark.parametrize("grid", [[0.1, 0.1], [0.1, 1.0, 0.1], [1, 1.0]])
def test_cv_refuses_a_repeated_c(grid):
    # A repeated C would be scored twice, with twice the fold losses.
    X, y = _tie_data()
    with pytest.raises(GateError, match="duplicate C value"):
        cross_validate_c(X, y, grid, folds=3, seed=1)


def test_cv_picks_near_oracle_c():
    """CV lands within one grid step of an exhaustive refit-and-test
    oracle in at least 8 of 10 seeds; the oracle optimum is mid-grid."""
    grid = list(DEFAULT_C_GRID)

    def make_data(rng, n):
        X = rng.standard_normal((n, 10))
        w_true = np.zeros(10)
        w_true[:2] = [1.2, -1.2]
        p = 1 / (1 + np.exp(-(X @ w_true)))
        return X, (rng.random(n) < p).astype(float)

    hits = 0
    mid_oracle = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X, y = make_data(rng, 120)
        X_test, y_test = make_data(rng, 20_000)
        oracle_losses = []
        for c in grid:
            w, b = fit_sparse_logistic(X, y, c, "l1")
            oracle_losses.append(mean_logloss(X_test @ w + b, y_test))
        oracle_idx = int(np.argmin(oracle_losses))
        mid_oracle += int(0 < oracle_idx < len(grid) - 1)
        chosen, _ = cross_validate_c(X, y, grid, 5, seed=seed)
        hits += int(abs(grid.index(chosen) - oracle_idx) <= 1)
    assert mid_oracle >= 8  # the construction really is mid-grid optimal
    assert hits >= 8


def test_cv_requires_enough_rows():
    with pytest.raises(GateError):
        cross_validate_c(np.zeros((3, 1)), np.array([0.0, 1.0, 1.0]), [1.0], folds=5, seed=0)


# -- selection and diagnostics -----------------------------------------------------


def test_mi_ranks_label_copy_first():
    rng = np.random.default_rng(8)
    y = (rng.random(4000) < 0.5).astype(float)
    X = np.column_stack([rng.standard_normal(4000), y, rng.standard_normal(4000)])
    names = ["noise_a", "label_copy", "noise_b"]
    assert mi_topk_select(X, y, names, k=1)[0] == "label_copy"


def test_mi_independent_feature_near_zero():
    rng = np.random.default_rng(9)
    y = (rng.random(5000) < 0.5).astype(float)
    X = rng.standard_normal((5000, 1))
    # reuse the internal scorer through k=1 selection on a 2-col matrix
    X2 = np.column_stack([X[:, 0], y])
    ranked = mi_topk_select(X2, y, ["indep", "copy"], k=2)
    assert ranked == ["copy", "indep"]
    # estimate the MI of the independent feature directly
    from dial.gate import mi_topk_select as _  # noqa: F401

    edges = np.quantile(X[:, 0], np.linspace(0, 1, 11)[1:-1])
    bins = np.digitize(X[:, 0], edges)
    mi = 0.0
    for a in np.unique(bins):
        pa = (bins == a).mean()
        for cls in (0.0, 1.0):
            pj = ((bins == a) & (y == cls)).mean()
            if pj > 0:
                mi += pj * np.log(pj / (pa * (y == cls).mean()))
    assert mi < 0.01


def test_mi_validates_k():
    X = np.zeros((10, 2))
    y = np.array([0.0, 1.0] * 5)
    with pytest.raises(GateError):
        mi_topk_select(X, y, ["a", "b"], k=0)
    with pytest.raises(GateError):
        mi_topk_select(X, y, ["a", "b"], k=3)


def _toy_model(weights, bias=0.0, tau=0.5, reg="l1"):
    names = [f"f{i}" for i in range(len(weights))]
    specs = tuple(
        __import__("dial.features", fromlist=["FeatureSpec"]).FeatureSpec(n, "llm", n + " * 1")
        for n in names
    )
    return GateModel(
        feature_specs=specs,
        means=np.zeros(len(names)),
        sds=np.ones(len(names)),
        weights=np.asarray(weights, dtype=float),
        bias=bias,
        tau=tau,
        regularizer=reg,
    )


_HAND_SPECS = (
    FeatureSpec("entropy", "universal", "builtin:token_entropy"),
    FeatureSpec("steps", "universal", "builtin:step_count"),
    FeatureSpec("proxy_x_entropy", "llm", "evidence_count * token_entropy"),
    FeatureSpec("late", "llm", "step_count > 6"),
    FeatureSpec("spare_options", "llm", "num_available_actions - evidence_count"),
)
_HAND_OBS = (
    {"signal": 0.8, "step_count": 2.0, "type_proxy": 1.0, "num_options": 4.0},
    {"signal": 0.1, "step_count": 7.0, "type_proxy": 0.0, "num_options": 3.0},
    {"signal": 0.45, "step_count": 0.0, "type_proxy": 1.0, "num_options": 6.0},
    {"signal": 0.95, "step_count": 9.0, "type_proxy": 0.0, "num_options": 2.0},
)


def test_a_hand_written_gate_scores_its_pinned_bits():
    # Literal statistics, so the pin does not depend on the solver's bits. The
    # two zero-weight features (both reading step_count) are not read at all.
    model = GateModel(feature_specs=_HAND_SPECS, means=[0.5, 4.5, 0.25, 0.3, 1.75], sds=[0.29, 2.87, 0.36, 0.46, 1.3],
                      weights=[-1.25, 0.0, 2.5, 0.0, 0.375], bias=-0.1, tau=0.5, regularizer="l1")
    pinned = [
        (model, ["0x1.e2493557d892ap-1", "0x1.1fa88ca3bce18p-1", "0x1.d705fc605a292p-1", "0x1.89e4253b8eccdp-6"]),
        (reverse_direction(model),
         ["0x1.89620e33e0484p-5", "0x1.8f0ba0706ed05p-2", "0x1.10576d3e7dc7ap-4", "0x1.f10b945e27232p-1"]),
    ]
    for gate, scores in pinned:
        assert [gate.score(obs).hex() for obs in _HAND_OBS] == scores
        assert [gate.decide(obs) for obs in _HAND_OBS] == [float.fromhex(p) > 0.5 for p in scores]
    with pytest.raises(FeatureError, match="non-finite"):
        model.decide({**_HAND_OBS[0], "signal": math.inf})  # read by two weighted features
    assert model.decide({**_HAND_OBS[0], "step_count": math.inf}) is True  # read by the unweighted two alone


def test_gate_boundary_is_exclusive():
    model = _toy_model([0.0], bias=0.0, tau=0.5)
    assert model.decide({"f0": 123.0}) is False  # sigmoid(0) == 0.5, not > 0.5


def test_gate_saturated_margin_triggers():
    model = _toy_model([10.0], bias=0.0)
    assert model.decide({"f0": 1.0}) is True


def test_gate_sigmoid_arithmetic():
    model = _toy_model([1.0], bias=-0.2)
    assert model.score({"f0": 0.7}) == pytest.approx(1 / (1 + math.exp(-0.5)))
    assert model.decide({"f0": 0.7}) is True


def test_reverse_direction_example():
    model = _toy_model([0.3, -0.7], bias=0.1)
    reversed_model = reverse_direction(model)
    assert reversed_model.weights.tolist() == [-0.3, 0.7]
    assert reversed_model.bias == 0.1
    assert reversed_model.tau == model.tau


def test_reverse_direction_involution_and_fixed_point():
    model = _toy_model([0.5, 0.0, -1.5])
    twice = reverse_direction(reverse_direction(model))
    assert np.array_equal(twice.weights, model.weights)
    zero = _toy_model([0.0, 0.0])
    assert np.array_equal(reverse_direction(zero).weights, zero.weights)


def test_reversed_gate_complements_decisions_when_bias_zero():
    rng = np.random.default_rng(10)
    model = _toy_model([0.8, -1.1], bias=0.0, tau=0.5)
    flipped = reverse_direction(model)
    for _ in range(200):
        obs = {"f0": float(rng.standard_normal()), "f1": float(rng.standard_normal())}
        margin = 0.8 * obs["f0"] - 1.1 * obs["f1"]
        if margin != 0.0:
            assert model.decide(obs) != flipped.decide(obs)


def test_weight_diagnostic_signs():
    model = _toy_model([0.5, -0.5, 0.0])
    diag = weight_diagnostic(model)
    assert diag == {"f0": "type_d_proxy", "f1": "type_i_proxy", "f2": "uninformative"}


# -- orchestration, invariance, serialization -----------------------------------------


def _fit_on_sim(rescale=1.0, seed=0, n=400):
    rng = np.random.default_rng(seed)
    specs = build_pool()
    row = compile_features(specs)
    names = [s.name for s in specs]
    obs_rows = []
    X = np.empty((n, len(names)))
    y = np.empty(n)
    for i in range(n):
        obs = {
            "step_count": float(rng.integers(0, 10)),
            "signal": float(rng.random()),
            "type_proxy": float(rng.integers(0, 2)),
            "num_options": float(rng.integers(2, 7)) * rescale,
            "is_finish": 0.0,
        }
        obs_rows.append(obs)
        X[i] = extract_features(row, obs)
        y[i] = float(obs["type_proxy"] == 1.0 and rng.random() < 0.9 or rng.random() < 0.1)
    return specs, obs_rows, X, y


def test_decisions_invariant_under_feature_rescaling():
    specs, obs_rows, X, y = _fit_on_sim(rescale=1.0)
    model_raw = fit_gate(X, y, specs, seed=5)
    specs2, obs2, X2, y2 = _fit_on_sim(rescale=37.0)
    model_scaled = fit_gate(X2, y2, specs2, seed=5)
    for obs_a, obs_b in zip(obs_rows, obs2):
        assert model_raw.decide(obs_a) == model_scaled.decide(obs_b)


def test_model_json_is_strict(tmp_path):
    # The model JSON was the one artifact written with NaN literals allowed.
    model = _toy_model([0.5, -0.5])
    path = tmp_path / "model.json"
    save_model_json(dataclasses.replace(model, meta={"score": float("nan"), "scores": [1.0, float("inf")]}), str(path))
    payload = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(f"not strict JSON: {name}"))
    assert payload["meta"] == {"score": None, "scores": [1.0, None]}
    assert load_model_json(str(path)).weights.tolist() == [0.5, -0.5]


def test_model_json_round_trip_bit_exact(tmp_path):
    specs, obs_rows, X, y = _fit_on_sim(seed=1)
    model = fit_gate(X, y, specs, seed=2)
    path = tmp_path / "model.json"
    save_model_json(model, str(path))
    loaded = load_model_json(str(path))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    for obs in obs_rows[:100]:
        assert loaded.decide(obs) == model.decide(obs)
        assert loaded.score(obs) == model.score(obs)


def test_model_json_rejects_an_extractor_outside_the_language_at_load(tmp_path):
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    payload["feature_specs"][-1]["extractor"] = "__import__('os').getcwd()"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DslError, match="only plain function calls are allowed"):
        load_model_json(str(path))


def test_model_json_rejects_an_unknown_builtin_at_load(tmp_path):
    # Unchecked, a misspelt builtin reads as its default value on every row.
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    payload["feature_specs"][-1]["extractor"] = "builtin:step_cuont"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FeatureError, match="unknown builtin feature 'builtin:step_cuont'"):
        load_model_json(str(path))


def test_model_dict_round_trip():
    specs, _, X, y = _fit_on_sim(seed=3)
    model = fit_gate(X, y, specs, regularizer="elastic_net", seed=4)
    clone = model_from_dict(model_to_dict(model))
    assert np.array_equal(clone.weights, model.weights)
    assert clone.regularizer == "elastic_net"


@pytest.mark.parametrize("reg", ["l1", "l2", "none", "elastic_net", "mi_topk"])
def test_fit_gate_regularizer_family(reg):
    specs, _, X, y = _fit_on_sim(seed=6)
    model = fit_gate(X, y, specs, regularizer=reg, seed=7)
    assert model.regularizer == reg
    if reg == "mi_topk":
        assert np.count_nonzero(model.weights) <= 3
    if reg in ("l2", "none"):
        assert np.count_nonzero(model.weights) == len(model.feature_names)  # shrinkage only, no zeros


def test_fit_gate_tau_modes():
    # tau is a fixed probability; there is no held-out sweep.
    specs, _, X, y = _fit_on_sim(seed=8)
    fixed = fit_gate(X, y, specs, tau=0.3, seed=9)
    assert fixed.tau == 0.3
    with pytest.raises(GateError):
        fit_gate(X, y, specs, tau=1.5, seed=9)
    with pytest.raises(ValueError):
        fit_gate(X, y, specs, tau="cv", seed=9)


def test_gate_decide_dimension_mismatch():
    model = _toy_model([1.0, 1.0])
    with pytest.raises(GateError):
        GateModel(
            feature_specs=model.feature_specs[:1],
            means=model.means,
            sds=model.sds,
            weights=model.weights,
            bias=0.0,
            tau=0.5,
            regularizer="l1",
        ).decide({"f0": 1.0})


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda m: m["standardizer"]["means"].pop(),
        lambda m: m["standardizer"]["sds"].append(1.0),
        lambda m: m["weights"].pop(),
        lambda m: m["feature_specs"].pop(),
        lambda m: m.pop("cv_report"),
        lambda m: m.update(stray=1),
    ],
    ids=["means_short", "sds_long", "weights_short", "specs_short", "cv_report_missing", "stray_key"],
)
def test_model_json_rejects_a_misaligned_model_at_load(tmp_path, corrupt):
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    corrupt(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError, match="misaligned"):
        load_model_json(str(path))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda m: m["weights"].__setitem__(1, float("nan")), r"weights must be finite, got \[0.5, nan\]"),
        (lambda m: m.update(bias=float("nan")), "bias must be finite, got nan"),
        (lambda m: m["standardizer"]["means"].__setitem__(0, float("inf")),
         r"standardizer means must be finite, got \[inf, 0.0\]"),
    ],
    ids=["nan-weight", "nan-bias", "inf-mean"],
)
def test_model_json_refuses_non_finite_numbers_by_name(tmp_path, corrupt, message):
    # json reads NaN and Infinity; such a gate would score NaN and never trigger.
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    corrupt(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError, match=f"^{message}$"):
        load_model_json(str(path))


@pytest.mark.parametrize(
    "corrupt, key",
    [
        (lambda m: m.update(feature_names=["f0", "f1"]), "key 'feature_names'"),
        (lambda m: m["standardizer"].update(feature_names=["f0", "f1"]), "standardizer key 'feature_names'"),
        (lambda m: m["standardizer"].update(dropped=[]), "standardizer key 'dropped'"),
        (lambda m: m["standardizer"].pop("sds"), "standardizer key 'sds'"),
    ],
    ids=["feature_names", "standardizer_feature_names", "standardizer_dropped", "standardizer_sds_missing"],
)
def test_model_json_listing_features_twice_is_refused_by_name(tmp_path, corrupt, key):
    # Earlier versions named the features three times (feature_names, and
    # the standardizer's feature_names and dropped); such a file is
    # refused by name, never read with a guess.
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    corrupt(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError, match=f"(missing|unknown) {key}"):
        load_model_json(str(path))


@pytest.mark.parametrize(
    "corrupt, key",
    [(lambda m: m.pop("meta"), "meta"), (lambda m: m.update(weight=[]), "weight")],
    ids=["missing", "unknown"],
)
def test_model_json_refusal_names_the_key(corrupt, key):
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    corrupt(payload)
    with pytest.raises(GateError, match=f"key '{key}'"):
        model_from_dict(payload)


@pytest.mark.parametrize(
    "corrupt, key",
    [(lambda s: s.pop("source"), "source"), (lambda s: s.update(weight=1.0), "weight")],
    ids=["missing", "unknown"],
)
def test_model_json_refuses_an_off_schema_feature_spec_by_name(corrupt, key):
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    corrupt(payload["feature_specs"][0])
    with pytest.raises(GateError, match=f"feature spec key '{key}'"):
        model_from_dict(payload)


def test_model_json_written_with_spec_default_values_is_refused_by_name(tmp_path):
    # Earlier versions wrote an unused "default_value" into every feature
    # spec; such a file is refused by name, never read with a guess.
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    for spec in payload["feature_specs"]:
        spec["default_value"] = 0.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError, match="unknown feature spec key 'default_value'"):
        load_model_json(str(path))


def test_a_model_naming_a_feature_twice_is_refused_by_name(tmp_path):
    # Such a model once loaded and decided, and its name-keyed meta
    # (direction_diagnostic) merged the two features into one entry.
    payload = model_to_dict(_toy_model([0.5, -0.5]))
    payload["feature_specs"][1]["name"] = "f0"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(GateError, match="^feature name 'f0' is given more than once$"):
        load_model_json(str(path))
    # A fit from a hand-built pool is refused the same way.
    X = np.column_stack([np.arange(8.0), np.arange(8.0) % 3])
    with pytest.raises(GateError, match="^feature name 'x' is given more than once$"):
        fit_gate(X, _labels(8), _specs(["x", "x"]), regularizer="none")


def test_mi_default_k_is_three():
    import inspect

    from dial.gate import mi_topk_select as fn

    assert inspect.signature(fn).parameters["k"].default == 3


def test_cv_records_skipped_single_class_folds():
    # One positive in total: the fold holding it trains single-class and
    # is skipped; the other fold still scores every C.
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 2))
    y = np.zeros(20)
    y[0] = 1.0
    c, report = cross_validate_c(X, y, [0.1, 1.0], folds=2, seed=0)
    assert all(len(row["fold_losses"]) == 1 for row in report)
    assert all(row["skipped_folds"] for row in report)
    assert c in (0.1, 1.0)


def test_all_constant_features_give_intercept_only_gate():
    X = np.ones((40, 3))
    y = np.array([1.0, 0.0] * 20)
    specs = [
        __import__("dial.features", fromlist=["FeatureSpec"]).FeatureSpec(n, "llm", n + " * 1")
        for n in ("a", "b", "c")
    ]
    model = fit_gate(X, y, specs, seed=0)
    assert model.meta["dropped"] == {"a": "zero variance", "b": "zero variance", "c": "zero variance"}
    assert model.feature_specs == () and len(model.means) == 0
    assert len(model.weights) == 0
    # balanced labels, zero weights: sigmoid(b) == 0.5, never above tau
    assert model.decide({"a": 5.0, "b": 1.0, "c": 0.0}) is False


# -- the deployed gate: one observation at a time -------------------------------


@pytest.fixture(scope="module")
def demo_data():
    """The seed-42 demo gate and the matrix and labels it was fitted on."""
    model, dataset = explore_and_fit(TwoSourceEnv(_DEMO_PARAMS), seed=42, proposal_client=MockProposalClient())
    X, y = build_matrix(dataset.records, model.feature_specs)
    return model, X, y


@pytest.fixture(scope="module")
def demo_gate(demo_data):
    return demo_data[0]


def _demo_rows(n, seed=9):
    """Observations of ``sample_states`` rows, their fields as numpy
    scalars (as indexing the columns gives) and as Python floats."""
    states = sample_states(_DEMO_PARAMS, n, seed)
    fields = {"step_count": "step_index", "signal": "signal", "type_proxy": "type_proxy",
              "num_options": "num_options", "is_finish": "is_finish"}
    numpy_rows = [{k: states[c][i] for k, c in fields.items()} for i in range(n)]
    float_rows = [{k: float(v) for k, v in row.items()} for row in numpy_rows]
    return numpy_rows, float_rows


def _with_dropped_feature(model, name):
    """``model`` without the feature ``name``, as a fit that dropped it
    gives: a gate whose specs skip a column of the observation's pool."""
    j = model.feature_names.index(name)
    return GateModel(
        feature_specs=model.feature_specs[:j] + model.feature_specs[j + 1:],
        means=np.delete(model.means, j), sds=np.delete(model.sds, j),
        weights=np.delete(model.weights, j), bias=model.bias, tau=model.tau,
        regularizer=model.regularizer,
    )


def test_scalar_score_equals_the_matrix_formula_bit_for_bit(demo_gate):
    # score() sums (v - m) / s * w in Python floats over the weighted features
    # alone; it must give the bits of the matrix path over every column: the
    # matrix standardize, the fixed-order column sum z = z + Xs[:, j] * w[j]
    # from zeros, then the bias, and _sigmoid.
    _, rows = _demo_rows(2000)
    models = [demo_gate, reverse_direction(demo_gate), _with_dropped_feature(demo_gate, "step_count")]
    for model in models:
        assert 0 < len(model.terms) < len(model.feature_specs)  # zero weights are skipped
        every_column = compile_features(model.feature_specs)
        Xs = _standardize(model, np.array([extract_features(every_column, obs) for obs in rows]))
        z = np.zeros(len(rows))
        for j, w in enumerate(model.weights):
            z = z + Xs[:, j] * w
        expected = _sigmoid(z + model.bias).tolist()
        scores = [model.score(obs) for obs in rows]
        assert scores == expected
        assert [model.decide(obs) for obs in rows] == [p > model.tau for p in expected]
        assert min(scores) < 0.5 < max(scores)  # both logit signs occur


def test_numpy_scalar_observations_score_as_floats(demo_gate):
    # np.int64 and np.bool_ fields (indexing sample_states' columns) read
    # as the numbers they hold, not as missing.
    numpy_rows, float_rows = _demo_rows(300, seed=10)
    assert isinstance(numpy_rows[0]["step_count"], np.int64)
    assert isinstance(numpy_rows[0]["is_finish"], np.bool_)
    for model in (demo_gate, reverse_direction(demo_gate)):
        assert [model.score(o) for o in numpy_rows] == [model.score(o) for o in float_rows]
        assert [model.decide(o) for o in numpy_rows] == [model.decide(o) for o in float_rows]


def test_a_non_finite_logit_is_a_gate_error_that_deployment_names(demo_gate):
    # Weights of 1e308 pass every load check (they are finite), but the logit
    # they give overflows; such a gate must not score NaN and then never
    # trigger without a word.
    payload = model_to_dict(demo_gate)
    payload["weights"] = [1e308] * len(demo_gate.weights)
    model = model_from_dict(json.loads(json.dumps(payload)))
    _, rows = _demo_rows(1)
    with pytest.raises(GateError, match=r"^non-finite logit (nan|inf|-inf)$"):
        model.decide(rows[0])
    with pytest.raises(EnvFault, match="^policy dial: environment fault at eval episode 0, step 0: non-finite logit"):
        run_deployment(TwoSourceEnv(_DEMO_PARAMS), [PolicySpec("dial", model=model)], 1, seed=0)

# Per model: the triggers among the 2,000 demo holdout rows and the sha256
# of their scores' hex. The counts were computed by evaluating each feature
# spec on its own; the digests are of the fixed-order Python-float logit.
_HOLDOUT_DECISIONS = {
    "demo": (1037, "7b2726a251615cc6e2fab645c32247e39a5381e932b3167f6f8a4ba2f5699d23"),
    "reversed": (1025, "9a36c84a06a126cb5bff09db480f426c7c6ddda29d02c6d7d5e6dd978c09ef42"),
    "loaded_without_token_entropy": (838, "ce92791498d3a72ce7b606c48d5d643ffc4b6764ea18ff92a5c6ef534d22f9d1"),
}


def test_compiled_rows_decide_the_demo_holdout_as_per_spec_extraction_did(demo_gate):
    # The loaded model's derived features still read token_entropy, which
    # it no longer lists as a feature of its own.
    rows, _ = _demo_rows(2000, seed=derive_seed(42, "holdout"))
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(_with_dropped_feature(demo_gate, "token_entropy")))))
    models = {"demo": demo_gate, "reversed": reverse_direction(demo_gate), "loaded_without_token_entropy": loaded}
    for name, model in models.items():
        scores = [model.score(obs) for obs in rows]
        decisions = [model.decide(obs) for obs in rows]
        assert decisions == [p > model.tau for p in scores]
        digest = hashlib.sha256(",".join(p.hex() for p in scores).encode()).hexdigest()
        assert (sum(decisions), digest) == _HOLDOUT_DECISIONS[name], name
