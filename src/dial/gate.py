"""Sparse logistic gate: fitting, selection, and the deployed decision rule.

The gate is a linear model over standardized candidate features with a
sigmoid threshold. The loss is the summed binary cross-entropy plus a
(1/C)-weighted penalty on the weights (bias unpenalized):

    l1           (1/C) * sum(|w|)
    l2           (1/C) * 0.5 * sum(w^2)
    elastic_net  (1/C) * (0.5 * sum(|w|) + 0.25 * sum(w^2))   (mixing 0.5)
    none         no penalty
    mi_topk      hard top-k selection by mutual information, then
                 an unregularized fit on the selected features

Every penalty is solved by one proximal-Newton path: each outer
iteration solves a weighted quadratic model of the loss exactly, by an
active-set (feature-sign) search over the weighted Gram matrix of
[X 1], started with the current iterate's nonzero coordinates active.
l2 and none are the case without an l1 term, where no sign crossing
cuts a step, but the search is the same one: it activates one
coordinate per solve, so a cold start's first subproblem takes up to
d + 1 solves (the bias alone, then one weight more each), and a later
subproblem, which starts with every weight the last one activated,
usually takes one. The solver stops on a KKT certificate, when no
gradient entry (the bias's included) is farther than 1e-9 from the l1
subdifferential; it also stops when no step improves the objective in
double precision, and at its cap of SOLVER_MAX_ITER (10,000) outer
iterations, which it logs.
Each model's meta records how its fits stopped. Fitting is single-threaded
and deterministic; a fitted model is immutable and can be shared freely.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dsl import CompiledExpr, finite_number
from .features import FeatureSpec, compile_features, extract_features
from .rng import rng_for

logger = logging.getLogger(__name__)

DEFAULT_C_GRID = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)
DEFAULT_FOLDS = 5
DEFAULT_TAU = 0.5
DEFAULT_MI_K = 3
DEFAULT_MI_BINS = 10

SOLVER_TOL = 1e-9
SOLVER_MAX_ITER = 10_000
SPAN_TOL = 1e-8  # the relative least-squares residual at or under which a column is dropped

REGULARIZERS = ("l1", "l2", "none", "elastic_net", "mi_topk")

_ELASTIC_MIX = 0.5  # fixed l1/l2 mixing for elastic_net
_PENALTY_SHARES = {
    "l1": (1.0, 0.0),
    "l2": (0.0, 1.0),
    "elastic_net": (_ELASTIC_MIX, 1 - _ELASTIC_MIX),
    "none": (0.0, 0.0),
}


class SingleClassError(ValueError):
    """The training labels hold a single class; a gate needs both."""


class GateError(ValueError):
    pass


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_sum(z: np.ndarray, y: np.ndarray) -> float:
    """Summed binary cross-entropy of logits z against labels y."""
    return float(np.logaddexp(0.0, z).sum() - y @ z)


def finite_reciprocal(value: float) -> bool:
    """Whether 1/``value``, for a positive ``value``, is finite; a subnormal's overflows."""
    return math.isfinite(1.0 / value)


def _penalty_weights(c: float, reg: str) -> Tuple[float, float]:
    """(lam1, lam2) of the penalty for C and a regularizer the solver
    fits: the shares of 1/C on |w|_1 and on 0.5*|w|^2."""
    if reg not in _PENALTY_SHARES:
        raise GateError(f"unknown regularizer {reg!r} for the solver")
    l1_share, l2_share = _PENALTY_SHARES[reg]
    lam = 1.0 / c
    return l1_share * lam, l2_share * lam


# -- standardization ---------------------------------------------------------


def _check_distinct(names: Sequence[str]) -> None:
    """GateError naming the first name given twice: meta is keyed by name."""
    repeated = [name for name in names if names.count(name) > 1]
    if repeated:
        raise GateError(f"feature name {repeated[0]!r} is given more than once")


def _dropped_columns(X: np.ndarray, means: np.ndarray, sds: np.ndarray, names: Sequence[str]) -> Dict[str, str]:
    """Why a gate drops each column it does not read. In pool order, a
    column is dropped when its centered values lie in the span of the bias
    and the read columns before it: its least-squares residual is at most
    SPAN_TOL of its norm. So [X 1] over the read columns has full column
    rank, and the fit's optimum is unique. The reason names the read
    columns the span takes: none ("zero variance"), one ("duplicate of a")
    or several ("in the span of a, b")."""
    dropped: Dict[str, str] = {}
    read: List[int] = []
    for j, name in enumerate(names):
        centered = X[:, j] - means[j]
        basis = np.column_stack([np.ones(len(X)), (X[:, read] - means[read]) / sds[read]])
        coef = np.linalg.lstsq(basis, centered, rcond=None)[0]
        tol = SPAN_TOL * np.linalg.norm(centered)
        if np.linalg.norm(centered - basis @ coef) > tol:
            read.append(j)
            continue
        parts = np.linalg.norm(basis[:, 1:] * coef[1:], axis=0)  # each read column's share of the span
        spanning = [names[k] for k, part in zip(read, parts) if part > tol]
        dropped[name] = ("zero variance" if not spanning else f"duplicate of {spanning[0]}" if len(spanning) == 1
                         else "in the span of " + ", ".join(spanning))
    return dropped


# -- solvers ------------------------------------------------------------------


def _check_two_classes(y: np.ndarray) -> None:
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassError(f"training labels contain a single class, {classes.tolist()}; a gate needs both")
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise GateError(f"labels must be binary, got classes {classes}")


_STOPS = ("certificate", "no_improving_step", "cap")


class SolverRun(NamedTuple):
    """What one solver call did: why it stopped (one of ``_STOPS``), the
    KKT violation of the point it returned, its outer (proximal-Newton)
    iterations and its active-set solves."""

    stop: str
    violation: float
    outer_iterations: int
    active_set_solves: int


def _solver_totals(runs: Sequence[SolverRun]) -> Dict[str, Any]:
    """Totals over solver calls: calls, how many converged (stopped on
    the certificate), the count of each stop reason, the largest final
    KKT violation, outer iterations and active-set solves."""
    return {
        "fits": len(runs),
        "converged": sum(r.stop == "certificate" for r in runs),
        "stops": {stop: sum(r.stop == stop for r in runs) for stop in _STOPS},
        "max_violation": max(r.violation for r in runs),
        "outer_iterations": sum(r.outer_iterations for r in runs),
        "active_set_solves": sum(r.active_set_solves for r in runs),
    }


def _kkt_violation(grad: np.ndarray, w: np.ndarray, lam1: float) -> float:
    """Largest distance of the gradient of the smooth part (weights, then
    the bias) from the l1 subdifferential: |g_j + lam1*sign(w_j)| on a
    nonzero weight, max(|g_j| - lam1, 0) on a zero one, |g_b| on the bias."""
    g = grad[:-1]
    dist = np.where(w != 0.0, np.abs(g + lam1 * np.sign(w)), np.maximum(np.abs(g) - lam1, 0.0))
    return max(float(dist.max(initial=0.0)), abs(float(grad[-1])))


def _solve_subproblem(
    gram: np.ndarray, target: np.ndarray, v: np.ndarray, lam1: float
) -> Tuple[np.ndarray, int]:
    """Solve one weighted quadratic subproblem exactly by feature-sign
    search (Lee, Battle, Raina & Ng, NIPS 2007):
    min over v = (u, ub) of 0.5*v'Gv - t'v + lam1*|u|_1, the bias last and
    unpenalized, where G is the weighted Gram matrix of [X 1] plus the l2
    ridge. From the sign pattern of the start ``v``, each step solves the
    bordered system on the active set, moves to the lowest-objective point
    among its solution and the sign crossings on the way there, and, once
    the signs hold, activates the inactive coordinate that most violates
    |grad| <= lam1. Each system is nonsingular when [X 1] has full column
    rank. Returns the solution and the number of solves.
    """
    d = v.size - 1
    v = v.copy()
    theta = np.sign(v)
    theta[d] = 0.0
    active = v != 0.0
    active[d] = True
    for solves in range(1, 4 * (d + 1) + 1):  # finite in exact arithmetic; a guard against rounding
        idx = np.flatnonzero(active)
        system = gram[idx][:, idx]
        x = np.linalg.solve(system, target[idx] - lam1 * theta[idx])
        cur = v[idx]
        cross = np.flatnonzero(cur * x < 0.0) if lam1 > 0.0 else ()
        if len(cross):
            # The candidates: the solution, and each point where a
            # coordinate reaches zero on the way to it (set to exactly 0).
            points = cur + (cur[cross] / (cur[cross] - x[cross]))[:, None] * (x - cur)
            points[np.arange(len(cross)), cross] = 0.0
            points = np.vstack([x, points])
            values = (0.5 * np.einsum("ij,jk,ik->i", points, system, points) - points @ target[idx]
                      + lam1 * np.abs(points[:, :-1]).sum(axis=1))
            x = points[int(np.argmin(values))]
        v[idx] = x
        signs_hold = lam1 == 0.0 or bool(np.all(np.sign(x[:-1]) == theta[idx[:-1]]))
        theta = np.sign(v)
        theta[d] = 0.0
        active = v != 0.0
        active[d] = True
        if not signs_hold:
            continue
        grad = gram @ v - target
        excess = np.where(active, 0.0, np.abs(grad))
        j = int(np.argmax(excess))
        if excess[j] <= lam1 * (1 + 1e-9) + 1e-9:
            break
        active[j] = True
        theta[j] = -np.sign(grad[j])
    return v, solves


def fit_sparse_logistic(
    X: np.ndarray,
    y: np.ndarray,
    c: float,
    reg: str = "l1",
    *,
    warm_start: Optional[Tuple[np.ndarray, float]] = None,
    runs: Optional[List[SolverRun]] = None,
) -> Tuple[np.ndarray, float]:
    """Minimize summed BCE plus (1/C)*penalty over (weights, bias), from
    ``warm_start`` (weights, bias) or else from zero.

    Inputs are expected standardized. Every regularizer takes the same
    proximal-Newton path (l2 and none have no l1 term): each outer
    iteration solves the weighted quadratic model of the loss exactly
    (``_solve_subproblem``), then a halving line search keeps the
    penalized objective strictly decreasing, judged by the sum of the
    per-row changes of the loss plus the per-coordinate changes of the
    penalty. Stops on a KKT certificate (``_kkt_violation`` at most
    SOLVER_TOL; Friedman, Hastie & Tibshirani, JSS 2010), when no step
    improves the objective, or after SOLVER_MAX_ITER (read at call time)
    outer iterations, which is logged. Deterministic for fixed inputs,
    ``warm_start`` included. ``[X 1]`` must have full column rank, as
    ``fit_gate``'s column rule ensures: the objective is then strictly
    convex, so its minimizer is unique and a warm start changes the path
    but not the result; separable data still has no finite minimizer
    without a penalty. The call's ``SolverRun`` is appended to ``runs``
    when one is given.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise GateError("matrix and labels misaligned")
    if not (finite_number(c) and c > 0 and finite_reciprocal(c)):  # 1/C weighs the penalty
        raise GateError(f"C must be a positive number with a finite reciprocal, got {c!r}")
    lam1, lam2 = _penalty_weights(c, reg)
    _check_two_classes(y)
    n, d = X.shape
    design = np.hstack([X, np.ones((n, 1))])  # [X 1]: the bias is coordinate d
    ridge = np.full(d + 1, lam2)
    ridge[d] = 0.0
    v = np.zeros(d + 1)
    if warm_start is not None:
        v[:d], v[d] = warm_start
    z = design @ v
    sign = 1.0 - 2.0 * y
    loss = np.logaddexp(0.0, sign * z)  # each row's loss, carried with z
    stop, outer, solves, last_update = "cap", 0, 0, math.nan
    while True:
        p = _sigmoid(z)
        violation = _kkt_violation(design.T @ (p - y) + ridge * v, v[:d], lam1)
        if violation <= SOLVER_TOL:
            stop = "certificate"
            break
        if outer == SOLVER_MAX_ITER:
            logger.warning(
                "solver stopped at its cap of %d outer iterations (lam1=%g, lam2=%g); "
                "last update %.3g, KKT violation %.3g, tolerance %g",
                SOLVER_MAX_ITER, lam1, lam2, last_update, violation, SOLVER_TOL,
            )
            break
        outer += 1
        # The exact curvature p(1-p), however small: a floor under it
        # overstates a near-certain row's curvature and cuts the Newton
        # step along a nearly flat direction.
        not_p = _sigmoid(-z)  # 1 - p to its own relative precision
        weights = p * not_p
        weighted = design * weights[:, None]
        gram = design.T @ weighted
        gram[np.diag_indices(d + 1)] += ridge
        target = weighted.T @ z + design.T @ (y - p)
        u, k = _solve_subproblem(gram, target, v, lam1)
        solves += k
        direction = u - v
        dir_z = design @ direction
        wrong = np.where(y == 1.0, not_p, p)  # each row's probability of the label it does not have
        step = 1.0
        for _ in range(50):  # halve until the penalized objective strictly decreases
            v_try = v + step * direction
            z_try = z + step * dir_z
            # The change in the objective as a sum of per-row loss changes
            # and per-coordinate penalty changes: two objective values of
            # ~100 cannot show the ~1e-17 decrease of a step near the
            # optimum. A row whose signed logit moves by t, |t| <= 1,
            # changes its loss by log1p(wrong*expm1(t)), to its own
            # relative precision.
            loss_try = np.logaddexp(0.0, sign * z_try)
            t = sign * (z_try - z)
            near = np.abs(t) <= 1.0
            rows = loss_try - loss
            rows[near] = np.log1p(wrong[near] * np.expm1(t[near]))
            w, w_try = v[:d], v_try[:d]
            change = (float(rows.sum())
                      + lam1 * float((np.abs(w_try) - np.abs(w)).sum())
                      + 0.5 * lam2 * float((w_try - w) @ (w_try + w)))
            if change < 0.0:
                break
            step *= 0.5
        else:
            stop = "no_improving_step"
            break
        last_update = step * float(np.abs(direction).max())
        v, z, loss = v_try, z_try, loss_try
    if runs is not None:
        runs.append(SolverRun(stop, violation, outer, solves))
    return v[:d].copy(), float(v[d])



# -- cross-validation ---------------------------------------------------------


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Seeded stratified fold ids: shuffle within each class, deal
    round-robin."""
    rng = rng_for(seed, "cv-folds")
    assignment = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def _c_path(
    X: np.ndarray, y: np.ndarray, grid: Sequence[float], reg: str,
    runs: Optional[List[SolverRun]] = None,
) -> Iterator[Tuple[float, Tuple[np.ndarray, float]]]:
    """Fits along the ascending C grid, each warm-started from the last."""
    warm = None
    for c in sorted(float(c) for c in grid):
        warm = fit_sparse_logistic(X, y, c, reg, warm_start=warm, runs=runs)
        yield c, warm


def mean_logloss(z: np.ndarray, y: np.ndarray) -> float:
    return bce_sum(z, y) / len(y)


def cross_validate_c(
    X: np.ndarray,
    y: np.ndarray,
    grid: Sequence[float] = DEFAULT_C_GRID,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    reg: str = "l1",
    runs: Optional[List[SolverRun]] = None,
) -> Tuple[float, List[Dict[str, Any]]]:
    """Pick C by mean held-out log-loss across seeded stratified folds.

    Folds whose training split is single-class are skipped for every C;
    ties go to the smaller C (more regularization); a repeated C is
    refused. Each fit's ``SolverRun`` is appended to ``runs`` when given.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if folds < 2:
        raise GateError("need at least 2 folds")
    if len(grid) == 0:
        raise GateError("empty C grid")
    if len(y) < folds:
        raise GateError(f"not enough rows ({len(y)}) for {folds} folds")
    _check_two_classes(y)

    grid_sorted = sorted(float(c) for c in grid)
    if len(set(grid_sorted)) < len(grid_sorted):
        raise GateError(f"duplicate C value in grid {list(grid)!r}")
    losses: Dict[float, List[float]] = {c: [] for c in grid_sorted}
    used = []
    fold_ids = _stratified_folds(y, folds, seed)
    for f in range(folds):
        train = fold_ids != f
        if train.all() or np.unique(y[train]).size < 2:  # an empty held-out split, or a single-class training one
            continue
        used.append(f)
        for c, (w, b) in _c_path(X[train], y[train], grid_sorted, reg, runs):
            losses[c].append(mean_logloss(X[~train] @ w + b, y[~train]))
    if not used:
        raise GateError("every fold was skipped (single-class training splits)")
    skipped = sorted(set(range(folds)) - set(used))

    report = [
        {"c": c, "mean_heldout_logloss": float(np.mean(losses[c])), "fold_losses": losses[c]}
        for c in grid_sorted
    ]
    best = min(report, key=lambda r: r["mean_heldout_logloss"])  # first minimum = smallest C
    if skipped:
        for row in report:
            row["skipped_folds"] = skipped
    return float(best["c"]), report


# -- mutual-information selection ----------------------------------------------


def mi_topk_select(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str],
    k: int = DEFAULT_MI_K,
    bins: int = DEFAULT_MI_BINS,
) -> List[str]:
    """Top-k features by mutual information with the label, each feature
    discretized into quantile bins. Ties break by name order."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if k < 1:
        raise GateError("k must be >= 1")
    if k > X.shape[1]:
        raise GateError(f"k={k} exceeds feature count {X.shape[1]}")
    if bins < 2:
        raise GateError("need at least 2 bins")
    n = len(y)
    scores: List[Tuple[float, str]] = []
    for j, name in enumerate(names):
        edges = np.unique(np.quantile(X[:, j], np.linspace(0, 1, bins + 1)[1:-1]))
        assignments = np.digitize(X[:, j], edges)
        mi = 0.0
        for a in np.unique(assignments):
            in_a = assignments == a
            pa = in_a.mean()
            for cls in (0.0, 1.0):
                p_joint = (in_a & (y == cls)).mean()
                if p_joint > 0:
                    p_cls = (y == cls).mean()
                    mi += p_joint * np.log(p_joint / (pa * p_cls))
        scores.append((float(mi), str(name)))
    ranked = sorted(scores, key=lambda s: (-s[0], s[1]))
    return [name for _, name in ranked[:k]]


# -- the deployed gate ----------------------------------------------------------


@dataclass(frozen=True)
class GateModel:
    """Deployable gate: the features it reads, the location and population
    sd of each as fitted, signed weights, bias, and decision threshold."""

    feature_specs: Tuple[FeatureSpec, ...]  # the features the gate reads, each once
    means: np.ndarray              # aligned with feature_specs, as are sds and weights
    sds: np.ndarray
    weights: np.ndarray
    bias: float
    tau: float
    regularizer: str
    cv_report: Tuple[Dict[str, Any], ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)
    # The features of nonzero weight, as one compiled function and as each one's (mean, sd, weight).
    row: CompiledExpr = field(init=False, compare=False, repr=False)
    terms: Tuple[Tuple[float, float, float], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("means", "sds", "weights"):  # lists, as a model JSON holds them, become arrays
            given = getattr(self, name)
            values = given.tolist() if isinstance(given, np.ndarray) else given  # a NaN or infinite float: refused below
            if not (isinstance(values, (list, tuple)) and all(isinstance(v, float) or finite_number(v) for v in values)):
                raise GateError(f"{name} must be a list of numbers, got {given!r}")
            object.__setattr__(self, name, np.asarray(values, dtype=float))
        if not (finite_number(self.tau) and 0.0 < self.tau < 1.0):
            raise GateError(f"threshold must lie in (0, 1), got {self.tau!r}")
        if self.regularizer not in REGULARIZERS:  # a model JSON may hold any value
            raise GateError(f"unknown regularizer {self.regularizer!r}")
        if not len(self.feature_specs) == len(self.means) == len(self.sds) == len(self.weights):
            raise GateError("model misaligned: feature specs, standardizer means, sds and weights differ in length")
        _check_distinct(self.feature_names)  # a model JSON may name a feature twice
        if not np.all(self.sds > 0.0):
            raise GateError(f"standardizer sds must be > 0, got {self.sds.tolist()}")
        finite = (("standardizer means", self.means), ("standardizer sds", self.sds), ("weights", self.weights))
        for name, values in finite:  # a model JSON may hold NaN or Infinity
            if not np.isfinite(values).all():
                raise GateError(f"{name} must be finite, got {values.tolist()}")
        if not all(map(finite_reciprocal, self.sds.tolist())):  # a subnormal sd overflows any standardize
            raise GateError(f"standardizer sds must have finite reciprocals, got {self.sds.tolist()}")
        if not finite_number(self.bias):
            raise GateError(f"bias must be finite, got {self.bias!r}")
        read = [j for j, w in enumerate(self.weights.tolist()) if w != 0.0]
        object.__setattr__(self, "row", compile_features([self.feature_specs[j] for j in read]))
        object.__setattr__(self, "terms", tuple(zip(*(v[read].tolist() for v in (self.means, self.sds, self.weights)))))

    @property
    def feature_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.feature_specs)

    def score(self, obs: Dict[str, Any]) -> float:
        """sigmoid(w . phi_std(s) + b) in Python floats over the weighted
        features: ``z = 0.0``, then ``z += (v - m) / s * w`` per feature in
        spec order, then ``z += bias``, each one IEEE-rounded double op, so
        the logit is a fixed-order sum that no BLAS kernel choice changes.
        A finite zero-weight term added to a sum that starts at +0.0 never
        changes it, so skipping those gives the bits of the sum over every
        column, ``z = z + Xs[:, j] * w[j]``. ``exp`` is numpy's, as in
        ``_sigmoid``. A non-finite logit raises GateError."""
        z = 0.0
        for v, (m, s, w) in zip(extract_features(self.row, obs), self.terms):
            z += (v - m) / s * w
        z += self.bias
        if not math.isfinite(z):
            raise GateError(f"non-finite logit {z!r}")
        if z >= 0.0:
            return 1.0 / (1.0 + float(np.exp(-z)))
        ez = float(np.exp(z))
        return ez / (1.0 + ez)

    def decide(self, obs: Dict[str, Any]) -> bool:
        """Trigger iff sigmoid(w . phi_std(s) + b) exceeds tau (strictly)."""
        return self.score(obs) > self.tau


def reverse_direction(model: GateModel) -> GateModel:
    """Adversarially wrong-direction copy: every weight negated; bias,
    threshold, means and sds untouched."""
    return replace(model, weights=-model.weights)


def weight_diagnostic(model: GateModel) -> Dict[str, str]:
    """Per-feature direction from weight signs: type_d_proxy,
    type_i_proxy or uninformative (a zero weight: one the gate does not read)."""
    out: Dict[str, str] = {}
    for name, w in zip(model.feature_names, model.weights):
        if w == 0.0:
            out[name] = "uninformative"
        elif w > 0:
            out[name] = "type_d_proxy"
        else:
            out[name] = "type_i_proxy"
    return out


# -- orchestration ---------------------------------------------------------------


def fit_gate(
    X: np.ndarray,
    y: np.ndarray,
    specs: Sequence[FeatureSpec],
    *,
    regularizer: str = "l1",
    c_grid: Sequence[float] = DEFAULT_C_GRID,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    tau: float = DEFAULT_TAU,
    mi_k: int = DEFAULT_MI_K,
    mi_bins: int = DEFAULT_MI_BINS,
) -> GateModel:
    """Standardize, select C by CV, fit, and package the deployable gate.

    A feature name given twice is refused before any solve. A column the
    gate does not read (in the span of the bias and the read columns
    before it, see ``_dropped_columns``) is left out of the model and
    named in ``meta["dropped"]`` with why.
    ``tau`` is the decision threshold, a probability (default 0.5).
    ``regularizer`` accepts the ablation family: l1, l2, none,
    elastic_net, mi_topk. ``meta["solver"]`` records how the solver
    stopped: on the call that gave the weights (``final``) and in totals
    over every call of this fit, CV folds included (``all``);
    ``meta["data_digest"]`` the matrix and labels fitted, and
    ``meta["direction_diagnostic"]`` the model's ``weight_diagnostic``.
    """
    if regularizer not in REGULARIZERS:
        raise GateError(f"unknown regularizer {regularizer!r}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    names = [s.name for s in specs]
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] != len(names):
        raise GateError(f"a gate fit needs at least 2 rows and a column per feature spec, got shape {X.shape}")
    _check_distinct(names)

    means = X.mean(axis=0)
    sds = np.sqrt(((X - means) ** 2).mean(axis=0))
    dropped = _dropped_columns(X, means, sds, names)
    read = np.array([name not in dropped for name in names], dtype=bool)
    # One boolean-masked standardize: the fit's bits depend on the memory
    # order of the F-ordered array it gives.
    Xs = (X[:, read] - means[read]) / sds[read]
    specs = tuple(s for s, r in zip(specs, read) if r)
    retained = [s.name for s in specs]

    cv_report: List[Dict[str, Any]] = []
    runs: List[SolverRun] = []  # every solver call of this fit
    chosen_c: Optional[float] = None
    if regularizer in ("none", "mi_topk"):  # one unpenalized fit: of every retained column, or of the MI top k
        selected = set(retained if regularizer == "none"
                       else mi_topk_select(Xs, y, retained, k=min(mi_k, len(retained)), bins=mi_bins))
        keep = np.array([n in selected for n in retained], dtype=bool)
        w_sel, b = fit_sparse_logistic(Xs[:, keep], y, c=1.0, reg="none", runs=runs)
        weights = np.zeros(len(retained))
        weights[keep] = w_sel
    else:
        chosen_c, cv_report = cross_validate_c(Xs, y, c_grid, folds, seed, reg=regularizer, runs=runs)
        path = _c_path(Xs, y, [c for c in c_grid if float(c) <= chosen_c], regularizer, runs)
        _, (weights, b) = list(path)[-1]  # the final fit rides the CV path up to the chosen C
    final = runs[-1]  # the call that gave the weights

    model_meta = {
        "seed": seed, "chosen_c": chosen_c, "n_rows": int(len(y)), "dropped": dropped,
        "solver": {
            "final": {"converged": final.stop == "certificate", **final._asdict()},
            "all": _solver_totals(runs),
        },
        "data_digest": data_digest(X, y),
    }
    model = GateModel(
        feature_specs=specs,
        means=means[read],
        sds=sds[read],
        weights=weights,
        bias=float(b),
        tau=float(tau),
        regularizer=regularizer,
        cv_report=tuple(cv_report),
        meta=model_meta,
    )
    model_meta["direction_diagnostic"] = weight_diagnostic(model)  # read off the model's own weights
    return model


# -- serialization -----------------------------------------------------------------


# The top-level keys of a model JSON, written and required in this order.
_MODEL_KEYS = ("feature_specs", "weights", "bias", "tau", "regularizer", "standardizer", "cv_report", "meta")
# The keys of each feature spec in a model JSON.
_SPEC_KEYS = ("name", "source", "extractor")


def _refuse_off_schema(payload: Dict[str, Any], keys: Sequence[str], what: str) -> None:
    """GateError naming the first key of ``keys`` missing from ``payload``,
    or else its first key outside ``keys``."""
    missing = [k for k in keys if k not in payload]
    if missing:
        raise GateError(f"model JSON misaligned with its schema: missing {what} {missing[0]!r}")
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise GateError(f"model JSON misaligned with its schema: unknown {what} {unknown[0]!r}")


def model_to_dict(model: GateModel) -> Dict[str, Any]:
    return dict(zip(_MODEL_KEYS, (
        [{k: getattr(s, k) for k in _SPEC_KEYS} for s in model.feature_specs],
        [float(w) for w in model.weights],
        model.bias,
        model.tau,
        model.regularizer,
        {"means": model.means.tolist(), "sds": model.sds.tolist()},
        list(model.cv_report),
        model.meta,
    )))


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", float: "a number within float range"}


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` when it is of the JSON ``kind`` (a number as a float: an
    int within float range is one, a bool none), else a GateError naming
    ``what``."""
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, kind):
        raise GateError(f"model JSON: {what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _numbers(values: Any, what: str) -> List[float]:
    """``values`` as a JSON list of numbers, each checked by ``_typed`` under its index."""
    return [_typed(v, float, f"{what}[{i}]") for i, v in enumerate(_typed(values, list, what))]


def model_from_dict(payload: Any) -> GateModel:
    """The model a ``model_to_dict`` payload holds. A missing or unknown
    top-level, feature spec or standardizer key, or a value of another
    JSON type than the schema's (object, list, string or number), is
    refused with a GateError naming it (a list's number by its index)."""
    _refuse_off_schema(_typed(payload, dict, "the payload"), _MODEL_KEYS, "key")
    specs = []
    for spec in _typed(payload["feature_specs"], list, "feature_specs"):
        _refuse_off_schema(_typed(spec, dict, "a feature spec"), _SPEC_KEYS, "feature spec key")
        specs.append(FeatureSpec(**{k: _typed(spec[k], str, f"feature spec {k}") for k in _SPEC_KEYS}))
    std = _typed(payload["standardizer"], dict, "standardizer")
    _refuse_off_schema(std, ("means", "sds"), "standardizer key")
    cv_report = tuple(_typed(row, dict, "a cv_report row") for row in _typed(payload["cv_report"], list, "cv_report"))
    return GateModel(
        feature_specs=tuple(specs),
        means=_numbers(std["means"], "standardizer means"),
        sds=_numbers(std["sds"], "standardizer sds"),
        weights=_numbers(payload["weights"], "weights"),
        bias=_typed(payload["bias"], float, "bias"),
        tau=_typed(payload["tau"], float, "tau"),
        regularizer=payload["regularizer"],
        cv_report=cv_report,
        meta=dict(_typed(payload["meta"], dict, "meta")),
    )


def load_model_json(path: str) -> GateModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def data_digest(X: np.ndarray, y: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    return h.hexdigest()
