"""Correlation and robustness machinery for the two-source analysis.

Conventions fixed here: Spearman uses average ranks for ties and the
large-sample t approximation for p-values (flagged below n = 10), the
two-sided t tail being I_{df/(df+t^2)}(df/2, 1/2) (Abramowitz & Stegun
26.7.1) by its continued fraction (Numerical Recipes 6.4, modified Lentz);
bootstrap intervals are seeded 95% percentile intervals with a
deterministic per-resample seed schedule; quantile normalization uses
the Hazen plotting position (rank - 0.5) / n with average ranks.

Rank method: one sort (``np.unique``) gives each value the index of its
group of equal values; counting each group (``np.bincount``) and an
exclusive cumulative sum give `below`, the number of smaller values, and
every value ranks below + (count + 1) / 2. The bootstrap sorts each
column once and only counts each resample's groups, so its ranks are
the integers and halves a fresh sort would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rng import rng_for

BOOTSTRAP_DEFAULT_B = 1000
LOG_TRANSFORM_EPS = 1e-6
TRANSFORM_SCALE = 2.0  # the positive factor of transform_suite's rescaling rows
REPORT_COLUMNS = ("group", "n", "spearman", "pearson", "p_value", "ci_low", "ci_high")
BETAINC_MAX_ITER = 1000  # the t tail converges in < 70 steps for every df up to 1e6


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class CorrReport:
    rho: float
    n: int
    p_value: float
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    degenerate: bool = False
    small_n: bool = False


@dataclass(frozen=True)
class CellKey:
    """Grouping key for normalization schemes: (environment, config)."""

    environment: str
    backbone: str

    def __post_init__(self) -> None:
        if not self.environment or not self.backbone:
            raise StatsError("cell key components must be non-empty")


def _value_groups(x: np.ndarray) -> Tuple[np.ndarray, int]:
    """Group ids by value (0.0 and -0.0 are one value) and the group count."""
    distinct, group = np.unique(x, return_inverse=True)
    return group, len(distinct)


def _group_ranks(group: np.ndarray, groups: int) -> np.ndarray:
    """Average ranks from group ids, by the rank method above."""
    counts = np.bincount(group, minlength=groups)
    below = np.cumsum(counts) - counts
    return (below + (counts + 1) / 2.0)[group]


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, ties replaced by their average rank."""
    return _group_ranks(*_value_groups(np.asarray(values, dtype=float)))


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise StatsError("input contains non-finite values")


def _pearson_core(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        return None
    return float(dx @ dy / math.sqrt(vx * vy))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1, y = 1 - x passed
    exactly. Past x = (a + 1) / (a + b + 2), where the fraction is slow, it is
    1 - I_y(b, a): there |t| < sqrt(3) and p > 0.08, so no small p is lost."""
    swap = x > (a + 1.0) / (a + b + 2.0)
    if swap:
        a, b, x, y = b, a, y, x
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    f = d = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, BETAINC_MAX_ITER + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d, c = 1.0 + num * d, 1.0 + num / c
            d, c = 1.0 / (d if abs(d) > tiny else tiny), (c if abs(c) > tiny else tiny)
            f *= d * c
        if abs(d * c - 1.0) < 1e-15:
            value = math.exp(log_front) * f / a
            return 1.0 - value if swap else value
    raise StatsError(f"incomplete beta did not converge in {BETAINC_MAX_ITER} steps (a={a}, b={b}, x={x})")


def _t_approx_p(rho: float, n: int) -> float:
    """Two-sided p-value of t = rho sqrt(df / (1 - rho^2)), df = n - 2."""
    if abs(rho) >= 1.0:
        return 0.0
    df = n - 2
    t2 = rho * rho * df / (1.0 - rho * rho)
    y = t2 / (df + t2)
    if y == 0.0:  # rho == 0, or a t too small to move p off 1
        return 1.0
    return _betainc(df / 2.0, 0.5, df / (df + t2), y)


def _validate_xy(x: Sequence[float], y: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 3:
        raise StatsError(f"need at least 3 pairs, got {len(x)}")
    _check_finite(x, y)
    return x, y


def _corr_report(
    x: np.ndarray, y: np.ndarray, kind: str,
    ci: bool, b: int, seed: int,
) -> CorrReport:
    core = _pearson_core(average_ranks(x), average_ranks(y)) if kind == "spearman" else _pearson_core(x, y)
    n = len(x)
    if core is None:
        return CorrReport(rho=float("nan"), n=n, p_value=float("nan"), degenerate=True, small_n=n < 10)
    report = CorrReport(rho=core, n=n, p_value=_t_approx_p(core, n), small_n=n < 10)
    if ci:
        low, high = bootstrap_ci(np.column_stack((x, y)), stat=kind, b=b, seed=seed)
        report = CorrReport(
            rho=report.rho, n=n, p_value=report.p_value,
            ci_low=low, ci_high=high, small_n=report.small_n,
        )
    return report


def spearman(x: Sequence[float], y: Sequence[float], *, ci: bool = False,
             b: int = BOOTSTRAP_DEFAULT_B, seed: int = 0) -> CorrReport:
    """Spearman rho: Pearson of average ranks; constant input is flagged
    degenerate rather than raising."""
    x, y = _validate_xy(x, y)
    return _corr_report(x, y, "spearman", ci, b, seed)


def pearson(x: Sequence[float], y: Sequence[float], *, ci: bool = False,
            b: int = BOOTSTRAP_DEFAULT_B, seed: int = 0) -> CorrReport:
    x, y = _validate_xy(x, y)
    return _corr_report(x, y, "pearson", ci, b, seed)


def bootstrap_ci(
    pairs: Sequence[Tuple[float, float]],
    stat: str = "spearman",
    b: int = BOOTSTRAP_DEFAULT_B,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seeded 95% percentile interval over b resamples with replacement.

    Each resample draws its indices from its own derived stream, so the
    set of resample statistics does not depend on evaluation order.
    Degenerate resamples (constant columns) are skipped; if every
    resample is degenerate the interval is undefined.
    """
    if b < 100:
        raise StatsError(f"need at least 100 resamples, got {b}")
    if stat not in ("spearman", "pearson"):
        raise StatsError(f"unknown statistic {stat!r}")
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise StatsError("pairs must be an (n >= 3, 2) array")
    _check_finite(arr)
    n = arr.shape[0]
    x, y = arr[:, 0], arr[:, 1]
    if stat == "spearman":
        (gx, kx), (gy, ky) = _value_groups(x), _value_groups(y)
    values = []
    for i in range(b):
        idx = rng_for(seed, "resample", i).integers(0, n, n)
        core = (
            _pearson_core(_group_ranks(gx[idx], kx), _group_ranks(gy[idx], ky))
            if stat == "spearman"
            else _pearson_core(x[idx], y[idx])
        )
        if core is not None:
            values.append(core)
    if not values:
        raise StatsError("all bootstrap resamples were degenerate")
    low, high = np.percentile(values, [2.5, 97.5])
    return float(low), float(high)


# -- quantile normalization -----------------------------------------------------

SCHEMES = ("S1_per_cell", "S2_per_backbone", "S3_per_environment")


def quantile_normalize(
    values: Sequence[float],
    keys: Sequence[CellKey],
    scheme: str = "S1_per_cell",
) -> np.ndarray:
    """Replace each value with its Hazen quantile rank within the
    scheme's pool: Q = (average rank - 0.5) / pool size."""
    if scheme not in SCHEMES:
        raise StatsError(f"unknown scheme {scheme!r}")
    if len(values) != len(keys):
        raise StatsError("values and keys misaligned")
    values = np.asarray(values, dtype=float)
    _check_finite(values)
    if scheme == "S1_per_cell":
        pool_of = lambda k: (k.environment, k.backbone)  # noqa: E731
    elif scheme == "S2_per_backbone":
        pool_of = lambda k: k.backbone  # noqa: E731
    else:
        pool_of = lambda k: k.environment  # noqa: E731
    out = np.empty(len(values))
    pools: Dict[Any, List[int]] = {}
    for i, key in enumerate(keys):
        pools.setdefault(pool_of(key), []).append(i)
    for idx in pools.values():
        idx = np.asarray(idx)
        ranks = average_ranks(values[idx])
        out[idx] = (ranks - 0.5) / len(idx)
    return out


# -- transform robustness ----------------------------------------------------------


def transform_suite(sigma: Sequence[float], u: Sequence[float]) -> List[Dict[str, Any]]:
    """Correlations under monotone signal/utility transforms.

    Rows: raw, sigma^0.5, sigma^2, log(sigma + LOG_TRANSFORM_EPS),
    sigma / TRANSFORM_SCALE, u * TRANSFORM_SCALE, and u * -1. Spearman
    must match raw on all positive monotone signal rows and flip sign
    under the negation row.
    """
    sigma = np.asarray(sigma, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(sigma < 0):
        raise StatsError("signal transforms need nonnegative values")
    rows = [
        ("raw", sigma, u),
        ("sigma_pow_0.5", np.sqrt(sigma), u),
        ("sigma_pow_2", sigma**2, u),
        ("sigma_log", np.log(sigma + LOG_TRANSFORM_EPS), u),
        ("sigma_div_t", sigma / TRANSFORM_SCALE, u),
        ("u_scaled", sigma, TRANSFORM_SCALE * u),
        ("u_negated", sigma, -u),
    ]
    out = []
    for name, xs, ys in rows:
        out.append(
            {
                "transform": name,
                "spearman": spearman(xs, ys).rho,
                "pearson": pearson(xs, ys).rho,
            }
        )
    return out


# -- temporal and mixture structure ---------------------------------------------------


def temporal_split(records: Iterable[Any]) -> Tuple[List[Any], List[Any]]:
    """Early and late labeled records around the median step index of
    the labeled records (early: step <= median)."""
    labeled = [r for r in records if getattr(r, "utility_label", None) is not None]
    if not labeled:
        raise StatsError("no labeled records")
    steps = np.array([r.step_index for r in labeled], dtype=float)
    median = float(np.median(steps))
    early = [r for r in labeled if r.step_index <= median]
    late = [r for r in labeled if r.step_index > median]
    if len(early) < 3 or len(late) < 3:
        raise StatsError(
            f"temporal split needs >= 3 labeled records per bucket, got {len(early)}/{len(late)}"
        )
    return early, late


def temporal_split_rho(records: Iterable[Any]) -> Tuple[CorrReport, CorrReport, float]:
    """Early/late signal-label Spearman over ``temporal_split``, and the
    late-minus-early difference."""
    early, late = temporal_split(records)
    early_report = spearman([r.signal for r in early], [r.utility_label for r in early])
    late_report = spearman([r.signal for r in late], [r.utility_label for r in late])
    return early_report, late_report, float(late_report.rho - early_report.rho)


@dataclass(frozen=True)
class MixturePrediction:
    """Sign-level direction prediction for a two-source mixture. The
    linear blend is a sign predictor, not an estimator of Spearman rho."""

    value: float
    crossing: float


def predicted_rho(alpha: float, beta: float, p_i: float) -> MixturePrediction:
    if alpha <= 0 or beta <= 0:
        raise StatsError("slopes must be positive")
    if not 0.0 <= p_i <= 1.0:
        raise StatsError(f"p_i must lie in [0, 1], got {p_i}")
    return MixturePrediction(
        value=float(beta - (alpha + beta) * p_i),
        crossing=float(beta / (alpha + beta)),
    )


@dataclass(frozen=True)
class SimpsonReport:
    within_i: CorrReport
    within_d: CorrReport
    aggregate: CorrReport


def simpson_decomposition(
    signal: Sequence[float], is_type_d: Sequence[bool], true_utility: Sequence[float]
) -> SimpsonReport:
    """Within-type and aggregate signal-utility correlations over one
    sample. Needs the simulator's debug channel (latent type plus the
    continuous hidden utility); binary labels cannot expose the exact
    within-type monotonicity."""
    signal = np.asarray(signal, dtype=float)
    is_d = np.asarray(is_type_d, dtype=bool)
    utility = np.asarray(true_utility, dtype=float)
    if signal.ndim != 1 or not signal.shape == is_d.shape == utility.shape:
        raise StatsError(
            f"signal, type and utility misaligned: {signal.shape}, {is_d.shape}, {utility.shape}"
        )
    if is_d.sum() < 3 or (~is_d).sum() < 3:
        raise StatsError("need >= 3 records of each latent type")
    return SimpsonReport(
        within_i=spearman(signal[~is_d], utility[~is_d]),
        within_d=spearman(signal[is_d], utility[is_d]),
        aggregate=spearman(signal, utility),
    )


# -- classification ------------------------------------------------------------------


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based (Mann-Whitney) AUC with average-rank tie correction."""
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape:
        raise StatsError("labels and scores misaligned")
    _check_finite(labels, scores)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise StatsError("AUC needs both classes present")
    ranks = average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# -- report emission --------------------------------------------------------------------


def report_row(group: str, sp: CorrReport, pe: CorrReport) -> Dict[str, Any]:
    return {
        "group": group,
        "n": sp.n,
        "spearman": sp.rho,
        "pearson": pe.rho,
        "p_value": sp.p_value,
        "ci_low": sp.ci_low,
        "ci_high": sp.ci_high,
    }
