"""Correlation machinery against brute-force oracles and invariances."""

from __future__ import annotations

import csv
import math
import re

import numpy as np
import pytest
from scipy import special as spsp
from scipy import stats as sps

from dial.cli import write_report_csv
from dial.explore import StepRecord
from dial.rng import rng_for
from dial.stats import (
    REPORT_COLUMNS,
    CellKey,
    StatsError,
    _t_approx_p,
    auc,
    average_ranks,
    bootstrap_ci,
    pearson,
    predicted_rho,
    quantile_normalize,
    report_row,
    simpson_decomposition,
    spearman,
    temporal_split,
    transform_suite,
)
from dial.twosource import TwoSourceParams, sample_states


# -- rank helpers -------------------------------------------------------------


def test_average_ranks_with_ties():
    assert average_ranks([1, 2, 2, 4]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([7, 7, 7]).tolist() == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("seed", range(20))
def test_average_ranks_match_mean_sorted_position(seed):
    rng = np.random.default_rng(seed)
    x = rng.choice([-0.0, 0.0, -1.5, 1.0, 2.25, 3.0], size=int(rng.integers(1, 30)))
    positions = np.arange(1, len(x) + 1)
    sorted_x = np.sort(x)
    expected = [positions[sorted_x == v].mean() for v in x]
    assert average_ranks(x).tolist() == expected


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: spearman([0, NAN, 1, 2], [1, 2, 3, 4]),
        lambda: pearson([0, NAN, 1, 2], [1, 2, 3, 4]),
        lambda: spearman([0, 1, 2, 3], [1, 2, INF, 4]),
        lambda: auc([0, 1, 0, 1], [0.1, NAN, 0.2, 0.3]),
        lambda: quantile_normalize([0.1, NAN, 0.3], [CellKey("env", "cfg")] * 3),
    ],
    ids=["spearman_nan", "pearson_nan", "spearman_inf", "auc_nan", "quantile_nan"],
)
def test_non_finite_input_raises(call):
    with pytest.raises(StatsError, match="non-finite"):
        call()


# -- spearman / pearson ----------------------------------------------------------


def test_spearman_perfect_monotone():
    assert spearman([1, 2, 3], [1, 2, 3]).rho == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]).rho == pytest.approx(-1.0)


def test_spearman_tie_fixture():
    report = spearman([1, 2, 2, 4], [1, 3, 2, 4])
    assert report.rho == pytest.approx(4.5 / np.sqrt(4.5 * 5.0), abs=1e-12)
    assert report.rho == pytest.approx(0.9486832980505138, abs=1e-9)


def test_spearman_matches_scipy_on_random_data():
    rng = np.random.default_rng(0)
    for trial in range(20):
        x = rng.integers(0, 8, 50).astype(float)  # heavy ties
        y = x * rng.choice([-1, 1]) + rng.standard_normal(50)
        ours = spearman(x, y)
        ref_rho, ref_p = sps.spearmanr(x, y)
        assert ours.rho == pytest.approx(ref_rho, abs=1e-12)
        assert ours.p_value == pytest.approx(ref_p, abs=1e-9)


TAIL_RHOS = np.geomspace(1e-12, 1 - 1e-7, 60)


@pytest.mark.parametrize("n", list(range(3, 203)) + [1_002, 20_002, 1_000_002])
def test_t_tail_matches_scipy(n):
    for rho in np.concatenate([TAIL_RHOS, -TAIL_RHOS]):
        t = rho * math.sqrt((n - 2) / (1 - rho * rho))
        ref = 2.0 * spsp.stdtr(n - 2, -abs(t))
        if ref < 1e-300:  # scipy underflows here
            assert _t_approx_p(rho, n) < 1e-280
        else:
            assert _t_approx_p(rho, n) == pytest.approx(ref, rel=1e-8)
    assert _t_approx_p(0.0, n) == 1.0
    assert _t_approx_p(1.0, n) == 0.0 and _t_approx_p(-1.0, n) == 0.0


def test_t_tail_raises_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr("dial.stats.BETAINC_MAX_ITER", 2)
    with pytest.raises(StatsError, match="did not converge in 2 steps"):
        _t_approx_p(0.5, 50)


def test_spearman_validates_input():
    with pytest.raises(StatsError):
        spearman([1, 2], [1, 2])
    with pytest.raises(StatsError):
        spearman([1, 2, 3], [1, 2])


def test_spearman_degenerate_flag():
    report = spearman([1.0, 1.0, 1.0], [1, 2, 3])
    assert report.degenerate and np.isnan(report.rho)


def test_pearson_fixtures():
    assert pearson([0, 1, 2], [0, 1, 2]).rho == pytest.approx(1.0)
    x = np.array([0.3, 1.7, 2.2, 5.0])
    assert pearson(x, -2 * x + 3).rho == pytest.approx(-1.0)
    assert pearson([0, 1, 2], [0, 1, 4]).rho == pytest.approx(4 / np.sqrt(2 * 78 / 9), abs=1e-12)
    assert pearson([0, 1, 2], [0, 1, 4]).rho == pytest.approx(0.9607689228305228, abs=1e-9)


def test_small_sample_p_flagged():
    assert spearman([1, 2, 3], [1, 3, 2]).small_n is True
    big = spearman(np.arange(20.0), np.arange(20.0) ** 2)
    assert big.small_n is False


# -- bootstrap ----------------------------------------------------------------------


def test_bootstrap_default_resamples_is_1000():
    import inspect

    assert inspect.signature(bootstrap_ci).parameters["b"].default == 1000


def test_bootstrap_exact_correlation_pins_interval():
    x = np.arange(10.0)
    low, high = bootstrap_ci(list(zip(x, x)), b=200, seed=0)
    assert low == pytest.approx(1.0) and high == pytest.approx(1.0)


def test_bootstrap_requires_minimum_resamples():
    with pytest.raises(StatsError):
        bootstrap_ci([(0, 0), (1, 1), (2, 2)], b=50)


def test_bootstrap_order_independent_schedule():
    rng = np.random.default_rng(1)
    pairs = list(zip(rng.random(40), rng.random(40)))
    assert bootstrap_ci(pairs, b=150, seed=3) == bootstrap_ci(pairs, b=150, seed=3)


def test_bootstrap_coverage_monte_carlo():
    # 95% interval should contain the true Spearman rho in >= 90 of 100
    # trials; for a bivariate normal with correlation r it is (6/pi) asin(r/2).
    r = 0.5
    target = 6.0 / math.pi * math.asin(r / 2.0)
    chol = np.linalg.cholesky(np.array([[1.0, r], [r, 1.0]]))
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        xy = rng.standard_normal((200, 2)) @ chol.T
        low, high = bootstrap_ci(list(map(tuple, xy)), b=300, seed=trial)
        hits += int(low <= target <= high)
    assert hits >= 90


def test_corr_report_ci_brackets_rho():
    rng = np.random.default_rng(2)
    x = rng.random(60)
    y = x + 0.3 * rng.standard_normal(60)
    report = spearman(x, y, ci=True, b=300, seed=5)
    assert report.ci_low <= report.rho <= report.ci_high


def _reference_bootstrap(pairs, b, seed):
    # Re-sorts every resample: Pearson of average ranks, degenerate
    # resamples skipped, then the 2.5 and 97.5 percentiles.
    arr = np.asarray(pairs, dtype=float)
    n = len(arr)
    values = []
    for i in range(b):
        idx = rng_for(seed, "resample", i).integers(0, n, n)
        report = pearson(average_ranks(arr[idx, 0]), average_ranks(arr[idx, 1]))
        if not report.degenerate:
            values.append(report.rho)
    low, high = np.percentile(values, [2.5, 97.5])
    return float(low), float(high)


_TIE_RNG = np.random.default_rng(21)
_TIE_CASES = {
    "mod3": np.column_stack((np.arange(60) % 3, _TIE_RNG.integers(0, 30, 60) % 3)),
    "binary": np.column_stack((_TIE_RNG.random(80), _TIE_RNG.integers(0, 2, 80))),
    "signed_zeros": np.column_stack(
        (_TIE_RNG.choice([0.0, -0.0, 1.0], 40), _TIE_RNG.choice([-0.0, 0.0, 0.5, 2.0], 40))
    ),
    "n3": np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]),
    "often_constant": np.column_stack(([0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0])),
}


# The ids name the statistic the bootstrap takes, Spearman rho.
@pytest.mark.parametrize("case", sorted(_TIE_CASES), ids=[f"{c}-spearman" for c in sorted(_TIE_CASES)])
def test_bootstrap_equals_resorting_reference(case):
    pairs = _TIE_CASES[case]
    assert bootstrap_ci(pairs, b=200, seed=11) == _reference_bootstrap(pairs, 200, 11)


_BLOCK_RNG = np.random.default_rng(34)
_BLOCK_CASES = {
    # 16,384 // 700 = 23 resamples a block, which does not divide 200.
    "partial-last-block": (np.column_stack((_BLOCK_RNG.random(700), _BLOCK_RNG.standard_normal(700))), 200),
    # past 16,384 rows each block is one resample.
    "one-row-blocks": (np.column_stack((_BLOCK_RNG.random(16_385), _BLOCK_RNG.random(16_385))), 100),
    "one-row-blocks-ties": (
        np.column_stack((_BLOCK_RNG.integers(0, 50, 20_000), _BLOCK_RNG.integers(0, 3, 20_000))), 100),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_bootstrap_blocks_equal_the_resorting_reference(case):
    pairs, b = _BLOCK_CASES[case]
    assert bootstrap_ci(pairs, b=b, seed=4) == _reference_bootstrap(pairs, b, 4)


def test_bootstrap_draws_each_resample_once_in_index_order(monkeypatch):
    calls = []

    def recording_rng_for(master, name, index=0):
        calls.append((master, name, index))
        return rng_for(master, name, index)

    monkeypatch.setattr("dial.stats.rng_for", recording_rng_for)
    pairs, _ = _BLOCK_CASES["partial-last-block"]
    bootstrap_ci(pairs, b=150, seed=9)
    assert calls == [(9, "resample", i) for i in range(150)]


@pytest.mark.parametrize("bad", [NAN, INF], ids=["nan-spearman", "inf-spearman"])
def test_bootstrap_refuses_non_finite_pairs(bad):
    pairs = [(0.0, 1.0), (1.0, bad), (2.0, 0.5), (3.0, 2.0)]
    with pytest.raises(StatsError, match="non-finite"):
        bootstrap_ci(pairs, b=100, seed=0)


# -- quantile normalization ------------------------------------------------------------


def test_hazen_rank_fixture():
    keys = [CellKey("e", "b")] * 3
    out = quantile_normalize([5.0, 1.0, 3.0], keys, "S1_per_cell")
    assert out.tolist() == pytest.approx([5 / 6, 1 / 6, 0.5])


def test_constant_group_normalizes_to_half():
    keys = [CellKey("e", "b")] * 4
    assert quantile_normalize([2.0] * 4, keys, "S1_per_cell").tolist() == [0.5] * 4


def test_per_cell_spearman_invariant_under_all_schemes():
    rng = np.random.default_rng(3)
    values, keys, cells = [], [], {}
    for env in ("env_a", "env_b"):
        for backbone in ("m1", "m2"):
            x = rng.random(80)
            u = (1 if env == "env_a" else -1) * x + 0.2 * rng.standard_normal(80)
            start = len(values)
            values.extend(x.tolist())
            keys.extend([CellKey(env, backbone)] * 80)
            cells[(env, backbone)] = (slice(start, start + 80), u)
    values = np.asarray(values)
    for scheme in ("S1_per_cell", "S2_per_backbone", "S3_per_environment"):
        normalized = quantile_normalize(values, keys, scheme)
        for (env, backbone), (sl, u) in cells.items():
            raw = spearman(values[sl], u).rho
            after = spearman(normalized[sl], u).rho
            assert after == pytest.approx(raw, abs=1e-15)


def test_cell_key_validation():
    with pytest.raises(StatsError):
        CellKey("", "b")


# -- transforms -------------------------------------------------------------------------


def _sigma_u_sample(n=400, seed=4):
    states = sample_states(TwoSourceParams(p_i0=0.3, noise_sd=0.2), n, seed)
    return states["signal"], states["true_utility"]


def test_transform_scaling_preserves_both_correlations():
    sigma, u = _sigma_u_sample()
    rows = {r["transform"]: r for r in transform_suite(sigma, u)}
    assert rows["sigma_div_t"]["spearman"] == pytest.approx(rows["raw"]["spearman"], abs=1e-12)
    assert rows["sigma_div_t"]["pearson"] == pytest.approx(rows["raw"]["pearson"], abs=1e-12)
    assert rows["u_scaled"]["spearman"] == pytest.approx(rows["raw"]["spearman"], abs=1e-12)


def test_transform_negation_flips_spearman():
    sigma, u = _sigma_u_sample()
    rows = {r["transform"]: r for r in transform_suite(sigma, u)}
    assert rows["u_negated"]["spearman"] == pytest.approx(-rows["raw"]["spearman"], abs=1e-12)


def test_transform_monotone_rows_rank_invariant():
    sigma, u = _sigma_u_sample()
    rows = {r["transform"]: r for r in transform_suite(sigma, u)}
    for name in ("sigma_pow_0.5", "sigma_pow_2", "sigma_log"):
        assert rows[name]["spearman"] == pytest.approx(rows["raw"]["spearman"], abs=1e-12)


def test_transform_domain_validation():
    with pytest.raises(StatsError):
        transform_suite([-0.1, 0.2, 0.3], [1, 2, 3])


# -- temporal and mixture -----------------------------------------------------------------


def _record(step, signal, label):
    return StepRecord(0, step, {"signal": signal}, utility_label=label, signal=signal)


def test_temporal_split_errors_on_single_step_episodes():
    records = [_record(0, 0.1 * i, i % 2) for i in range(10)]
    with pytest.raises(StatsError):
        temporal_split(records)


def test_temporal_split_buckets_by_median():
    records = [_record(t, 0.1 * t + 0.01 * (t % 3), (t + i) % 2) for t in range(10) for i in range(4)]
    early, late = temporal_split(records)
    for bucket, steps in ((early, range(5)), (late, range(5, 10))):  # steps 0-4 vs 5-9 (median 4.5)
        expected = [r for r in records if r.step_index in steps]
        assert len(expected) == 20
        assert bucket == ([r.signal for r in expected], [float(r.utility_label) for r in expected])
        assert all(type(label) is float for label in bucket[1])


def test_predicted_rho_values():
    assert predicted_rho(1, 1, 0).value == pytest.approx(1.0)
    assert predicted_rho(1, 1, 0.5).value == pytest.approx(0.0)
    assert predicted_rho(2, 1, 0.5).value == pytest.approx(-0.5)
    assert predicted_rho(2, 1, 0.5).crossing == pytest.approx(1 / 3)


def test_predicted_rho_validation():
    with pytest.raises(StatsError):
        predicted_rho(0, 1, 0.5)
    with pytest.raises(StatsError):
        predicted_rho(1, 1, 1.5)


def _sim_states(p_i0, noise, n, seed):
    states = sample_states(TwoSourceParams(p_i0=p_i0, noise_sd=noise), n, seed)
    return states["signal"], states["is_type_d"], states["true_utility"]


def test_simpson_noise_free_within_types_exact():
    report = simpson_decomposition(*_sim_states(0.5, 0.0, 400, seed=6))
    assert report.within_i.rho == pytest.approx(-1.0)
    assert report.within_d.rho == pytest.approx(1.0)


def test_simpson_reversal_both_mixtures():
    high = simpson_decomposition(*_sim_states(0.8, 0.3, 5000, seed=7))
    assert high.aggregate.rho < 0 < high.within_d.rho
    low = simpson_decomposition(*_sim_states(0.2, 0.3, 5000, seed=8))
    assert low.aggregate.rho > 0 > low.within_i.rho


def test_simpson_requires_debug_fields():
    signal = np.linspace(0.0, 1.0, 10)
    with pytest.raises(StatsError, match="each latent type"):
        simpson_decomposition(signal, np.zeros(10, dtype=bool), signal)  # no type-D states
    with pytest.raises(StatsError, match="misaligned"):
        simpson_decomposition(signal, np.arange(10) % 2 == 0, signal[:9])


# -- AUC -------------------------------------------------------------------------------------


def test_auc_fixtures():
    assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)
    assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)
    assert auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75, abs=1e-12)


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(9)
    labels = (rng.random(200) < 0.4).astype(int)
    scores = rng.integers(0, 10, 200).astype(float)  # heavy ties
    wins = ties = 0
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    for sp in pos:
        wins += (sp > neg).sum()
        ties += (sp == neg).sum()
    expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert auc(labels, scores) == pytest.approx(expected, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(StatsError):
        auc([1, 1, 1], [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "labels, scores, bad",
    [([0, 0, 1, 1, 2], [0.1, 0.2, 0.7, 0.9, 0.0], "2"),  # read 1.5: ranked, in neither class
     ([0, 0.5, 1, 1], [0.1, 0.2, 0.7, 0.9], "0.5")],     # read 2.0
    ids=["two", "half"],
)
def test_auc_refuses_a_label_other_than_0_or_1(labels, scores, bad):
    with pytest.raises(StatsError, match=f"^AUC labels must be 0 or 1, got {re.escape(bad)}$"):
        auc(labels, scores)


# -- property: rank invariance --------------------------------------------------------------


def test_spearman_invariant_under_random_increasing_transforms():
    rng = np.random.default_rng(11)
    x = rng.random(100)
    y = x + rng.standard_normal(100)
    base = spearman(x, y).rho
    transforms = [
        lambda v: 3 * v + 1,
        lambda v: v**3,
        np.expm1,
        lambda v: np.log1p(v - v.min()),
        lambda v: np.exp(0.5 * v),
    ]
    for fn in transforms:
        assert spearman(fn(x), y).rho == pytest.approx(base, abs=1e-12)


# -- report writer ----------------------------------------------------------------------------


def test_report_csv_columns(tmp_path):
    sp = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    pe = pearson([1, 2, 3, 4], [1, 3, 2, 4])
    path = tmp_path / "cells.csv"
    write_report_csv(str(path), [report_row("all", sp, pe)], REPORT_COLUMNS)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["group", "n", "spearman", "pearson", "p_value", "ci_low", "ci_high"]
    assert rows[0]["group"] == "all" and rows[0]["n"] == "4"


def test_bootstrap_all_degenerate_resamples_error():
    with pytest.raises(StatsError):
        bootstrap_ci([(1.0, 2.0)] * 10, b=100, seed=0)
