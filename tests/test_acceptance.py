"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion. Every expected value is either trivial arithmetic, a
hand-computed fixture, or checked against an independent oracle
(a quasi-Newton reference with a dense grid cross-check, exhaustive pair
counting, Monte-Carlo).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from dial.cli import cmd_eval, cmd_explore, cmd_fit, cmd_stats, cmd_verify, load_config
from dial.evaluate import PolicySpec, run_deployment
from dial.explore import run_exploration
from dial.features import MockProposalClient
from dial.gate import fit_sparse_logistic, objective
from dial.rng import derive_seed
from dial.stats import (
    CellKey,
    auc,
    pearson,
    predicted_rho,
    quantile_normalize,
    simpson_decomposition,
    spearman,
    temporal_split_rho,
    transform_suite,
)
from dial.twosource import TwoSourceEnv, TwoSourceParams, sample_states
from direction_experiments import explore_and_fit, prop1_counterexample, wrong_direction_experiment

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"


def _report(criterion: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: PASS  ({detail})")


def _obs(states, i):
    """Observation of row i of sample_states' columns, as numpy scalars."""
    return {
        "step_count": states["step_index"][i],
        "signal": states["signal"][i],
        "type_proxy": states["type_proxy"][i],
        "num_options": states["num_options"][i],
        "is_finish": states["is_finish"][i],
    }


# -- C1: mixture sign recovery ---------------------------------------------------


def test_c01_mixture_sign_recovery():
    start = time.time()
    details = []
    for i, p_i0 in enumerate((0.0, 0.25, 0.75, 1.0)):
        params = TwoSourceParams(alpha=1.0, beta=1.0, p_i0=p_i0, noise_sd=0.3)
        states = sample_states(params, 5000, seed=derive_seed(101, "c1", i))
        rho = spearman(states["signal"], states["true_utility"]).rho
        predicted = predicted_rho(1.0, 1.0, p_i0).value
        assert np.sign(rho) == np.sign(predicted), (p_i0, rho, predicted)
        details.append(f"p={p_i0}: rho={rho:+.3f}")
    balanced = sample_states(
        TwoSourceParams(alpha=1.0, beta=1.0, p_i0=0.5, noise_sd=0.3), 5000,
        seed=derive_seed(101, "c1", 9),
    )
    rho_mid = spearman(balanced["signal"], balanced["true_utility"]).rho
    assert abs(rho_mid) < 0.1
    elapsed = time.time() - start
    assert elapsed < 30
    _report("C1 sign recovery", "; ".join(details) + f"; p=0.5: |rho|={abs(rho_mid):.3f}; {elapsed:.1f}s")


# -- C2: within-type vs aggregate reversal ------------------------------------------


def test_c02_simpson_decomposition():
    start = time.time()

    def states_at(p_i0, seed):
        states = sample_states(
            TwoSourceParams(alpha=1.0, beta=1.0, p_i0=p_i0, noise_sd=0.3), 5000, seed
        )
        return states["signal"], states["is_type_d"], states["true_utility"]

    high = simpson_decomposition(*states_at(0.8, derive_seed(102, "c2", 0)))
    assert high.within_d.rho > 0.3
    assert high.within_i.rho < -0.3
    assert high.aggregate.rho < -0.1
    low = simpson_decomposition(*states_at(0.2, derive_seed(102, "c2", 1)))
    assert low.within_d.rho > 0.3
    assert low.within_i.rho < -0.3
    assert low.aggregate.rho > 0.1
    elapsed = time.time() - start
    assert elapsed < 30
    _report(
        "C2 Simpson decomposition",
        f"p=0.8: D={high.within_d.rho:+.2f} I={high.within_i.rho:+.2f} agg={high.aggregate.rho:+.2f}; "
        f"p=0.2 agg={low.aggregate.rho:+.2f}; {elapsed:.1f}s",
    )


# -- C3: solver vs an exact reference, cross-checked by a dense grid ------------------


def _grid_oracle_min(X, y, c, pts=41, box=3.0):
    axis = np.linspace(-box, box, pts)
    W = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    Z = X @ W.T
    lam = 1.0 / c
    best = np.inf
    for b in axis:
        zb = Z + b
        loss = np.logaddexp(0.0, zb).sum(axis=0) - y @ zb
        best = min(best, float((loss + lam * np.abs(W).sum(axis=1)).min()))
    return best


def _exact_reference_min(X, y, c):
    """The l1 objective minimized by scipy's L-BFGS-B on the smooth split
    form w = w_pos - w_neg, w_pos, w_neg >= 0 (bias free): an algorithm
    independent of dial's solver."""
    d = X.shape[1]
    lam = 1.0 / c

    def fun(theta):
        z = X @ (theta[:d] - theta[d : 2 * d]) + theta[-1]
        residual = 1 / (1 + np.exp(-z)) - y
        g = X.T @ residual
        grad = np.concatenate([g + lam, lam - g, [residual.sum()]])
        return np.logaddexp(0.0, z).sum() - y @ z + lam * theta[: 2 * d].sum(), grad

    result = minimize(
        fun, np.zeros(2 * d + 1), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * d) + [(None, None)],
        options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 10_000},
    )
    assert result.success, result.message
    return float(result.fun)


def test_c03_solver_matches_grid_oracle():
    # The exact reference bounds every instance; the grid (spacing 0.15,
    # so an upper bound on the minimum) cross-checks it on three.
    worst_gap = -np.inf
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        X = rng.standard_normal((20, 3))
        w_true = rng.uniform(-1.5, 1.5, 3)
        y = (rng.random(20) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        c = float(rng.choice([0.1, 0.3, 1.0, 3.0]))
        w, b = fit_sparse_logistic(X, y, c, "l1")
        achieved = objective(X, y, w, b, c, "l1")
        reference = _exact_reference_min(X, y, c)
        if i < 3:
            assert reference <= _grid_oracle_min(X, y, c), i
        worst_gap = max(worst_gap, achieved - reference)
        assert achieved <= reference + 1e-6, (i, achieved, reference)
    _report("C3 solver oracle equivalence",
            f"20 instances, worst achieved-minus-reference {worst_gap:.2e} (grid cross-check on 3)")


# -- C4: direction recovery -------------------------------------------------------------


def test_c04_direction_recovery():
    params = TwoSourceParams(p_i0=0.5, noise_sd=0.05, fidelity_q=1.0, horizon=10)
    passing = 0
    rates = []
    for master in range(10):
        env = TwoSourceEnv(params)
        model, _ = explore_and_fit(
            env, seed=master, eps=0.5, n_explore=200, proposal_client=MockProposalClient()
        )
        states = sample_states(params, 2000, seed=derive_seed(104, "holdout", master))
        agree = sum(
            int(model.decide(_obs(states, i)) == (states["true_utility"][i] > 0))
            for i in range(2000)
        )
        rate = agree / 2000
        rates.append(rate)
        passing += int(rate >= 0.9)
    assert passing >= 9, rates
    _report("C4 direction recovery", f"{passing}/10 seeds >= 0.9 (mean {np.mean(rates):.3f})")


# -- C5: wrong-direction damage scales with signal strength -------------------------------


def test_c05_wrong_direction_scaling():
    start = time.time()
    envs = [
        TwoSourceParams(p_i0=0.5, fidelity_q=0.0, noise_sd=0.3),                      # |rho*| ~ 0
        TwoSourceParams(p_i0=0.5, fidelity_q=0.5, noise_sd=0.15, alpha=0.6, beta=0.6),  # ~ 0.4
        TwoSourceParams(p_i0=0.5, fidelity_q=1.0, noise_sd=0.1),                      # ~ 0.9
    ]
    report = wrong_direction_experiment(envs, seed=2024, n_explore=100, n_eval=500)
    rows = report.rows
    assert report.monotone, [r.delta_sr for r in rows]
    assert rows[0].rho_star < 0.25 and abs(rows[0].delta_sr) < 0.05
    assert 0.2 < rows[1].rho_star < 0.6
    assert rows[2].rho_star > 0.7 and rows[2].delta_sr < -0.15
    elapsed = time.time() - start
    assert elapsed < 300
    _report(
        "C5 wrong-direction scaling",
        "; ".join(f"rho*={r.rho_star:.2f} dSR={r.delta_sr:+.3f}" for r in rows) + f"; {elapsed:.0f}s",
    )


# -- C6: signal-only gates cannot serve both mixtures ---------------------------------------


def test_c06_counterexample():
    start = time.time()
    pair = (
        TwoSourceParams(p_i0=0.1, noise_sd=0.1, fidelity_q=1.0),
        TwoSourceParams(p_i0=0.9, noise_sd=0.1, fidelity_q=1.0),
    )
    verdict = prop1_counterexample(pair, seed=31, n_eval=500, n_explore=100)
    assert len(verdict.sigma_gates) == 82  # 41 thresholds x 2 directions
    assert not verdict.any_sigma_passes_both
    assert verdict.dial_passes_both
    elapsed = time.time() - start
    assert elapsed < 300
    _report(
        "C6 counterexample",
        f"0/82 signal gates pass both; gate SR={verdict.dial_sr[0]:.3f}/{verdict.dial_sr[1]:.3f} "
        f"vs base {verdict.base_sr[0]:.3f}/{verdict.base_sr[1]:.3f}; {elapsed:.0f}s",
    )


# -- C7: temporal drift of the correlation ---------------------------------------------------


def test_c07_temporal_drift():
    drifting = TwoSourceParams(p_i0=0.1, p_i_slope=0.08, noise_sd=0.35, fidelity_q=1.0, horizon=10)
    ds = run_exploration(TwoSourceEnv(drifting), eps=1.0, n_episodes=450, seed=107)
    early, late, delta = temporal_split_rho(ds.records)
    assert early.n >= 2000 and late.n >= 2000
    assert delta <= -0.1, (early.rho, late.rho)

    stationary = TwoSourceParams(p_i0=0.4, p_i_slope=0.0, noise_sd=0.35, fidelity_q=1.0, horizon=10)
    ds_control = run_exploration(TwoSourceEnv(stationary), eps=1.0, n_episodes=450, seed=108)
    _, _, delta_control = temporal_split_rho(ds_control.records)
    assert abs(delta_control) < 0.1
    _report(
        "C7 temporal drift",
        f"drifting: early={early.rho:+.3f} late={late.rho:+.3f} delta={delta:+.3f}; "
        f"stationary |delta|={abs(delta_control):.3f}",
    )


# -- C8: normalization and transform robustness ------------------------------------------------


def test_c08_robustness_suites():
    rng_seed = 108
    values, keys, cells = [], [], []
    for ci, p_i0 in enumerate((0.2, 0.5, 0.8)):
        for backbone in ("cfgA", "cfgB"):
            states = sample_states(
                TwoSourceParams(p_i0=p_i0, noise_sd=0.3), 500,
                seed=derive_seed(rng_seed, f"cell{ci}", hash(backbone) % 1000),
            )
            start = len(values)
            values.extend(states["signal"].tolist())
            keys.extend([CellKey(f"env{ci}", backbone)] * 500)
            cells.append((slice(start, start + 500), states["true_utility"]))
    values = np.asarray(values)
    for scheme in ("S1_per_cell", "S2_per_backbone", "S3_per_environment"):
        normalized = quantile_normalize(values, keys, scheme)
        for sl, utility in cells:
            raw = spearman(values[sl], utility).rho
            after = spearman(normalized[sl], utility).rho
            assert abs(after - raw) <= 1e-15, (scheme, raw, after)

    states = sample_states(TwoSourceParams(p_i0=0.3, noise_sd=0.2), 2000, seed=rng_seed)
    rows = {r["transform"]: r for r in transform_suite(states["signal"], states["true_utility"])}
    raw_rho = rows["raw"]["spearman"]
    for name in ("sigma_pow_0.5", "sigma_pow_2", "sigma_log", "sigma_div_t", "u_scaled"):
        assert rows[name]["spearman"] == pytest.approx(raw_rho, abs=1e-12), name
    assert rows["u_negated"]["spearman"] == pytest.approx(-raw_rho, abs=1e-12)
    assert rows["sigma_div_t"]["pearson"] == pytest.approx(rows["raw"]["pearson"], abs=1e-12)
    _report("C8 robustness suites", "6 cells x 3 schemes at machine precision; 6 transforms OK")


# -- C9: signal alone is chance, the gate is not ------------------------------------------------


def test_c09_auc_hierarchy():
    params = TwoSourceParams(p_i0=0.5, noise_sd=0.05, fidelity_q=1.0, horizon=10)
    env = TwoSourceEnv(params)
    model, _ = explore_and_fit(
        env, seed=109, eps=0.5, n_explore=200, proposal_client=MockProposalClient()
    )
    holdout = run_exploration(env, eps=1.0, n_episodes=100, seed=derive_seed(109, "holdout"))
    labeled = holdout.labeled()
    labels = [r.utility_label for r in labeled]
    auc_signal = auc(labels, [r.signal for r in labeled])
    auc_gate = auc(labels, [model.score(r.obs) for r in labeled])
    assert 0.45 <= auc_signal <= 0.55, auc_signal
    assert auc_gate >= auc_signal + 0.15, (auc_signal, auc_gate)
    _report("C9 AUC hierarchy", f"signal {auc_signal:.3f} vs gate {auc_gate:.3f} (n={len(labels)})")


# -- C10: cost accounting ---------------------------------------------------------------------


def test_c10_cost_accounting():
    env = TwoSourceEnv(TwoSourceParams(horizon=4, trigger_cost_units=5.0))
    policy = PolicySpec("fixed_threshold", signal="signal", direction=1, threshold=0.5)
    base, always, result = run_deployment(
        env, [PolicySpec("base_only"), PolicySpec("always_trigger"), policy], 3, seed=110
    )
    assert base.cost_x_base == 1.0  # exact
    assert abs(always.cost_x_base - (1.0 + 5.0 * 1.0)) <= 1e-9

    triggered = 0
    episodes = env.episodes([derive_seed(110, "eval-episode", i) for i in range(3)])
    for i in range(3):  # hand count from the replayed observation stream
        episode = episodes.start(i)
        while not episode.done():
            triggered += int(episode.observe()["signal"] > 0.5)
            episode.step(False)
    expected = 1.0 + 5.0 * (triggered / 12.0)
    assert abs(result.cost_x_base - expected) <= 1e-9
    _report("C10 cost accounting", f"base 1.0 exact; always 6.0; mixed {result.cost_x_base:.6f} == hand {expected:.6f}")


# -- C11: statistics against brute-force oracles ------------------------------------------------


def test_c11_statistics_oracles():
    tol = 1e-9
    assert abs(spearman([1, 2, 3], [1, 2, 3]).rho - 1.0) <= tol
    assert abs(spearman([1, 2, 3], [3, 2, 1]).rho + 1.0) <= tol
    assert abs(spearman([1, 2, 2, 4], [1, 3, 2, 4]).rho - 0.9486832980505138) <= tol

    assert abs(pearson([0, 1, 2], [0, 1, 2]).rho - 1.0) <= tol
    x = np.array([0.5, 1.25, 3.5])
    assert abs(pearson(x, -2 * x + 3).rho + 1.0) <= tol
    assert abs(pearson([0, 1, 2], [0, 1, 4]).rho - 0.9607689228305228) <= tol

    assert abs(auc([0, 0, 1, 1], [0.1, 0.2, 0.7, 0.9]) - 1.0) <= tol
    assert abs(auc([0, 1, 0, 1], [0.4, 0.4, 0.4, 0.4]) - 0.5) <= tol
    assert abs(auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) - 0.75) <= tol

    q = quantile_normalize([5.0, 1.0, 3.0], [CellKey("e", "b")] * 3, "S1_per_cell")
    assert np.abs(q - np.array([5 / 6, 1 / 6, 0.5])).max() <= tol

    assert abs(predicted_rho(1, 1, 0).value - 1.0) <= tol
    assert abs(predicted_rho(1, 1, 0.5).value) <= tol
    assert abs(predicted_rho(2, 1, 0.5).value + 0.5) <= tol
    _report("C11 statistics oracles", "spearman/pearson/auc/quantile/prediction fixtures at 1e-9")


# -- C12: end-to-end reproducibility --------------------------------------------------------------


# sha256 of every C12 output file. A change that alters one on purpose
# updates it here and says why.
C12_GOLDEN_SHA256 = {
    "dataset-9a69751b.jsonl": "f4b6924ad7906131c460864fb120b47f244df2d0760a44ce9b750fdff050c535",
    "eval-9a69751b.json": "718f104b6333d20471296919a1ba9a1adb941ff85a2cfd511914e69972d2f08a",
    "eval_summary-9a69751b.csv": "cbdae209ce3b0872161d51bdf0868623e6b52150e27f3084e6e63ba6cf7c634f",
    "model-9a69751b.json": "2b71009c0420c3ba5f2113f5d71f50111704aa7e1382998935e1d83ef9e93a46",
    "stats-9a69751b.json": "ed8644f647df87667c1aa8e4fe94bc0680aa573e3db5729a518bdedbf24f89ee",
    "stats_cells-9a69751b.csv": "54f7f87b72d5c7d10d0636f697f0097b4b811f97a1a6c041c38496e15d243ef5",
    "trigger_profile-9a69751b.csv": "977c0dc4a11ab0cdf19dc2e1e064881149b0926bedc18f99ee82ba3ccb77ce33",
    "verify-9a69751b.json": "440d1168901b2520b73e7b696d941fb9b6a0e7a0df2325a145d023cd765684f6",
    "verify_eq2_sweep-9a69751b.csv": "d1bd5831dbfaa5bd8a16656ad7341b09e20ebe538b31b028013737729435e8c6",
    "verify_normalization-9a69751b.csv": "059db0a6367a677f30ea3c9c6d183d3781be53600f12f4c1eb230beaaa8c0b47",
    "verify_simpson-9a69751b.csv": "08a37f3657f714bbc46c50af79ace2afc0598c91bf608162e08706f0676e9cd2",
    "verify_temporal-9a69751b.csv": "9cdbc6caba6bcb4774fd583b4a5c3444c4b4449471ff4655b201738b44f5a469",
    "verify_transforms-9a69751b.csv": "4df4ae83ee0dfd67ddd982a0b78614235472bbc308026a87c6873b50697332e2",
}


def test_c12_pipeline_reproducibility(tmp_path):
    config_payload = {
        "environment": {"p_i0": 0.5, "noise_sd": 0.1, "fidelity_q": 1.0, "horizon": 8},
        "exploration": {"eps": 0.5, "n_episodes": 20},
        "eval": {"n_episodes": 40},
        "seed": 12,
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_payload))

    def run_once():
        config = load_config(str(config_path))
        dataset = cmd_explore(config)
        model = cmd_fit(config, dataset)
        cmd_eval(config, model)
        cmd_stats(config, dataset)
        cmd_verify(config)
        out = {}
        for path in sorted((tmp_path / "out").rglob("*")):
            if path.is_file():
                out[str(path.relative_to(tmp_path / "out"))] = path.read_bytes()
        return out

    first = run_once()
    shutil.rmtree(tmp_path / "out")
    second = run_once()
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in first.items()}
    assert digests == C12_GOLDEN_SHA256
    _report("C12 reproducibility", f"{len(first)} output files byte-identical across two runs and to their golden sha256")


# sha256 of the 39 artifacts of the demo pipeline (configs/demo.json:
# explore, fit, eval, stats and verify) on seeds 42, 7 and 201, keyed by
# seed and file name. "Same behaviour" across a refactor is these bytes;
# a change that alters one on purpose updates it here and says why.
DEMO_GOLDEN_SHA256 = {
    "42/dataset-2559fb27.jsonl": "e167cbc5bb64ea615eb286a015ff012b8b98be2240530bc3c8d458d8bc02c9b3",
    "42/eval-2559fb27.json": "b8c001990672ed7573d5fd4a611f2c1ba2a62933087f04c4784ffb0863ed9a3b",
    "42/eval_summary-2559fb27.csv": "58d10bcb9031c3844850346eefad3420afe924ff76205ca43013c89f8398e5c1",
    "42/model-2559fb27.json": "c9944b86fbc9fb4bf72dbe0322a831bc3ddda098d457aa551db3e2a3e42508d3",
    "42/stats-2559fb27.json": "11fca39d72cc6edf594773cfe0d49b739ca78d9007adce3913871a9529626555",
    "42/stats_cells-2559fb27.csv": "953a058b140b9f21ac13a7e04902a60c32a601c99915b86ef57f9d2d66431138",
    "42/trigger_profile-2559fb27.csv": "baabdbb3cbfff458f267dba65c7af0050ab3f605ae97f1f474b9408e48a75f26",
    "42/verify-2559fb27.json": "12005ef64f44d23fb7489a11be7b5e7e4de3010cd666929f94094edef4221f73",
    "42/verify_eq2_sweep-2559fb27.csv": "6eb0e5f92328853a96d5f23323337b34573997cb5cb8b4f26302f5faed7ed03e",
    "42/verify_normalization-2559fb27.csv": "a801bfd226886013b9a4486136f237b0290cbd7af1f161809ecb1cc5111fd3fd",
    "42/verify_simpson-2559fb27.csv": "c33436fd776566a64949c5cd0d90f287323a0429fec10513bce28f3665cdced8",
    "42/verify_temporal-2559fb27.csv": "3720524b71919f3270b9cfd02514af4287cce7399f41e8e407dcb00586ee2df4",
    "42/verify_transforms-2559fb27.csv": "83ce4e31808a33e952694ac9f4c1dd9867158ade7a9934c6763c8e6851939eb6",
    "7/dataset-fe61dee7.jsonl": "5c5cea57a563de297c5255e4b1e160dc4e72971d4c7cbd07655e095dd9b05aa9",
    "7/eval-fe61dee7.json": "cbfaad758f9e7b4b8b8b34630003e403168912934eb6a48a1dc2ace507f7ff9d",
    "7/eval_summary-fe61dee7.csv": "25d396a3b0e3f43a731949cf79636900d75078c72d8b33afa2e5d93a5e6cef57",
    "7/model-fe61dee7.json": "2a33ab8ba1a9e58060a3e97ea0c56662eef84f6be2122cd5d3b45feab7ed98a1",
    "7/stats-fe61dee7.json": "b59de31257ff6d925bea7a26e0b09e836c1bb9d3abe862091eefbf9549c3302c",
    "7/stats_cells-fe61dee7.csv": "907df9aa7ad6973f6310cfda3a5b8f22c242d1d0c0cf40a93a5d6dd6a3276314",
    "7/trigger_profile-fe61dee7.csv": "192a6252e2367144b473c4491da04ef3457ca22ddfd4ab541e03a782043bda55",
    "7/verify-fe61dee7.json": "f53467b88f0953cf1d24197bc0b82a7f91219ec90ee02091fe5302e5bb37ee20",
    "7/verify_eq2_sweep-fe61dee7.csv": "1b431a1aa8399efb3368257a799f47fb0c8a910a48922e5fcec58ac0d5d16688",
    "7/verify_normalization-fe61dee7.csv": "eab6c4366c41027cff4ed10d076d137c741d2eefd7f0015fb9780883191f9705",
    "7/verify_simpson-fe61dee7.csv": "b81e31a7a93f35964dd9079aaf949fe48dc7b7ce215d787b8b63c4f26901014b",
    "7/verify_temporal-fe61dee7.csv": "346d4b1337f13aa6d2087e42f50d43714ded5b5d55119916e7bfb8c29cac7ee6",
    "7/verify_transforms-fe61dee7.csv": "9b25d874a7d7a8c4889565ed32e794fe988619158f117d9475e9304e5f8082f0",
    "201/dataset-8d270fc8.jsonl": "df5f1913fbdd93e409f0b9115aa2dd8fdf8a0c950027c73a23df1c5423270100",
    "201/eval-8d270fc8.json": "02259ceed8d104911e41763103df78aea7744f83986085ce05fd6b819fc54120",
    "201/eval_summary-8d270fc8.csv": "dab3b80cfe6abbb091516e61b2e028789fddc552510e9c01d85bd680fabca70d",
    "201/model-8d270fc8.json": "a2cd732e8d45ee5a114ade1ef51a7bc49a264eb018605f5250ab77fd71b577a6",
    "201/stats-8d270fc8.json": "56afa3af9ffe78055c8a1a08cb279d9f9290151cabda4b87651d7f1479904744",
    "201/stats_cells-8d270fc8.csv": "a5a0881e2eabc3e8974960abc5e690f39d985c3d9cc77926c5e4b9953bc475eb",
    "201/trigger_profile-8d270fc8.csv": "55bc17125e95ec6643667b6f8cf09794afea195fda2f405fda1b934bc963c515",
    "201/verify-8d270fc8.json": "5150d47acba3b99d7b5bdd430fb218279f8bcddd20be83fb1815a8ed8361d182",
    "201/verify_eq2_sweep-8d270fc8.csv": "f4b71f1ae86e87ad4d29f43825bcaa2b2e8b5c3a324dc0e30977709609494ba1",
    "201/verify_normalization-8d270fc8.csv": "92183a5b7bf5e10fc0e89aab92c80e904cf57faa8cae9be500ba6aa1d193285a",
    "201/verify_simpson-8d270fc8.csv": "156abd60dcd492bec605f0d666c62f54fce2aa77bdbb7d19b290f766b6418a45",
    "201/verify_temporal-8d270fc8.csv": "0f87098883db734964f456f9233b81a138dee50ea9e97d6246ada92aef1cd61f",
    "201/verify_transforms-8d270fc8.csv": "b963a7ccb9ed91f5fa08bdcfa7110afc83711d185b24ba5b7e631d9c58c96103",
}


def test_demo_artifacts_keep_their_bytes(tmp_path):
    digests = {}
    for seed in (42, 7, 201):
        out = tmp_path / str(seed)
        config = load_config(str(DEMO_CONFIG), seed_override=seed, out_override=str(out))
        dataset = cmd_explore(config)
        model = cmd_fit(config, dataset)
        cmd_eval(config, model)
        cmd_stats(config, dataset)
        cmd_verify(config)
        for path in sorted(out.rglob("*")):
            if path.is_file():
                digests[f"{seed}/{path.relative_to(out)}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == DEMO_GOLDEN_SHA256
