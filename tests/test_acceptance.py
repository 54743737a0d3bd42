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
    temporal_split,
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
    early, late = (spearman(xs, ys) for xs, ys in temporal_split(ds.records))
    delta = late.rho - early.rho
    assert early.n >= 2000 and late.n >= 2000
    assert delta <= -0.1, (early.rho, late.rho)

    stationary = TwoSourceParams(p_i0=0.4, p_i_slope=0.0, noise_sd=0.35, fidelity_q=1.0, horizon=10)
    ds_control = run_exploration(TwoSourceEnv(stationary), eps=1.0, n_episodes=450, seed=108)
    early_control, late_control = (spearman(xs, ys) for xs, ys in temporal_split(ds_control.records))
    delta_control = late_control.rho - early_control.rho
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
        for _ in range(4):
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
    "dataset-9a69751b.jsonl": "8e9def70bcf8e69c8423c4b25d7e447ab7c91ea3ee800fa61d4d06c6f05fe4f9",
    "eval-9a69751b.json": "929dda281894191e4ebc8242cccf5e621e12405c7e1b3c4624077ad7914a9090",
    "eval_summary-9a69751b.csv": "763561f745140aa464bb6c72affb9b884c152feaf7ff2b3c1a267b53f2cd097d",
    "model-9a69751b.json": "da1b9b2967dce0f26a69b849dfa1f1c3d076da02e9e963019cfaab848a55e7fe",
    "stats-9a69751b.json": "b580c5b6c00f0902174421495459d415e5478f55178ee54759901835258b7712",
    "stats_cells-9a69751b.csv": "e71e0f02eb0db79489815255e36e3d986ded7380c47dc300c5573b9b36fea6bc",
    "trigger_profile-9a69751b.csv": "346dafbec72ce4fe36d7fbc22dd764b82a28564b7c98d5a57f619db0180426a3",
    "verify-9a69751b.json": "9efab82081305997942c9cba5f7a6dc51a1f66e96b09bb1f25c5a6fbfa9c7bbe",
    "verify_eq2_sweep-9a69751b.csv": "d1bd5831dbfaa5bd8a16656ad7341b09e20ebe538b31b028013737729435e8c6",
    "verify_normalization-9a69751b.csv": "059db0a6367a677f30ea3c9c6d183d3781be53600f12f4c1eb230beaaa8c0b47",
    "verify_simpson-9a69751b.csv": "08a37f3657f714bbc46c50af79ace2afc0598c91bf608162e08706f0676e9cd2",
    "verify_temporal-9a69751b.csv": "1442a9fee61f3a7f31bbd2dbf7ba291662a098f6d5e8636c3b7d1fdca2ff8163",
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
    "42/dataset-2559fb27.jsonl": "d8a1eea970c7d9c1f80cbad60ad1ada42780ae6abe52d606aaf05134c25b367a",
    "42/eval-2559fb27.json": "8e09cb64035b8268ae1cc36f7687d3d1c37c2c01a5807b7cb3297f2312f6d8ba",
    "42/eval_summary-2559fb27.csv": "51023362819b4ae2c0a52806d6e1a01b260ecd094fbbad0c5da7defde93919ae",
    "42/model-2559fb27.json": "839d05155421901df41cd0f9c38abb9404a003061775243b843f70c8bbc01a76",
    "42/stats-2559fb27.json": "a99d2d27c6212faca4d89967bf9bbd1d70140a0ccc2deb19034ffd7b4e6db916",
    "42/stats_cells-2559fb27.csv": "58bfafe263a88a08e0727a87b71651d90e84023ae0fc12800af3ca826989f5f5",
    "42/trigger_profile-2559fb27.csv": "7e9d00fb72719800eed2d88ebd4bb1add9307a36247518d60e3b1d54f459ec6a",
    "42/verify-2559fb27.json": "7022312024724b0281f19520e67c75cb579c15cbc5fe76dfd4197988eb48bac3",
    "42/verify_eq2_sweep-2559fb27.csv": "6eb0e5f92328853a96d5f23323337b34573997cb5cb8b4f26302f5faed7ed03e",
    "42/verify_normalization-2559fb27.csv": "a801bfd226886013b9a4486136f237b0290cbd7af1f161809ecb1cc5111fd3fd",
    "42/verify_simpson-2559fb27.csv": "c33436fd776566a64949c5cd0d90f287323a0429fec10513bce28f3665cdced8",
    "42/verify_temporal-2559fb27.csv": "271edc49d6e2ebcd25c3b12042d3ac9fda9b143dec80f27c0591fa79e5b94b2b",
    "42/verify_transforms-2559fb27.csv": "83ce4e31808a33e952694ac9f4c1dd9867158ade7a9934c6763c8e6851939eb6",
    "7/dataset-fe61dee7.jsonl": "55842e59d91f4fef6048966bd68f3f3071f742bc94d9717cbaf688faf499f0d5",
    "7/eval-fe61dee7.json": "36c794829384b71aee3204465656fcb02b281351665f9f2e7337029984f16c6f",
    "7/eval_summary-fe61dee7.csv": "20b49e5306556d8f99832116073e1bea1ae171ff165f4fefffd641c37f45dec2",
    "7/model-fe61dee7.json": "c0ebf532fcae1d25257512d741067409bd9cbf7dabd08f1bb7cbf7e3b47b542f",
    "7/stats-fe61dee7.json": "050821920ebddb0f68125c7232e01c37e91197b530e3aafd00a902f500d54088",
    "7/stats_cells-fe61dee7.csv": "c7369442853623359d32e75d2ff502d245d66d8f5bbaf908c053640a38d2c4bf",
    "7/trigger_profile-fe61dee7.csv": "a8e0d4a0edc858220f90c641f6f5bfdafa25e5634749f14cc25e486852da939a",
    "7/verify-fe61dee7.json": "e358e9bba536a1515f84f526025e42808fc5d060bd9900348f29b836ff484065",
    "7/verify_eq2_sweep-fe61dee7.csv": "1b431a1aa8399efb3368257a799f47fb0c8a910a48922e5fcec58ac0d5d16688",
    "7/verify_normalization-fe61dee7.csv": "eab6c4366c41027cff4ed10d076d137c741d2eefd7f0015fb9780883191f9705",
    "7/verify_simpson-fe61dee7.csv": "b81e31a7a93f35964dd9079aaf949fe48dc7b7ce215d787b8b63c4f26901014b",
    "7/verify_temporal-fe61dee7.csv": "a9d219a81e2d59649414de040f43d767d61614e51c4f04c82ac6d8ed02cef2fa",
    "7/verify_transforms-fe61dee7.csv": "9b25d874a7d7a8c4889565ed32e794fe988619158f117d9475e9304e5f8082f0",
    "201/dataset-8d270fc8.jsonl": "7d3629100ac78107142b11eafb698b80bee13759c3852924835b0dbcfa2cac04",
    "201/eval-8d270fc8.json": "ee357a3f05e8a53168de8dd02f0d534ada87cac549c4768c1129eb334331e107",
    "201/eval_summary-8d270fc8.csv": "dbabfd5a3091375379328dd77ac88e084368a796a6982ad3a9e0957de9ee146b",
    "201/model-8d270fc8.json": "d295fa2bad1ff0be8ea453c1415df4e9d8aa8da0abea0e69a433693644c79f8d",
    "201/stats-8d270fc8.json": "4a626bc8ad88cc1c4fd9e6c10c7b7b15c430b968bec83e08ddc19c203762dffb",
    "201/stats_cells-8d270fc8.csv": "a57da0e2ee31f15a990f1f1c87c88b2265d3a942f2ffc55b027471ea2f0ee20e",
    "201/trigger_profile-8d270fc8.csv": "6301de72f624fe44fbad04659ef4a9343414233b47812a0b0e8a5fa9657a4654",
    "201/verify-8d270fc8.json": "32d3965122cd5d7b9d0b7dc9a2d8833385f640521f1381a9b84cb5f14ecd08df",
    "201/verify_eq2_sweep-8d270fc8.csv": "f4b71f1ae86e87ad4d29f43825bcaa2b2e8b5c3a324dc0e30977709609494ba1",
    "201/verify_normalization-8d270fc8.csv": "92183a5b7bf5e10fc0e89aab92c80e904cf57faa8cae9be500ba6aa1d193285a",
    "201/verify_simpson-8d270fc8.csv": "156abd60dcd492bec605f0d666c62f54fce2aa77bdbb7d19b290f766b6418a45",
    "201/verify_temporal-8d270fc8.csv": "93a759cd79470a3c62e589939273f971716e959225a1e2940499a914dd1415ce",
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
