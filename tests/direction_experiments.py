"""Direction experiments of the acceptance suite: explore and fit a gate
on an environment through the CLI's own dataset-to-gate path, the
signal strength a dataset shows, wrong-direction damage (C5) and the
Prop. 1 counterexample (C6).

Test harness, not toolkit API: ``dial.evaluate`` keeps the policies and
the deployment loop these experiments run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from dial.cli import _DEFAULT_CONFIG, fit_dataset
from dial.envs import Environment
from dial.evaluate import EvalError, PolicySpec, run_deployment, wilson_interval
from dial.explore import LabeledDataset, run_exploration
from dial.features import build_matrix
from dial.gate import GateModel
from dial.rng import derive_seed
from dial.stats import predicted_rho, spearman
from dial.twosource import TwoSourceEnv, TwoSourceParams


def explore_and_fit(
    env: Environment,
    seed: int,
    *,
    eps: float = 0.5,
    n_explore: int = 50,
    proposal_client: Optional[Any] = None,
) -> Tuple[GateModel, LabeledDataset]:
    """Explore, then fit with the CLI's default gate section: the gate a
    ``dial fit`` of the same dataset and seed writes."""
    dataset = run_exploration(env, eps=eps, n_episodes=n_explore, seed=derive_seed(seed, "explore"))
    return fit_dataset(dataset, _DEFAULT_CONFIG["gate"], proposal_client, seed), dataset


def strongest_signal(dataset: LabeledDataset, specs: Sequence) -> Tuple[str, float]:
    """Feature with the largest |Spearman| against the utility label."""
    X, y = build_matrix(dataset.records, specs)
    if len(y) < 3:
        raise EvalError("not enough labeled rows to measure signal strength")
    best_name, best_abs = "", 0.0
    for j, name in enumerate(s.name for s in specs):
        report = spearman(X[:, j], y)
        if not report.degenerate and abs(report.rho) > best_abs:
            best_name, best_abs = name, abs(report.rho)
    return best_name, best_abs


# -- direction experiments ---------------------------------------------------------


@dataclass(frozen=True)
class WrongDirectionRow:
    rho_star: float
    dominant_signal: str
    sr_dial: float
    sr_reversed: float
    delta_sr: float
    trigger_rate_dial: float


@dataclass(frozen=True)
class WrongDirectionReport:
    rows: Tuple[WrongDirectionRow, ...]  # sorted by rho_star ascending
    monotone: bool  # delta_sr weakly decreasing in rho_star


def wrong_direction_experiment(
    envs: Sequence[TwoSourceParams],
    seed: int,
    *,
    n_explore: int = 100,
    n_eval: int = 500,
) -> WrongDirectionReport:
    """Fit a gate per environment, evaluate it and its weight-reversed
    copy on shared seeds, and relate the damage to signal strength."""
    if len(envs) < 3:
        raise EvalError("need at least 3 signal strengths")
    rows: List[WrongDirectionRow] = []
    for idx, params in enumerate(envs):
        env = TwoSourceEnv(params, env_id=f"twosource[{idx}]")
        env_seed = derive_seed(seed, "wrong-direction", idx)
        model, dataset = explore_and_fit(env, env_seed, n_explore=n_explore)
        name, rho_star = strongest_signal(dataset, model.feature_specs)
        eval_seed = derive_seed(env_seed, "eval")
        dial, rev = run_deployment(
            env, [PolicySpec("dial", model=model), PolicySpec("reversed_dial", model=model)], n_eval, eval_seed
        )
        rows.append(
            WrongDirectionRow(
                rho_star=rho_star,
                dominant_signal=name,
                sr_dial=dial.sr,
                sr_reversed=rev.sr,
                delta_sr=rev.sr - dial.sr,
                trigger_rate_dial=dial.trigger_rate,
            )
        )
    rows.sort(key=lambda r: r.rho_star)
    monotone = all(rows[i + 1].delta_sr <= rows[i].delta_sr for i in range(len(rows) - 1))
    return WrongDirectionReport(rows=tuple(rows), monotone=monotone)


@dataclass(frozen=True)
class GatePassRecord:
    direction: int
    threshold: float
    sr_a: float
    sr_b: float
    passes_a: bool
    passes_b: bool


@dataclass(frozen=True)
class CounterexampleVerdict:
    base_sr: Tuple[float, float]
    sigma_gates: Tuple[GatePassRecord, ...]
    any_sigma_passes_both: bool
    dial_sr: Tuple[float, float]
    dial_passes_both: bool


def _passes(sr: float, n: int, base_sr: float) -> bool:
    """CI-aware pass rule: the 95% binomial lower bound must reach the
    base success rate minus one point."""
    low, _ = wilson_interval(round(sr * n), n)
    return low >= base_sr - 0.01


def prop1_counterexample(
    env_pair: Tuple[TwoSourceParams, TwoSourceParams],
    threshold_grid: Optional[Sequence[float]] = None,
    seed: int = 0,
    *,
    n_eval: int = 500,
    n_explore: int = 100,
) -> CounterexampleVerdict:
    """Exhaustively evaluate signal-only threshold gates on a mixture
    pair straddling the direction crossing, against the multi-feature
    gate fitted per environment.

    A policy "passes" an environment when its SR interval lower bound
    reaches that environment's base SR minus 1 point.
    """
    params_a, params_b = env_pair
    crossing_a, crossing_b = (predicted_rho(p.alpha, p.beta, p.p_i0).crossing for p in env_pair)
    if not params_a.p_i0 < crossing_a:
        raise EvalError(
            f"first environment must be decision-dominated: p_i0={params_a.p_i0} "
            f">= crossing {crossing_a:.3f}"
        )
    if not params_b.p_i0 > crossing_b:
        raise EvalError(
            f"second environment must be unsuitable-dominated: p_i0={params_b.p_i0} "
            f"<= crossing {crossing_b:.3f}"
        )
    grid = np.linspace(0.0, 1.0, 41) if threshold_grid is None else np.asarray(threshold_grid, dtype=float)
    if grid.size < 1:
        raise EvalError("threshold grid is empty")

    env_a = TwoSourceEnv(params_a, env_id="twosource[A]")
    env_b = TwoSourceEnv(params_b, env_id="twosource[B]")
    eval_seed_a = derive_seed(seed, "prop1-eval", 0)
    eval_seed_b = derive_seed(seed, "prop1-eval", 1)

    specs = [
        PolicySpec("fixed_threshold", signal="signal", direction=direction, threshold=float(theta))
        for direction in (1, -1)
        for theta in grid
    ]
    deployed = []  # per environment: the base policy, every threshold gate, then the fitted gate
    for env, eval_seed in ((env_a, eval_seed_a), (env_b, eval_seed_b)):
        model, _ = explore_and_fit(env, derive_seed(seed, f"prop1-fit-{env.env_id}"), n_explore=n_explore)
        policies = [PolicySpec("base_only"), *specs, PolicySpec("dial", model=model)]
        deployed.append(run_deployment(env, policies, n_eval, eval_seed))
    (base_a, *res_a, dial_a), (base_b, *res_b, dial_b) = deployed

    gates = [
        GatePassRecord(
            direction=spec.direction,
            threshold=spec.threshold,
            sr_a=a.sr,
            sr_b=b.sr,
            passes_a=_passes(a.sr, n_eval, base_a.sr),
            passes_b=_passes(b.sr, n_eval, base_b.sr),
        )
        for spec, a, b in zip(specs, res_a, res_b)
    ]

    return CounterexampleVerdict(
        base_sr=(base_a.sr, base_b.sr),
        sigma_gates=tuple(gates),
        any_sigma_passes_both=any(g.passes_a and g.passes_b for g in gates),
        dial_sr=(dial_a.sr, dial_b.sr),
        dial_passes_both=_passes(dial_a.sr, n_eval, base_a.sr) and _passes(dial_b.sr, n_eval, base_b.sr),
    )
