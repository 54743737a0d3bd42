"""Command-line front-end tying the pipeline together.

Subcommands map to pipeline phases: explore (collect the labeled
dataset), fit (build the gate), eval (deploy policies), stats (dataset
reports), verify (two-source verification bundle), sweep (grid of runs
over one config axis). Every output embeds the effective config digest,
its input's digest, the seed, and the tool version; inputs are never
mutated and outputs are write-once. Re-running a subcommand with
identical inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .explore import (
    DEFAULT_EPS_EXPLORE,
    DEFAULT_K_CANDIDATES,
    DEFAULT_N_EXPLORE,
    DEFAULT_N_ROLLOUTS,
    DEFAULT_ROLLOUT_HORIZON,
    LabeledDataset,
    dataset_summary,
    dataset_to_jsonl,
    load_dataset_jsonl,
    run_exploration,
)
from .features import (
    PROPOSAL_MODES,
    ProposalProvider,
    ProviderError,
    build_matrix,
    build_pool,
    proposal_client,
)
from .dsl import finite_number
from .files import strict_json, write_once
from .gate import (
    DEFAULT_C_GRID,
    DEFAULT_FOLDS,
    DEFAULT_MI_BINS,
    DEFAULT_MI_K,
    DEFAULT_TAU,
    REGULARIZERS,
    GateError,
    GateModel,
    SingleClassError,
    finite_reciprocal,
    fit_gate,
    load_model_json,
    model_to_dict,
)
from .evaluate import EvalError, PolicySpec, run_deployment
from .rng import derive_seed
from .stats import (
    REPORT_COLUMNS,
    CellKey,
    StatsError,
    pearson,
    predicted_rho,
    quantile_normalize,
    report_row,
    simpson_decomposition,
    spearman,
    temporal_split,
    transform_suite,
)
from .twosource import OBSERVATION_FIELDS, InvalidParams, TwoSourceEnv, TwoSourceParams, sample_states

EQ2_SWEEP_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
EQ2_SWEEP_N = 5000
VERIFY_TEMPORAL_EPISODES = 240
# Canonical drift diagnostic: binary labels expose within-type gradients
# only when the latent noise is comparable to the slope range, so the
# temporal check runs on a dedicated variant rather than the raw config.
VERIFY_TEMPORAL_P0 = 0.1
VERIFY_TEMPORAL_SLOPE = 0.08
VERIFY_TEMPORAL_MIN_NOISE = 0.35
VERIFY_STATIONARY_P0 = 0.4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    raw: Dict[str, Any]
    env_params: TwoSourceParams
    seed: int
    output_dir: str

    @property
    def exploration(self) -> Dict[str, Any]:
        return self.raw["exploration"]

    @property
    def gate(self) -> Dict[str, Any]:
        return self.raw["gate"]

    @property
    def eval(self) -> Dict[str, Any]:
        return self.raw["eval"]

    def digest(self) -> str:
        """Digest of the run content: the config minus its output
        placement, so identical runs match wherever they are written."""
        content = {k: v for k, v in self.raw.items() if k != "output_dir"}
        canonical = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()

    def short_digest(self) -> str:
        return self.digest()[:8]


_DEFAULT_CONFIG: Dict[str, Any] = {
    "environment": {},
    "exploration": {
        "eps": DEFAULT_EPS_EXPLORE,
        "n_episodes": DEFAULT_N_EXPLORE,
        "k_candidates": DEFAULT_K_CANDIDATES,
        "n_rollouts": DEFAULT_N_ROLLOUTS,
        "horizon_h": DEFAULT_ROLLOUT_HORIZON,
    },
    "gate": {
        "regularizer": "l1",
        "c_grid": list(DEFAULT_C_GRID),
        "folds": DEFAULT_FOLDS,
        "tau": DEFAULT_TAU,
        "llm_features": "mock",
        "mi_k": DEFAULT_MI_K,
        "mi_bins": DEFAULT_MI_BINS,
    },
    "eval": {
        "policies": ["base_only", "always_trigger", "dial", "reversed_dial"],
        "n_episodes": 500,
    },
    "seed": 0,
    "output_dir": "runs/out",
}
# The accepted keys are the defaults' keys plus the environment parameters.
_SECTION_KEYS = {name: set(section) for name, section in _DEFAULT_CONFIG.items() if isinstance(section, dict)}
_SECTION_KEYS["environment"] |= {f.name for f in fields(TwoSourceParams)}


def _check_keys(section: str, payload: Dict[str, Any]) -> None:
    unknown = sorted(set(payload) - _SECTION_KEYS[section])
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}: unknown key")


def load_config(path: str, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> RunConfig:
    """Read the JSON config at ``path`` and check it (``_config_from_dict``);
    a file that cannot be read or is not JSON is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config {path}: cannot be read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config {path}: not valid JSON ({exc})") from exc
    return _config_from_dict(user, seed_override, out_override)


def _config_from_dict(user: Any, seed_override: Optional[int] = None,
                      out_override: Optional[str] = None) -> RunConfig:
    """Merge a parsed config with the defaults, and validate every section
    before any work starts. Unknown keys are errors, not warnings."""
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    unknown_top = sorted(set(user) - set(_DEFAULT_CONFIG))
    if unknown_top:
        raise ConfigError(f"{unknown_top[0]}: unknown key")

    merged = copy.deepcopy(_DEFAULT_CONFIG)
    for section in ("environment", "exploration", "gate", "eval"):
        payload = user.get(section, {})
        if not isinstance(payload, dict):
            raise ConfigError(f"{section}: must be an object")
        _check_keys(section, payload)
        merged[section].update(payload)
    merged["seed"] = user.get("seed", merged["seed"]) if seed_override is None else int(seed_override)
    if type(merged["seed"]) is not int:  # a bool is not one
        raise ConfigError(f"seed: must be an integer, got {merged['seed']!r}")
    merged["output_dir"] = user.get("output_dir", merged["output_dir"]) if out_override is None else out_override
    if not (isinstance(merged["output_dir"], str) and merged["output_dir"]):
        raise ConfigError(f"output_dir: must be a non-empty string, got {merged['output_dir']!r}")

    try:
        env_params = TwoSourceParams(**merged["environment"])
    except InvalidParams as exc:  # its message starts with the field's name
        raise ConfigError(f"environment.{exc}") from exc

    eps = merged["exploration"]["eps"]
    if not (finite_number(eps) and 0.0 <= eps <= 1.0):
        raise ConfigError(f"exploration.eps: must be a number in [0, 1], got {eps!r}")
    for section, key, low in (
        ("exploration", "n_episodes", 1),
        ("exploration", "k_candidates", 2),
        ("exploration", "n_rollouts", 1),
        ("exploration", "horizon_h", 1),
        ("gate", "folds", 2),
        ("gate", "mi_k", 1),
        ("gate", "mi_bins", 2),
        ("eval", "n_episodes", 1),
    ):
        value = merged[section][key]
        if not (type(value) is int and value >= low):
            raise ConfigError(f"{section}.{key}: must be an integer >= {low}, got {value!r}")
    gate_cfg = merged["gate"]
    c_grid = gate_cfg["c_grid"]
    if not (isinstance(c_grid, list) and c_grid and all(finite_number(c) and c > 0 for c in c_grid)):
        raise ConfigError(f"gate.c_grid: must be a non-empty list of positive finite values, got {c_grid!r}")
    unusable = [c for c in c_grid if not finite_reciprocal(c)]  # the solver weighs its penalty by 1/C
    if unusable:
        raise ConfigError(f"gate.c_grid: value {unusable[0]!r} has no finite reciprocal")
    repeated = [c for i, c in enumerate(c_grid) if c in c_grid[:i]]  # 1 == 1.0; CV would score a repeat twice
    if repeated:
        raise ConfigError(f"gate.c_grid: duplicate value {repeated[0]!r}")
    if gate_cfg["regularizer"] not in REGULARIZERS:
        raise ConfigError(f"gate.regularizer: unknown value {gate_cfg['regularizer']!r}")
    tau = gate_cfg["tau"]
    if not (finite_number(tau) and 0.0 < tau < 1.0):
        raise ConfigError(f"gate.tau: must be a probability in (0, 1), got {tau!r}")
    if gate_cfg["llm_features"] not in PROPOSAL_MODES:
        raise ConfigError(f"gate.llm_features: unknown value {gate_cfg['llm_features']!r}")
    policies = merged["eval"]["policies"]
    if not isinstance(policies, list):
        raise ConfigError(f"eval.policies: must be a list of policies, got {policies!r}")
    names = set()
    for index, spec in enumerate(policies):
        policy = _parse_policy(index, spec, model=None)
        name = spec if policy is None else policy.name()  # a gate policy is named by its kind
        if name in names:  # the eval reports key their rows by policy name
            raise ConfigError(f"eval.policies[{index}]: duplicate policy {name!r}")
        names.add(name)

    return RunConfig(
        raw=merged,
        env_params=env_params,
        seed=merged["seed"],
        output_dir=merged["output_dir"],
    )


def _parse_policy(index: int, spec: Any, model: Optional[GateModel]) -> Optional[PolicySpec]:
    """Entry ``index`` of ``eval.policies``; a gate policy is None until
    a model is given."""
    entry = f"eval.policies[{index}]"
    if isinstance(spec, str):
        if spec in ("base_only", "always_trigger"):
            return PolicySpec(spec)
        if spec in ("dial", "reversed_dial"):
            return None if model is None else PolicySpec(spec, model=model)
        raise ConfigError(f"{entry}: unknown policy {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(f"{entry}: unsupported entry {spec!r}")
    if spec.get("kind") != "fixed_threshold":
        raise ConfigError(f"{entry}: unknown policy object {spec!r}")
    extra = set(spec) - {"kind", "signal", "direction", "threshold"}
    if extra:
        raise ConfigError(f"{entry}.{sorted(extra)[0]}: unknown key")
    try:
        policy = PolicySpec("fixed_threshold", signal=spec.get("signal", "signal"),
                            direction=spec.get("direction", 1), threshold=spec.get("threshold", 0.5))
    except EvalError as exc:  # its message starts with the field's name
        raise ConfigError(f"{entry}.{exc}") from exc
    if policy.signal not in OBSERVATION_FIELDS:  # else eval would fault at its first step
        raise ConfigError(f"{entry}.signal: must be an observation field, one of "
                          f"{', '.join(OBSERVATION_FIELDS)}; got {policy.signal!r}")
    return policy


# -- output discipline ---------------------------------------------------------


def save_dataset_jsonl(dataset: LabeledDataset, path: str) -> None:
    write_once(path, dataset_to_jsonl(dataset))


def save_model_json(model: GateModel, path: str) -> None:
    write_once(path, strict_json(model_to_dict(model)))


def write_report_json(path: str, payload: Any) -> None:
    write_once(path, strict_json(payload))


def write_report_csv(path: str, rows: Sequence[Dict[str, Any]], columns: Sequence[str]) -> None:
    """One CSV row per dict, in ``columns`` order (the csv module's
    default dialect, so lines end in CRLF)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    write_once(path, buffer.getvalue())


def _out(config: RunConfig, kind: str, ext: str) -> str:
    return os.path.join(config.output_dir, f"{kind}-{config.short_digest()}.{ext}")


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _provenance(config: RunConfig, input_digest: Optional[str]) -> Dict[str, Any]:
    return {
        "config_digest": config.digest(),
        "input_digest": input_digest,
        "seed": config.seed,
        "tool_version": __version__,
    }


def _load_input(kind: str, load: Callable[[str], Any], path: str, config: RunConfig) -> Any:
    """``load(path)``, refused with a ConfigError, as a config file is,
    when it cannot be opened, the loader refuses it (any ValueError) or
    its embedded config digest is not ``config``'s."""
    try:
        loaded = load(path)
    except OSError as exc:
        raise ConfigError(f"{kind} {path}: cannot be read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # JSONDecodeError, GateError, DslError, a bad dataset line
        raise ConfigError(f"{kind} {path}: not a valid {kind} ({exc})") from exc
    embedded = loaded.meta.get("config_digest")
    if embedded != config.digest():
        raise ConfigError(
            f"{kind} was produced under config digest {str(embedded)[:12]}..., "
            f"current config digest is {config.digest()[:12]}...; refusing to proceed"
        )
    return loaded


# -- subcommands ------------------------------------------------------------------


def _explore(config: RunConfig, params: TwoSourceParams, eps: float, n_episodes: int, seed: int) -> LabeledDataset:
    """An exploration of the two-source environment on ``params``, labeled
    with the config's k, n and h."""
    expl = config.exploration
    return run_exploration(
        TwoSourceEnv(params), eps=eps, n_episodes=n_episodes, seed=seed,
        k_candidates=int(expl["k_candidates"]), n_rollouts=int(expl["n_rollouts"]), horizon_h=int(expl["horizon_h"]),
    )


def cmd_explore(config: RunConfig) -> str:
    expl = config.exploration
    dataset = _explore(config, config.env_params, float(expl["eps"]), int(expl["n_episodes"]),
                       derive_seed(config.seed, "explore"))
    dataset.meta.update(_provenance(config, input_digest=None))  # its seed is the run's, not the stream's
    path = _out(config, "dataset", "jsonl")
    save_dataset_jsonl(dataset, path)
    return path


def fit_dataset(
    dataset: LabeledDataset, gate: Dict[str, Any], client: Optional[ProposalProvider], seed: int
) -> GateModel:
    """The one path from a labeled dataset to a gate: the client's five
    proposals (none without a client), the pool, the matrix, and
    ``fit_gate`` with every setting of a config's ``gate`` section, on the
    run's ``"fit"`` seed. A dataset the gate cannot be fit from (no
    labeled rows, too few of them, or one class only) is a ConfigError
    that says why."""
    if not dataset.labeled():
        raise ConfigError(
            "dataset has no labeled rows; re-run the explore step with exploration.eps > 0"
        )
    specs = build_pool(() if client is None else client.propose(dataset_summary(dataset)))
    X, y = build_matrix(dataset.records, specs)
    try:
        return fit_gate(
            X, y, specs,
            regularizer=gate["regularizer"],
            c_grid=tuple(float(c) for c in gate["c_grid"]),
            folds=int(gate["folds"]),
            seed=derive_seed(seed, "fit"),
            tau=gate["tau"],
            mi_k=int(gate["mi_k"]),
            mi_bins=int(gate["mi_bins"]),
        )
    except (GateError, SingleClassError) as exc:
        raise ConfigError(f"a gate cannot be fit from this dataset: {exc}") from exc


def cmd_fit(config: RunConfig, dataset_path: str) -> str:
    dataset = _load_input("dataset", load_dataset_jsonl, dataset_path, config)
    client = proposal_client(config.gate["llm_features"], os.path.join(config.output_dir, "proposal_cache"))
    model = fit_dataset(dataset, config.gate, client, config.seed)
    # Provenance last: its seed is the run's, not fit_gate's derived one.
    model = replace(model, meta={**model.meta, **_provenance(config, _file_digest(dataset_path))})
    path = _out(config, "model", "json")
    save_model_json(model, path)
    return path


def cmd_eval(config: RunConfig, model_path: str) -> Dict[str, str]:
    model = _load_input("model", load_model_json, model_path, config)
    env = TwoSourceEnv(config.env_params)
    n_episodes = int(config.eval["n_episodes"])
    eval_seed = derive_seed(config.seed, "eval")

    policies = [_parse_policy(index, raw_spec, model) for index, raw_spec in enumerate(config.eval["policies"])]
    results = run_deployment(env, policies, n_episodes, eval_seed)

    paths = {"json": _out(config, "eval", "json"), "summary": _out(config, "eval_summary", "csv"),
             "profile": _out(config, "trigger_profile", "csv")}
    write_report_json(paths["json"], {"provenance": _provenance(config, _file_digest(model_path)), "results": results})
    summary = [
        {"policy": r.policy, "env": r.env, "SR": f"{r.sr:.6f}",
         "cost_x_base": f"{r.cost_x_base:.6f}", "trigger_rate": f"{r.trigger_rate:.6f}"}
        for r in results
    ]
    write_report_csv(paths["summary"], summary, ("policy", "env", "SR", "cost_x_base", "trigger_rate"))
    profile = [
        {"policy": r.policy, "step": p.step, "trigger_rate": f"{p.rate:.6f}",
         "ci_low": f"{p.ci_low:.6f}", "ci_high": f"{p.ci_high:.6f}", "n": p.n}
        for r in results
        for p in r.per_step_trigger
    ]
    write_report_csv(paths["profile"], profile, ("policy", "step", "trigger_rate", "ci_low", "ci_high", "n"))
    return paths


def cmd_stats(config: RunConfig, dataset_path: str) -> Dict[str, str]:
    """Correlation reports for a dataset. A dataset the stats layer
    refuses (negative signals, which the transforms refuse, say) is a
    ConfigError naming it, and nothing is written."""
    dataset = _load_input("dataset", load_dataset_jsonl, dataset_path, config)
    try:
        payload, rows = _stats_tables(dataset, derive_seed(config.seed, "stats-boot"))
    except StatsError as exc:
        raise ConfigError(f"dataset {dataset_path}: no correlation report can be made ({exc})") from exc
    payload["provenance"] = _provenance(config, _file_digest(dataset_path))
    paths = {"json": _out(config, "stats", "json"), "cells": _out(config, "stats_cells", "csv")}
    write_report_json(paths["json"], payload)
    write_report_csv(paths["cells"], rows, REPORT_COLUMNS)
    return paths


def _stats_tables(dataset: LabeledDataset, boot_seed: int) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """The stats report of a dataset, and its cells' rows; the temporal
    and Simpson sections record why they were skipped, when they are."""
    labeled = dataset.labeled()
    if len(labeled) < 6:
        raise ConfigError("dataset has too few labeled rows for correlation reports")
    sig = [r.signal for r in labeled]
    lab = [float(r.utility_label) for r in labeled]
    rows = [report_row("all", spearman(sig, lab, ci=True, seed=boot_seed), pearson(sig, lab))]
    temporal: Dict[str, Any]
    try:
        buckets = temporal_split(dataset.records)
    except StatsError as exc:  # e.g. single-step datasets have no late bucket
        temporal = {"skipped": str(exc)}
    else:
        temporal = {}
        for tag, (xs, ys) in zip(("early", "late"), buckets):
            temporal[tag] = spearman(xs, ys)
            rows.append(report_row(tag, temporal[tag], pearson(xs, ys)))
        temporal["delta"] = float(temporal["late"].rho - temporal["early"].rho)

    transforms = transform_suite(sig, lab)
    rows.extend({"group": f"transform:{row['transform']}", "n": len(sig),
                 "spearman": row["spearman"], "pearson": row["pearson"]} for row in transforms)

    payload: Dict[str, Any] = {
        "overall": rows[0],
        "temporal": temporal,
        "transforms": transforms,
    }
    debug = [
        r for r in dataset.records
        if r.latent_type_debug is not None and r.true_utility_debug is not None
    ]
    try:
        if not debug:
            raise StatsError("records carry no latent-type debug fields (not simulator data?)")
        payload["simpson"] = simpson_decomposition(
            [r.signal for r in debug],
            [r.latent_type_debug == "D" for r in debug],
            [r.true_utility_debug for r in debug],
        )
    except StatsError as exc:
        payload["simpson"] = {"skipped": str(exc)}
    return payload, rows


def cmd_verify(config: RunConfig) -> Dict[str, str]:
    """Two-source verification bundle: direction-vs-mixture sweep,
    within-type decomposition, temporal drift, monotone-transform and
    quantile-normalization invariance. An environment the stats layer
    refuses (a one-step horizon leaves the temporal check no late bucket,
    say) is a ConfigError, and nothing is written."""
    try:
        tables = _verify_tables(config)
    except StatsError as exc:
        raise ConfigError(f"the verification bundle cannot be made for this environment: {exc}") from exc
    paths = {"json": _out(config, "verify", "json")}
    write_report_json(paths["json"], {"provenance": _provenance(config, input_digest=None), **tables})
    for name, rows in tables.items():
        paths[name] = _out(config, f"verify_{name}", "csv")
        write_report_csv(paths[name], rows, list(rows[0]))
    return paths


def _verify_tables(config: RunConfig) -> Dict[str, List[Dict[str, Any]]]:
    """The verification bundle's tables, by name."""
    params = config.env_params
    verify_seed = derive_seed(config.seed, "verify")

    def states(name: str, i: int, p: float, n: int) -> Dict[str, np.ndarray]:
        """``n`` states at the stationary mixture ``p``, on the verify
        seed's ``(name, i)`` stream."""
        return sample_states(replace(params, p_i0=p, p_i_slope=0.0), n, derive_seed(verify_seed, name, i))

    sweep_rows = []
    for i, p in enumerate(EQ2_SWEEP_POINTS):
        sample = states("eq2", i, p, EQ2_SWEEP_N)
        rho = spearman(sample["signal"], sample["true_utility"])
        prediction = predicted_rho(params.alpha, params.beta, p)
        if abs(prediction.value) >= 0.1:
            sign_ok = np.sign(rho.rho) == np.sign(prediction.value)
        else:
            sign_ok = abs(rho.rho) < 0.1
        sweep_rows.append(
            {
                "p_i0": p,
                "predicted": prediction.value,
                "crossing": prediction.crossing,
                "empirical_spearman": rho.rho,
                "n": rho.n,
                "sign_match": bool(sign_ok),
            }
        )

    simpson_rows = []
    for i, p in enumerate((0.8, 0.2)):
        sample = states("simpson", i, p, EQ2_SWEEP_N)
        rep = simpson_decomposition(sample["signal"], sample["is_type_d"], sample["true_utility"])
        simpson_rows.append(
            {
                "p_i0": p,
                "within_i": rep.within_i.rho,
                "within_d": rep.within_d.rho,
                "aggregate": rep.aggregate.rho,
            }
        )

    noise = max(params.noise_sd, VERIFY_TEMPORAL_MIN_NOISE)
    drifting = replace(
        params, p_i0=VERIFY_TEMPORAL_P0, p_i_slope=VERIFY_TEMPORAL_SLOPE, noise_sd=noise
    )
    stationary = replace(params, p_i0=VERIFY_STATIONARY_P0, p_i_slope=0.0, noise_sd=noise)
    temporal_rows = []
    for tag, point in (("drifting", drifting), ("stationary", stationary)):
        ds = _explore(config, point, 1.0, VERIFY_TEMPORAL_EPISODES, derive_seed(verify_seed, f"temporal-{tag}"))
        early, late = (spearman(xs, ys) for xs, ys in temporal_split(ds.records))
        temporal_rows.append(
            {"env": tag, "early_rho": early.rho, "late_rho": late.rho, "delta": float(late.rho - early.rho),
             "n_early": early.n, "n_late": late.n}
        )

    sample = sample_states(params, EQ2_SWEEP_N, derive_seed(verify_seed, "transforms"))
    transform_rows = transform_suite(sample["signal"], sample["true_utility"])

    cells = [states("norm", i, p, 600) for i, p in enumerate((0.2, 0.5, 0.8))]
    cell_values = np.concatenate([cell["signal"] for cell in cells])
    cell_keys = [CellKey(f"cell{i}", "default") for i, cell in enumerate(cells) for _ in cell["signal"]]
    norm_rows = []
    for scheme in ("S1_per_cell", "S2_per_backbone", "S3_per_environment"):
        normalized = np.split(quantile_normalize(cell_values, cell_keys, scheme), len(cells))
        for i, (cell, values) in enumerate(zip(cells, normalized)):
            raw_rho = spearman(cell["signal"], cell["true_utility"]).rho
            norm_rho = spearman(values, cell["true_utility"]).rho
            norm_rows.append(
                {"scheme": scheme, "cell": f"cell{i}", "raw_spearman": raw_rho,
                 "normalized_spearman": norm_rho, "abs_diff": abs(raw_rho - norm_rho)}
            )

    return {
        "eq2_sweep": sweep_rows,
        "simpson": simpson_rows,
        "temporal": temporal_rows,
        "transforms": transform_rows,
        "normalization": norm_rows,
    }


def _axis_values(key_path: str, text: str) -> List[str]:
    """The values of a sweep axis: ``text`` split at each comma outside
    ``[...]`` and ``{...}``, so a list or object is one value, and each
    value stripped. An unbalanced bracket is refused."""
    values, depth, start = [], 0, 0
    for i, char in enumerate(text):
        depth += (char in "[{") - (char in "]}")
        if depth < 0:
            break
        if char == "," and depth == 0:
            values.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ConfigError(f"sweep axis {key_path}: unbalanced bracket in {text!r}")
    values.append(text[start:])
    return [v.strip() for v in values if v.strip()]


def cmd_sweep(config: RunConfig, axis: str) -> str:
    """Run explore -> fit -> eval for each value on one config axis,
    each run isolated in its own output directory. Every value's config
    is checked, and a repeated value refused, before the first run
    starts. A run's config.json leaves out ``output_dir``, so it reads
    the same wherever the sweep is."""
    try:
        key_path, values_text = axis.split("=", 1)
        section, key = key_path.split(".", 1)
    except ValueError as exc:
        raise ConfigError(f"bad sweep axis {axis!r}; expected section.key=v1,v2,...") from exc
    if section not in _SECTION_KEYS or key not in _SECTION_KEYS[section]:
        raise ConfigError(f"bad sweep axis: {section}.{key} is not a config key")
    values = _axis_values(f"{section}.{key}", values_text)
    if not values:
        raise ConfigError("sweep axis has no values")

    sweep_dir = os.path.join(config.output_dir, f"sweep_{section}.{key}")
    runs = []  # (value, its run's config, the config.json it writes)
    for value in values:
        try:
            parsed: Any = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        if any(parsed == earlier[section][key] for _, _, earlier in runs):  # 0.5 == 0.50
            raise ConfigError(f"sweep axis {section}.{key}: value {value} repeats an earlier value")
        raw = copy.deepcopy(config.raw)
        raw[section][key] = parsed
        del raw["output_dir"]
        try:
            runs.append((value, _config_from_dict(raw, out_override=os.path.join(sweep_dir, f"{key}={value}")), raw))
        except ConfigError as exc:
            raise ConfigError(f"sweep axis {section}.{key}={value}: {exc}") from exc

    summary_rows = []
    for value, sub_config, raw in runs:
        write_report_json(os.path.join(sub_config.output_dir, "config.json"), raw)
        dataset_path = cmd_explore(sub_config)
        model_path = cmd_fit(sub_config, dataset_path)
        outputs = cmd_eval(sub_config, model_path)
        with open(outputs["summary"], "r", encoding="utf-8") as fh:
            for row in list(csv.DictReader(fh)):
                row[f"{section}.{key}"] = value
                summary_rows.append(row)

    summary_path = os.path.join(sweep_dir, "sweep_summary.csv")
    columns = [f"{section}.{key}", "policy", "env", "SR", "cost_x_base", "trigger_rate"]
    write_report_csv(summary_path, summary_rows, columns)
    return summary_path


# -- entry point ---------------------------------------------------------------------


# Each subcommand's help, and its one input flag with that flag's help
# (None: no input flag). main calls the module's ``cmd_<name>`` with the
# config and the flag's value.
COMMANDS: Dict[str, Tuple[str, Optional[str], Optional[str]]] = {
    "explore": ("collect the exploration dataset", None, None),
    "fit": ("fit the gate from a dataset file", "--dataset", None),
    "eval": ("evaluate policies with a fitted model", "--model", None),
    "stats": ("correlation reports for a dataset", "--dataset", None),
    "verify": ("two-source verification bundle", None, None),
    "sweep": ("grid of runs over one config axis", "--axis", "section.key=v1,v2,..."),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dial", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dial {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flag, flag_help) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if flag is not None:
            p.add_argument(flag, required=True, help=flag_help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a ConfigError, a ProviderError or an existing
    output is one stderr line and exit status 2, as argparse gives."""
    args = build_parser().parse_args(argv)
    flag = COMMANDS[args.command][1]
    inputs = () if flag is None else (getattr(args, flag[2:]),)
    try:
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
        result = globals()[f"cmd_{args.command}"](config, *inputs)  # looked up now, so a patched cmd_* is the one run
    except (ConfigError, ProviderError, FileExistsError) as exc:
        print(f"dial: error: {exc}", file=sys.stderr)
        return 2
    print(result if isinstance(result, str) else "\n".join(f"{name}: {path}" for name, path in result.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
