"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
timed iteration in ``iterate`` (closed loop, one iteration at a time, in
this process) and checks that iteration's artifacts in ``problems``.
dial is driven only through ``dial.cli.load_config`` and the ``cmd_*``
entry points, looked up on the module at call time so that the tracer's
patches apply.

Why these workloads:

- ``pipeline_demo`` is the user's main workflow: the five CLI phases on
  ``configs/demo.json``. Paired-rollout labeling (explore, twosource.fork)
  does most of its work, mostly inside ``verify``.
- ``deploy_eval`` steps 100,000 episode steps without forking them, so
  evaluate, gate.decide, features and dsl do the work. A fork speed-up
  that slows plain stepping shows here and not on ``pipeline_demo``.
- ``stats_report`` runs ``dial stats`` on ~3,000 labeled rows, where
  ``bootstrap_ci`` does most of the work. The stats layer is under 5% of
  ``pipeline_demo``, so without this workload it would go unmeasured.

A C4-sized gate-fit workload was measured and left out: one ~1,000-row
fit takes 1.4 to 7.3 s depending on the dataset seed, so its time spreads
across seeds far beyond any bound the benchmark may set. The gate layer
is measured on ``pipeline_demo`` instead, in its ``fit`` phase.
"""

from __future__ import annotations

import csv
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from dial import cli
from dial.gate import load_model_json
from dial.rng import derive_seed
from dial.twosource import sample_states

DEMO_CONFIG = os.path.join("configs", "demo.json")
BOOTSTRAP_RESAMPLES = 1000  # resamples per bootstrap_ci call under the CLI defaults
HOLDOUT_STATES = 2000       # states in the gate-agreement holdout (the C4 statistic)


def parse_artifacts(out: str) -> Dict[str, Any]:
    """Parse every file under ``out``; raises on any that does not parse
    or holds nothing."""
    parsed: Dict[str, Any] = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        with open(path, "r", encoding="utf-8") as fh:
            if name.endswith(".jsonl"):
                content: Any = [json.loads(line) for line in fh if line.strip()]
            elif name.endswith(".json"):
                content = json.load(fh)
            elif name.endswith(".csv"):
                content = list(csv.DictReader(fh))
            else:
                raise ValueError(f"unexpected artifact {name}")
        if not content:
            raise ValueError(f"artifact {name} is empty")
        parsed[name] = content
    return parsed


def _one(artifacts: Dict[str, Any], prefix: str) -> Any:
    matches = [v for k, v in artifacts.items() if k.startswith(prefix)]
    if len(matches) != 1:
        raise ValueError(f"expected one {prefix}* artifact, found {len(matches)}")
    return matches[0]


def _timed(phases: Dict[str, float], name: str, fn: Callable[..., Any], *args: Any) -> Any:
    start = time.perf_counter()
    result = fn(*args)
    phases[name] = time.perf_counter() - start
    return result


class Workload:
    """The demo config with ``overrides`` applied, run under one seed."""

    name = ""
    aliases: Dict[str, str] = {}  # generic metric -> the name it has on this workload
    overrides: Dict[str, Dict[str, Any]] = {}
    setup_repeats = 3
    evals_per_iteration = 0       # cmd_eval calls in one iteration
    layers: Tuple[str, ...] = ()  # span names that must record calls when traced

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.config_path = ""
        self.base: Optional[cli.RunConfig] = None  # the config, once set up

    def config(self, out: str) -> cli.RunConfig:
        return cli.load_config(self.config_path, seed_override=self.seed, out_override=out)

    def setup(self, out: str) -> None:
        """Write the workload's config under ``out`` and build its inputs
        there. Each call starts from scratch; the last call's inputs are
        the ones iterations use."""
        with open(os.path.join(self.root, DEMO_CONFIG), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for section, values in self.overrides.items():
            raw[section].update(values)
        os.makedirs(out)
        self.config_path = os.path.join(out, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, sort_keys=True, indent=1)
        self.base = self.config(out)
        self.build_inputs(self.base)

    def build_inputs(self, config: cli.RunConfig) -> None:
        pass

    def iterate(self, out: str) -> Dict[str, float]:
        """Run the timed operation into the fresh directory ``out``;
        returns the wall times of its phases, if it has several."""
        raise NotImplementedError

    def problems(self, artifacts: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def quality(self, artifacts: Dict[str, Any]) -> Tuple[float, float]:
        """(quality, cost): deterministic for a seed; higher quality and
        lower cost are better."""
        raise NotImplementedError

    def model_path(self, out: str) -> str:
        """The gate model the workload deploys, or "" if it has none."""
        return ""

    def expected_counts(self, layer: Dict[str, float]) -> Dict[str, float]:
        """Per-iteration counts a traced run must reproduce exactly, so
        that a wrapper that misses calls fails instead of reporting zero
        self time."""
        config = self.base
        horizon = config.env_params.horizon
        n_episodes = int(config.eval["n_episodes"])
        policies = config.eval["policies"]
        dial_policies = sum(p in ("dial", "reversed_dial") for p in policies)
        expl = config.exploration
        return {
            "twosource.forks": int(expl["k_candidates"]) * int(expl["n_rollouts"]) * layer["explore.labels"],
            "stats.bootstrap_resamples": BOOTSTRAP_RESAMPLES * layer["stats.bootstrap_calls"],
            "evaluate.steps": self.evals_per_iteration * len(policies) * n_episodes * horizon,
            "gate.decide_calls": self.evals_per_iteration * dial_policies * n_episodes * horizon,
        }

    def trigger_cost(self) -> float:
        config = self.base
        override = config.eval.get("trigger_cost_units")
        return float(config.env_params.trigger_cost_units if override is None else override)


def eval_problems(artifacts: Dict[str, Any], trigger_cost: float) -> List[str]:
    results = {r["policy"]: r for r in _one(artifacts, "eval-")["results"]}
    sr = {p: results[p]["sr"] for p in ("dial", "base_only", "reversed_dial")}
    problems = []
    if not sr["dial"] > sr["base_only"] > sr["reversed_dial"]:
        problems.append(f"SR order dial > base_only > reversed_dial broken: {sr}")
    cost = results["always_trigger"]["cost_x_base"]
    if cost != 1.0 + trigger_cost:
        problems.append(f"always_trigger cost_x_base {cost!r} != 1 + {trigger_cost!r}")
    return problems


def stats_problems(artifacts: Dict[str, Any]) -> List[str]:
    overall = _one(artifacts, "stats-")["overall"]
    if not overall["ci_low"] <= overall["spearman"] <= overall["ci_high"]:
        return [f"stats CI [{overall['ci_low']}, {overall['ci_high']}] misses rho {overall['spearman']}"]
    return []


def dial_quality(artifacts: Dict[str, Any]) -> Tuple[float, float]:
    """The dial policy's success rate and cost relative to base."""
    dial = next(r for r in _one(artifacts, "eval-")["results"] if r["policy"] == "dial")
    return float(dial["sr"]), float(dial["cost_x_base"])


def gate_quality(model_path: str, config: cli.RunConfig, seed: int) -> Dict[str, float]:
    """Mean held-out log-loss at the chosen C, and the share of holdout
    decisions that match ``true_utility > 0``."""
    model = load_model_json(model_path)
    chosen = model.meta["chosen_c"]
    cv_logloss = next(r["mean_heldout_logloss"] for r in model.cv_report if r["c"] == chosen)
    states = sample_states(config.env_params, HOLDOUT_STATES, derive_seed(seed, "holdout"))
    agree = 0
    for i in range(HOLDOUT_STATES):
        obs = {
            "step_count": float(states["step_index"][i]),
            "signal": float(states["signal"][i]),
            "type_proxy": float(states["type_proxy"][i]),
            "num_options": float(states["num_options"][i]),
            "is_finish": float(states["is_finish"][i]),
        }
        agree += model.decide(obs) == bool(states["true_utility"][i] > 0)
    return {"cv_logloss": float(cv_logloss), "gate_agreement": agree / HOLDOUT_STATES}


class PipelineDemo(Workload):
    name = "pipeline_demo"
    aliases = {"iter_s": "pipeline_s", "quality": "dial_sr", "cost": "dial_cost_x_base"}
    setup_repeats = 15
    evals_per_iteration = 1
    layers = (
        "cli.explore", "cli.fit", "cli.eval", "cli.stats", "cli.verify",
        "explore.label", "explore.load_dataset", "twosource.fork", "twosource.step",
        "twosource.sample_states", "features.extract", "features.build_matrix", "dsl.eval",
        "gate.fit_gate", "gate.cv", "gate.solver", "gate.decide", "evaluate.deploy",
        "stats.bootstrap", "stats.spearman", "io.write",
    )

    def iterate(self, out: str) -> Dict[str, float]:
        config = self.config(out)
        phases: Dict[str, float] = {}
        dataset = _timed(phases, "explore_s", cli.cmd_explore, config)
        model = _timed(phases, "fit_s", cli.cmd_fit, config, dataset)
        _timed(phases, "eval_s", cli.cmd_eval, config, model)
        _timed(phases, "stats_s", cli.cmd_stats, config, dataset)
        _timed(phases, "verify_s", cli.cmd_verify, config)
        return phases

    def problems(self, artifacts: Dict[str, Any]) -> List[str]:
        return eval_problems(artifacts, self.trigger_cost()) + stats_problems(artifacts)

    def quality(self, artifacts: Dict[str, Any]) -> Tuple[float, float]:
        return dial_quality(artifacts)

    def model_path(self, out: str) -> str:
        return os.path.join(out, f"model-{self.base.short_digest()}.json")


class DeployEval(Workload):
    name = "deploy_eval"
    aliases = {"iter_s": "eval_s", "quality": "dial_sr", "cost": "dial_cost_x_base"}
    overrides = {"eval": {"n_episodes": 2000}}
    evals_per_iteration = 1
    layers = ("cli.eval", "evaluate.deploy", "twosource.step", "gate.decide",
              "features.extract", "dsl.eval", "io.write")

    def build_inputs(self, config: cli.RunConfig) -> None:
        self.model = cli.cmd_fit(config, cli.cmd_explore(config))

    def expected_counts(self, layer: Dict[str, float]) -> Dict[str, float]:
        counts = super().expected_counts(layer)
        counts["twosource.steps"] = counts["evaluate.steps"]  # nothing forks: every step is deployed
        return counts

    def iterate(self, out: str) -> Dict[str, float]:
        cli.cmd_eval(self.config(out), self.model)
        return {}

    def problems(self, artifacts: Dict[str, Any]) -> List[str]:
        return eval_problems(artifacts, self.trigger_cost())

    def quality(self, artifacts: Dict[str, Any]) -> Tuple[float, float]:
        return dial_quality(artifacts)

    def model_path(self, out: str) -> str:
        return self.model


class StatsReport(Workload):
    name = "stats_report"
    aliases = {"iter_s": "stats_s", "quality": "within_type_rho", "cost": "ci_width"}
    overrides = {"exploration": {"n_episodes": 600}}
    setup_repeats = 2  # each explores ~3,000 labels, ~4 s
    layers = ("cli.stats", "explore.load_dataset", "stats.spearman", "stats.bootstrap", "io.write")

    def build_inputs(self, config: cli.RunConfig) -> None:
        self.dataset = cli.cmd_explore(config)

    def iterate(self, out: str) -> Dict[str, float]:
        cli.cmd_stats(self.config(out), self.dataset)
        return {}

    def problems(self, artifacts: Dict[str, Any]) -> List[str]:
        return stats_problems(artifacts)

    def quality(self, artifacts: Dict[str, Any]) -> Tuple[float, float]:
        """Quality: the weaker within-type |Spearman| of the Simpson
        decomposition. Cost: the width of the overall rho's bootstrap CI."""
        report = _one(artifacts, "stats-")
        simpson = report["simpson"]
        within = min(abs(simpson["within_i"]["rho"]), abs(simpson["within_d"]["rho"]))
        overall = report["overall"]
        return float(within), float(overall["ci_high"] - overall["ci_low"])


WORKLOADS = {w.name: w for w in (PipelineDemo, DeployEval, StatsReport)}
