"""Signal-agnostic exploration and paired counterfactual labeling.

Each step triggers the optimizer with a fixed probability, independent
of every observation field, which keeps the collected labels free of
selection bias. A triggered step's utility label compares two arms
forked from its state under one truncated-rollout protocol, the base
policy and the base policy with the optimizer invoked; it is 1 only when
the intervention arm strictly wins. Untriggered steps are persisted
unlabeled so whole-trajectory statistics stay computable.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, List, Optional

from .dsl import NUMBER_TYPES
from .envs import EnvFault, Environment, Episode
from .features import scalar_signal
from .rng import derive_seed, rng_for, stream

DEFAULT_EPS_EXPLORE = 0.5
DEFAULT_N_EXPLORE = 50
DEFAULT_K_CANDIDATES = 5
DEFAULT_N_ROLLOUTS = 5
DEFAULT_ROLLOUT_HORIZON = 3

_SUMMARY_EXAMPLE_SEED = 20_240_001
_MAX_EXAMPLES_PER_CLASS = 5


@dataclass
class StepRecord:
    """One decision step as collected during exploration."""

    episode_id: int
    step_index: int
    obs: Dict[str, float]
    utility_label: Optional[int]  # None exactly when the step did not trigger
    signal: float
    latent_type_debug: Optional[str] = None       # simulator only, never a feature
    true_utility_debug: Optional[float] = None    # simulator only, never a feature

    def __post_init__(self) -> None:
        for name in ("episode_id", "step_index"):  # type(...) is int: a bool is not one
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.utility_label is not None and (type(self.utility_label) is not int or self.utility_label not in (0, 1)):
            raise ValueError(f"utility_label must be binary, got {self.utility_label!r}")
        if not isinstance(self.obs, dict):
            raise ValueError(f"obs must be an object, got {self.obs!r}")
        if not _finite_number(self.signal):
            raise ValueError(f"signal must be a finite number, got {self.signal!r}")
        if self.latent_type_debug not in (None, "I", "D"):
            raise ValueError(f'latent_type_debug must be "I", "D" or null, got {self.latent_type_debug!r}')
        if self.true_utility_debug is not None and not _finite_number(self.true_utility_debug):
            raise ValueError(f"true_utility_debug must be a finite number or null, got {self.true_utility_debug!r}")


def _finite_number(value: Any) -> bool:
    """An int or float (a bool is neither) that is finite: not NaN (which
    fails every comparison), infinite or past float range."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


@dataclass
class LabeledDataset:
    """Ordered step records plus the dataset header: the collection
    settings and any provenance, the first line of the dataset file."""

    records: List[StepRecord]
    meta: Dict[str, Any]

    def labeled(self) -> List[StepRecord]:
        return [r for r in self.records if r.utility_label is not None]


def _check_paired_settings(k_candidates: int, n_rollouts: int, horizon_h: int) -> None:
    if k_candidates < 2:
        raise ValueError("paired estimation needs the base action plus at least one alternative")
    if horizon_h < 1:
        raise ValueError("rollout horizon must be >= 1")
    if n_rollouts < 1:
        raise ValueError("paired estimation needs at least one rollout per candidate")


def estimate_utility_paired(
    episode: Episode,
    k_candidates: int,
    n_rollouts: int,
    horizon_h: int,
    seed: int,
) -> int:
    """Binary utility of invoking the optimizer at the episode's current
    state.

    The k x n forks of the snapshot are siblings of one ``seed``, each
    reading reward noise of its own from one keyed draw, and each
    returning its rollout's truncated return (``horizon_h`` steps, fewer
    at the episode's end). One ``seed`` serves every label of an episode:
    the episode's first fork with it sums the rollouts of every state and
    keeps them, so every other fork, this label's and later labels', is a
    lookup, and labels at different states read disjoint noise. The base
    arm's ``n_rollouts`` forks come first and take the untriggered step at
    the snapshot; the intervention arm's other ``(k_candidates - 1) *
    n_rollouts`` take the triggered one. An arm scores the mean truncated
    return of all of its rollouts, so the one intervention never wins on
    its luckiest copy (the optimizer's curse). Returns 1 iff the
    intervention arm strictly beats the base arm; ties label 0.
    """
    _check_paired_settings(k_candidates, n_rollouts, horizon_h)
    count = k_candidates * n_rollouts
    sums = [0.0, 0.0]  # base arm, intervention arm; returns added in fork order
    for index in range(count):
        triggered = index >= n_rollouts
        sums[triggered] += episode.fork(reseed=seed, lookahead=horizon_h - 1,
                                        triggered=triggered, index=index, count=count)
    return int(sums[1] / (count - n_rollouts) > sums[0] / n_rollouts)


def run_exploration(
    env: Environment,
    eps: float = DEFAULT_EPS_EXPLORE,
    n_episodes: int = DEFAULT_N_EXPLORE,
    seed: int = 0,
    *,
    k_candidates: int = DEFAULT_K_CANDIDATES,
    n_rollouts: int = DEFAULT_N_ROLLOUTS,
    horizon_h: int = DEFAULT_ROLLOUT_HORIZON,
) -> LabeledDataset:
    """Collect the exploration dataset.

    Every episode runs the environment's ``horizon`` steps. Its trigger
    decisions are one row of ``horizon`` coins, ``rng_for(seed,
    "trigger", ep_idx)``, drawn before its first step, so they are
    independent of all observation content. Each episode has one label
    seed, ``derive_seed(seed, "label", ep_idx)``, shared by all of its
    labels, so an episode draws its label noise once and a label depends
    only on the seed, the episode and the step, not on which other steps
    trigger. The episode seeds are drawn as one run, and episodes are
    assembled in episode-index order; replaying with the same seed
    reproduces the dataset exactly. The labeling settings are checked
    before the first episode; past that, every error (one from an episode
    that cannot fork, or that ends before the horizon, too) is an
    EnvFault naming episode and step.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    _check_paired_settings(k_candidates, n_rollouts, horizon_h)

    records: List[StepRecord] = []
    episodes = env.episodes([derive_seed(seed, "episode", ep_idx) for ep_idx in range(n_episodes)])
    horizon = env.horizon
    for ep_idx in range(n_episodes):
        episode = episodes.start(ep_idx)
        triggers = (rng_for(seed, "trigger", ep_idx).random(horizon) < eps).tolist()
        label_seed = derive_seed(seed, "label", ep_idx)
        for step_idx, triggered in enumerate(triggers):
            try:
                obs = episode.observe()
                debug = episode.debug_state()
                label: Optional[int] = None
                if triggered:
                    label = estimate_utility_paired(episode, k_candidates, n_rollouts, horizon_h, seed=label_seed)
                episode.step(triggered)
            except Exception as exc:
                raise EnvFault(f"environment fault at episode {ep_idx}, step {step_idx}: {exc}") from exc
            records.append(
                StepRecord(
                    episode_id=ep_idx,
                    step_index=step_idx,
                    obs=obs,
                    utility_label=label,
                    signal=scalar_signal(obs),
                    latent_type_debug=None if debug is None else debug.get("latent_type"),
                    true_utility_debug=None if debug is None else debug.get("true_utility"),
                )
            )

    meta = {
        "env": env.env_id,
        "seed": seed,
        "eps_explore": eps,
        "n_explore": n_episodes,
        "horizon": horizon,
        "k_candidates": k_candidates,
        "n_rollouts": n_rollouts,
        "rollout_horizon": horizon_h,
    }
    return LabeledDataset(records=records, meta=meta)


def dataset_summary(dataset: LabeledDataset) -> Dict[str, Any]:
    """Deterministic summary of an exploration dataset: totals, trigger
    rate, positive-utility fraction, per-step breakdown, and up to five
    fixed-seed representative examples per label class."""
    if not dataset.records:
        raise ValueError("cannot summarize an empty dataset")
    records = dataset.records
    labeled = dataset.labeled()
    n_steps = len(records)
    n_labeled = len(labeled)
    positives = [r for r in labeled if r.utility_label == 1]
    negatives = [r for r in labeled if r.utility_label == 0]

    by_step: Dict[int, Dict[str, float]] = {}
    for step in sorted({r.step_index for r in records}):
        at_step = [r for r in records if r.step_index == step]
        lab = [r for r in at_step if r.utility_label is not None]
        pos = sum(r.utility_label for r in lab)
        by_step[step] = {
            "n_steps": len(at_step),
            "n_triggered": len(lab),
            "trigger_rate": len(lab) / len(at_step),
            "positive_fraction": pos / len(lab) if lab else None,
        }

    rng = stream(_SUMMARY_EXAMPLE_SEED)

    def _examples(pool: List[StepRecord]) -> List[Dict[str, Any]]:
        if not pool:
            return []
        take = min(_MAX_EXAMPLES_PER_CLASS, len(pool))
        picks = rng.choice(len(pool), size=take, replace=False)
        return [
            {
                "episode_id": pool[i].episode_id,
                "step_index": pool[i].step_index,
                "obs": dict(pool[i].obs),
                "utility_label": pool[i].utility_label,
            }
            for i in sorted(int(p) for p in picks)
        ]

    return {
        "env_id": dataset.meta["env"],
        "n_episodes": len({r.episode_id for r in records}),
        "n_steps": n_steps,
        "n_labeled": n_labeled,
        "trigger_rate": n_labeled / n_steps,
        "positive_fraction": len(positives) / n_labeled if n_labeled else None,
        "per_step": by_step,
        "examples_positive": _examples(positives),
        "examples_negative": _examples(negatives),
    }


# -- persistence -------------------------------------------------------------


def _obs_number(record: StepRecord, key: str, value: Any) -> float:
    """An observation value as the float a dataset line holds; text, NaN
    and infinities are refused with the episode, step and key."""
    try:  # an int past float range overflows
        number = float(value) if isinstance(value, NUMBER_TYPES) else float("nan")
    except OverflowError:
        number = float("nan")
    if abs(number) <= sys.float_info.max:  # finite: not NaN (fails every comparison) or infinite
        return number
    raise ValueError(f"episode {record.episode_id}, step {record.step_index}: "
                     f"obs {key!r} must be a finite number, got {value!r}")


def dataset_to_jsonl(dataset: LabeledDataset) -> str:
    """Serialize the dataset: line 1 is the header ``{"env_meta": meta}``,
    then one StepRecord per line (utility_label null when the step did
    not trigger, obs as floats). The raw observation and simulator debug
    fields ride along so feature pools can be recomputed from the file.
    """
    lines = [json.dumps({"env_meta": dataset.meta}, sort_keys=True, allow_nan=False)]
    for r in dataset.records:
        row = {**vars(r), "obs": {k: _obs_number(r, k, v) for k, v in r.obs.items()}}
        lines.append(json.dumps(row, sort_keys=True, allow_nan=False))  # NaN is not JSON
    return "\n".join(lines) + "\n"


def _header(path: str, line: str) -> Dict[str, Any]:
    """The dataset header that line 1 of ``path`` holds."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        row = None
    if isinstance(row, dict) and list(row) == ["env_meta"] and isinstance(row["env_meta"], dict):
        return row["env_meta"]
    raise ValueError(f'{path}: line 1: not the dataset header {{"env_meta": {{...}}}} '
                     "(a file with env_meta on every record has the older per-line layout)")


def _line_fault(line: str, exc: Exception) -> str:
    """What is wrong with a record line that failed to load with ``exc``."""
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc.msg} at column {exc.colno}"
    row = json.loads(line)
    if not isinstance(row, dict):
        return "not a JSON object"
    missing = [f.name for f in fields(StepRecord) if f.default is MISSING and f.name not in row]
    if missing:
        return f"missing field {missing[0]!r}"
    unknown = sorted(row.keys() - {f.name for f in fields(StepRecord)})
    return f"unknown field {unknown[0]!r}" if unknown else str(exc)


def load_dataset_jsonl(path: str) -> LabeledDataset:
    """Read a file ``dataset_to_jsonl`` wrote. A line 1 that is not the
    header, or a fault in a record line (bad JSON, a missing or unknown
    field, an invalid record, an ``obs`` value that is not a finite
    number), is a ``ValueError`` that names the file and the line."""
    records: List[StepRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        meta = _header(path, fh.readline())
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = StepRecord(**json.loads(line))  # the debug fields have defaults and may be absent
                if not set(map(type, record.obs.values())) <= {int, float}:  # json's numbers; a bool is neither
                    raise ValueError(f"obs must map names to numbers, got {record.obs!r}")
                try:  # json reads NaN and Infinity, which the writer refuses; one sum finds them
                    finite = math.isfinite(math.fsum(record.obs.values()))
                except OverflowError:  # an int past float range, or a sum past it
                    finite = False
                if not finite:
                    for key, value in record.obs.items():
                        _obs_number(record, key, value)
                records.append(record)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: {_line_fault(line, exc)}") from exc
    if not records:
        raise ValueError(f"dataset file {path} holds no records")
    return LabeledDataset(records=records, meta=meta)
