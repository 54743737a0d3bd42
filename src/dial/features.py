"""Candidate feature pool: universal, derived, and proposed features.

The pool an environment's gate is fit over is the union of a small
universal set (computed identically everywhere, missing signals default
to zero), two derived transforms of it, and optionally five
task-specific features proposed by an external model from an exploration
summary. Proposals are constrained to the feature expression language
(see dsl); the sparse fit downstream is what disposes of bad proposals.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dsl import CompiledExpr, DslError, _number, check_expr, parse_row
from .files import json_digest, strict_json, write_once

# Simulator aliases: the scalar signal plays the token-entropy role and
# the type proxy plays the evidence-count role. Documented aliasing, not
# separate features.
_ALIASES: Dict[str, Tuple[str, ...]] = {
    "step_count": ("step_count",),
    "token_entropy": ("token_entropy", "signal"),
    "evidence_count": ("evidence_count", "type_proxy"),
    "num_available_actions": ("num_available_actions", "num_options"),
    "is_finish": ("is_finish",),
}
UNIVERSAL_FEATURES: Tuple[str, ...] = tuple(_ALIASES)

N_LLM_FEATURES = 5
HTTP_TIMEOUT_S = 60.0  # per proposal request


class FeatureError(ValueError):
    """Malformed feature specification or pool."""


class ProviderError(RuntimeError):
    """The proposal provider failed or returned an unusable reply."""


@dataclass(frozen=True)
class FeatureSpec:
    """One named feature: a builtin extractor or a DSL expression; one
    outside the language raises DslError here."""

    name: str
    source: str  # universal | derived | llm
    extractor: str  # "builtin:<universal name>" or a DSL expression

    def __post_init__(self) -> None:
        if self.source not in ("universal", "derived", "llm"):
            raise FeatureError(f"unknown feature source {self.source!r}")
        if not self.name.isidentifier():
            raise FeatureError(f"feature name {self.name!r} is not an identifier")
        if not self.extractor.startswith("builtin:"):
            check_expr(self.extractor)
        elif self.extractor[len("builtin:"):] not in UNIVERSAL_FEATURES:
            raise FeatureError(f"unknown builtin feature {self.extractor!r}")


def scalar_signal(obs: Dict[str, Any]) -> float:
    """The value the ``token_entropy`` feature reads from ``obs``."""
    return _number(obs, *_ALIASES["token_entropy"])


UNIVERSAL_SPECS: Tuple[FeatureSpec, ...] = tuple(FeatureSpec(n, "universal", f"builtin:{n}") for n in UNIVERSAL_FEATURES)
DERIVED_SPECS: Tuple[FeatureSpec, ...] = (
    FeatureSpec("entropy_sq", "derived", "token_entropy * token_entropy"),
    FeatureSpec("step_x_entropy", "derived", "step_count * token_entropy"),
)


def build_pool(llm_specs: Sequence[FeatureSpec] = ()) -> List[FeatureSpec]:
    """The candidate pool: the universal and derived features, never
    dropped, then the proposals, whose names ``proposed_specs`` checked."""
    return [*UNIVERSAL_SPECS, *DERIVED_SPECS, *llm_specs]


def compile_features(specs: Sequence[FeatureSpec]) -> CompiledExpr:
    """One function of an observation that returns each spec's value, in
    spec order. A builtin is its universal feature, read once from the first
    of its aliases that the observation holds as a number (else 0.0). DSL
    features see the raw observation fields plus the universal feature
    names, so proposals can reference either namespace. Each list of
    extractors is compiled once per process, so a copy of a model made by
    ``dataclasses.replace`` reuses its row."""
    return _compile_row(tuple(spec.extractor for spec in specs))


@functools.lru_cache(maxsize=64)
def _compile_row(extractors: Tuple[str, ...]) -> CompiledExpr:
    return parse_row([extractor.removeprefix("builtin:") for extractor in extractors], _ALIASES)


def extract_features(row: CompiledExpr, obs: Dict[str, Any]) -> Tuple[float, ...]:
    """The tuple of Python floats a ``compile_features`` row gives on one
    observation; a non-finite value raises FeatureError. Pure: identical
    observations give identical tuples."""
    values = row(obs)
    if not all(map(math.isfinite, values)):
        raise FeatureError("feature vector contains non-finite values")
    return values


def build_matrix(records: Iterable[Any], specs: Sequence[FeatureSpec]) -> Tuple[np.ndarray, np.ndarray]:
    """Feature matrix and label vector over the labeled records."""
    row = compile_features(specs)
    rows, labels = [], []
    for record in records:
        if record.utility_label is None:
            continue
        rows.append(extract_features(row, record.obs))
        labels.append(record.utility_label)
    if not rows:
        return np.empty((0, len(specs))), np.empty(0)
    return np.array(rows, dtype=float), np.asarray(labels, dtype=float)


# -- proposal layer ---------------------------------------------------------


def proposed_specs(items: Any) -> Tuple[FeatureSpec, ...]:
    """The features a proposal (a provider's reply or a cache entry)
    names, once it passes every check a proposal gets: each item holds a
    "name" and an "expr" in the DSL, there are exactly five, their names
    are distinct, and none is a universal or derived feature's. An
    unusable proposal is a ProviderError."""
    if not (isinstance(items, list)
            and all(isinstance(item, dict) and "name" in item and "expr" in item for item in items)):
        raise ProviderError("each proposed feature needs 'name' and 'expr'")
    try:
        specs = tuple(FeatureSpec(str(item["name"]), "llm", str(item["expr"])) for item in items)
        names = [s.name for s in specs]
        clash = sorted(set(names) & {s.name for s in UNIVERSAL_SPECS + DERIVED_SPECS})
        if len(specs) != N_LLM_FEATURES:
            raise FeatureError(f"proposal must contain exactly {N_LLM_FEATURES} features, got {len(specs)}")
        if len(set(names)) != len(names):
            raise FeatureError("proposal contains duplicate feature names")
        if clash:
            raise FeatureError(f"proposal reuses reserved feature names: {clash}")
    except (FeatureError, DslError) as exc:
        raise ProviderError(f"proposal rejected: {exc}") from exc
    return specs


class ProposalProvider:
    """Interface: propose(summary) -> the five task-specific features for
    a dataset, as ``proposed_specs`` gives them."""

    def propose(self, summary: Dict[str, Any]) -> Tuple[FeatureSpec, ...]:
        raise NotImplementedError


class MockProposalClient(ProposalProvider):
    """Deterministic offline provider with simulator-flavored features."""

    FIXED = [
        {"name": "proxy_x_entropy", "expr": "evidence_count * token_entropy"},
        {"name": "high_entropy_flag", "expr": "token_entropy > 0.66"},
        {"name": "low_entropy_flag", "expr": "token_entropy < 0.33"},
        {"name": "late_step_flag", "expr": "step_count > 6"},
        {"name": "options_per_step", "expr": "num_available_actions / max(step_count, 1)"},
    ]

    def propose(self, summary: Dict[str, Any]) -> Tuple[FeatureSpec, ...]:
        return proposed_specs(self.FIXED)


PROMPT_TEMPLATE = """You are assisting an agent that explored an interactive environment. \
At some decision steps it invoked extra rollout computation; each invoked step carries a \
binary utility label (1 = the rollout improved the outcome, 0 = it did not).

Exploration summary (aggregate statistics, per-step breakdown, and representative \
positive/negative examples):
{summary}

Task: propose observation features that discriminate the label-1 steps from the label-0 steps.

Requirements:
- Reply with a JSON array of exactly 5 objects, each {{"name": <identifier>, "expr": <expression>}}.
- Each expression must use only this language: observation field names, numbers, + - * /, \
comparisons (which evaluate to 0 or 1), min(a,b), max(a,b), clamp(x,lo,hi), abs(x).
- Every feature must evaluate to a number; missing fields read as 0.
- Prefer features whose values differ between the positive and negative examples.
- Output the JSON array only, no prose."""


def summary_digest(summary: Dict[str, Any]) -> str:
    """The proposal cache key of a dataset summary."""
    return json_digest(summary)


class HttpProposalClient(ProposalProvider):
    """Chat-completion client for the proposal step.

    Configured via DIAL_LLM_URL / DIAL_LLM_KEY / DIAL_LLM_MODEL. Each
    reply is cached in its own write-once file under ``cache_dir``, named
    by the summary digest, so a run never re-queries for the same
    dataset. Retries once on an unusable reply, then fails hard: silently
    degrading the pool would bias ablations.
    """

    def __init__(self, cache_dir: str):
        self.url = os.environ.get("DIAL_LLM_URL", "")
        self.api_key = os.environ.get("DIAL_LLM_KEY", "")
        self.model = os.environ.get("DIAL_LLM_MODEL", "")
        self.cache_dir = cache_dir
        if not self.url:
            raise ProviderError("no proposal endpoint configured (set DIAL_LLM_URL)")

    # -- cache ---------------------------------------------------------

    @staticmethod
    def _cached(path: str) -> Optional[Tuple[FeatureSpec, ...]]:
        """The checked specs of the cache entry at ``path``, None when there
        is no such file; an entry that cannot be read as UTF-8 JSON text or
        is not a proposal is refused, naming its path."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                items = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            reason = getattr(exc, "strerror", None) or exc
            raise ProviderError(f"proposal cache {path}: cannot be read ({reason})") from exc
        try:
            return proposed_specs(items)
        except ProviderError as exc:
            raise ProviderError(f"proposal cache {path}: {exc}") from exc

    # -- request -------------------------------------------------------

    def _request(self, prompt: str) -> str:
        import urllib.request  # on first use: it pulls in http and ssl, which offline runs never need

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        request = urllib.request.Request(
            self.url, data=json.dumps(body).encode("utf-8"), headers=headers, method="POST"
        )
        try:
            # urlopen raises HTTPError on an error status
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as resp:
                payload = json.loads(resp.read())
            return payload["choices"][0]["message"]["content"]
        except Exception as exc:  # noqa: BLE001 - network/shape faults all map to ProviderError
            raise ProviderError(f"proposal endpoint failed: {exc}") from exc

    @staticmethod
    def _parse_reply(content: str) -> Any:
        start, end = content.find("["), content.rfind("]")
        if start < 0 or end <= start:
            raise ProviderError("reply contains no JSON array")
        try:
            return json.loads(content[start : end + 1])
        except json.JSONDecodeError as exc:
            raise ProviderError(f"reply is not valid JSON: {exc}") from exc

    def propose(self, summary: Dict[str, Any]) -> Tuple[FeatureSpec, ...]:
        """Each cache entry or reply is checked once by ``proposed_specs``: an
        unusable reply is retried, never cached; an unusable entry never used."""
        path = os.path.join(self.cache_dir, f"{summary_digest(summary)}.json")
        cached = self._cached(path)
        if cached is not None:
            return cached
        prompt = PROMPT_TEMPLATE.format(summary=json.dumps(summary, sort_keys=True, default=str, indent=1))
        last_error: Optional[Exception] = None
        for _ in range(2):  # one retry on an unusable reply
            try:
                specs = proposed_specs(self._parse_reply(self._request(prompt)))
                items = [{"name": spec.name, "expr": spec.extractor} for spec in specs]
                write_once(path, strict_json(items))
                return specs
            except FileExistsError:  # another fit stored this digest first: its entry stands
                return self._cached(path)
            except ProviderError as exc:
                last_error = exc
        raise ProviderError(f"proposal failed after retry: {last_error}")


PROPOSAL_MODES = ("off", "mock", "http")  # the values of a config's gate.llm_features


def proposal_client(mode: str, cache_dir: str) -> Optional[ProposalProvider]:
    """The provider a proposal mode names: none for "off", the offline
    mock, or the HTTP client caching its replies under ``cache_dir``."""
    if mode == "off":
        return None
    if mode == "mock":
        return MockProposalClient()
    if mode == "http":
        return HttpProposalClient(cache_dir=cache_dir)
    raise FeatureError(f"unknown proposal mode {mode!r}")
