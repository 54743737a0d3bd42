"""Outside-in span tracing of dial's public functions.

While active, the tracer replaces each name in ``SPANS`` where callers
look it up (a module attribute, or a method on its class) with a wrapper
that records one span: name, start, end, parent span and iteration id.
Spans are kept in compact arrays in memory and written out once, when
the run ends. A span's self time is its duration minus the durations of
its direct children; spans nest because the traced code is
single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

# "module:attribute" or "module:Class.method" -> span name. A function
# imported by name into another module is patched in that module too.
SPANS = {
    "dial.cli:cmd_explore": "cli.explore",
    "dial.cli:cmd_fit": "cli.fit",
    "dial.cli:cmd_eval": "cli.eval",
    "dial.cli:cmd_stats": "cli.stats",
    "dial.cli:cmd_verify": "cli.verify",
    "dial.explore:estimate_utility_paired": "explore.label",
    "dial.cli:load_dataset_jsonl": "explore.load_dataset",
    "dial.twosource:TwoSourceEpisode.fork": "twosource.fork",
    "dial.twosource:TwoSourceEpisode.step": "twosource.step",
    "dial.cli:sample_states": "twosource.sample_states",
    "dial.features:extract_features": "features.extract",
    "dial.gate:extract_features": "features.extract",
    "dial.cli:build_matrix": "features.build_matrix",
    "dial.dsl:CompiledExpr.__call__": "dsl.eval",
    "dial.cli:fit_gate": "gate.fit_gate",
    "dial.gate:cross_validate_c": "gate.cv",
    "dial.gate:fit_sparse_logistic": "gate.solver",
    "dial.gate:GateModel.decide": "gate.decide",
    "dial.cli:run_deployment": "evaluate.deploy",
    "dial.stats:bootstrap_ci": "stats.bootstrap",
    "dial.cli:spearman": "stats.spearman",
    "dial.stats:spearman": "stats.spearman",
    "dial.cli:save_dataset_jsonl": "io.write",
    "dial.cli:save_model_json": "io.write",
    "dial.cli:write_report_json": "io.write",
    "dial.cli:write_report_csv": "io.write",
}
# Position of the output path among each io writer's arguments.
IO_PATH_ARG = {"save_dataset_jsonl": 1, "save_model_json": 1, "write_report_json": 0, "write_report_csv": 0}
# bootstrap_ci draws each resample from its own rng_for stream, so
# counting rng_for calls in dial.stats counts resamples.
RESAMPLE_COUNTER = "dial.stats:rng_for"


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, attr_path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes_written = 0
        self.resamples = 0
        self._stack = [-1]
        self._current_iteration = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, fn: Callable[..., Any], name: str, path_arg: int = -1) -> Callable[..., Any]:
        name_id = self._name_id(name)
        names, parents, iterations = self.name, self.parent, self.iteration
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            iterations.append(tracer._current_iteration)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if path_arg >= 0:
                tracer.bytes_written += os.path.getsize(args[path_arg])
            return result

        return functools.wraps(fn)(traced)

    def _counter(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.resamples += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    @contextlib.contextmanager
    def active(self, iteration: int) -> Iterator[None]:
        """Trace one iteration: patch every target, restore on exit."""
        saved = []
        try:
            for target, name in SPANS.items():
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span(original, name, IO_PATH_ARG.get(attr, -1)))
            owner, attr = _resolve(RESAMPLE_COUNTER)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._counter(owner.__dict__[attr]))
            self._current_iteration = iteration
            yield
        finally:
            self._current_iteration = -1
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "iteration": np.frombuffer(self.iteration, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def calls(self) -> Dict[str, int]:
        """Spans recorded per span name."""
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, scales: Dict[int, float]) -> Dict[str, float]:
        """Per-layer metrics, per traced iteration. ``scales`` maps each
        traced iteration to the factor that turns its wall times into
        seconds at reference speed. Layers a workload does not reach read 0."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        iterations = len(scales)
        if not iterations:
            return {}
        scale = np.zeros(max(max(scales), int(spans["iteration"].max(initial=0))) + 1)
        scale[list(scales)] = list(scales.values())
        duration = (spans["end"] - spans["start"]) * scale[spans["iteration"]]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - children

        def ids(span_name: str) -> np.ndarray:
            if span_name not in self._name_ids:
                return np.zeros(len(name), dtype=bool)
            return name == self._name_ids[span_name]

        def count(span_name: str) -> float:
            return float(ids(span_name).sum()) / iterations

        def total(span_name: str) -> float:
            return float(duration[ids(span_name)].sum()) / iterations

        def own(span_name: str) -> float:
            return float(self_time[ids(span_name)].sum()) / iterations

        def mean(span_name: str, unit: float) -> float:
            d = duration[ids(span_name)]
            return float(d.mean()) * unit if d.size else 0.0

        decide = duration[ids("gate.decide")] * 1e6
        p50, p99 = np.percentile(decide, [50, 99]) if decide.size else (0.0, 0.0)
        # Steps whose parent span is a deployment: the episodes run_deployment steps itself.
        deploy_steps = float((ids("twosource.step") & nested & ids("evaluate.deploy")[np.maximum(parent, 0)]).sum())
        deploy_s = total("evaluate.deploy") * iterations
        metrics = {f"cli.{phase}_s": total(f"cli.{phase}") for phase in ("explore", "fit", "eval", "stats", "verify")}
        metrics.update({
            "explore.labels": count("explore.label"),
            "explore.label_self_s": own("explore.label"),
            "explore.label_us": mean("explore.label", 1e6),
            "explore.load_dataset_s": total("explore.load_dataset"),
            "twosource.forks": count("twosource.fork"),
            "twosource.fork_self_s": own("twosource.fork"),
            "twosource.steps": count("twosource.step"),
            "twosource.step_self_s": own("twosource.step"),
            "twosource.sample_states_s": total("twosource.sample_states"),
            "features.extract_calls": count("features.extract"),
            "features.extract_self_s": own("features.extract"),
            "features.build_matrix_s": total("features.build_matrix"),
            "dsl.evals": count("dsl.eval"),
            "dsl.eval_self_s": own("dsl.eval"),
            "gate.fit_gate_s": total("gate.fit_gate"),
            "gate.cv_s": total("gate.cv"),
            "gate.solver_calls": count("gate.solver"),
            "gate.solver_self_s": own("gate.solver"),
            "gate.solver_ms": mean("gate.solver", 1e3),
            "gate.decide_calls": count("gate.decide"),
            "gate.decide_self_s": own("gate.decide"),
            "gate.decide_p50_us": float(p50),
            "gate.decide_p99_us": float(p99),
            "evaluate.deployments": count("evaluate.deploy"),
            "evaluate.deploy_self_s": own("evaluate.deploy"),
            "evaluate.steps": deploy_steps / iterations,
            "evaluate.steps_per_s": deploy_steps / deploy_s if deploy_s else 0.0,
            "stats.bootstrap_calls": count("stats.bootstrap"),
            "stats.bootstrap_resamples": self.resamples / iterations,
            "stats.bootstrap_self_s": own("stats.bootstrap"),
            "stats.spearman_calls": count("stats.spearman"),
            "stats.spearman_self_s": own("stats.spearman"),
            "io.bytes_written": self.bytes_written / iterations,
            "io.write_s": total("io.write"),
            "trace.spans": len(name) / iterations,
        })
        return metrics
