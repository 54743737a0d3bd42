"""dial's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of the workloads in
``workloads.py`` or ``all`` (each in turn, in this process). The run
builds the workload's inputs from the seed (set-up, repeated, median
reported), then runs closed-loop iterations one at a time until S
seconds have passed, checking every iteration's artifacts. Times are in
seconds at reference speed (see ``probe.py``). ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, the
tracing overhead, and the count cross-checks.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (artifact sha256 digests, phase times, provenance) goes to
``perfbench/out/result-<workload>-seed<N>-trace<T>.json``, and a traced
run's spans to ``perfbench/out/spans-<workload>-seed<N>.npz``. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from probe import Probe
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
IMPORT_SAMPLES = 5  # fresh interpreters per import-time median, after one warm-up
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def tail(values: List[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, and
    its value; None when there are too few samples."""
    usable = [p for p in TAIL_PERCENTILES if len(values) * (1 - p / 100) >= 10]
    if not usable:
        return None
    ordered = sorted(values)
    return usable[-1], ordered[min(len(ordered) - 1, int(len(ordered) * usable[-1] / 100))]


def digests(directory: str) -> Dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _python(args: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60, check=True)


def import_timings() -> List[Tuple[float, float]]:
    """(wall, seconds at reference speed) of ``import dial.cli`` in fresh
    interpreters, each sampling its own speed, after one discarded warm-up."""
    code = ("import sys; sys.path.insert(0, {!r}); import probe\n"
            "with probe.Probe() as p, p.timed() as t:\n"
            "    import dial.cli\n"
            "print(t.wall, t.seconds)\n").format(os.path.join(ROOT, "perfbench"))
    runs = [_python(["-c", code]).stdout.split() for _ in range(IMPORT_SAMPLES + 1)]
    return [(float(wall), float(seconds)) for wall, seconds in runs[1:]]


def stats_import_samples() -> List[float]:
    """Cumulative import times of dial.stats, from ``python -X importtime``."""
    samples = []
    for _ in range(3):
        for line in _python(["-X", "importtime", "-c", "import dial.stats"]).stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "dial.stats":
                samples.append(int(fields[1]) / 1e6)
    return samples


def _blas_threads() -> Optional[int]:
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(load_before: Tuple[float, ...]) -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dial", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_dial_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def run_workload(cls: Any, seed: int, seconds: float, trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    load_before = os.getloadavg()
    workdir = os.path.join(OUT, f"{cls.name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(cls, seed, seconds, trace, spec, workdir, load_before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(cls: Any, seed: int, seconds: float, trace: bool, spec: Dict[str, Any],
         workdir: str, load_before: Tuple[float, ...]) -> Dict[str, Any]:
    from workloads import gate_quality, parse_artifacts

    workload = cls(ROOT, seed)
    run_problems: List[str] = []
    setups, setup_digests = [], []
    tracer = Tracer() if trace else None
    iterations: Dict[bool, List[Any]] = {False: [], True: []}  # traced? -> Timing of each good one
    traced_scales: Dict[int, float] = {}
    tried = {False: 0, True: 0}
    phases: List[Dict[str, float]] = []
    reference: Optional[Dict[str, str]] = None
    quality: Optional[Tuple[float, float]] = None
    gate: Dict[str, float] = {}
    attempted = failed = 0
    with Probe() as probe:
        for k in range(workload.setup_repeats):
            out = os.path.join(workdir, f"setup{k}")
            with probe.timed() as timing:
                workload.setup(out)
            setups.append(timing)
            setup_digests.append(digests(out))
        if any(d != setup_digests[0] for d in setup_digests):
            run_problems.append("set-up artifacts differ between set-up repeats")

        loop_start = time.perf_counter()
        while True:
            traced = trace and attempted % 2 == 1
            out = os.path.join(workdir, f"iter{attempted}")
            tried[traced] += 1
            attempted += 1
            try:
                with tracer.active(attempted - 1) if traced else contextlib.nullcontext():
                    with probe.timed() as timing:
                        iteration_phases = workload.iterate(out)
                scale = timing.seconds / timing.wall
                artifacts = parse_artifacts(out)
                problems = workload.problems(artifacts)
                found = digests(out)
                if reference is None:
                    reference = found
                elif found != reference:
                    changed = sorted(k for k in set(found) | set(reference) if found.get(k) != reference.get(k))
                    problems.append(f"artifacts differ from the first iteration: {changed}")
                if quality is None:
                    quality = workload.quality(artifacts)
                    if workload.model_path(out):
                        gate = gate_quality(workload.model_path(out), workload.base, seed)
                elif workload.quality(artifacts) != quality:
                    problems.append("quality differs from the first iteration")
            except Exception:
                problems = [traceback.format_exc()]
            shutil.rmtree(out, ignore_errors=True)
            if problems:
                failed += 1
                print(f"perfbench: {cls.name} iteration {attempted - 1} failed:", *problems, sep="\n  ",
                      file=sys.stderr)
            else:
                iterations[traced].append(timing)
                if traced:
                    traced_scales[attempted - 1] = scale
                else:
                    phases.append({k: v * scale for k, v in iteration_phases.items()})
            out_of_time = time.perf_counter() - loop_start >= seconds
            if out_of_time and (not trace or (tried[False] and tried[True])):
                break

    imports = [] if trace else import_timings()
    times = {traced: [t.seconds for t in kept] for traced, kept in iterations.items()}
    iter_s = _median(times[False])
    values: Dict[str, Any] = {
        "setup_s": statistics.median(t.seconds for t in setups),
        "iter_s": iter_s,
        "import_s": _median([seconds for _, seconds in imports]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        "quality": None if quality is None else quality[0],
        "cost": None if quality is None else quality[1],
    }
    if tracer is not None:
        layer = tracer.layer_metrics(traced_scales)
        if layer:
            calls = tracer.calls()
            run_problems += [f"trace count {metric} = {layer[metric]:g}, expected {value:g}"
                             for metric, value in workload.expected_counts(layer).items()
                             if layer[metric] != value]
            run_problems += [f"traced span {name} recorded no calls" for name in workload.layers
                             if not calls.get(name)]
        else:
            run_problems.append("no traced iteration succeeded")
        traced_s = _median(times[True])
        layer["trace.overhead_ratio"] = traced_s / iter_s - 1.0 if traced_s and iter_s else None
        layer["import.dial_stats_s"] = statistics.median(stats_import_samples())
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{cls.name}-seed{seed}.npz"))
        values.update(layer)

    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec[kind]}
    correct = failed == 0 and not run_problems and all(m["value"] is not None for m in metrics.values())
    for problem in run_problems:
        print(f"perfbench: {cls.name}: {problem}", file=sys.stderr)
    record = {
        "workload": cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "aliases": workload.aliases,
        "iteration_s": times[False],
        "traced_iteration_s": times[True],
        "iteration_tail": tail(times[False]),
        "wall_s": {
            "setup": [t.wall for t in setups],
            "iteration": [t.wall for t in iterations[False]],
            "traced_iteration": [t.wall for t in iterations[True]],
            "import": [wall for wall, _ in imports],
        },
        "phase_median_s": {k: statistics.median(p[k] for p in phases) for k in (phases[0] if phases else {})},
        "gate_quality": gate,
        "problems": run_problems,
        "digests": {"setup": setup_digests[-1], "iteration": reference},
        "provenance": provenance(load_before),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{cls.name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def report(record: Dict[str, Any]) -> None:
    """Human-readable lines for one workload's run."""
    name = record["workload"]
    print(f"# {name} seed {record['seed']}: {record['attempted']} iterations, {record['failed']} failed")
    for metric, entry in record["metrics"].items():
        alias = record["aliases"].get(metric)
        note = f"  ({alias})" if alias else ""
        print(f"{name} {metric} {entry['value']} {entry['unit']}{note}")
    if record["trace"]:
        return
    print(f"{name} failed_ratio {record['failed'] / record['attempted']} ratio")
    runs = len(record["iteration_s"])
    tail_info = record["iteration_tail"]
    if tail_info:
        print(f"{name} iter_s p{tail_info[0]:g} {tail_info[1]} s (n={runs})")
    else:
        print(f"{name} iter_s: {runs} iterations, too few for a tail percentile")
    for phase, value in record["phase_median_s"].items():
        print(f"{name} phase {phase} {value} s")
    for metric, value in record["gate_quality"].items():
        print(f"{name} {metric} {value}")
    for group, found in record["digests"].items():
        for artifact, digest in (found or {}).items():
            print(f"{name} sha256 {group}/{artifact} {digest}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dial", "cli.py")):
        print(f"perfbench: no dial sources under {ROOT}/src/dial; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or 'all'")

    records = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), spec) for n in names]
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
