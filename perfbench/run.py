#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers of ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload cora_trials --seed 0 --seconds 25 --trace 0

Workloads are ``cora_trials``, ``air_pair_sweep`` and ``minibatch_large``
(see ``perfbench/README.md``).  The program builds its inputs from
``--seed``, repeats timed units of the workload for ``--seconds`` seconds
(at least three), checks every trained model's scores, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``wall_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` units
alternate untraced and traced, and the metrics are the per-layer ones.

The metric names and units are read from ``BENCHMARK.json`` at the
repository root, the benchmark's only declaration of them.

Other modes: ``--tiny`` shrinks every workload for the self-test, and
``--pin`` rewrites the pinned references of one workload at seed 0.
"""

import os
import sys

# BLAS and OpenMP threads are pinned before numpy is first imported, here and
# (through the environment) in pool workers and setup probes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
REFERENCES = os.path.join(HERE, "references.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs and budgets")
    parser.add_argument("--pin", action="store_true", help="re-pin references at seed 0")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_units(kind):
    """Metric name -> unit of ``kind`` ("end_to_end" or "per_layer")."""
    with open(MANIFEST) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def import_library():
    """Import ``repro`` from this checkout's ``src`` and the modules units use."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    import repro.api  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.minibatch  # noqa: F401
    import repro.parallel  # noqa: F401


# ----------------------------------------------------------------------
# process measurements
# ----------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark (VmHWM); False where not allowed."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak RSS of this process since the reset, or of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_usage():
    """(user s, system s, minor faults) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + kids.ru_utime,
        own.ru_stime + kids.ru_stime,
        own.ru_minflt + kids.ru_minflt,
    )


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def environment(peak_reset: bool):
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "malloc_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
        "peak_rss": "VmHWM since setup" if peak_reset else "process lifetime",
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh benchmark process to its first timed call."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.read()
        returncode = process.wait(timeout=170)
    if line.strip() != "ready" or returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {returncode}, said {line!r})")
    return elapsed


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def load_references(tiny, workload):
    try:
        with open(REFERENCES) as handle:
            pinned = json.load(handle)
    except FileNotFoundError:
        return {}
    return pinned.get("tiny" if tiny else "full", {}).get(workload, {})


def check_trials(units, pins, seed):
    """Count trials that differ from the pins (seed 0) or from their repeats."""
    first = {}
    failed = 0
    problems = []
    for unit in units:
        for trial in unit.trials:
            scores = list(trial.scores)
            expected = first.setdefault(trial.key, scores)
            if scores != expected:
                failed += 1
                problems.append(f"{trial.key}: {scores} differs from its repeat {expected}")
            elif seed == 0 and pins.get(trial.key) != scores:
                failed += 1
                problems.append(f"{trial.key}: {scores} differs from pinned {pins.get(trial.key)}")
    return failed, problems


# ----------------------------------------------------------------------
# the measured loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One executed unit and how it was measured."""

    unit: object  # workloads.Unit
    traced: bool
    usage: List[float]  # user s, system s, minor faults (see cpu_usage)

    @property
    def wall(self) -> float:
        return sum(self.unit.parts.values())


def run_units(workload, seconds, trace):
    """Run units until ``seconds`` pass (at least three; pairs when tracing).

    With ``trace`` the units alternate untraced and traced.  Untraced units
    then time only the ``parallel_map`` tasks, for ``parallel.busy_frac``.
    """
    from layers import LayerTrace
    from repro.observability.metrics import MetricsRegistry, install_metrics, uninstall_metrics

    layer_trace = LayerTrace()
    registry = MetricsRegistry()  # the library's own resilience counters
    samples, attempted, failed = [], 0, 0
    min_units = 4 if trace else 3
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_units or time.perf_counter() < deadline or (trace and index % 2):
        traced = bool(trace and index % 2)
        index += 1
        attempted += workload.trials_per_unit
        timer = layer_trace if traced else LayerTrace()
        if trace:
            timer.install(layers=traced)
        if traced:
            install_metrics(registry)
        tasks_before = timer.seconds_in_tasks
        usage_before = cpu_usage()
        try:
            unit = workload.unit()
        except Exception:  # a failed unit counts all its trials as failed
            traceback.print_exc()
            failed += workload.trials_per_unit
            continue
        finally:
            if traced:
                uninstall_metrics()
            timer.remove()
        usage = [after - before for after, before in zip(cpu_usage(), usage_before)]
        if unit.jobs > 1:
            unit.trial_seconds = timer.seconds_in_tasks - tasks_before
        samples.append(Sample(unit, traced, usage))
    return samples, attempted, failed, layer_trace, registry


def median_of(values):
    return statistics.median(values) if values else 0.0


def wall_seconds(samples):
    """Sum over timed parts of the part's median: one unit's typical wall."""
    parts = samples[0].unit.parts
    return sum(median_of([s.unit.parts[name] for s in samples]) for name in parts)


def per_layer_metrics(samples, layer_trace, registry, setup_info):
    """The per-layer metrics, per traced unit unless said otherwise."""
    from layers import LAYERS

    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    if not traced or not plain:
        raise SystemExit("error: every traced or every untraced unit failed")
    count = len(traced)
    seconds, calls, counts = layer_trace.seconds, layer_trace.calls, layer_trace.counts
    counters = registry.snapshot()["counters"]
    trial_seconds = sum(s.unit.trial_seconds for s in traced)
    named = layer_trace.named_seconds()
    rethink_trials = [t for s in traced for t in s.unit.trials if t.omega_coverage is not None]
    hits, misses = counts.get("store.hits", 0), counts.get("store.misses", 0)
    values = {f"{name}_s": seconds.get(name, 0.0) / count for name in LAYERS}
    for name in ("models.reconstruction_loss", "nn.backward", "models.encode", "core.xi", "core.upsilon"):
        values[f"{name}_calls"] = calls.get(name, 0) / count
    fits = calls.get("clustering.kmeans_fit", 0) + calls.get("clustering.gmm_fit", 0)
    values.update(
        {
            "clustering.fit_calls": fits / count,
            # median over the R- trials of the final |Ω|/N
            "core.omega_coverage": median_of([t.omega_coverage for t in rethink_trials]),
            "core.epochs_run": sum(t.epochs_run for t in rethink_trials) / count,
            "minibatch.batches": counts.get("minibatch.batches", 0) / count,
            "store.hits": hits / count,
            "store.misses": misses / count,
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            # untraced units: trial seconds over worker seconds available
            "parallel.busy_frac": sum(s.unit.trial_seconds for s in plain)
            / sum(s.unit.jobs * s.wall for s in plain),
            "resilience.attempts": counters.get("resilience.attempts", 0) / count,
            "resilience.retries": counters.get("resilience.retries", 0) / count,
            # one build in this process's set-up
            "datasets.load_s": setup_info["datasets.load_s"],
            "metrics.degenerate_partitions": counts.get("metrics.degenerate_partitions", 0) / count,
            "api.unattributed_s": (trial_seconds - named) / count,
            # untraced units, median
            "proc.user_cpu_s": median_of([s.usage[0] for s in plain]),
            "proc.sys_cpu_s": median_of([s.usage[1] for s in plain]),
            "proc.minor_faults": median_of([s.usage[2] for s in plain]),
            "trace.coverage": named / trial_seconds,
            "trace.overhead_frac": wall_seconds(traced) / wall_seconds(plain) - 1.0,
        }
    )
    return values


def write_pins(tiny, workload, unit):
    try:
        with open(REFERENCES) as handle:
            pinned = json.load(handle)
    except FileNotFoundError:
        pinned = {}
    mode = pinned.setdefault("tiny" if tiny else "full", {})
    mode[workload] = {t.key: list(t.scores) for t in unit.trials}
    with open(REFERENCES, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


def measure(args, workload, setup_info):
    """Run the timed units, check them and return the printed result."""
    peak_reset = reset_peak_rss()
    samples, attempted, failed, layer_trace, registry = run_units(
        workload, args.seconds, args.trace
    )
    peak_mb = peak_rss_mb()
    workload.close()
    gc.collect()
    if not samples:
        raise SystemExit("error: every unit failed")
    pins = load_references(args.tiny, args.workload)
    mismatched, problems = check_trials([s.unit for s in samples], pins, args.seed)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values = per_layer_metrics(samples, layer_trace, registry, setup_info)
        units = declared_units("per_layer")
    else:
        values = {
            "wall_s": wall_seconds(samples),
            "peak_rss_mb": peak_mb,
            "setup_s": median_of([probe_setup(args) for _ in range(workload.setup_probes)]),
        }
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} not as declared")
    detail = {
        "env": environment(peak_reset),
        "units": [{"traced": s.traced, "parts": s.unit.parts, "usage": s.usage} for s in samples],
    }
    result = {
        "correct": failed + mismatched == 0,
        "attempted": attempted,
        "failed": failed + mismatched,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import make_workload

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        workload = make_workload(args.workload, args.seed, args.tiny, work_dir)
        setup_info = workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
        elif args.pin:
            if args.seed != 0:
                raise SystemExit("error: references are pinned at --seed 0")
            write_pins(args.tiny, args.workload, workload.unit())
        else:
            detail, result = measure(args, workload, setup_info)
            print(json.dumps(detail))
            print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
