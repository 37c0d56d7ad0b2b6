#!/usr/bin/env python3
"""Self-test of the benchmark, in tiny mode (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names exactly the workloads of
``perfbench/workloads.py``; that every workload, traced and untraced, passes
its checks and prints every metric ``BENCHMARK.json`` declares, with its
unit; that a perturbed pin is counted as a failed trial; and that without
the library next to it the benchmark exits non-zero without printing a
result.  The last two run a copy of ``perfbench/`` under ``.bench_work/``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def run(*extra, root=ROOT):
    command = [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", *extra]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(process):
    if process.returncode != 0:
        raise AssertionError(f"exit {process.returncode}:\n{process.stderr[-3000:]}")
    result = json.loads(process.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result, declared, label):
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if printed != declared:
        raise AssertionError(f"{label}: printed {printed}, declared {declared}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], float) or not math.isfinite(entry["value"]):
            raise AssertionError(f"{label}: {name} = {entry['value']!r}")


def copy_benchmark(scratch, name):
    """A checkout under ``scratch`` holding BENCHMARK.json and perfbench/ only."""
    root = os.path.join(scratch, name)
    shutil.copytree(
        HERE, os.path.join(root, "perfbench"), ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(MANIFEST, root)
    return root


def main() -> int:
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    names = [workload["name"] for workload in manifest["workloads"]]
    if names != [workload.name for workload in WORKLOADS]:
        raise AssertionError(f"BENCHMARK.json names workloads {names}")
    declared = {
        kind: {metric["name"]: metric["unit"] for metric in manifest[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    for name in names:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{name} --trace {trace}"
            result = result_of(run("--workload", name, "--trace", trace))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{label}: checks failed: {result}")
            check_metrics(result, declared[kind], label)
            print(f"ok   {label}: {result['attempted']} trials")

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        perturbed = copy_benchmark(scratch, "perturbed")
        os.symlink(os.path.join(ROOT, "src"), os.path.join(perturbed, "src"))
        references = os.path.join(perturbed, "perfbench", "references.json")
        with open(references) as handle:
            pins = json.load(handle)
        key = sorted(pins["tiny"]["cora_trials"])[0]
        pins["tiny"]["cora_trials"][key][1] += 1e-12
        with open(references, "w") as handle:
            json.dump(pins, handle)
        result = result_of(run("--workload", "cora_trials", "--trace", "0", root=perturbed))
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"a perturbed pin of {key} was not counted: {result}")
        print(f"ok   perturbed pin of {key}: {result['failed']} of {result['attempted']} failed")

        process = run("--workload", "cora_trials", root=copy_benchmark(scratch, "bare"))
        if process.returncode == 0 or process.stdout.strip():
            raise AssertionError(f"ran without the library: {process.stdout!r}")
        print(f"ok   without src/: exit {process.returncode}, nothing printed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
