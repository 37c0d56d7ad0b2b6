"""Outside-in layer trace: time calls into the library's public functions.

Nothing inside ``src/repro`` is instrumented.  :class:`LayerTrace` replaces
each public function or method named in :data:`LAYERS` by a timing wrapper
while it is installed and puts the originals back when it is removed, so an
untraced unit runs the library's own code objects.

Time goes to the innermost named call: a call's *self time* is its duration
minus the named calls made inside it.  Summed over all layers the self times
therefore never count a second twice, and their total over a trial's wall
time is the trace coverage.  A call whose caller is the same layer (a
subclass method calling ``super()``) is not counted again.

Pool workers forked by ``repro.parallel.parallel_map`` inherit the installed
wrappers.  While a trace is installed, ``parallel_map`` hands each worker a
:class:`TimedTask`, which returns the worker's layer totals next to the
result, and the parent folds them in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: layer name -> the public call sites timed under it, each a
#: ``(module, attribute)`` pair where the attribute may be ``Class.method``.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "models.encode": [("repro.models.base", "GAEClusteringModel.encode")],
    "models.reconstruction_loss": [("repro.models.base", "GAEClusteringModel.reconstruction_loss")],
    "models.regularization_loss": [("repro.models.base", "GAEClusteringModel.regularization_loss")],
    "models.clustering_loss": [
        ("repro.models.base", "GAEClusteringModel.clustering_loss"),
        ("repro.models.base", "GAEClusteringModel.clustering_loss_with_target"),
    ],
    "models.refresh_clustering": [("repro.models.base", "GAEClusteringModel.refresh_clustering")],
    "nn.backward": [("repro.nn.tensor", "Tensor.backward")],
    "nn.optimizer_step": [("repro.nn.optim", "Optimizer.step")],
    "graph.propagation_matrix": [("repro.graph.sparse", "propagation_matrix")],
    "clustering.kmeans_fit": [("repro.clustering.kmeans", "KMeans.fit")],
    "clustering.gmm_fit": [("repro.clustering.gmm", "GaussianMixture.fit")],
    "core.xi": [("repro.core.sampling", "SamplingOperator.__call__")],
    "core.upsilon": [("repro.core.graph_transform", "GraphTransformOperator.__call__")],
    "minibatch.build_loader": [("repro.minibatch.loaders", "build_loader")],
    "minibatch.batch_wait": [("repro.minibatch.loaders", "MinibatchLoader.epoch_batches")],
    "store.get": [("repro.store.store", "ArtifactStore.get")],
    "store.put": [("repro.store.store", "ArtifactStore.put")],
    "metrics.evaluate": [("repro.metrics.report", "evaluate_clustering")],
}

_MISSING = object()

#: the trace whose wrappers are installed in this process (fork-inherited by
#: pool workers, which is how :class:`TimedTask` finds it there).
_ACTIVE: Optional["LayerTrace"] = None


def _subclasses(cls: type) -> List[type]:
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _signature_with(fn: Callable, *names: str) -> inspect.Signature:
    """``fn``'s signature, which must still have the parameters ``names``."""
    signature = inspect.signature(fn)
    missing = [name for name in names if name not in signature.parameters]
    if missing:
        raise RuntimeError(
            f"{fn.__qualname__} has no parameter {missing}: update perfbench/layers.py"
        )
    return signature


class LayerTrace:
    """Self time, call counts and counters of the layers in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []  # [layer name, child seconds]
        self._patches: List[Tuple[Any, str, Any]] = []
        #: summed wall time of the parallel_map tasks run under this trace.
        self.seconds_in_tasks = 0.0

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> List[Any]:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: List[Any], elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.seconds[name] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed
        if not stack or stack[-1][0] != name:
            self.calls[name] += 1

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def add(self, snapshot: Dict[str, Dict[str, float]], base=None) -> None:
        """Fold in ``snapshot`` (minus ``base``, when given)."""
        for field in ("seconds", "calls", "counts"):
            mine = getattr(self, field)
            before = base[field] if base is not None else {}
            for name, value in snapshot[field].items():
                mine[name] += value - before.get(name, 0)

    def named_seconds(self) -> float:
        return float(sum(self.seconds.values()))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable) -> Callable:
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, perf_counter() - start)

        return wrapper

    def _timed_generator(self, name: str, fn: Callable) -> Callable:
        """Time each ``next()`` of a generator: the wait for a batch."""
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = self._enter(name)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._leave(frame, perf_counter() - start)
                self.counts["minibatch.batches"] += 1
                yield item

        return wrapper

    def _store_get(self, fn: Callable) -> Callable:
        timed = self._timed("store.get", fn)
        signature = _signature_with(fn, "default")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = timed(*args, **kwargs)  # a miss without a default raises
            default = signature.bind(*args, **kwargs).arguments.get("default", _MISSING)
            if default is not _MISSING and value is default:
                self.counts["store.misses"] += 1
            else:
                self.counts["store.hits"] += 1
            return value

        return wrapper

    def _evaluate(self, fn: Callable) -> Callable:
        timed = self._timed("metrics.evaluate", fn)
        signature = _signature_with(fn, "true_labels", "predicted_labels")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = timed(*args, **kwargs)
            labels = signature.bind(*args, **kwargs).arguments
            if np.unique(labels["predicted_labels"]).size < np.unique(labels["true_labels"]).size:
                self.counts["metrics.degenerate_partitions"] += 1
            return report

        return wrapper

    def _parallel_map(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(task, items, *args, **kwargs):
            outputs = fn(TimedTask(task, os.getpid()), items, *args, **kwargs)
            results = []
            for result, seconds, worker_trace in outputs:
                self.seconds_in_tasks += seconds
                if worker_trace is not None:
                    self.add(worker_trace)
                results.append(result)
            return results

        return wrapper

    def _wrapper_for(self, name: str, fn: Callable) -> Callable:
        if name == "minibatch.batch_wait":
            return self._timed_generator(name, fn)
        if name == "store.get":
            return self._store_get(fn)
        if name == "metrics.evaluate":
            return self._evaluate(fn)
        return self._timed(name, fn)

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module_name: str, attribute: str, wrapper: Callable) -> None:
        """Rebind a module function everywhere ``repro`` imported it by name."""
        original = getattr(sys.modules[module_name], attribute)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def install(self, layers: bool = True) -> "LayerTrace":
        """Wrap every layer (``layers=False``: only the pool task timer)."""
        global _ACTIVE
        if self._patches:
            raise RuntimeError("trace already installed")
        import repro.parallel

        self._patch_function(
            "repro.parallel", "parallel_map", self._parallel_map(repro.parallel.parallel_map)
        )
        if layers:
            for name, sites in LAYERS.items():
                for module_name, attribute in sites:
                    module = importlib.import_module(module_name)
                    if "." not in attribute:
                        original = getattr(module, attribute)
                        self._patch_function(module_name, attribute, self._wrapper_for(name, original))
                        continue
                    class_name, method = attribute.split(".")
                    for cls in _subclasses(getattr(module, class_name)):
                        if method in cls.__dict__:
                            self._patch(cls, method, self._wrapper_for(name, cls.__dict__[method]))
        _ACTIVE = self
        return self

    def remove(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        _ACTIVE = None


class TimedTask:
    """A ``parallel_map`` task that also reports its own wall time.

    In a forked worker it returns the worker's layer totals for this task,
    which the parent adds to its trace; in the parent process (a serial map)
    the wrappers already recorded into the parent's trace.
    """

    def __init__(self, task: Callable, parent_pid: int) -> None:
        self.task = task
        self.parent_pid = parent_pid

    def __call__(self, item: Any):
        trace = _ACTIVE
        in_worker = trace is not None and os.getpid() != self.parent_pid
        before = trace.snapshot() if in_worker else None
        start = time.perf_counter()
        result = self.task(item)
        seconds = time.perf_counter() - start
        if not in_worker:
            return result, seconds, None
        delta = LayerTrace()
        delta.add(trace.snapshot(), base=before)
        return result, seconds, delta.snapshot()
