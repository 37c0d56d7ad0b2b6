"""The three workloads: what each one sets up and what one timed unit runs.

Each workload drives only public entry points of ``repro``
(``Pipeline.run``, ``run_model_pair`` and ``Pipeline.minibatch``) and
returns, per unit, the wall time of its timed parts and one
:class:`Trial` record per trained model, which ``run.py`` compares with
the pinned references and with the unit's repeats.

Every workload fixes its work: ``stop_at_convergence`` is off, so a trial
runs its full epoch budget whatever the seed, and the seed changes only the
generated inputs and the model initialisation.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Trial:
    """One trained model's scores, as compared with pins and repeats."""

    key: str
    scores: Tuple[float, float, float]  # ACC, NMI, ARI
    omega_coverage: Optional[float] = None  # final |Ω|/N of an R- trial
    epochs_run: int = 0


@dataclass
class Unit:
    """What one timed unit of a workload did."""

    #: wall seconds of each timed part; ``wall_s`` sums the per-part medians.
    parts: Dict[str, float]
    trials: List[Trial]
    #: summed wall time of the trials themselves (the trace coverage base).
    trial_seconds: float
    #: worker processes the unit ran its trials on.
    jobs: int = 1


def _scores(report) -> Tuple[float, float, float]:
    return (float(report.accuracy), float(report.nmi), float(report.ari))


def _rethink_trial(key: str, result) -> Trial:
    history = result.history
    return Trial(
        key=key,
        scores=_scores(result.report),
        omega_coverage=float(history.omega_coverage[-1]),
        epochs_run=int(history.epochs_run),
    )


class CoraTrials:
    """Serial R- trials of gae, dgae and gmm_vgae on ``cora_sim``."""

    name = "cora_trials"
    models = ("gae", "dgae", "gmm_vgae")
    trials_per_unit = len(models)
    #: fresh-process set-ups per run; ``setup_s`` is their median.
    setup_probes = 9

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        self.seed = seed
        self.epochs = 2 if tiny else 10

    def setup(self) -> Dict[str, float]:
        from repro.parallel import load_dataset_cached

        start = time.perf_counter()
        load_dataset_cached("cora_sim", self.seed, {})
        return {"datasets.load_s": time.perf_counter() - start}

    def unit(self) -> Unit:
        from repro.api import Pipeline

        parts: Dict[str, float] = {}
        trials = []
        for model in self.models:
            pipeline = (
                Pipeline()
                .dataset("cora_sim", seed=self.seed)
                .model(model)
                .rethink(stop_at_convergence=False)
                .seed(self.seed)
                .training(pretrain_epochs=self.epochs, rethink_epochs=self.epochs)
                .warm_start(False)
            )
            start = time.perf_counter()
            result = pipeline.run()
            parts[model] = time.perf_counter() - start
            trials.append(_rethink_trial(f"cora_sim/{model}/seed{self.seed}", result))
        return Unit(parts=parts, trials=trials, trial_seconds=sum(parts.values()))

    def close(self) -> None:
        pass


class AirPairSweep:
    """D / R-D pairs of dgae and gmm_vgae on the two smaller air graphs."""

    name = "air_pair_sweep"
    models = ("dgae", "gmm_vgae")
    datasets = ("brazil_air_sim", "europe_air_sim")
    jobs = 2
    seeds_per_pair = 2
    trials_per_unit = len(models) * len(datasets) * seeds_per_pair * 2
    setup_probes = 9

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        from repro.experiments.config import ExperimentConfig

        self.seed = seed
        epochs = (3, 2, 3) if tiny else (35, 25, 35)
        self.config = ExperimentConfig(
            pretrain_epochs=epochs[0],
            clustering_epochs=epochs[1],
            rethink_epochs=epochs[2],
            num_trials=self.seeds_per_pair,
            base_seed=seed,
        )
        self.work_dir = work_dir

    def setup(self) -> Dict[str, float]:
        from repro.parallel import load_dataset_cached

        start = time.perf_counter()
        for dataset in self.datasets:
            load_dataset_cached(dataset, seed=self.seed)
        return {"datasets.load_s": time.perf_counter() - start}

    def unit(self) -> Unit:
        from repro.experiments.runner import run_model_pair

        stores = [
            tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
            for _ in range(len(self.models) * len(self.datasets))
        ]
        pairs = []
        parts: Dict[str, float] = {}
        for model in self.models:
            for dataset in self.datasets:
                start = time.perf_counter()
                pairs.append(
                    run_model_pair(
                        model,
                        dataset,
                        self.config,
                        rethink_overrides={"stop_at_convergence": False},
                        jobs=self.jobs,
                        store_dir=stores[len(pairs)],
                    )
                )
                parts[f"{model}/{dataset}"] = time.perf_counter() - start
        for store in stores:
            shutil.rmtree(store)
        trials = []
        for pair in pairs:
            for base, rethink in zip(pair.base_trials, pair.rethink_trials):
                prefix = f"{pair.dataset}/{pair.model}/seed{base.seed}"
                trials.append(Trial(key=f"{prefix}/base", scores=_scores(base.report)))
                history = rethink.extra["history"]
                trials.append(
                    Trial(
                        key=f"{prefix}/rethink",
                        scores=_scores(rethink.report),
                        omega_coverage=float(history.omega_coverage[-1]),
                        epochs_run=int(history.epochs_run),
                    )
                )
        # The trial time of a pooled sweep is measured inside the workers
        # (LayerTrace.seconds_in_tasks); the caller fills it in.
        return Unit(parts=parts, trials=trials, trial_seconds=0.0, jobs=self.jobs)

    def close(self) -> None:
        pass


def planted_partition_graph(num_nodes: int, seed: int):
    """A sparse labelled graph: 6 planted clusters, average degree 16.

    Edges are drawn in O(E) (80% inside a cluster), so building the graph
    costs what the dense ``AttributedGraph`` container itself costs.
    Features are noisy copies of a per-cluster centre.
    """
    from repro.graph.graph import AttributedGraph

    num_clusters, avg_degree, feature_dim = 6, 16, 32
    rng = np.random.default_rng([seed, num_nodes])
    labels = rng.integers(0, num_clusters, size=num_nodes)
    draws = num_nodes * avg_degree  # twice the kept edges, to survive dedup
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=num_clusters)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    source = rng.integers(0, num_nodes, size=draws)
    cluster = labels[source]
    same = members[offsets[cluster] + (rng.random(draws) * sizes[cluster]).astype(np.int64)]
    target = np.where(rng.random(draws) < 0.8, same, rng.integers(0, num_nodes, size=draws))
    low, high = np.minimum(source, target), np.maximum(source, target)
    keys = np.unique((low * num_nodes + high)[low < high])
    keys = rng.permutation(keys)[: num_nodes * avg_degree // 2]
    rows, cols = keys // num_nodes, keys % num_nodes
    adjacency = np.zeros((num_nodes, num_nodes))
    adjacency[rows, cols] = 1.0
    adjacency[cols, rows] = 1.0
    centres = rng.standard_normal((num_clusters, feature_dim))
    features = 0.5 * centres[labels] + rng.standard_normal((num_nodes, feature_dim))
    return AttributedGraph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        name=f"planted_{num_nodes}",
    )


class MinibatchLarge:
    """A cluster-loader R- phase of gae on a generated N=8000 graph."""

    name = "minibatch_large"
    trials_per_unit = 1
    #: fewer probes: each builds the N=8000 graph (about 4 s), and a
    #: run's probes agree within a few percent.
    setup_probes = 3

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        self.seed = seed
        self.num_nodes = 1200 if tiny else 8000
        self.batch_size = 300 if tiny else 1000
        self.graph = None

    def setup(self) -> Dict[str, float]:
        start = time.perf_counter()
        self.graph = planted_partition_graph(self.num_nodes, self.seed)
        return {"datasets.load_s": time.perf_counter() - start}

    def unit(self) -> Unit:
        from repro.api import Pipeline

        pipeline = (
            Pipeline()
            .graph(self.graph)
            .model("gae")
            .minibatch("cluster", batch_size=self.batch_size)
            .rethink(stop_at_convergence=False, update_omega_every=1, update_graph_every=1)
            .seed(self.seed)
            .training(pretrain_epochs=0, rethink_epochs=2)
            .warm_start(False)
        )
        start = time.perf_counter()
        result = pipeline.run()
        wall = time.perf_counter() - start
        trial = _rethink_trial(f"planted_{self.num_nodes}/gae/seed{self.seed}", result)
        return Unit(parts={"phase": wall}, trials=[trial], trial_seconds=wall)

    def close(self) -> None:
        self.graph = None


WORKLOADS = (CoraTrials, AirPairSweep, MinibatchLarge)


def make_workload(name: str, seed: int, tiny: bool, work_dir: str):
    """The named workload; ``work_dir`` is scratch space inside the checkout."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload(seed, tiny, work_dir)
    raise ValueError(f"unknown workload {name!r}")
