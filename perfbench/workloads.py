"""The benchmark's workloads: each builds one fedsim experiment config from a seed.

``paper-grid``      the shipped ``blobs-powerlaw-noniid`` preset: five scheme
                    cells at N=10 through ``fedsim run``.
``dvw-n400``        async_dvw with the preset's adaptive trigger at N=400, where
                    the distributed-validation fan-out dominates.
``mnist-mlp-sync``  sync_fedavg over a 784-128-10 MLP on generated MNIST-shaped
                    IDX files, where training is BLAS-bound.

Why each was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from pathlib import Path

from fedsim.config import get_preset

import idxgen

# The config default seed and one hold-out seed; golden.json holds the
# metrics.csv digests of every workload at both.
REFERENCE_SEEDS = (1990, 2008)

MNIST_TRAIN_PER_CLASS = 1200
MNIST_TEST_PER_CLASS = 200


def paper_grid(seed: int, data_dir: Path) -> dict:
    raw = get_preset("blobs-powerlaw-noniid")
    raw["seed"] = seed
    return raw


def dvw_n400(seed: int, data_dir: Path) -> dict:
    raw = get_preset("blobs-powerlaw-noniid")
    del raw["schemes"]
    raw.update(
        name="dvw-n400",
        seed=seed,
        num_learners=400,
        scheme="async_dvw",
        size_distribution={"kind": "uniform", "total": 8000},
        time_budget=4.0,
    )
    return raw


def mnist_mlp_sync(seed: int, data_dir: Path) -> dict:
    paths = idxgen.write_dataset(
        data_dir / f"mnist-{seed}", seed, MNIST_TRAIN_PER_CLASS, MNIST_TEST_PER_CLASS
    )
    return {
        "name": "mnist-mlp-sync",
        "seed": seed,
        "num_learners": 10,
        "dataset": {"kind": "idx", "num_classes": idxgen.NUM_CLASSES, **paths},
        "model": {"kind": "mlp-1hidden", "hidden_dim": 128},
        "size_distribution": {"kind": "uniform"},
        "class_assignment": {"kind": "iid"},
        "scheme": "sync_fedavg",
        "trigger": {"kind": "fixed", "uf": 4},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "time_budget": 5.0,
    }


WORKLOADS = {
    "paper-grid": paper_grid,
    "dvw-n400": dvw_n400,
    "mnist-mlp-sync": mnist_mlp_sync,
}
