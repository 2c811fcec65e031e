"""Golden metrics.csv digests for every cell of every shipped preset, plus
cells whose learners train in multi-learner cohorts.

Acceptance criterion 11 proves that one code version replays itself byte for
byte. This test carries that proof across code changes: every golden cell's
``metrics.csv`` must hash to the sha256 recorded in
``tests/golden/metrics_sha256.json``. The file also keeps one short digest per
CSV line, so a mismatch names the cell and the first row that differs.

``tests/golden/manifest_sha256.json`` pins each golden cell's
``manifest.json`` the same way, without its wall-clock seconds: the resolved
config, the test-set fingerprint, the sizes and every learner's sizes and
class histogram. It keeps one short digest per field, so a mismatch names the
field. Both checks read the same simulated runs.

The digests are pinned to the numpy and BLAS build they were recorded with
(the ``platform`` field of the JSON files): a different BLAS may round matrix
products differently and move every row. Re-record only for a declared
behaviour change or a new platform:

    PYTHONPATH=src python -m tests.test_golden --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedsim.cli import manifest
from fedsim.config import config_from_dict, get_preset, preset_names
from fedsim.simulator import run_simulation_detailed
from tests.test_data import write_idx_images, write_idx_labels

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "metrics_sha256.json"
MANIFEST_GOLDEN_PATH = GOLDEN_PATH.with_name("manifest_sha256.json")
ROW_DIGEST_CHARS = 16
IDX_PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


def platform_key() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}"


def preset_cells():
    """(``<preset>/<scheme>``, config) for every cell of every shipped preset."""
    for name in preset_names():
        cfg = config_from_dict(get_preset(name))
        for cell in [cfg.with_scheme(s) for s in cfg.schemes] if cfg.schemes else [cfg]:
            yield f"{name}/{cell.scheme}", cell


def cohort_cells():
    """Cells in which many epochs end at one virtual instant.

    40 learners hold uniform data sizes (50 or 51 samples), and the 35 slow
    ones share a speed profile, so nearly every epoch shares its instant with
    others and trains in a cohort of several learners. The ``multistep``
    variant lowers the batch size below the local data size, so its cohorts
    take several steps per epoch. fedasync_poly trains with its proximal pull
    (mu = rho > 0).
    """
    raw = get_preset("blobs-powerlaw-noniid")
    raw.update(
        num_learners=40,
        size_distribution={"kind": "uniform", "total": 2010},
        schemes=["async_dvw", "async_fedavg", "fedasync_poly"],
        time_budget=3.0,
    )
    variants = (
        ("cohort-n40", raw["schemes"], {}),
        ("cohort-n40-multistep", ["async_dvw", "fedasync_poly"], {"beta": 16}),
    )
    for name, schemes, hyper in variants:
        cfg = config_from_dict(
            dict(raw, name=name, hyperparameters={**raw["hyperparameters"], **hyper})
        )
        for scheme in schemes:
            yield f"{name}/{scheme}", cfg.with_scheme(scheme)


def write_idx_pair(data_dir: Path) -> dict:
    """1,000 training and 200 test 28 x 28 images of 10 classes as IDX files
    in ``data_dir``, a function of nothing else: each image is its class's
    random prototype plus clipped noise. Returns the config's four paths."""
    rng = np.random.default_rng(2720)
    prototypes = rng.integers(0, 256, (10, 28 * 28))
    paths = {}
    for part, n in (("train", 1000), ("test", 200)):
        labels = rng.permutation(np.arange(n) % 10)
        noisy = prototypes[labels] + rng.normal(0.0, 150.0, (n, 28 * 28))
        images = np.rint(np.clip(noisy, 0, 255)).reshape(n, 28, 28)
        paths[f"{part}_images"] = str(data_dir / f"{part}-images-idx3-ubyte")
        paths[f"{part}_labels"] = str(data_dir / f"{part}-labels-idx1-ubyte")
        write_idx_images(paths[f"{part}_images"], images)
        write_idx_labels(paths[f"{part}_labels"], labels)
    return paths


def idx_cells(data_dir: Path):
    """Cells of a 784-16-10 MLP and of softmax regression on ``write_idx_pair``'s
    files: 10 learners of two speeds, two classes each. ``async_dvw`` runs the
    adaptive trigger, so it reads every learner's validation loss."""
    files = write_idx_pair(data_dir)
    models = (
        ("idx-mlp", {"kind": "mlp-1hidden", "hidden_dim": 16}),
        ("idx-softmax", {"kind": "softmax-regression"}),
    )
    for name, model in models:
        cfg = config_from_dict(
            {
                "name": name,
                "num_learners": 10,
                "dataset": {"kind": "idx", "num_classes": 10, **files},
                "model": model,
                "speed_profiles": {
                    "num_fast": 5,
                    "fast": {"steps_per_second": 100.0, "eval_samples_per_second": 2000.0},
                    "slow": {"steps_per_second": 25.0, "eval_samples_per_second": 500.0},
                },
                "size_distribution": {"kind": "uniform"},
                "class_assignment": {"kind": "noniid", "classes_per_learner": 2},
                "schemes": ["sync_fedavg", "sync_dvw", "fedasync_poly", "async_dvw"],
                "trigger": {
                    "kind": "adaptive",
                    "vc_loss": {"fast": 0.0, "slow": 1.0},
                    "vc_tomb": {"fast": 2, "slow": 1},
                    "warmup_cycles": 3,
                    "max_epochs_per_cycle": 8,
                    "fixed_uf": 2,
                },
                "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 32},
                "time_budget": 1.5,
            }
        )
        for scheme in cfg.schemes:
            yield f"{name}/{scheme}", cfg.with_scheme(scheme)


def golden_cells(data_dir: Path):
    yield from preset_cells()
    yield from cohort_cells()
    yield from idx_cells(data_dir)


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("idx-golden")


def digest(text: str) -> dict:
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "rows": [
            hashlib.sha256(line.encode()).hexdigest()[:ROW_DIGEST_CHARS]
            for line in text.splitlines()
        ],
    }


def manifest_digest(cfg, result) -> dict:
    """Digests of ``manifest.json`` as ``fedsim run`` writes it, without its
    wall-clock seconds, and of each of its fields."""
    fields = manifest(cfg, result)
    dataset = fields["config"]["dataset"]
    for key in IDX_PATH_KEYS if dataset["kind"] == "idx" else ():
        dataset[key] = Path(dataset[key]).name
    return {
        "sha256": hashlib.sha256((json.dumps(fields, indent=2) + "\n").encode()).hexdigest(),
        "fields": {
            name: hashlib.sha256(json.dumps(value).encode()).hexdigest()[:ROW_DIGEST_CHARS]
            for name, value in fields.items()
        },
    }


def first_difference(got: dict, want: dict, text: str) -> str:
    for row, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        if g != w:
            return f"first differing row {row}: {text.splitlines()[row]!r}"
    return f"row count {len(got['rows'])} != expected {len(want['rows'])}"


def test_preset_metrics_match_golden_digests(simulated, idx_dir):
    golden = json.loads(GOLDEN_PATH.read_text())
    cells = dict(golden_cells(idx_dir))
    assert sorted(cells) == sorted(golden["cells"]), "cells differ from the golden set"
    failures = []
    for key, cfg in cells.items():
        text = simulated(cfg).to_csv()
        got, want = digest(text), golden["cells"][key]
        if got["sha256"] != want["sha256"]:
            failures.append(f"{key}: {first_difference(got, want, text)}")
    assert not failures, (
        f"metrics.csv digests moved (recorded on {golden['platform']!r}, "
        f"running on {platform_key()!r}):\n" + "\n".join(failures)
    )


def test_manifests_match_golden_digests(simulated_result, idx_dir):
    golden = json.loads(MANIFEST_GOLDEN_PATH.read_text())
    cells = dict(golden_cells(idx_dir))
    assert sorted(cells) == sorted(golden["cells"]), "cells differ from the golden set"
    failures = []
    for key, cfg in cells.items():
        got, want = manifest_digest(cfg, simulated_result(cfg)), golden["cells"][key]
        if got["sha256"] != want["sha256"]:
            moved = [name for name in want["fields"] if got["fields"].get(name) != want["fields"][name]]
            failures.append(f"{key}: fields {moved or sorted(got['fields'])} differ")
    assert not failures, (
        f"manifest.json digests moved (recorded on {golden['platform']!r}, "
        f"running on {platform_key()!r}):\n" + "\n".join(failures)
    )


def record() -> None:
    metrics, manifests = {}, {}
    with tempfile.TemporaryDirectory() as data_dir:
        for key, cfg in golden_cells(Path(data_dir)):
            result = run_simulation_detailed(cfg)
            metrics[key] = digest(result.log.to_csv())
            manifests[key] = manifest_digest(cfg, result)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    for path, cells in ((GOLDEN_PATH, metrics), (MANIFEST_GOLDEN_PATH, manifests)):
        golden = {"platform": platform_key(), "cells": cells}
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"recorded {len(cells)} cells to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
