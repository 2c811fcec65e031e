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

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from fedsim.cli import manifest
from fedsim.config import config_from_dict, get_preset, preset_names
from fedsim.simulator import run_simulation_detailed

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "metrics_sha256.json"
MANIFEST_GOLDEN_PATH = GOLDEN_PATH.with_name("manifest_sha256.json")
ROW_DIGEST_CHARS = 16


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


def golden_cells():
    yield from preset_cells()
    yield from cohort_cells()


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


def test_preset_metrics_match_golden_digests(simulated):
    golden = json.loads(GOLDEN_PATH.read_text())
    cells = dict(golden_cells())
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


def test_manifests_match_golden_digests(simulated_result):
    golden = json.loads(MANIFEST_GOLDEN_PATH.read_text())
    cells = dict(golden_cells())
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
    for key, cfg in golden_cells():
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
