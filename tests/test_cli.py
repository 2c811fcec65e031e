import json

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.config import get_preset
from fedsim.simulator import MetricsLog
from tests.test_data import write_idx_images, write_idx_labels


SMALL_CONFIG = {
    "name": "cli-test",
    "num_learners": 3,
    "dataset": {
        "kind": "blobs",
        "input_dim": 4,
        "num_classes": 3,
        "train_samples_per_class": 120,
        "test_samples_per_class": 40,
        "spread": 0.4,
    },
    "size_distribution": {"kind": "uniform", "total": 300},
    "scheme": "sync_fedavg",
    "trigger": {"kind": "fixed", "uf": 2},
    "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 50},
    "time_budget": 2.0,
    "max_versions": 8,
    "summary_times": [1.0, 2.0],
    "summary_rounds": [4],
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = dict(SMALL_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "sync_fedavg"
    assert summary["update_requests"] == summary["versions"] * 3
    assert "1.0" in summary["acc_at_time"]
    assert "4" in summary["acc_at_rounds"]


def test_run_twice_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"class_assignment": {"kind": "explicit", "per_learner_classes": [[2, 0], [1, 2], [1, 0]]}},
        {
            "num_learners": 10,
            "dataset": dict(SMALL_CONFIG["dataset"], num_classes=8),
            "class_assignment": {"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
        },
        {
            "scheme": "async_dvw",
            "speed_profiles": {"num_fast": 1},
            "trigger": {"kind": "adaptive", "vc_loss": 0.5, "vc_tomb": 1, "warmup_cycles": 2},
        },
    ],
    ids=["fixed", "explicit", "preset", "scalar-thresholds"],
)
def test_manifest_reproduces_run(tmp_path, overrides):
    cfg_path = write_config(tmp_path, overrides)
    out1 = tmp_path / "a"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    # re-running from the manifest's resolved config snapshot is exact
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "b"
    assert main(["run", "--config", str(replay_cfg), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["config"] == manifest["config"]


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, {"validation_fraction": 1.2})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "validation_fraction" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["sync_fedavg", "fedasync_poly"])
def test_negative_proximal_mu_exit_code(tmp_path, capsys, scheme):
    bad = write_config(tmp_path, {"scheme": scheme, "proximal_mu": -0.5})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "proximal_mu must be >= 0" in capsys.readouterr().err


def test_empty_schemes_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, {"schemes": []})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "schemes: must list at least one scheme" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_key_of_another_size_kind_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, {"size_distribution": {"kind": "uniform", "decay": 0.5}})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "size_distribution: unknown keys ['decay']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_shorthand_profile_zero_rate_exit_code(tmp_path, capsys):
    profiles = {"num_fast": 1, "slow": {"steps_per_second": 0}}
    bad = write_config(tmp_path, {"speed_profiles": profiles})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "speed_profiles.slow" in capsys.readouterr().err


def test_non_finite_number_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, {"hyperparameters": {"eta": float("nan")}})
    assert "NaN" in bad.read_text()
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "hyperparameters.eta: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "env"])
def test_seed_too_large_for_philox_exit_code(tmp_path, capsys, monkeypatch, source):
    if source == "env":
        monkeypatch.setenv("FEDSIM_SEED", str(2**128 + 1))
        bad = write_config(tmp_path)
    else:
        bad = write_config(tmp_path, {"seed": 2**128 + 1})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "seed: must be < 2**128" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, {"seed": 7})

    def run_seed(out):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        return json.loads((tmp_path / out / "manifest.json").read_text())["config"]["seed"]

    assert run_seed("file") == 7
    monkeypatch.setenv("FEDSIM_SEED", "123")
    assert run_seed("env") == 123
    monkeypatch.setenv("FEDSIM_SEED", "not-a-number")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
    assert "FEDSIM_SEED: not an integer" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"num_learners": 5, "size_distribution": {"kind": "uniform", "total": 3}},
            "cannot spread 3 samples across 5 learners",
        ),
        (
            {
                "num_learners": 10,
                "size_distribution": {"kind": "powerlaw", "total": 12, "exponent": 3},
            },
            "leaves a learner empty",
        ),
        (
            {"dataset": dict(SMALL_CONFIG["dataset"], input_dim=1, num_classes=3)},
            "1-D features admit at most two",
        ),
        (
            {
                "num_learners": 10,
                "dataset": {
                    "kind": "blobs", "input_dim": 2, "num_classes": 2, "train_samples_per_class": 10
                },
                "size_distribution": {"kind": "powerlaw"},
            },
            "config error: size_distribution: powerlaw distribution over 10 learners leaves a "
            "learner empty at total=20",
        ),
    ],
    ids=["uniform-total-below-learners", "powerlaw-empty-learner", "1d-3-classes", "powerlaw-pool-of-20"],
)
def test_unbuildable_config_exit_code(tmp_path, capsys, overrides, message):
    bad = write_config(tmp_path, overrides)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "assignment, message",
    [
        (
            {"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
            "class_assignment.name: 'noniid-8x1-4x1-3x8' defines 10 learners but num_learners=3",
        ),
        (
            {"kind": "explicit", "per_learner_classes": [[0], [1]]},
            "class_assignment.per_learner_classes: 2 lists for 3 learners",
        ),
        (
            {"kind": "explicit", "per_learner_classes": [[0], [], [1]]},
            "class_assignment.per_learner_classes[1]: learner 1 has an empty class list",
        ),
        (
            {"kind": "noniid", "classes_per_learner": 4},
            "class_assignment.classes_per_learner: 4 classes per learner outside [1, 3]",
        ),
        (
            {"kind": "explicit", "per_learner_classes": [[0], [1], [3]]},
            "class_assignment.per_learner_classes: rank 2 references a class outside [0, 3)",
        ),
    ],
    ids=["preset-of-10-for-3", "2-lists-for-3", "empty-list", "rotation-of-4", "class-3"],
)
def test_class_assignment_rejected_before_any_output(tmp_path, capsys, assignment, message):
    bad = write_config(tmp_path, {"class_assignment": assignment})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            {
                "num_learners": 3,
                "dataset": {
                    "kind": "blobs", "input_dim": 2, "num_classes": 4, "train_samples_per_class": 200
                },
                "class_assignment": {"kind": "noniid", "classes_per_learner": 2},
            },
            "error: class 0: assignments need 267 samples but only 200 exist (short 67)",
        ),
        (
            {
                "num_learners": 1,
                "seed": 900167,
                "dataset": {
                    "kind": "blobs", "input_dim": 1, "num_classes": 2,
                    "train_samples_per_class": 46, "test_samples_per_class": 7,
                },
                "model": {"kind": "softmax-regression"},
                "scheme": "async_dvw",
                "hyperparameters": {"eta": 0.01, "gamma": 0.5, "beta": 4},
                "time_budget": 3.0,
                "max_versions": 60,
                "size_distribution": {"kind": "uniform", "total": 7},
                "class_assignment": {"kind": "iid"},
                "trigger": {"kind": "fixed", "uf": 2},
            },
            "degenerate federation: normalizer would drop to 0.0 on commit from learner 0 (p=0.0)",
        ),
    ],
    ids=["class-capacity", "async-normalizer-zero"],
)
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, raw, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("num_classes", [0, 1, -3])
def test_idx_num_classes_below_two_exit_code(tmp_path, capsys, num_classes):
    # Rejected at parse, before any of the (absent) IDX files is read.
    files = {
        f"{part}_{kind}": str(tmp_path / f"{part}-{kind}.idx")
        for part in ("train", "test")
        for kind in ("images", "labels")
    }
    bad = write_config(tmp_path, {"dataset": {"kind": "idx", "num_classes": num_classes, **files}})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error: dataset: num_classes must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_idx_test_set_of_another_width_exit_code(tmp_path, capsys):
    # 2x2 training images and 3x3 test images: the build checks the test set
    # once, like each pool, and names the width.
    rng = np.random.default_rng(5)
    files = {}
    for part, side, n in (("train", 2, 90), ("test", 3, 30)):
        files[f"{part}_images"] = str(tmp_path / f"{part}-images.idx")
        files[f"{part}_labels"] = str(tmp_path / f"{part}-labels.idx")
        write_idx_images(files[f"{part}_images"], rng.integers(0, 256, (n, side, side)))
        write_idx_labels(files[f"{part}_labels"], np.arange(n) % 3)
    cfg = write_config(
        tmp_path, {"dataset": {"kind": "idx", **files}, "size_distribution": {"kind": "uniform"}}
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "feature dim 9 does not match input dim 4" in capsys.readouterr().err


@pytest.mark.parametrize("num_classes", [None, 3])
def test_idx_empty_training_file_exit_code(tmp_path, capsys, num_classes):
    # The training images' header counts 0 items: the build names the file.
    files = {}
    for part, n in (("train", 0), ("test", 6)):
        files[f"{part}_images"] = str(tmp_path / f"{part}-images.idx")
        files[f"{part}_labels"] = str(tmp_path / f"{part}-labels.idx")
        write_idx_images(files[f"{part}_images"], np.zeros((n, 2, 2)))
        write_idx_labels(files[f"{part}_labels"], np.arange(n) % 3)
    dataset = {"kind": "idx", **files}
    if num_classes is not None:
        dataset["num_classes"] = num_classes
    cfg = write_config(tmp_path, {"dataset": dataset, "size_distribution": {"kind": "uniform"}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"images item count: file {files['train_images']!r} holds no images" in err
    assert "zero-size array" not in err


@pytest.mark.parametrize(
    "num_classes, train_classes, named",
    [(3, 4, "train_labels"), (None, 3, "test_labels")],
    ids=["declared", "from-the-training-labels"],
)
def test_idx_label_outside_the_classes_exit_code(
    tmp_path, capsys, num_classes, train_classes, named
):
    # A label 3 against 3 classes, declared or taken from the training
    # labels (0-2): the build names the labels file that holds it.
    files = {}
    for part, classes in (("train", train_classes), ("test", 4)):
        files[f"{part}_images"] = str(tmp_path / f"{part}-images.idx")
        files[f"{part}_labels"] = str(tmp_path / f"{part}-labels.idx")
        write_idx_images(files[f"{part}_images"], np.zeros((40, 2, 2)))
        write_idx_labels(files[f"{part}_labels"], np.arange(40) % classes)
    dataset = {"kind": "idx", "num_classes": num_classes, **files}
    cfg = write_config(tmp_path, {"dataset": dataset, "size_distribution": {"kind": "uniform"}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    message = (
        f"error: labels: file {files[named]!r} holds class 3, outside "
        "dataset.num_classes=3 (as declared, or the training labels' largest + 1): "
        "labels must lie in [0, 3)"
    )
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["zero-pixel-images", "one-class-labels"])
def test_idx_file_without_pixels_or_classes_exit_code(tmp_path, capsys, case):
    # Training images of 0 x 2 pixels, or training labels all 0 with the class
    # count undeclared: the build names the file, and no output is made.
    files = {}
    for part in ("train", "test"):
        files[f"{part}_images"] = str(tmp_path / f"{part}-images.idx")
        files[f"{part}_labels"] = str(tmp_path / f"{part}-labels.idx")
        rows = 0 if case == "zero-pixel-images" and part == "train" else 2
        write_idx_images(files[f"{part}_images"], np.zeros((40, rows, 2)))
        labels = np.zeros(40) if case == "one-class-labels" else np.arange(40) % 3
        write_idx_labels(files[f"{part}_labels"], labels)
    cfg = write_config(
        tmp_path, {"dataset": {"kind": "idx", **files}, "size_distribution": {"kind": "uniform"}}
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    message = {
        "zero-pixel-images": (
            f"error: images shape: 0 x 2 pixels per image in {files['train_images']!r}\n"
        ),
        "one-class-labels": (
            f"error: labels: file {files['train_labels']!r} holds class 0 only; "
            "dataset.num_classes must be >= 2\n"
        ),
    }[case]
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run"]) == 2
    cfg_path = write_config(tmp_path)
    assert main(["run", "--config", str(cfg_path), "--preset", "blobs-uniform-iid"]) == 2


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "blobs-powerlaw-noniid" in out
    assert "blobs-uniform-iid" in out
    assert out == (
        "blobs-powerlaw-iid           scheme=fedasync_poly\n"
        "blobs-powerlaw-noniid        scheme=sync_fedavg,async_fedavg,sync_dvw,async_dvw,"
        "fedasync_poly\n"
        "blobs-skewed-iid             scheme=async_fedavg\n"
        "blobs-uniform-iid            scheme=sync_fedavg\n"
        "blobs-uniform-noniid2        scheme=sync_dvw\n"
    )


def test_grid_run_produces_cells_and_comparison(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        {
            "schemes": ["sync_fedavg", "async_dvw"],
            "scheme": "sync_fedavg",
            "time_budget": 1.0,
            "max_versions": 4,
            "summary_times": [1.0, 0.1 + 0.2],
        },
    )
    out = tmp_path / "grid"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "sync_fedavg" / "metrics.csv").exists()
    assert (out / "async_dvw" / "metrics.csv").exists()
    comparison = (out / "comparison.csv").read_text().splitlines()
    # a cutoff that :g does not write exactly is named by its repr
    assert comparison[0] == (
        "run,scheme,final_top1,update_requests,models_exchanged,dvw_eval_models,"
        "acc@1s,acc@0.30000000000000004s"
    )
    assert len(comparison) == 3


def test_compare_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg_path), "--out", str(out1)])
    cfg2 = write_config(tmp_path, {"scheme": "async_fedavg"}, name="cfg2.json")
    main(["run", "--config", str(cfg2), "--out", str(out2)])
    table_csv = tmp_path / "cmp.csv"
    rc = main(
        [
            "compare",
            str(out1 / "metrics.csv"),
            str(out2 / "metrics.csv"),
            "--at",
            "1.0",
            "--out",
            str(table_csv),
        ]
    )
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "sync_fedavg" in out_text and "async_fedavg" in out_text
    assert table_csv.exists()
    assert [line.split(",")[0] for line in table_csv.read_text().splitlines()] == ["run", "a", "b"]

    # distinct cutoffs never share a column; :g names those it writes exactly
    at = ["1234567", "1234568", "10", "0.5", "1e-07", "inf", "-inf"]
    csvs = [str(out1 / "metrics.csv"), str(out2 / "metrics.csv")]
    assert main(["compare", *csvs, *(f"--at={t}" for t in at), "--out", str(table_csv)]) == 0
    header, *rows = [line.split(",") for line in table_csv.read_text().splitlines()]
    assert header[6:] == [
        "acc@1234567.0s", "acc@1234568.0s", "acc@10s", "acc@0.5s", "acc@1e-07s", "acc@infs",
        "acc@-infs",
    ]
    for row in rows:  # inf reads the last row, -inf no row
        assert row[-2:] == [row[2], ""]
    # a NaN cutoff is refused like a bad source of fedsim run
    capsys.readouterr()
    assert main(["compare", *csvs, "--at=nan"]) == 2
    assert capsys.readouterr().err == "compare: --at must be a number, not nan\n"

    # grid-style runs whose directories share one name are told apart by
    # the shortest trailing part of their paths that is unique
    out3, out4 = tmp_path / "c" / "cell", tmp_path / "f" / "cell"
    for out in (out3, out4):
        main(["run", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    paths = [str(out / "metrics.csv") for out in (out3, out4, out1)]
    assert main(["compare", *paths, "--out", str(table_csv)]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["run", "c/cell", "f/cell", "a"]
    assert [line.split(",")[0] for line in table_csv.read_text().splitlines()] == names


def test_compare_rejects_mismatched_test_sets(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    other = write_config(
        tmp_path,
        {"dataset": dict(SMALL_CONFIG["dataset"], spread=0.9)},
        name="other.json",
    )
    # flat runs, then grid-style runs whose directories share one name
    for out1, out2 in ((tmp_path / "a", tmp_path / "b"), (tmp_path / "c" / "cell", tmp_path / "d" / "cell")):
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(other), "--out", str(out2)])
        capsys.readouterr()
        rc = main(["compare", str(out1 / "metrics.csv"), str(out2 / "metrics.csv")])
        assert rc == 3, out1
        assert "different test sets" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty metrics CSV"),
        (",".join(MetricsLog.columns) + "\n", "no rows after the header"),
        (
            ",".join(MetricsLog.columns) + "\n0.0,0,sync_fedavg,0.5,-1,0.0,0,init,0\n",
            "line 2: expected 10 fields, got 9",
        ),
        (
            ",".join(MetricsLog.columns) + "\n0.0,x,sync_fedavg,0.5,-1,0.0,0,init,0,0\n",
            "line 2: invalid literal for int() with base 10: 'x'",
        ),
        (
            ",".join(MetricsLog.columns) + "\n0.0,0,sync_fedavg,0.5,-1,0.0,0,init,0,0\n"
            "2.0,2,sync_fedavg,0.75,-1,1.0,0,fixed,6,3\n1.0,1,sync_fedavg,0.25,-1,1.0,0,fixed,3,3\n",
            "line 4: virtual_time or version goes back from the row before",
        ),
        (
            ",".join(MetricsLog.columns) + "\n0.0,0,sync_fedavg,0.5,-1,0.0,0,init,0,0\n"
            "1.0,2,sync_fedavg,0.75,-1,1.0,0,fixed,6,3\n1.0,1,sync_fedavg,0.25,-1,1.0,0,fixed,3,3\n",
            "line 4: virtual_time or version goes back from the row before",
        ),
        (
            ",".join(MetricsLog.columns) + "\n0.0,0,sync_fedavg,0.5,-1,0.0,0,init,0,0\n"
            "nan,1,sync_fedavg,0.75,-1,1.0,0,fixed,3,3\n1.0,2,sync_fedavg,0.25,-1,1.0,0,fixed,6,6\n",
            "line 3: virtual_time or version goes back from the row before, or is NaN",
        ),
        (
            ",".join(MetricsLog.columns) + "\n0.0,0,sync_fedavg,0.5,-1,0.0,0,init,0,0\n"
            "1.0,1,sync_fedavg,0.75,-1,1.0,0,fixed,6,3\n2.0,2,sync_fedavg,0.25,-1,1.0,0,fixed,4,7\n",
            "line 4: update_requests_cum goes back, or fewer than 2 models per request",
        ),
        (
            ",".join(MetricsLog.columns) + "\n0.0,0,sync_fedavg,0.5,-1,0.0,0,init,0,0\n"
            "1.0,1,sync_fedavg,0.75,-1,1.0,0,fixed,6,6\n",
            "line 3: update_requests_cum goes back, or fewer than 2 models per request",
        ),
    ],
    ids=[
        "empty", "header-only", "missing-field", "non-numeric", "time-goes-back",
        "version-goes-back", "nan-time", "exchanged-goes-back", "one-model-per-request",
    ],
)
def test_compare_rejects_malformed_csv(tmp_path, capsys, text, message):
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    assert main(["compare", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err


def test_non_dvw_exchange_in_comparison(tmp_path):
    cfg_path = write_config(tmp_path, {"scheme": "async_fedavg", "time_budget": 1.5})
    out = tmp_path / "a"
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    log = MetricsLog.from_csv(out / "metrics.csv")
    last = log.rows[-1]
    assert last.models_exchanged_cum == 2 * last.update_requests_cum


def test_preset_run(tmp_path):
    # the cheapest preset end-to-end through the CLI
    out = tmp_path / "preset-run"
    cfg = get_preset("blobs-uniform-iid")
    cfg["time_budget"] = 2.0
    cfg["max_versions"] = 3
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
