import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.config import (
    CLASS_COUNT_PRESETS,
    ConfigError,
    config_from_dict,
    get_preset,
    parse_config,
    preset_names,
)
from fedsim.data import PowerlawSizes, SkewedSizes, UniformSizes, compute_sizes
from fedsim.learner import AdaptivePolicy, FixedPolicy
from fedsim.weighting import SCHEMES
from tests.conftest import REPO


MINIMAL = {
    "num_learners": 10,
    "dataset": {
        "kind": "blobs",
        "input_dim": 8,
        "num_classes": 4,
        "train_samples_per_class": 500,
    },
}
TWENTY_BLOBS = {"kind": "blobs", "input_dim": 2, "num_classes": 2, "train_samples_per_class": 10}
IDX_DATASET = {
    "kind": "idx",
    "train_images": "train-images.idx",
    "train_labels": "train-labels.idx",
    "test_images": "test-images.idx",
    "test_labels": "test-labels.idx",
}


def test_minimal_config_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.validation_fraction == 0.05
    assert cfg.seed == 1990
    assert cfg.scheme == "sync_fedavg"
    assert cfg.trigger.kind == "fixed"
    assert cfg.trigger.uf == 4
    assert cfg.num_learners == 10
    assert len(cfg.speed_profiles) == 10
    assert all(p.group == "fast" for p in cfg.speed_profiles)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(dict(MINIMAL, bogus=1))
    with pytest.raises(ConfigError, match="dataset"):
        config_from_dict(
            dict(MINIMAL, dataset=dict(MINIMAL["dataset"], extra_field=2))
        )


@pytest.mark.parametrize("num_classes", [0, 1, -3])
def test_idx_num_classes_below_two_rejected(num_classes):
    with pytest.raises(ConfigError, match=r"^dataset: num_classes must be >= 2$"):
        config_from_dict(dict(MINIMAL, dataset=dict(IDX_DATASET, num_classes=num_classes)))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dataset": {"kind": "idx"}}, "dataset.train_images: missing required field"),
        ({"dataset": dict(IDX_DATASET, num_classes=2.5)}, "dataset.num_classes: expected int"),
        ({"model": {"hidden_dim": "8"}}, "model.hidden_dim: expected int, got str"),
        (
            {"num_learners": 2, "speed_profiles": [{"group": "fast"}, {}]},
            r"speed_profiles\[0\]\.steps_per_second: missing required field",
        ),
        ({"size_distribution": {"total": 40}}, "size_distribution.kind: missing required field"),
        ({"size_distribution": {"kind": "skewed", "decay": 2}}, "size_distribution: skew decay"),
        ({"trigger": {"kind": "fixed", "uf": 0}}, "trigger: update frequency uf must be >= 1"),
        (
            {"scheme": "async_dvw", "trigger": {"kind": "adaptive", "fixed_uf": True}},
            "trigger.fixed_uf: expected an integer, got a boolean",
        ),
        (
            {"scheme": "async_dvw", "trigger": {"kind": "adaptive", "fixed_uf": 0}},
            "trigger.fixed_uf: update frequency uf must be >= 1",
        ),
        ({"hyperparameters": {"beta": 0}}, "hyperparameters: batch size beta must be >= 1"),
        ({"hyperparameters": {"batch_size": 10}}, r"hyperparameters: unknown keys \['batch_size'\]"),
        ({"fedasync": {"alpha": 0}}, r"fedasync: alpha must lie in \(0, 1\]"),
    ],
)
def test_section_fields_are_read_at_their_paths(overrides, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        config_from_dict(dict(MINIMAL, **overrides))


def test_validation_fraction_range_check():
    with pytest.raises(ConfigError, match="validation_fraction"):
        config_from_dict(dict(MINIMAL, validation_fraction=1.2))


def test_missing_required_field_names_path():
    with pytest.raises(ConfigError, match="num_learners"):
        config_from_dict({"dataset": MINIMAL["dataset"]})
    with pytest.raises(ConfigError, match="dataset.input_dim"):
        config_from_dict(dict(MINIMAL, dataset={"kind": "blobs", "num_classes": 4,
                                                "train_samples_per_class": 10}))


def test_bad_scheme_rejected():
    with pytest.raises(ConfigError, match="scheme"):
        config_from_dict(dict(MINIMAL, scheme="gossip"))


def test_noniid_rotation_expansion():
    cfg = config_from_dict(
        dict(MINIMAL, class_assignment={"kind": "noniid", "classes_per_learner": 3})
    )
    assignment = cfg.class_assignment.resolve(10, 10)
    assert all(len(c) == 3 for c in assignment)
    covered = set()
    for classes in assignment:
        covered.update(classes)
    assert covered == set(range(10))


def test_class_count_preset_lookup():
    cfg = config_from_dict(
        dict(
            MINIMAL,
            dataset=dict(MINIMAL["dataset"], num_classes=10),  # the preset takes 8 classes
            class_assignment={"kind": "preset", "name": "noniid-8x1-7x1-6x1-5x7"},
        )
    )
    assignment = cfg.class_assignment.resolve(10, 10)
    counts = [len(c) for c in assignment]
    assert counts == CLASS_COUNT_PRESETS["noniid-8x1-7x1-6x1-5x7"]


@pytest.mark.parametrize(
    "num_learners, assignment, message",
    [
        (
            3,
            {"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
            "class_assignment.name: 'noniid-8x1-4x1-3x8' defines 10 learners but num_learners=3",
        ),
        (
            3,
            {"kind": "explicit", "per_learner_classes": [[0], [1]]},
            "class_assignment.per_learner_classes: 2 lists for 3 learners",
        ),
        (
            3,
            {"kind": "explicit", "per_learner_classes": [[0], [], [1]]},
            "class_assignment.per_learner_classes[1]: learner 1 has an empty class list",
        ),
        (
            3,
            {"kind": "explicit", "per_learner_classes": [[0], [1], [2, -1]]},
            "class_assignment.per_learner_classes[2]: learner 2 has a negative class index",
        ),
        (3, {"kind": "explicit"}, "class_assignment.per_learner_classes: missing required field"),
        (3, {"kind": "noniid"}, "class_assignment.classes_per_learner: missing required field"),
        (
            3,
            {"kind": "noniid", "classes_per_learner": 0},
            "class_assignment.classes_per_learner: must be >= 1",
        ),
        (10, {"kind": "preset"}, "class_assignment.name: missing required field"),
        (
            10,
            {"kind": "preset", "name": "noniid-1x10"},
            "class_assignment.name: unknown preset 'noniid-1x10'; available: "
            + str(sorted(CLASS_COUNT_PRESETS)),
        ),
        (
            3,
            {"kind": "iid", "name": "noniid-8x1-4x1-3x8"},
            "class_assignment: unknown keys ['name']",
        ),
        (3, {"classes_per_learner": 2}, "class_assignment.kind: missing required field"),
        (
            3,
            {"kind": "rotation"},
            "class_assignment.kind: expected iid/noniid/preset/explicit, got 'rotation'",
        ),
    ],
    ids=[
        "preset-of-10-for-3",
        "2-lists-for-3",
        "empty-list",
        "negative-class",
        "explicit-without-lists",
        "noniid-without-count",
        "noniid-zero",
        "preset-without-name",
        "unknown-preset",
        "iid-with-name",
        "no-kind",
        "unknown-kind",
    ],
)
def test_class_assignment_checked_at_parse(num_learners, assignment, message):
    raw = dict(MINIMAL, num_learners=num_learners, class_assignment=assignment)
    with pytest.raises(ConfigError) as raised:
        config_from_dict(raw)
    assert str(raised.value) == message


def adaptive(**keys) -> dict:
    """Overrides that set an adaptive trigger of ``keys`` under async_dvw."""
    return {"scheme": "async_dvw", "trigger": {"kind": "adaptive", **keys}}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"trigger": {"kind": "fixed", "vc_loss": 1}}, "trigger: unknown keys ['vc_loss']"),
        (adaptive(uf=2), "trigger: unknown keys ['uf']"),
        (
            {"dataset": dict(MINIMAL["dataset"], train_images="train-images.idx")},
            "dataset: unknown keys ['train_images']",
        ),
        ({"dataset": dict(IDX_DATASET, spread=0.3)}, "dataset: unknown keys ['spread']"),
        (
            {"dataset": dict(MINIMAL["dataset"], kind="csv")},
            "dataset.kind: expected blobs/idx, got 'csv'",
        ),
        ({"trigger": {"kind": "random"}}, "trigger.kind: expected fixed/adaptive, got 'random'"),
        (
            {"size_distribution": {"kind": "uniform", "decay": 0.5}},
            "size_distribution: unknown keys ['decay']",
        ),
        (
            {"size_distribution": {"kind": "powerlaw", "decay": 0.5}},
            "size_distribution: unknown keys ['decay']",
        ),
        (
            {"size_distribution": {"kind": "skewed", "exponent": 2}},
            "size_distribution: unknown keys ['exponent']",
        ),
        (
            {"size_distribution": {"kind": "x"}},
            "size_distribution.kind: expected uniform/skewed/powerlaw, got 'x'",
        ),
        ({"dataset": {"input_dim": 8}}, "dataset.kind: missing required field"),
        ({"trigger": {"uf": 2}}, "trigger.kind: missing required field"),
        ({"trigger": {"kind": 1}}, "trigger.kind: expected str, got int"),
        (adaptive(vc_loss=-1), "trigger: vc_loss must be >= 0"),
        (adaptive(vc_loss="high"), "trigger.vc_loss: expected float, got str"),
        (adaptive(vc_tomb=True), "trigger.vc_tomb: expected an integer, got a boolean"),
        (adaptive(vc_tomb={"fast": 1}), "trigger.vc_tomb.slow: missing required field"),
        (
            adaptive(vc_tomb={"fast": 1, "slow": 1.5}),
            "trigger.vc_tomb.slow: expected int, got float",
        ),
        (
            adaptive(vc_loss={"fast": 1, "slow": 1, "medium": 1}),
            "trigger.vc_loss: unknown keys ['medium']",
        ),
    ],
    ids=[
        "fixed-with-vc_loss",
        "adaptive-with-uf",
        "blobs-with-train_images",
        "idx-with-spread",
        "unknown-dataset-kind",
        "unknown-trigger-kind",
        "uniform-with-decay",
        "powerlaw-with-decay",
        "skewed-with-exponent",
        "unknown-size-kind",
        "dataset-without-kind",
        "trigger-without-kind",
        "kind-not-a-string",
        "negative-vc_loss",
        "string-vc_loss",
        "boolean-vc_tomb",
        "vc_tomb-without-slow",
        "float-vc_tomb-for-slow",
        "vc_loss-for-a-third-group",
    ],
)
def test_sections_read_by_kind(overrides, message):
    with pytest.raises(ConfigError) as raised:
        config_from_dict(dict(MINIMAL, **overrides))
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "num_learners, num_classes, assignment, expected",
    [
        (2, 3, {"kind": "iid"}, ((0, 1, 2), (0, 1, 2))),
        (
            4,
            4,
            {"kind": "noniid", "classes_per_learner": 3},
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        ),
        (
            10,
            8,
            {"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
            (
                (0, 1, 2, 3, 4, 5, 6, 7),
                (0, 1, 2, 3),
                (4, 5, 6),
                (0, 1, 7),
                (2, 3, 4),
                (5, 6, 7),
                (0, 1, 2),
                (3, 4, 5),
                (0, 6, 7),
                (1, 2, 3),
            ),
        ),
        (2, 3, {"kind": "explicit", "per_learner_classes": [[2, 0, 0], [1]]}, ((0, 2), (1,))),
    ],
    ids=["iid", "rotation-wrapping", "preset-wrapping", "explicit-unsorted"],
)
def test_class_assignment_resolves_to_each_ranks_sorted_classes(
    num_learners, num_classes, assignment, expected
):
    # The order matters: a rank's remainder samples go to its first classes.
    raw = dict(MINIMAL, num_learners=num_learners, dataset=IDX_DATASET)
    cfg = config_from_dict(dict(raw, class_assignment=assignment))
    assert cfg.class_assignment.resolve(num_learners, num_classes) == expected


def test_class_assignment_checks_against_the_class_count_at_build():
    # An IDX dataset without num_classes has its class count only once it is read.
    cfg = config_from_dict(
        dict(
            MINIMAL,
            dataset=IDX_DATASET,
            class_assignment={"kind": "noniid", "classes_per_learner": 3},
        )
    )
    with pytest.raises(ValueError, match=r"^3 classes per learner outside \[1, 2\]$"):
        cfg.class_assignment.resolve(10, 2)


@pytest.mark.parametrize("dataset", [MINIMAL["dataset"], dict(IDX_DATASET, num_classes=4)])
@pytest.mark.parametrize(
    "num_learners, assignment, message",
    [
        (
            3,
            {"kind": "noniid", "classes_per_learner": 5},
            "class_assignment.classes_per_learner: 5 classes per learner outside [1, 4]",
        ),
        (
            10,
            {"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
            "class_assignment.name: class count 8 outside [1, 4]",
        ),
        (
            3,
            {"kind": "explicit", "per_learner_classes": [[0], [1, 4], [2]]},
            "class_assignment.per_learner_classes: rank 1 references a class outside [0, 4)",
        ),
    ],
    ids=["rotation-of-5", "preset-of-8", "class-4"],
)
def test_class_assignment_checked_against_a_declared_class_count_at_parse(
    dataset, num_learners, assignment, message
):
    raw = dict(MINIMAL, num_learners=num_learners, dataset=dataset, class_assignment=assignment)
    with pytest.raises(ConfigError) as raised:
        config_from_dict(raw)
    assert str(raised.value) == message
    # Without a declared class count the check waits for the IDX files.
    undeclared = dict(raw, dataset=IDX_DATASET)
    with pytest.raises(ValueError) as raised:
        config_from_dict(undeclared).class_assignment.resolve(num_learners, 4)
    assert message.endswith(str(raised.value))


@pytest.mark.parametrize(
    "extra",
    [
        {"speed_profiles": {"fast": {}}},
        {"speed_profiles": {"num_fast": 0}},
        {"speed_profiles": []},
        {"size_distribution": {"kind": "uniform", "total": 100}},
    ],
    ids=["shorthand", "num-fast-0", "empty-list", "size-distribution"],
)
@pytest.mark.parametrize("num_learners", [-1, 0])
def test_num_learners_is_reported_before_the_sections_it_sizes(num_learners, extra):
    with pytest.raises(ConfigError) as raised:
        config_from_dict(dict(MINIMAL, num_learners=num_learners, **extra))
    assert str(raised.value) == "num_learners: must be >= 1"


@pytest.mark.parametrize(
    "with_null, without",
    [
        ({"model": None}, {}),
        ({"trigger": None}, {}),
        ({"hyperparameters": None}, {}),
        ({"fedasync": None}, {}),
        ({"size_distribution": None}, {}),
        ({"class_assignment": None}, {}),
        ({"speed_profiles": None}, {}),
        ({"speed_profiles": {"num_fast": 4, "fast": None}}, {"speed_profiles": {"num_fast": 4}}),
        (
            {"scheme": "async_dvw", "trigger": {"kind": "adaptive", "vc_loss": None}},
            {"scheme": "async_dvw", "trigger": {"kind": "adaptive"}},
        ),
    ],
    ids=[
        "model",
        "trigger",
        "hyperparameters",
        "fedasync",
        "size_distribution",
        "class_assignment",
        "speed_profiles",
        "speed_profiles.fast",
        "trigger.vc_loss",
    ],
)
def test_null_section_means_unset(with_null, without):
    unset = config_from_dict(dict(MINIMAL, **without))
    assert config_from_dict(dict(MINIMAL, **with_null)) == unset


def test_null_dataset_is_missing():
    with pytest.raises(ConfigError, match="^dataset: missing required field$"):
        config_from_dict(dict(MINIMAL, dataset=None))


def test_adaptive_trigger_requires_async_dvw():
    trig = {"kind": "adaptive", "vc_loss": 0.5, "vc_tomb": 1}
    with pytest.raises(ConfigError, match="async_dvw"):
        config_from_dict(dict(MINIMAL, scheme="sync_fedavg", trigger=trig))
    cfg = config_from_dict(dict(MINIMAL, scheme="async_dvw", trigger=trig))
    assert cfg.trigger.kind == "adaptive"


def test_trigger_group_thresholds_resolve_per_learner():
    trig = {
        "kind": "adaptive",
        "vc_loss": {"fast": 0.0, "slow": 1.0},
        "vc_tomb": {"fast": 4, "slow": 1},
    }
    cfg = config_from_dict(
        dict(
            MINIMAL,
            scheme="async_dvw",
            trigger=trig,
            speed_profiles={
                "num_fast": 5,
                "fast": {"steps_per_second": 100},
                "slow": {"steps_per_second": 20},
            },
        )
    )
    fast_policy = cfg.policy_for("fast")
    slow_policy = cfg.policy_for("slow")
    assert isinstance(fast_policy, AdaptivePolicy)
    assert fast_policy.vc_tomb == 4 and fast_policy.vc_loss == 0.0
    assert slow_policy.vc_tomb == 1 and slow_policy.vc_loss == 1.0
    # non-adaptive schemes in a grid downgrade to the fixed fallback
    grid = replace(cfg, scheme="sync_fedavg", schemes=("sync_fedavg", "async_dvw"))
    assert grid.policy_for("fast") == FixedPolicy(uf=4)


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize(
    "seed, fits", [(2**128 - 1, True), (2**128, False), (2**128 + 1, False)],
    ids=["2**128-1", "2**128", "2**128+1"],
)
def test_seed_must_fit_a_philox_key(source, seed, fits):
    raw = dict(MINIMAL, seed=seed)
    if source == "env":  # how ``fedsim run`` applies FEDSIM_SEED: re-seed the resolved config
        raw = dict(config_from_dict(MINIMAL).to_dict(), seed=seed)
    if fits:
        assert config_from_dict(raw).seed == seed
    else:
        with pytest.raises(ConfigError, match=r"^seed: must be < 2\*\*128$"):
            config_from_dict(raw)


def test_parsing_ignores_the_seed_variable(monkeypatch, tmp_path):
    # Only ``fedsim run`` reads FEDSIM_SEED (tests/test_cli.py).
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINIMAL, seed=7)))
    for value in ("123", "not-a-number", str(2**128)):
        monkeypatch.setenv("FEDSIM_SEED", value)
        assert parse_config(str(path)).seed == 7
        assert config_from_dict(MINIMAL).seed == 1990


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"num_learners": 5, "size_distribution": {"kind": "uniform", "total": 3}},
            "size_distribution: cannot spread 3 samples across 5 learners",
        ),
        (
            {
                "num_learners": 10,
                "size_distribution": {"kind": "powerlaw", "total": 12, "exponent": 3},
            },
            "size_distribution: powerlaw distribution over 10 learners leaves a learner "
            "empty at total=12",
        ),
        (
            {
                "num_learners": 10,
                "size_distribution": {"kind": "skewed", "total": 20, "decay": 0.1},
            },
            "size_distribution: skewed distribution over 10 learners leaves a learner "
            "empty at total=20",
        ),
        (
            {"dataset": dict(MINIMAL["dataset"], input_dim=1, num_classes=3)},
            "dataset: 1-D features admit at most two distinct unit-norm class centers",
        ),
        # Without a total, a blobs pool of num_classes x train_samples_per_class
        # samples is spread, and checked at parse all the same.
        (
            {"dataset": TWENTY_BLOBS, "size_distribution": {"kind": "powerlaw"}},
            "size_distribution: powerlaw distribution over 10 learners leaves a learner "
            "empty at total=20",
        ),
        (
            {"dataset": TWENTY_BLOBS, "size_distribution": {"kind": "skewed", "decay": 0.1}},
            "size_distribution: skewed distribution over 10 learners leaves a learner "
            "empty at total=20",
        ),
        (
            {"num_learners": 21, "dataset": TWENTY_BLOBS, "size_distribution": {"kind": "uniform"}},
            "size_distribution: cannot spread 20 samples across 21 learners",
        ),
        (
            {"num_learners": 21, "dataset": TWENTY_BLOBS},
            "size_distribution: cannot spread 20 samples across 21 learners",
        ),
        # A rotation of five classes over two fails as well; the size error is named.
        (
            {
                "num_learners": 3,
                "dataset": dict(TWENTY_BLOBS, train_samples_per_class=1),
                "class_assignment": {"kind": "noniid", "classes_per_learner": 5},
            },
            "size_distribution: cannot spread 2 samples across 3 learners",
        ),
    ],
    ids=[
        "uniform-total-below-learners",
        "powerlaw-empty-learner",
        "skewed-empty-learner",
        "1d-3-classes",
        "powerlaw-pool-of-20",
        "skewed-pool-of-20",
        "uniform-pool-of-20",
        "default-sizes-pool-of-20",
        "size-before-classes",
    ],
)
def test_unbuildable_sizes_and_blobs_rejected_at_parse(overrides, message):
    with pytest.raises(ConfigError) as raised:
        config_from_dict(dict(MINIMAL, **overrides))
    assert str(raised.value) == message


def test_sizes_from_the_whole_source_are_checked_at_build():
    # Without a total an IDX pool's size is known only once its file is
    # read, so the parser accepts what the build may reject.
    raw = dict(MINIMAL, dataset=IDX_DATASET, size_distribution={"kind": "uniform"})
    cfg = config_from_dict(dict(raw, num_learners=5000))
    assert cfg.size_distribution.total is None
    line = dict(MINIMAL["dataset"], input_dim=1, num_classes=2)  # two centers fit on a line
    assert config_from_dict(dict(MINIMAL, dataset=line)).dataset.input_dim == 1


# A blobs pool of 40 samples and 10**12 learners. Checked after the class
# lists or the speed profiles are built, parse would allocate one tuple per
# learner, so these configs are parsed only in a child capped at 1 GiB.
FORTY_BLOBS = dict(TWENTY_BLOBS, train_samples_per_class=20)
HUGE_N = 10**12


def run_capped(tmp_path, raw: dict) -> subprocess.CompletedProcess:
    """``fedsim run --config`` on ``raw``, writing to ``tmp_path / "o"``, in a
    child process whose address space is capped at 1 GiB, within 60 s."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), OPENBLAS_NUM_THREADS="1")
    command = ["run", "--config", str(path), "--out", str(tmp_path / "o")]
    cap = 1 << 30
    return subprocess.run(
        [sys.executable, "-m", "fedsim.cli", *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"class_assignment": {"kind": "noniid", "classes_per_learner": 1}},
        {"speed_profiles": {"num_fast": 1}},
        {"size_distribution": {"kind": "uniform", "total": 40}},
    ],
    ids=["default-profiles", "noniid", "shorthand-profiles", "total-40"],
)
def test_learner_count_checked_against_the_pool_before_per_learner_work(tmp_path, extra):
    done = run_capped(tmp_path, dict(num_learners=HUGE_N, dataset=FORTY_BLOBS, **extra))
    assert done.returncode == 2, done.stderr
    message = f"config error: size_distribution: cannot spread 40 samples across {HUGE_N} learners"
    assert message in done.stderr
    assert not (tmp_path / "o").exists()


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/config.json")


def test_parse_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(str(path))


SMALL_BLOBS = {"kind": "blobs", "input_dim": 4, "num_classes": 3, "train_samples_per_class": 50}
BLOBS_WRITTEN = dict(SMALL_BLOBS, test_samples_per_class=200, spread=0.35)
FAST_WRITTEN = {"group": "fast", "steps_per_second": 100.0, "eval_samples_per_second": 2000.0}
SLOW_10_WRITTEN = {"group": "slow", "steps_per_second": 10.0, "eval_samples_per_second": 400.0}


def written(**keys) -> dict:
    """A config's ``to_dict()``: every default in the written key order, with
    ``keys`` set (``schemes``, when set, comes last)."""
    defaults = {
        "name": "experiment",
        "seed": 1990,
        "num_learners": None,
        "dataset": None,
        "model": {"kind": "softmax-regression", "hidden_dim": 0},
        "speed_profiles": None,
        "size_distribution": {"kind": "uniform", "total": None},
        "class_assignment": {"kind": "iid"},
        "validation_fraction": 0.05,
        "scheme": "sync_fedavg",
        "trigger": {"kind": "fixed", "uf": 4},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "fedasync": {"alpha": 0.5, "a": 0.5, "rho": 0.005},
        "proximal_mu": 0.0,
        "time_budget": 60.0,
        "max_versions": None,
        "summary_times": [60.0],
        "summary_rounds": [],
    }
    return dict(defaults, **keys)


# One raw config per row and the exact dict that the manifest stores for it.
# Together the rows write every dataset, class-assignment, trigger,
# speed-profile and size kind.
WRITTEN_CONFIGS = [
    pytest.param(
        {
            "num_learners": 3,
            "dataset": SMALL_BLOBS,
            "class_assignment": {"kind": "iid"},
            "trigger": {"kind": "fixed", "uf": 2},
            "size_distribution": {"kind": "uniform", "total": 90},
        },
        written(
            num_learners=3,
            dataset=BLOBS_WRITTEN,
            speed_profiles=[FAST_WRITTEN] * 3,
            size_distribution={"kind": "uniform", "total": 90},
            trigger={"kind": "fixed", "uf": 2},
        ),
        id="blobs-iid-fixed-uniform",
    ),
    pytest.param(
        {
            "num_learners": 4,
            "dataset": IDX_DATASET,
            "class_assignment": {"kind": "noniid", "classes_per_learner": 2},
            "speed_profiles": {"num_fast": 1, "slow": {"steps_per_second": 10}},
            "size_distribution": {"kind": "skewed", "decay": 0.5},
            "scheme": "async_fedavg",
        },
        written(
            num_learners=4,
            dataset=dict(IDX_DATASET, num_classes=None),
            speed_profiles=[FAST_WRITTEN] + [SLOW_10_WRITTEN] * 3,
            size_distribution={"kind": "skewed", "total": None, "decay": 0.5},
            class_assignment={"kind": "noniid", "classes_per_learner": 2},
            scheme="async_fedavg",
        ),
        id="idx-noniid-shorthand-skewed",
    ),
    pytest.param(
        {
            "num_learners": 10,
            "dataset": dict(IDX_DATASET, num_classes=8),
            "class_assignment": {"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
            "size_distribution": {"kind": "powerlaw", "total": 500, "exponent": 2},
        },
        written(
            num_learners=10,
            dataset=dict(IDX_DATASET, num_classes=8),
            speed_profiles=[FAST_WRITTEN] * 10,
            size_distribution={"kind": "powerlaw", "total": 500, "exponent": 2.0},
            class_assignment={"kind": "preset", "name": "noniid-8x1-4x1-3x8"},
        ),
        id="idx-declared-preset-powerlaw",
    ),
    pytest.param(
        {
            "num_learners": 3,
            "dataset": SMALL_BLOBS,
            "class_assignment": {
                "kind": "explicit",
                "per_learner_classes": [[2, 0, 0], [1], [0, 2]],
            },
            "speed_profiles": [
                {"group": "fast", "steps_per_second": 100, "eval_samples_per_second": 2000},
                {"group": "slow", "steps_per_second": 20, "eval_samples_per_second": 400},
                {"group": "slow", "steps_per_second": 25.5, "eval_samples_per_second": 500},
            ],
            "scheme": "async_dvw",
            "trigger": {"kind": "adaptive", "vc_loss": 1, "vc_tomb": 2, "warmup_cycles": 5},
        },
        written(
            num_learners=3,
            dataset=BLOBS_WRITTEN,
            speed_profiles=[
                FAST_WRITTEN,
                {"group": "slow", "steps_per_second": 20.0, "eval_samples_per_second": 400.0},
                {"group": "slow", "steps_per_second": 25.5, "eval_samples_per_second": 500.0},
            ],
            class_assignment={
                "kind": "explicit",
                "per_learner_classes": [[2, 0, 0], [1], [0, 2]],  # as written
            },
            scheme="async_dvw",
            trigger={
                "kind": "adaptive",
                "vc_loss": {"fast": 1.0, "slow": 1.0},
                "vc_tomb": {"fast": 2, "slow": 2},
                "warmup_cycles": 5,
                "max_epochs_per_cycle": 32,
                "fixed_uf": 4,
            },
        ),
        id="explicit-list-profiles-scalar-thresholds",
    ),
    pytest.param(
        {
            "name": "grid",
            "seed": 7,
            "num_learners": 2,
            "dataset": SMALL_BLOBS,
            "model": {"kind": "mlp-1hidden", "hidden_dim": 8},
            "schemes": ["sync_fedavg", "async_dvw"],
            "trigger": {
                "kind": "adaptive",
                "vc_loss": {"fast": 0, "slow": 0.5},
                "vc_tomb": {"fast": 3, "slow": 1},
                "max_epochs_per_cycle": 16,
                "fixed_uf": 3,
            },
            "hyperparameters": {"eta": 0.1, "beta": 20},
            "fedasync": {"rho": 0.01},
            "proximal_mu": 0.2,
            "max_versions": 40,
            "summary_times": [1, 2],
            "summary_rounds": [5],
        },
        written(
            name="grid",
            seed=7,
            num_learners=2,
            dataset=BLOBS_WRITTEN,
            model={"kind": "mlp-1hidden", "hidden_dim": 8},
            speed_profiles=[FAST_WRITTEN] * 2,
            trigger={
                "kind": "adaptive",
                "vc_loss": {"fast": 0.0, "slow": 0.5},
                "vc_tomb": {"fast": 3, "slow": 1},
                "warmup_cycles": 20,
                "max_epochs_per_cycle": 16,
                "fixed_uf": 3,
            },
            hyperparameters={"eta": 0.1, "gamma": 0.75, "beta": 20},
            fedasync={"alpha": 0.5, "a": 0.5, "rho": 0.01},
            proximal_mu=0.2,
            max_versions=40,
            summary_times=[1.0, 2.0],
            summary_rounds=[5],
            schemes=["sync_fedavg", "async_dvw"],
        ),
        id="grid-per-group-thresholds",
    ),
]


@pytest.mark.parametrize("raw, expected", WRITTEN_CONFIGS)
def test_each_kind_writes_its_recorded_dict(raw, expected):
    d = config_from_dict(raw).to_dict()
    assert d == expected
    assert json.dumps(d) == json.dumps(expected)  # the same key order, and no int for a float


def test_round_trip_dict():
    cfg = config_from_dict(get_preset("blobs-powerlaw-noniid"))
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_with_scheme_downgrades_adaptive():
    cfg = config_from_dict(get_preset("blobs-powerlaw-noniid"))
    cell = cfg.with_scheme("sync_fedavg")
    assert cell.scheme == "sync_fedavg"
    assert cell.schemes is None
    assert cell.trigger.kind == "fixed"
    dvw_cell = cfg.with_scheme("async_dvw")
    assert dvw_cell.trigger.kind == "adaptive"


def test_presets_parse_and_are_known():
    names = preset_names()
    assert "blobs-powerlaw-noniid" in names
    for name in names:
        cfg = config_from_dict(get_preset(name))
        assert cfg.name == name
    with pytest.raises(ConfigError, match="unknown preset"):
        get_preset("no-such-preset")


def test_fedasync_defaults():
    cfg = config_from_dict(dict(MINIMAL, scheme="fedasync_poly"))
    assert cfg.fedasync.alpha == 0.5
    assert cfg.fedasync.a == 0.5
    assert cfg.fedasync.rho == 0.005


def test_run_proximal_coefficient_is_in_the_hyperparameters():
    # the divergence regularizer rides along unless overridden
    cfg = config_from_dict(dict(MINIMAL, scheme="fedasync_poly"))
    assert cfg.hyperparameters.proximal_mu == 0.005
    explicit = config_from_dict(dict(MINIMAL, scheme="fedasync_poly", proximal_mu=0.1))
    assert explicit.hyperparameters.proximal_mu == 0.1
    plain = config_from_dict(MINIMAL)
    assert plain.hyperparameters.proximal_mu == 0.0
    # every cell of a grid: rho under fedasync_poly, else 0, unless proximal_mu is set
    grid = dict(MINIMAL, schemes=list(SCHEMES), fedasync={"rho": 0.02})
    for raw, set_mu in ((grid, 0.0), (dict(grid, proximal_mu=0.3), 0.3)):
        for scheme in SCHEMES:
            cell = config_from_dict(raw).with_scheme(scheme)
            want = set_mu or (0.02 if scheme == "fedasync_poly" else 0.0)
            assert cell.hyperparameters.proximal_mu == want
            assert cell.to_dict()["proximal_mu"] == set_mu  # the file's value, not the resolved one
    with pytest.raises(ConfigError, match="^proximal_mu must be >= 0"):
        config_from_dict(dict(MINIMAL, scheme="fedasync_poly", proximal_mu=-0.1))


def test_schemes_grid_validation():
    cfg = config_from_dict(dict(MINIMAL, schemes=["sync_fedavg", "async_dvw"]))
    assert cfg.schemes == ("sync_fedavg", "async_dvw")
    with pytest.raises(ConfigError, match="schemes"):
        config_from_dict(dict(MINIMAL, schemes=["sync_fedavg", "sync_fedavg"]))
    with pytest.raises(ConfigError, match="schemes"):
        config_from_dict(dict(MINIMAL, schemes=["bogus"]))
    # An empty grid would run `scheme` alone, with an adaptive trigger that
    # no scheme of the grid reads.
    adaptive = {"kind": "adaptive"}
    with pytest.raises(ConfigError, match="^schemes: must list at least one scheme$"):
        config_from_dict(dict(MINIMAL, scheme="sync_fedavg", schemes=[], trigger=adaptive))


@pytest.mark.parametrize(
    "scheme, slow",
    [
        ("sync_fedavg", {"steps_per_second": 0}),
        ("async_dvw", {"eval_samples_per_second": 0}),
        ("async_fedavg", {"steps_per_second": -5}),
        ("sync_fedavg", {"steps_per_second": -5}),
    ],
)
def test_shorthand_profile_rates_must_be_positive(scheme, slow):
    profiles = {"num_fast": 5, "slow": slow}
    with pytest.raises(ConfigError, match=r"speed_profiles\.slow: rates must be positive"):
        config_from_dict(dict(MINIMAL, scheme=scheme, speed_profiles=profiles))


def test_scalar_group_value_rejects_boolean():
    trig = {"kind": "adaptive", "vc_tomb": True}
    with pytest.raises(ConfigError, match=r"trigger\.vc_tomb"):
        config_from_dict(dict(MINIMAL, scheme="async_dvw", trigger=trig))


@pytest.mark.parametrize("bad", [[0.9, 3.7], ["1", "2"], [True, 1], 3])
def test_explicit_classes_must_be_integer_lists(bad):
    assignment = {"kind": "explicit", "per_learner_classes": [[0, 1], bad]}
    with pytest.raises(ConfigError, match=r"class_assignment\.per_learner_classes\[1\]"):
        config_from_dict(dict(MINIMAL, class_assignment=assignment))


@pytest.mark.parametrize(
    "overrides, where",
    [
        ({"time_budget": math.nan}, "time_budget"),
        ({"proximal_mu": math.nan}, "proximal_mu"),
        ({"validation_fraction": -math.inf}, "validation_fraction"),
        ({"hyperparameters": {"eta": math.nan}}, r"hyperparameters\.eta"),
        (
            {"speed_profiles": {"fast": {"steps_per_second": math.inf}}},
            r"speed_profiles\.fast\.steps_per_second",
        ),
        (
            {"speed_profiles": [{"group": "slow", "steps_per_second": 1.0,
                                 "eval_samples_per_second": math.inf}] * 10},
            r"speed_profiles\[0\]\.eval_samples_per_second",
        ),
        ({"fedasync": {"alpha": math.nan}}, r"fedasync\.alpha"),
        (
            {
                "scheme": "async_dvw",
                "trigger": {"kind": "adaptive", "vc_loss": {"fast": 1.0, "slow": math.inf}},
            },
            r"trigger\.vc_loss\.slow",
        ),
    ],
)
def test_non_finite_numbers_rejected(overrides, where):
    with pytest.raises(ConfigError, match=where + ": expected a finite number"):
        config_from_dict(dict(MINIMAL, **overrides))


@pytest.mark.parametrize(
    "key, values, index",
    [
        ("summary_rounds", [3.7, 4], 0),
        ("summary_rounds", [3, "4"], 1),
        ("summary_rounds", [3, 4, True], 2),
        ("summary_times", ["1.5"], 0),
        ("summary_times", [1.5, True], 1),
        ("summary_times", [1.0, math.nan], 1),
        ("summary_times", [math.inf], 0),
    ],
)
def test_summary_lists_type_checked_per_element(key, values, index):
    with pytest.raises(ConfigError, match=rf"{key}\[{index}\]: expected"):
        config_from_dict(dict(MINIMAL, **{key: values}))


def test_summary_lists_keep_valid_values():
    cfg = config_from_dict(dict(MINIMAL, summary_times=[1, 2.5], summary_rounds=[3, 40]))
    assert cfg.summary_times == (1.0, 2.5)
    assert all(type(t) is float for t in cfg.summary_times)
    assert cfg.summary_rounds == (3, 40)
    assert config_from_dict(MINIMAL).summary_times == (60.0,)


POSITIVE = st.floats(min_value=1e-3, max_value=1e4)
RATES = st.fixed_dictionaries(
    {}, optional={"steps_per_second": POSITIVE, "eval_samples_per_second": POSITIVE}
)


def per_group(values):
    return values | st.fixed_dictionaries({"fast": values, "slow": values})


SIZE_CLASSES = {cls.kind: cls for cls in (UniformSizes, SkewedSizes, PowerlawSizes)}
# Each size kind's own shape parameter, drawn in its range.
SIZE_PARAMS = {
    "uniform": {},
    "skewed": {"decay": st.floats(1e-3, 1.0)},
    "powerlaw": {"exponent": POSITIVE},
}


def splits(dist: dict, num_learners: int, dataset: dict) -> bool:
    """Whether a size distribution gives every learner a sample, which the
    schema requires of an explicit total and, without one, of a blobs pool."""
    sizes = SIZE_CLASSES[dist["kind"]](**{k: v for k, v in dist.items() if k != "kind"})
    total = sizes.total
    if total is None and dataset["kind"] == "blobs":
        total = dataset["num_classes"] * dataset["train_samples_per_class"]
    try:
        if total is not None:
            compute_sizes(sizes, num_learners, total)
    except ValueError:
        return False
    return True


@st.composite
def valid_configs(draw):
    """Raw configs the schema accepts, covering every form of every section."""
    n = draw(st.integers(1, 12))
    profile = st.fixed_dictionaries(
        {
            "group": st.sampled_from(["fast", "slow"]),
            "steps_per_second": POSITIVE,
            "eval_samples_per_second": POSITIVE,
        }
    )
    dataset = draw(
        st.sampled_from([MINIMAL["dataset"], IDX_DATASET, dict(IDX_DATASET, num_classes=3)])
    )
    # With a declared class count (blobs always) only classes below it parse;
    # an IDX dataset without num_classes is checked when its files are read.
    num_classes = dataset.get("num_classes")
    top = 10 if num_classes is None else num_classes
    classes = st.lists(st.integers(0, top - 1), min_size=1, max_size=4)
    # Only a preset that defines n learners, with no count above a declared
    # class count, parses (each defines 10).
    presets = [
        name
        for name, counts in CLASS_COUNT_PRESETS.items()
        if len(counts) == n and (num_classes is None or max(counts) <= num_classes)
    ]
    preset = (
        st.fixed_dictionaries({"kind": st.just("preset"), "name": st.sampled_from(presets)})
        if presets
        else st.nothing()
    )
    schemes = draw(st.none() | st.lists(st.sampled_from(SCHEMES), min_size=1, unique=True))
    scheme = draw(st.sampled_from(SCHEMES))
    triggers = [
        st.none(),
        st.fixed_dictionaries({"kind": st.just("fixed")}, optional={"uf": st.integers(1, 20)}),
    ]
    if schemes is not None or scheme == "async_dvw":
        triggers.append(
            st.fixed_dictionaries(
                {"kind": st.just("adaptive")},
                optional={
                    "vc_loss": per_group(st.floats(0.0, 10.0) | st.integers(0, 10)),
                    "vc_tomb": per_group(st.integers(0, 8)),
                    "warmup_cycles": st.integers(1, 50),
                    "max_epochs_per_cycle": st.integers(1, 64),
                    "fixed_uf": st.integers(1, 20),
                },
            )
        )
    raw = {
        "num_learners": n,
        "seed": draw(st.integers(0, 2**31)),
        "dataset": dataset,
        "model": draw(
            st.none()
            | st.just({"kind": "softmax-regression"})
            | st.fixed_dictionaries(
                {"kind": st.just("mlp-1hidden"), "hidden_dim": st.integers(1, 64)}
            )
        ),
        "speed_profiles": draw(
            st.none()
            | st.fixed_dictionaries(
                {}, optional={"num_fast": st.integers(0, n), "fast": RATES, "slow": RATES}
            )
            | st.lists(profile, min_size=n, max_size=n)
        ),
        "size_distribution": draw(
            st.none()
            | st.one_of(
                st.fixed_dictionaries(
                    {"kind": st.just(kind)}, optional={"total": st.integers(1, 10**6), **params}
                )
                for kind, params in SIZE_PARAMS.items()
            ).filter(lambda dist: splits(dist, n, dataset))
        ),
        "class_assignment": draw(
            st.none()
            | st.just({"kind": "iid"})
            | st.fixed_dictionaries(
                {
                    "kind": st.just("noniid"),
                    "classes_per_learner": st.integers(1, min(5, top)),
                }
            )
            | preset
            | st.fixed_dictionaries(
                {
                    "kind": st.just("explicit"),
                    "per_learner_classes": st.lists(classes, min_size=n, max_size=n),
                }
            )
        ),
        "scheme": scheme,
        "schemes": schemes,
        "trigger": draw(st.one_of(triggers)),
        "hyperparameters": draw(
            st.none()
            | st.fixed_dictionaries(
                {},
                optional={
                    "eta": POSITIVE,
                    "gamma": st.floats(0.0, 0.99),
                    "beta": st.integers(1, 500),
                },
            )
        ),
        "fedasync": draw(
            st.none()
            | st.fixed_dictionaries(
                {},
                optional={
                    "alpha": st.floats(1e-3, 1.0),
                    "a": st.floats(0.0, 5.0),
                    "rho": st.floats(0.0, 1.0),
                },
            )
        ),
        "validation_fraction": draw(st.floats(0.01, 0.99)),
        "time_budget": draw(POSITIVE),
        "max_versions": draw(st.none() | st.integers(1, 1000)),
        "summary_times": draw(st.none() | st.lists(POSITIVE, max_size=3)),
        "summary_rounds": draw(st.lists(st.integers(1, 100), max_size=3)),
    }
    return {key: value for key, value in raw.items() if value is not None}


def reparsed_cell(cfg, scheme):
    """A grid cell as a re-parse of the config's dict builds it."""
    d = cfg.to_dict()
    d["scheme"] = scheme
    d.pop("schemes", None)
    if cfg.trigger.kind == "adaptive" and scheme != "async_dvw":
        d["trigger"] = {"kind": "fixed", "uf": cfg.trigger.fixed_uf}
    return config_from_dict(d)


def assert_cell_is_reparsed(cfg, scheme):
    cell = cfg.with_scheme(scheme)
    want = reparsed_cell(cfg, scheme)
    assert cell == want
    assert cell.hyperparameters == want.hyperparameters
    assert json.dumps(cell.to_dict()) == json.dumps(want.to_dict())


def test_with_scheme_builds_every_preset_cell_as_a_reparse():
    for name in preset_names():
        cfg = config_from_dict(get_preset(name))
        for scheme in cfg.schemes or (cfg.scheme,):
            assert_cell_is_reparsed(cfg, scheme)


@given(valid_configs())
@settings(max_examples=100, deadline=None)
def test_with_scheme_builds_every_cell_as_a_reparse(raw):
    cfg = config_from_dict(raw)
    for scheme in SCHEMES:
        assert_cell_is_reparsed(cfg, scheme)


@given(valid_configs())
@settings(max_examples=200, deadline=None)
def test_to_dict_round_trip_property(raw):
    cfg = config_from_dict(raw)
    d = cfg.to_dict()
    again = config_from_dict(d)
    assert again == cfg
    assert again.to_dict() == d
    assert json.dumps(again.to_dict()) == json.dumps(d)  # manifest.json keeps the key order
    profiles = cfg.speed_profiles
    assert all(p.steps_per_second > 0 and p.eval_samples_per_second > 0 for p in profiles)
    for scheme in cfg.schemes or ():
        assert cfg.with_scheme(scheme).scheme == scheme
