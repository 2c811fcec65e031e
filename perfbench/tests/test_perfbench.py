"""Tests of the benchmark's own parts: spans, IDX input, digest gate, names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import time

import numpy as np
import pytest

from fedsim.controller import FederationController, UpdateRequest
from fedsim.data import load_idx
from fedsim.nn import ModelSpec, init_parameters, scale

import harness
import idxgen
import run
import spans

BENCHMARK_JSON = harness.HERE.parent / "BENCHMARK.json"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children_only():
    #   0 root      [0, 10]
    #   1  child    [1, 4]    under 0
    #   2   leaf    [2, 3]    under 1
    #   3  child    [5, 9]    under 0
    #   4 other     [11, 12]  top level
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    got = spans.self_times(end - start, parent)
    np.testing.assert_allclose(got, [10 - 3 - 4, 3 - 1, 1, 4, 1])


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer()

    leaf = tracer.traced(lambda: time.sleep(0.002), "leaf")

    def outer():
        time.sleep(0.002)
        leaf()
        leaf()
        return 3

    assert tracer.traced(outer, "outer", count=int)() == 3
    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name_id"]]
    assert names == ["outer", "leaf", "leaf"]
    assert list(cols["parent"]) == [-1, 0, 0]
    assert tracer.counts["outer"] == 3
    children = cols["duration"][1:].sum()
    assert cols["self"][0] == pytest.approx(cols["duration"][0] - children)
    assert cols["self"][0] >= 0.0015
    in_outer = spans.descendant_mask(cols["parent"], cols["name_id"], tracer.names.index("outer"))
    assert list(in_outer) == [False, True, True]


def test_tracer_wraps_module_attribute_and_restores_it():
    import fedsim.learner

    original = fedsim.learner.backward
    with spans.Tracer() as tracer:
        assert tracer.wrap("fedsim.learner.backward", "nn.backward")
        assert fedsim.learner.backward is not original
        assert not tracer.wrap("fedsim.learner.no_such_function", "missing")
    assert fedsim.learner.backward is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(5) == 50.0
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(999) == 90.0
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(100_000) == 99.99


def test_idx_generator_round_trips_through_load_idx(tmp_path):
    images, labels = idxgen.make_images(30, seed=5, stream=0)
    assert images.shape == (300, 28, 28) and images.dtype == np.uint8
    assert np.array_equal(np.bincount(labels), [30] * 10)
    idxgen.write_idx(images, labels, tmp_path / "img", tmp_path / "lbl")
    raw = (tmp_path / "img").read_bytes()
    assert raw[:16] == bytes.fromhex("00000803") + (300).to_bytes(4, "big") + bytes.fromhex("0000001c0000001c")
    ds = load_idx(str(tmp_path / "img"), str(tmp_path / "lbl"), 10)
    assert np.array_equal(np.rint(ds.features * 255).astype(np.uint8), images.reshape(300, -1))
    assert np.array_equal(ds.labels, labels)
    again, _ = idxgen.make_images(30, seed=5, stream=0)
    other, _ = idxgen.make_images(30, seed=6, stream=0)
    assert np.array_equal(images, again)
    assert not np.array_equal(images, other)


def test_idx_classes_are_separable():
    images, labels = idxgen.make_images(50, seed=1, stream=0)
    x = images.reshape(images.shape[0], -1).astype(np.float64)
    means = np.stack([x[labels == c].mean(axis=0) for c in range(10)])
    nearest = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
    assert np.mean(nearest == labels) > 0.5


def _tiny_run(out_dir):
    cfg = {
        "name": "tiny",
        "seed": 3,
        "num_learners": 2,
        "dataset": {"kind": "blobs", "input_dim": 4, "num_classes": 2,
                    "train_samples_per_class": 40, "test_samples_per_class": 10},
        "scheme": "async_fedavg",
        "time_budget": 1.0,
    }
    cfg_path = out_dir.parent / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    return harness.run_iteration(cfg_path, out_dir, seed=3)


def test_digest_gate_catches_a_one_byte_difference(tmp_path):
    it = _tiny_run(tmp_path / "out")
    assert it.errors == []
    assert list(it.digests) == ["metrics.csv"]
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "out", copy)
    assert harness.digest_mismatches(harness.metrics_digests(copy), it.digests) == []
    csv = copy / "metrics.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    csv.write_bytes(bytes(data))
    mismatches = harness.digest_mismatches(harness.metrics_digests(copy), it.digests)
    assert len(mismatches) == 1 and mismatches[0].startswith("metrics.csv:")


def test_replay_check_flags_a_changed_digest(tmp_path):
    first = _tiny_run(tmp_path / "a")
    second = _tiny_run(tmp_path / "b")
    harness.check_replay(second, first)
    assert second.errors == []
    second.digests = {"metrics.csv": "0" * 64}
    harness.check_replay(second, first)
    assert len(second.errors) == 1


def test_audit_gate_flags_a_drifted_community_model():
    spec = ModelSpec("softmax-regression", input_dim=3, num_classes=2)
    ctrl = FederationController(spec)
    ctrl.handle_async_update(UpdateRequest(0, init_parameters(spec), 1, 5), lambda r: 2.0)
    timings = []
    assert harness.audit_errors([ctrl], timings) == [] and len(timings) == 1
    # Simulate an incremental-path bug: the cached community model drifts.
    ctrl._community = scale(ctrl._community, 1.0 + 1e-6)
    assert len(harness.audit_errors([ctrl], timings)) == 1


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == harness.END_TO_END_UNITS
    assert layer == harness.per_layer_units()
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME_RE.fullmatch(name), name
        assert len(name) <= 64
    assert {w["name"] for w in spec["workloads"]} == set(harness.workloads.WORKLOADS) == set(run.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((harness.HERE / "layer_map.json").read_text())
    mapped = [m for layer in layer_map["layers"] for m in layer["metrics"]]
    base = [n for n in harness.per_layer_units() if not n.endswith((".tail", ".n"))]
    assert sorted(mapped) == sorted(base)
    for layer in layer_map["layers"]:
        assert set(layer["moves"]) <= set(harness.END_TO_END_UNITS)
        named = set(layer["should_move_on"]) | set(layer["should_not_move_on"])
        assert named <= set(harness.workloads.WORKLOADS)
