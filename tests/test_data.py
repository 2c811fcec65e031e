import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.data import (
    CapacityError,
    _class_centers,
    Dataset,
    IdxFormatError,
    PowerlawSizes,
    SkewedSizes,
    UniformSizes,
    alternating_order,
    as_float64,
    assign_classes,
    build_federated_split,
    compute_sizes,
    generate_blobs,
    load_idx,
    validation_mask,
)
from fedsim.config import IidClasses, PresetClasses, RotationClasses
from fedsim.learner import FixedPolicy, Hyperparameters, LearnerBank, run_epoch
from fedsim.controller import FederationController
from fedsim.nn import ModelSpec, ParameterSet, Workspace, model_layout, predict
from tests.conftest import learner_bank, run_with_portable_kernels


def write_idx_images(path, images: np.ndarray) -> None:
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# load_idx
# ---------------------------------------------------------------------------


def test_load_idx_roundtrip(tmp_path):
    images = np.array(
        [
            [[0, 128], [255, 64]],
            [[1, 2], [3, 4]],
            [[250, 251], [252, 253]],
        ],
        dtype=np.uint8,
    )
    labels = np.array([0, 1, 1], dtype=np.uint8)
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    ds = load_idx(str(img_path), str(lbl_path))
    assert ds.n == 3
    assert ds.num_classes == 2
    # byte/255 by hand
    assert ds.features[0].tolist() == [0.0, 128 / 255, 1.0, 64 / 255]
    assert ds.labels.tolist() == [0, 1, 1]


def test_load_idx_rejects_wrong_magic(tmp_path):
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, np.zeros((2, 2, 2), dtype=np.uint8))
    # a label file carrying the image magic must be rejected
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000803, 2))
        f.write(b"\x00\x01")
    with pytest.raises(IdxFormatError, match="labels magic"):
        load_idx(str(img_path), str(lbl_path))


def test_load_idx_rejects_truncated_images(tmp_path):
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 3, 2, 2))
        f.write(b"\x00" * 7)  # needs 12 payload bytes
    write_idx_labels(lbl_path, np.zeros(3, dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="images payload"):
        load_idx(str(img_path), str(lbl_path))


def test_load_idx_rejects_count_mismatch(tmp_path):
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, np.zeros((4, 2, 2), dtype=np.uint8))
    write_idx_labels(lbl_path, np.zeros(3, dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="item count"):
        load_idx(str(img_path), str(lbl_path))


@pytest.mark.parametrize("num_classes", [None, 3])
def test_load_idx_rejects_an_empty_images_file(tmp_path, num_classes):
    # The header counts 0 items: the error names the images file and its
    # item count, before the class count is derived from the labels.
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, np.zeros((0, 2, 2), dtype=np.uint8))
    write_idx_labels(lbl_path, np.zeros(0, dtype=np.uint8))
    message = f"images item count: file {str(img_path)!r} holds no images"
    with pytest.raises(IdxFormatError, match=re.escape(message)):
        load_idx(str(img_path), str(lbl_path), num_classes)


@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0)])
def test_load_idx_rejects_images_without_pixels(tmp_path, shape):
    # Only the file can give a model no input: the error names it.
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, np.zeros(shape, dtype=np.uint8))
    write_idx_labels(lbl_path, np.arange(3) % 2)
    message = f"images shape: {shape[1]} x {shape[2]} pixels per image in {str(img_path)!r}"
    with pytest.raises(IdxFormatError, match=re.escape(message)):
        load_idx(str(img_path), str(lbl_path))


def test_load_idx_rejects_a_single_derived_class(tmp_path):
    # Undeclared, the class count is the largest label + 1; labels all 0 give
    # one class, too few for a classifier, and the error names the file.
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(lbl_path, np.zeros(3))
    message = (
        f"labels: file {str(lbl_path)!r} holds class 0 only; dataset.num_classes must be >= 2"
    )
    with pytest.raises(IdxFormatError, match=re.escape(message)):
        load_idx(str(img_path), str(lbl_path))
    # Declared, the same files load: a pool may hold only some of the classes.
    assert load_idx(str(img_path), str(lbl_path), 2).num_classes == 2


def test_load_idx_rejects_labels_outside_the_declared_classes(tmp_path):
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(lbl_path, np.array([0, 3, 1]))
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        load_idx(str(img_path), str(lbl_path), 3)


def test_load_idx_keeps_the_pixel_bytes(tmp_path):
    images = np.arange(256, dtype=np.uint8).reshape(16, 4, 4)  # every byte value
    img_path, lbl_path = tmp_path / "img.idx", tmp_path / "lbl.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, np.arange(16) % 2)
    ds = load_idx(str(img_path), str(lbl_path))
    assert ds.rows.dtype == np.uint8
    assert ds.rows.tobytes() == images.tobytes()
    # features scales the whole file into a new, writable matrix each time,
    # which a caller may rescale in place without touching the rows
    features = ds.features
    assert features is not ds.features and features.flags.writeable
    assert features.tobytes() == (ds.rows.astype(np.float64) / 255.0).tobytes()
    assert not np.shares_memory(features, ds.rows)
    # float64 rows are their own features
    rows = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    assert Dataset(rows, [0, 1, 0], 2).features is rows


@given(
    arrays(np.uint8, st.tuples(st.integers(1, 30), st.integers(1, 16))),
    st.data(),
)
@example(np.arange(256, dtype=np.uint8).reshape(16, 16), None)
@settings(max_examples=60, deadline=None)
def test_idx_subset_scales_the_gathered_pixels_like_the_whole_file(pixels, data):
    n = pixels.shape[0]
    if data is None:  # every byte value, each row once
        idx = np.arange(n)
    else:
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=50)))
    labels = np.arange(n) % 3
    pool = Dataset(pixels, labels, 3).subset(idx)
    # The pool keeps the gathered bytes, and scaling them gives the bits of
    # the formula of scaling the whole file first, then gathering.
    assert pool.rows.dtype == np.uint8
    assert pool.rows.tobytes() == pixels[idx].tobytes()
    reference = pixels.astype(np.float64)[idx] / 255.0
    scaled = as_float64(pool.rows)
    assert scaled.dtype == np.float64
    assert scaled.tobytes() == reference.tobytes()
    out = np.empty_like(reference)
    assert as_float64(pool.rows, out=out) is out
    assert out.tobytes() == reference.tobytes()
    assert pool.labels.tolist() == labels[idx].tolist()
    whole = Dataset(pixels, labels, 3).features
    assert whole.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()


# ---------------------------------------------------------------------------
# generate_blobs
# ---------------------------------------------------------------------------


def test_blobs_zero_spread_centroid_accuracy():
    ds = generate_blobs(4, 3, n_per_class=10, spread=0.0, seed=7)
    centers = {c: ds.features[ds.labels == c][0] for c in range(3)}
    # every sample equals its class center, so nearest-centroid is perfect
    correct = 0
    for x, y in zip(ds.features, ds.labels):
        dists = {c: np.linalg.norm(x - mu) for c, mu in centers.items()}
        correct += min(dists, key=dists.get) == y
    assert correct == ds.n
    for c, mu in centers.items():
        assert np.allclose(np.linalg.norm(mu), 1.0)
        assert np.all(ds.features[ds.labels == c] == mu)


# sha256 of _class_centers(input_dim, num_classes); every preset's blobs are
# 8-dimensional with 4 classes.
CLASS_CENTER_DIGESTS = (
    ((8, 4), "d2e873d48998cfc9b3e432e5986a92a529de87a3b6e1f119f3dcebb59e91db57"),
    ((2, 4), "d9911a6caa1e2603bd35ff6191fe0adcf172212ab2d434e3af3c24c846b0c942"),
    ((2, 5), "420402f1a178dd2ebac7ccbba0ed6ecf1995fb2b9bf282e6dfddfa472f776b8c"),
    ((3, 2), "64c61f112579d61f2deca341bc2948e2531501dcb0610f043349883f764caf9c"),
    ((4, 3), "28beb5e291b64132fc978376068593d82a926f628fd32df10d23f3860807c8bf"),
    ((5, 10), "f3f93109968a7b26bf52a4985184470894933deb05c4cbb07beea120bf6b2706"),
    ((784, 10), "e3937c3586d5c45d90f84d372f20855cfd32ec2125391768eb85055308ca86fc"),
)


@pytest.mark.parametrize("shape, want", CLASS_CENTER_DIGESTS)
def test_class_centers_are_pinned(shape, want):
    assert hashlib.sha256(_class_centers(*shape).tobytes()).hexdigest() == want


def test_class_centers_hold_on_portable_kernels():
    # The same table under other BLAS kernels and numpy's baseline SIMD level.
    code = (
        "import hashlib, json\n"
        "from fedsim.data import _class_centers\n"
        "from tests.test_data import CLASS_CENTER_DIGESTS\n"
        "print(json.dumps([hashlib.sha256(_class_centers(*shape).tobytes()).hexdigest()"
        " for shape, _ in CLASS_CENTER_DIGESTS]))"
    )
    got = json.loads(run_with_portable_kernels(code))
    assert got == [want for _, want in CLASS_CENTER_DIGESTS]


def test_blobs_deterministic_in_seed():
    a = generate_blobs(5, 3, 20, 0.3, seed=42)
    b = generate_blobs(5, 3, 20, 0.3, seed=42)
    c = generate_blobs(5, 3, 20, 0.3, seed=43)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_blobs_trainable_by_centralized_softmax():
    # Oracle: run our own trainer on an easy 2-D / 3-class blob problem.
    ds = generate_blobs(2, 3, n_per_class=60, spread=0.1, seed=1990)
    spec = ModelSpec("softmax-regression", input_dim=2, num_classes=3, init_seed=1990)
    controller = FederationController(spec)
    bank = learner_bank(controller.current_model(), [ds], policy=FixedPolicy(1))
    state = bank.states[0]
    hp = Hyperparameters(eta=0.5, gamma=0.5, batch_size=30)
    ws, steps = Workspace(bank.layout), 0
    while steps < 200:
        steps += run_epoch(bank, [0], hp, ws)
    trained = ParameterSet(state.params.copy(), bank.layout)
    acc = float(np.mean(predict(trained, ds.features) == ds.labels))
    assert acc >= 0.99


# ---------------------------------------------------------------------------
# compute_sizes
# ---------------------------------------------------------------------------


def test_sizes_uniform_exact():
    assert compute_sizes(UniformSizes(), 10, 1000) == [100] * 10


def test_sizes_uniform_remainder_to_low_indices():
    assert compute_sizes(UniformSizes(), 4, 1003) == [251, 251, 251, 250]


def test_sizes_powerlaw_frozen_example():
    # shares 1 : 2^-1.5 : 3^-1.5 : 4^-1.5 of 1000, largest-remainder rounding
    assert compute_sizes(PowerlawSizes(exponent=1.5), 4, 1000) == [598, 212, 115, 75]


def test_sizes_powerlaw_strictly_decreasing():
    sizes = compute_sizes(PowerlawSizes(exponent=1.5), 10, 1000)
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_sizes_infeasible_total():
    with pytest.raises(ValueError):
        compute_sizes(UniformSizes(), 10, 5)


# Every kind's split (or its exact error) over N = 1..12 and a spread of
# totals, as recorded before the distributions became one dataclass per kind.
SIZES_TABLE_SHA256 = "380205347b1af56ecc9ddd7b44ee56ebb9d470a5bb1e8a7959552f776fed7411"


def test_sizes_table_is_pinned():
    dists = [("uniform", {}, UniformSizes())]
    dists += [("skewed", {"decay": d}, SkewedSizes(decay=d)) for d in (0.1, 0.5, 0.8, 1.0)]
    dists += [("powerlaw", {"exponent": e}, PowerlawSizes(exponent=e)) for e in (0.5, 1.5, 3.0)]
    lines = []
    for kind, params, dist in dists:
        for n in range(1, 13):
            for total in (n - 1, n, n + 1, 2 * n - 1, 97, 1000, 4000):
                try:
                    out = compute_sizes(dist, n, total)
                except ValueError as exc:
                    out = str(exc)
                lines.append(f"{kind} {params} n={n} total={total}: {out}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SIZES_TABLE_SHA256


@given(
    st.sampled_from([UniformSizes(), SkewedSizes(), PowerlawSizes()]),
    st.integers(1, 12),
    st.integers(1, 5000),
)
@settings(max_examples=80, deadline=None)
def test_sizes_sum_and_order(dist, n, total):
    if total < n:
        with pytest.raises(ValueError):
            compute_sizes(dist, n, total)
        return
    try:
        sizes = compute_sizes(dist, n, total)
    except ValueError:
        return  # a learner would end up empty; rejection is the contract
    assert sum(sizes) == total
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert min(sizes) >= 1


# ---------------------------------------------------------------------------
# class assignment
# ---------------------------------------------------------------------------


def test_rotation_covers_all_classes():
    assignment = RotationClasses(3).resolve(10, 10)
    assert all(len(c) == 3 for c in assignment)
    covered = set()
    for classes in assignment:
        covered.update(classes)
    assert covered == set(range(10))


def test_class_count_preset_expansion():
    counts = [8, 7, 6, 5, 5, 5, 5, 5, 5, 5]
    assignment = PresetClasses("noniid-8x1-7x1-6x1-5x7").resolve(10, 10)
    assert [len(c) for c in assignment] == counts


def test_alternating_order_interleaves():
    groups = ["fast", "fast", "slow", "slow", "fast"]
    assert alternating_order(groups) == [0, 2, 1, 3, 4]


def test_alternating_order_homogeneous_is_identity():
    assert alternating_order(["fast"] * 4) == [0, 1, 2, 3]


def _balanced_source(n_per_class=100, num_classes=4, dim=3, seed=5):
    return generate_blobs(dim, num_classes, n_per_class, 0.2, seed)


def assigned(sizes, assignment, source, seed, learner_order=None):
    """Each learner's local pool, drawn from ``source`` as ``assign_classes``
    picks it."""
    picks = assign_classes(sizes, assignment, source, seed, learner_order)
    return [source.subset(idx) for idx in picks]


def stratified_split(local, fraction, seed):
    """(train, validation) of a local dataset, as ``validation_mask`` splits it."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    mask = validation_mask(local.labels, fraction, rng)
    return local.subset(np.flatnonzero(~mask)), local.subset(np.flatnonzero(mask))


def test_assign_iid_uniform_flat_histogram():
    source = _balanced_source()
    sizes = [40] * 4
    parts = assigned(sizes, IidClasses().resolve(4, 4), source, seed=9)
    for part in parts:
        hist = np.bincount(part.labels, minlength=4)
        assert part.n == 40
        assert hist.max() - hist.min() <= 1


def test_assign_noniid_exact_classes():
    source = _balanced_source()
    sizes = [30] * 4
    assignment = RotationClasses(2).resolve(4, 4)
    parts = assigned(sizes, assignment, source, seed=9)
    for part, classes in zip(parts, assignment):
        present = set(np.unique(part.labels))
        assert present == set(classes)


def test_assign_no_sample_reuse():
    source = _balanced_source()
    sizes = [50, 40, 30, 20]
    parts = assigned(sizes, IidClasses().resolve(4, 4), source, seed=11)
    seen = []
    for part in parts:
        seen.extend(map(tuple, part.features))
    assert len(seen) == len(set(seen)) == sum(sizes)


def test_assign_capacity_error_names_class():
    source = _balanced_source(n_per_class=10)
    sizes = [30, 30, 30, 30]  # demands 30 per class, only 10 exist
    with pytest.raises(CapacityError, match="class 0"):
        assigned(sizes, RotationClasses(1).resolve(4, 4), source, seed=3)


def test_assign_respects_learner_order():
    source = _balanced_source()
    sizes = [60, 30, 20, 10]
    order = [2, 0, 3, 1]  # rank 0 (60 samples) goes to learner 2
    parts = assigned(sizes, IidClasses().resolve(4, 4), source, seed=1, learner_order=order)
    assert [p.n for p in parts] == [30, 10, 60, 20]


def test_dataset_labels_are_a_read_only_copy():
    labels = np.array([0, 1, 2, 1])
    ds = Dataset(np.zeros((4, 2)), labels, 3)
    labels[0] = 7  # the caller's array stays the caller's
    assert ds.labels.tolist() == [0, 1, 2, 1]
    with pytest.raises(ValueError, match="read-only"):
        ds.labels[0] = 5
    assert ds.subset(np.array([3, 0])).labels.flags.writeable is False


@pytest.mark.parametrize("labels", [[0, 3, 1], [0, -1, 1]])
def test_dataset_rejects_out_of_range_labels(labels):
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        Dataset(np.zeros((3, 2)), np.array(labels), 3)


# ---------------------------------------------------------------------------
# validation_mask
# ---------------------------------------------------------------------------


def test_split_exact_five_percent():
    feats = np.zeros((200, 2))
    labels = np.array([0] * 100 + [1] * 100)
    ds = Dataset(feats + np.arange(200)[:, None], labels, 2)
    train, val = stratified_split(ds, 0.05, seed=4)
    assert val.n == 10
    assert np.bincount(val.labels, minlength=2).tolist() == [5, 5]
    assert train.n == 190


def test_split_single_class_learner():
    ds = Dataset(np.arange(40)[:, None].astype(float), np.zeros(40, dtype=int), 4)
    train, val = stratified_split(ds, 0.05, seed=4)
    assert val.n == 2
    assert set(val.labels) == {0}


def test_split_rounding_frozen_example():
    # round(0.05*37)=2, round(0.05*13)=1
    labels = np.array([0] * 37 + [1] * 13)
    ds = Dataset(np.arange(50)[:, None].astype(float), labels, 2)
    train, val = stratified_split(ds, 0.05, seed=8)
    assert np.bincount(val.labels, minlength=2).tolist() == [2, 1]
    assert np.bincount(train.labels, minlength=2).tolist() == [35, 12]


def test_split_disjoint_and_deterministic():
    ds = _balanced_source(n_per_class=33)
    t1, v1 = stratified_split(ds, 0.1, seed=12)
    t2, v2 = stratified_split(ds, 0.1, seed=12)
    assert np.array_equal(v1.features, v2.features)
    assert t1.n + v1.n == ds.n
    rows = set(map(tuple, t1.features)) | set(map(tuple, v1.features))
    assert len(rows) == ds.n


@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.floats(0.02, 0.4))
@example(seed=164, num_classes=5, fraction=0.03125)
@example(seed=149, num_classes=4, fraction=0.0234375)
@settings(max_examples=40, deadline=None)
def test_split_stratification_property(seed, num_classes, fraction):
    # The documented count per class: round-half-up(fraction * n_c) clamped
    # to [1, n_c - 1], and nothing from a singleton class.
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 60, size=num_classes)
    labels = np.repeat(np.arange(num_classes), counts)
    ds = Dataset(rng.normal(size=(labels.size, 2)), labels, num_classes)
    if counts.max() == 1:
        with pytest.raises(ValueError, match="validation split is empty"):
            stratified_split(ds, fraction, seed)
        return
    train, val = stratified_split(ds, fraction, seed)
    want = [
        0 if n_c == 1 else min(max(math.floor(fraction * n_c + 0.5), 1), n_c - 1)
        for n_c in counts
    ]
    val_hist = np.bincount(val.labels, minlength=num_classes)
    assert val_hist.tolist() == want
    assert (np.bincount(train.labels, minlength=num_classes) + val_hist).tolist() == counts.tolist()


# ---------------------------------------------------------------------------
# build_federated_split
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 123, 2**32 - 1, 2**32 + 5, 2**64 + 3, 2**128 - 1])
def test_split_masks_are_numpys_seed_sequence_draws(seed):
    # Learner k's validation slice is drawn by the generator numpy seeds from
    # SeedSequence([seed, 2, k]); seeds of one to four entropy words.
    source = _balanced_source(n_per_class=120)
    sizes = compute_sizes(SkewedSizes(), 12, 360)
    assignment = IidClasses().resolve(12, 4)
    split = build_federated_split(source, sizes, assignment, 0.1, seed, source)
    trains, validations = [], []
    for lid, idx in enumerate(assign_classes(sizes, assignment, source, [seed, 1])):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 2, lid])))
        mask = validation_mask(source.labels[idx], 0.1, rng)
        trains.append(idx[~mask])
        validations.append(idx[mask])
    for pool, picked in ((split.train, trains), (split.validation, validations)):
        want = source.subset(np.concatenate(picked))
        assert pool.features.tobytes() == want.features.tobytes()
        assert pool.labels.tolist() == want.labels.tolist()
    assert split.learner_sizes == tuple((t.size, v.size) for t, v in zip(trains, validations))


def test_federated_split_partition_totality():
    source = _balanced_source(n_per_class=200)
    test = _balanced_source(n_per_class=20, seed=6)
    sizes = compute_sizes(PowerlawSizes(), 5, 500)
    assignment = IidClasses().resolve(5, 4)
    split = build_federated_split(source, sizes, assignment, 0.05, 123, test)
    bank = LearnerBank(model_layout(ModelSpec("softmax-regression", 3, 4)), split)
    drawn = sum(n + v for n, v in split.learner_sizes)
    assert drawn == 500
    # The bank's offsets tile both pools in id order.
    all_rows = []
    for pool, start, n in (
        (split.train, bank.train_start, bank.train_n),
        (split.validation, bank.val_start, bank.val_n),
    ):
        assert start[0] == 0 and np.array_equal(start[1:], (start + n)[:-1])
        assert start[-1] + n[-1] == pool.n
        all_rows.extend(map(tuple, pool.features))
    assert len(all_rows) == len(set(all_rows))
    assert (bank.val_n >= 1).all()
