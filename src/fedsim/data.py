"""Dataset ingestion and federated partitioning.

IDX binary loading (a ``Dataset`` of the file's uint8 pixel rows),
synthetic Gaussian-blob generation, data-size distributions (uniform /
skewed / power law, one dataclass per ``kind``), each learner's pool drawn
from its classes, and stratified local train/validation splits. All
operations are pure functions of their inputs and an explicit seed.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_WORD = 0xFFFFFFFF
_POOL = 4  # SeedSequence's pool size in uint32 words


class IdxFormatError(ValueError):
    """An IDX file is malformed; the message names the offending field."""


class CapacityError(ValueError):
    """A class assignment demands more samples than the source holds."""


@dataclass(frozen=True)
class Dataset:
    """Row matrix (n x d), integer labels and the global class count.

    The rows are stored as given, float64 or an IDX file's uint8 pixels,
    and are not copied; ``features`` reads them as float64 (``as_float64``).
    The labels are a read-only copy, range-checked against ``num_classes``
    here, so that check holds for the dataset's lifetime.
    """

    rows: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        f = np.asarray(self.rows)
        f = f if f.dtype == np.uint8 else f.astype(np.float64, copy=False)
        y = np.array(self.labels, dtype=np.int64)
        if f.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if y.ndim != 1 or y.shape[0] != f.shape[0]:
            raise ValueError("labels must be one per feature row")
        if f.shape[0] < 1:
            raise ValueError("dataset must hold at least one sample")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if y.min() < 0 or y.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        y.setflags(write=False)
        object.__setattr__(self, "rows", f)
        object.__setattr__(self, "labels", y)

    @property
    def features(self) -> np.ndarray:
        """The rows as float64: the stored matrix itself, or uint8 rows
        scaled into a new, writable matrix on every call."""
        return as_float64(self.rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.rows[idx], self.labels[idx], self.num_classes)

    def class_histogram(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def one_hot(self) -> np.ndarray:
        """The labels as read-only float64 rows of ``num_classes`` columns,
        1.0 in the label's column and 0.0 elsewhere; built on first use and
        kept on the instance."""
        rows = self.__dict__.get("_one_hot")
        if rows is None:
            rows = self.__dict__["_one_hot"] = np.eye(self.num_classes)[self.labels]
            rows.setflags(write=False)
        return rows


def as_float64(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``rows`` as float64: uint8 pixels divided by 255.0 (into ``out``, if
    given), which is elementwise, so it commutes with gathering rows."""
    return np.divide(rows, 255.0, out=out) if rows.dtype == np.uint8 else rows


def _read_idx_header(data: bytes, path: str, field: str, magic: int, ndims: int) -> tuple[int, ...]:
    header_len = 4 * (1 + ndims)
    if len(data) < header_len:
        raise IdxFormatError(f"{field} header: file {path!r} truncated before header end")
    got_magic = struct.unpack(">I", data[:4])[0]
    if got_magic != magic:
        raise IdxFormatError(
            f"{field} magic: expected 0x{magic:08x}, got 0x{got_magic:08x} in {path!r}"
        )
    return struct.unpack(">" + "I" * ndims, data[4:header_len])


def load_idx(images_path: str, labels_path: str, num_classes: int | None = None) -> Dataset:
    """Load an IDX image/label file pair; the pixel rows stay uint8."""
    with open(images_path, "rb") as f:
        img_data = f.read()
    n_img, rows, cols = _read_idx_header(img_data, images_path, "images", IDX_IMAGES_MAGIC, 3)
    if n_img == 0:
        raise IdxFormatError(f"images item count: file {images_path!r} holds no images")
    expected = 16 + n_img * rows * cols
    if len(img_data) != expected:
        raise IdxFormatError(
            f"images payload: expected {expected} bytes, file {images_path!r} has {len(img_data)}"
        )
    with open(labels_path, "rb") as f:
        lbl_data = f.read()
    (n_lbl,) = _read_idx_header(lbl_data, labels_path, "labels", IDX_LABELS_MAGIC, 1)
    if len(lbl_data) != 8 + n_lbl:
        raise IdxFormatError(
            f"labels payload: expected {8 + n_lbl} bytes, file {labels_path!r} has {len(lbl_data)}"
        )
    if n_img != n_lbl:
        raise IdxFormatError(f"item count: {n_img} images but {n_lbl} labels")
    pixels = np.frombuffer(img_data, dtype=np.uint8, offset=16).reshape(n_img, rows * cols)
    labels = np.frombuffer(lbl_data, dtype=np.uint8, offset=8)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    elif labels.max() >= num_classes:
        raise IdxFormatError(
            f"labels: file {labels_path!r} holds class {labels.max()}, outside dataset.num_classes="
            f"{num_classes} (as declared, or the training labels' largest + 1): labels must lie "
            f"in [0, {num_classes})"
        )
    return Dataset(pixels, labels, num_classes)


_CENTER_STREAM_TAG = 314159265


def _class_centers(input_dim: int, num_classes: int) -> np.ndarray:
    """Deterministic unit-norm class centers with enforced pairwise separation.

    Rejection-samples random directions against a minimum distance that
    relaxes geometrically when the sphere gets crowded, so the construction
    terminates for any feasible (dim, classes) and stays deterministic.
    """
    if input_dim == 1 and num_classes > 2:
        raise ValueError("1-D features admit at most two distinct unit-norm class centers")
    seq = np.random.SeedSequence([_CENTER_STREAM_TAG, input_dim, num_classes])
    rng = np.random.Generator(np.random.Philox(seq))
    centers: list[np.ndarray] = []
    min_dist = 1.0 if input_dim > 1 else 0.5
    for _ in range(num_classes):
        failures = 0
        while True:
            v = rng.standard_normal(input_dim)
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                continue
            v = v / norm
            if all(np.linalg.norm(v - u) >= min_dist for u in centers):
                break
            failures += 1
            if failures % 200 == 0:
                min_dist *= 0.7
        centers.append(v)
    return np.array(centers)


def generate_blobs(
    input_dim: int,
    num_classes: int,
    n_per_class: int,
    spread: float,
    seed,
) -> Dataset:
    """Balanced Gaussian blobs around deterministic unit-norm class centers."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    centers = _class_centers(input_dim, num_classes)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    noise = rng.standard_normal((num_classes * n_per_class, input_dim)) * spread
    features = np.repeat(centers, n_per_class, axis=0) + noise
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    return Dataset(features, labels, num_classes)


# How many training samples each learner receives, one dataclass per kind:
# ``total`` is the number to spread, or ``None`` for the whole source pool.
# ``compute_sizes`` splits it; the config checks that every learner gets one.


@dataclass(frozen=True)
class UniformSizes:
    """Learner sizes equal, give or take one."""

    kind: ClassVar[str] = "uniform"
    total: int | None = None


@dataclass(frozen=True)
class SkewedSizes:
    """Learner sizes proportional to decay^k."""

    kind: ClassVar[str] = "skewed"
    total: int | None = None
    decay: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("skew decay must lie in (0, 1]")


@dataclass(frozen=True)
class PowerlawSizes:
    """Learner sizes proportional to (k+1)^-exponent."""

    kind: ClassVar[str] = "powerlaw"
    total: int | None = None
    exponent: float = 1.5

    def __post_init__(self) -> None:
        if self.exponent <= 0.0:
            raise ValueError("power-law exponent must be positive")


SizeDistribution = Union[UniformSizes, SkewedSizes, PowerlawSizes]


def compute_sizes(dist: SizeDistribution, n: int, total: int) -> list[int]:
    """Split ``total`` across ``n`` learners, largest first.

    Uniform gives floor(total/N) each with the remainder going to the
    lowest-index learners. Skewed and power-law sizes are proportional to
    decay^k and (k+1)^-exponent and rounded with a largest-remainder
    correction so they sum exactly to ``total``.
    """
    if total < n:
        raise ValueError(f"cannot spread {total} samples across {n} learners")
    if dist.kind == "uniform":
        base = total // n
        rem = total - base * n
        return [base + (1 if k < rem else 0) for k in range(n)]
    if dist.kind == "powerlaw":
        weights = np.array([(k + 1.0) ** -dist.exponent for k in range(n)])
    else:
        weights = np.array([dist.decay**k for k in range(n)])
    shares = total * weights / weights.sum()
    sizes = np.floor(shares).astype(int)
    frac_order = sorted(range(n), key=lambda k: (-(shares[k] - sizes[k]), k))
    for k in frac_order[: total - int(sizes.sum())]:
        sizes[k] += 1
    result = sorted((int(s) for s in sizes), reverse=True)
    if result[-1] < 1:
        raise ValueError(
            f"{dist.kind} distribution over {n} learners leaves a learner empty at total={total}"
        )
    return result


def alternating_order(groups: Sequence[str]) -> list[int]:
    """Learner ids ordered fast, slow, fast, ... for descending-size ranks."""
    fast = [i for i, g in enumerate(groups) if g == "fast"]
    slow = [i for i, g in enumerate(groups) if g != "fast"]
    order: list[int] = []
    for f, s in zip(fast, slow):
        order.extend((f, s))
    longer = fast if len(fast) > len(slow) else slow
    order.extend(longer[min(len(fast), len(slow)):])
    return order


def assign_classes(
    sizes: Sequence[int],
    assignment: Sequence[tuple[int, ...]],
    dataset: Dataset,
    seed,
    learner_order: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """Draw each learner's local training pool from the source dataset, as
    sorted row indices into it.

    ``sizes`` and ``assignment`` (each rank's sorted classes) are indexed by
    descending-size rank; ``learner_order[rank]`` maps ranks to learner ids
    (identity when absent). Samples are drawn per class without replacement,
    evenly across a learner's classes with the remainder going to its lowest
    class indices. Every class in ``assignment`` lies below the dataset's
    class count, as the config's class assignment has checked (``resolve``).
    """
    n = len(sizes)
    if len(assignment) != n:
        raise ValueError("sizes and class assignment must cover the same learners")
    order = list(learner_order) if learner_order is not None else list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("learner_order must be a permutation of learner ids")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    pools: dict[int, np.ndarray] = {}
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        pools[c] = idx[rng.permutation(idx.size)]

    takes_per_rank: list[dict[int, int]] = []
    demand: Counter = Counter()
    for rank in range(n):
        classes = assignment[rank]
        size = int(sizes[rank])
        if size < len(classes):
            raise ValueError(
                f"rank {rank}: size {size} cannot cover {len(classes)} assigned classes"
            )
        base, rem = divmod(size, len(classes))
        takes = {c: base + (1 if i < rem else 0) for i, c in enumerate(classes)}
        takes_per_rank.append(takes)
        demand.update(takes)
    for c in sorted(demand):
        need, have = demand[c], pools[c].size
        if need > have:
            raise CapacityError(
                f"class {c}: assignments need {need} samples but only {have} exist (short {need - have})"
            )

    cursors: Counter = Counter()
    out: list[np.ndarray | None] = [None] * n
    for rank in range(n):
        picked = []
        for c, take in takes_per_rank[rank].items():
            start = cursors[c]
            picked.append(pools[c][start : start + take])
            cursors[c] = start + take
        out[order[rank]] = np.sort(np.concatenate(picked))
    return out  # type: ignore[return-value]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``values`` (uint32, last axis of k) with
    the k + 1 successive hash constants ``consts``."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of pool words ``x`` with hashed words ``y``."""
    x = x * np.uint32(0xCA01F9DD)
    x -= y * np.uint32(0x4973F715)
    x ^= x >> 16
    return x


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` and the next ``count`` hash constants, each ``mult`` times the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _WORD)
    return np.array(consts, np.uint32)


def philox_keys(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The key ``Philox(SeedSequence(words))`` takes for each row of uint32
    ``entropy`` whose first ``lengths[r]`` words are in use, as an (R, 2)
    uint64 array: SeedSequence's entropy mixing into its 4-word pool (a row
    of fewer words holds zeros up to it), then ``generate_state(2, uint64)``,
    run across rows. The hash constants depend only on the word position."""
    width = entropy.shape[1]
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, _POOL * width)
    pool = _hashmix(entropy[:, :_POOL], consts[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):  # every pool word into every other one
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src : src + 1], consts[k : k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, width):  # words beyond the pool into every pool word
        mixed = _mix(pool, _hashmix(entropy[:, src : src + 1], consts[k : k + _POOL + 1]))
        pool = np.where((src < lengths)[:, None], mixed, pool)
        k += _POOL
    words = _hashmix(pool, _hash_consts(0x8B51F9DD, 0x58F38DED, _POOL)).astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)


def seed_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words, the way SeedSequence splits it."""
    words = [value & _WORD]
    while value > _WORD:
        value >>= 32
        words.append(value & _WORD)
    return words


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def validation_mask(labels: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """The samples of a local dataset with ``labels`` that its
    class-stratified validation slice reserves, as a boolean mask (``rng``).

    Per class with n_c samples the validation side takes round(fraction*n_c)
    clamped to [1, n_c - 1]; singleton classes contribute nothing.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    val_mask = np.zeros(labels.size, dtype=bool)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        n_c = idx.size
        if n_c == 1:
            continue
        v = min(max(_round_half_up(fraction * n_c), 1), n_c - 1)
        chosen = idx[rng.permutation(n_c)[:v]]
        val_mask[chosen] = True
    if not val_mask.any():
        raise ValueError("validation split is empty: every class holds a single sample")
    return val_mask


@dataclass(frozen=True)
class FederatedSplit:
    """Every learner's training and validation samples, pooled learner by
    learner in id order (``train``, ``validation``), and the shared test set.
    Learner k holds the next ``learner_sizes[k]`` = (train n, validation n)
    samples of the two pools (``learner.LearnerBank`` keeps the offsets)."""

    train: Dataset
    validation: Dataset
    test: Dataset
    learner_sizes: tuple[tuple[int, int], ...]


def build_federated_split(
    source: Dataset,
    sizes: Sequence[int],
    assignment: Sequence[tuple[int, ...]],
    validation_fraction: float,
    seed: int,
    test: Dataset,
    learner_order: Sequence[int] | None = None,
) -> FederatedSplit:
    """Assign local pools and carve out each learner's validation slice.
    Each pool is gathered from the source in one copy (an IDX source's stays
    uint8). Learner k's slice is drawn by ``Philox(SeedSequence([seed, 2,
    k]))``: all keys are derived in one pass, and one Philox is reseated."""
    trains, validations = [], []
    picks = assign_classes(sizes, assignment, source, [seed, 1], learner_order)
    # [seed, 2, k] as words, then zeros: at least the 4 that SeedSequence pads to.
    entropy = np.array([seed_words(seed) + [2, k, 0, 0] for k in range(len(picks))], np.uint32)
    keys = philox_keys(entropy, np.full(len(picks), entropy.shape[1] - 2))
    rng = np.random.Generator(np.random.Philox(0))
    fresh = rng.bit_generator.state  # a zero counter and empty buffers
    for idx, key in zip(picks, keys):
        fresh["state"]["key"] = key
        rng.bit_generator.state = fresh
        val_mask = validation_mask(source.labels[idx], validation_fraction, rng)
        trains.append(idx[~val_mask])
        validations.append(idx[val_mask])
    return FederatedSplit(
        source.subset(np.concatenate(trains)),
        source.subset(np.concatenate(validations)),
        test,
        tuple((t.size, v.size) for t, v in zip(trains, validations)),
    )
