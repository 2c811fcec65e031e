"""MNIST-shaped IDX input for the ``mnist-mlp-sync`` workload.

Writes an image file (magic 0x00000803, n x 28 x 28 uint8) and a label file
(magic 0x00000801, n uint8) in the IDX layout that ``fedsim.data.load_idx``
reads. Each class has a fixed prototype made of a few Gaussian strokes; a
sample is its class prototype, shifted by up to two pixels, scaled in
intensity and perturbed by clipped noise. The classes are therefore
separable well above chance, and everything is a function of the seed.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

ROWS = COLS = 28
NUM_CLASSES = 10
IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

_CHUNK = 2048


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:ROWS, 0:COLS].astype(np.float32)
    protos = np.zeros((NUM_CLASSES, ROWS, COLS), dtype=np.float32)
    for c in range(NUM_CLASSES):
        for _ in range(4):
            cy, cx = rng.uniform(6.0, 22.0, size=2)
            sy, sx = rng.uniform(1.5, 4.5, size=2)
            protos[c] += np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
        protos[c] /= protos[c].max()
    return protos


def make_images(num_per_class: int, seed: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced, shuffled uint8 images (n x 28 x 28) and labels for ``seed``.

    The prototypes depend on ``seed`` alone, so train (``stream`` 0) and test
    (``stream`` 1) draws share their classes but not their samples.
    """
    protos = _prototypes(np.random.default_rng([seed, 0]))
    rng = np.random.default_rng([seed, 1, stream])
    labels = rng.permutation(np.repeat(np.arange(NUM_CLASSES, dtype=np.uint8), num_per_class))
    images = np.empty((labels.size, ROWS, COLS), dtype=np.uint8)
    for start in range(0, labels.size, _CHUNK):
        lab = labels[start : start + _CHUNK]
        batch = protos[lab]
        shifts = rng.integers(-2, 3, size=(lab.size, 2))
        for i, (dy, dx) in enumerate(shifts):
            batch[i] = np.roll(batch[i], (dy, dx), axis=(0, 1))
        batch *= rng.uniform(0.6, 1.0, size=(lab.size, 1, 1)).astype(np.float32)
        batch += rng.normal(0.0, 0.12, size=batch.shape).astype(np.float32)
        np.clip(batch, 0.0, 1.0, out=batch)
        images[start : start + lab.size] = np.rint(batch * 255.0).astype(np.uint8)
    return images, labels


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: Path, labels_path: Path) -> None:
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, labels.size))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_dataset(out_dir: Path, seed: int, train_per_class: int, test_per_class: int) -> dict:
    """Write the train/test IDX pair into ``out_dir``; returns the config paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stream, (split, per_class) in enumerate((("train", train_per_class), ("test", test_per_class))):
        images, labels = make_images(per_class, seed, stream)
        img_path = out_dir / f"{split}-images-idx3-ubyte"
        lbl_path = out_dir / f"{split}-labels-idx1-ubyte"
        write_idx(images, labels, img_path, lbl_path)
        paths[f"{split}_images"] = str(img_path)
        paths[f"{split}_labels"] = str(lbl_path)
    return paths
