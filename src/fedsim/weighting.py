"""Contribution-value schemes for mixing learner models into the community.

Static FedAvg weights (local training-set size), distributed-validation
weighting (pooled-validation accuracy, equal to micro-F1), and the
polynomial staleness mixer used by the FedAsync baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .nn import ParameterSet, ShapeError, predict

SCHEMES = ("sync_fedavg", "async_fedavg", "sync_dvw", "async_dvw", "fedasync_poly")
DVW_SCHEMES = ("sync_dvw", "async_dvw")


def fedavg_weight(train_size: int) -> float:
    """Static contribution: the local training-set size, >= 1 (``UpdateRequest``)."""
    return float(train_size)


def dvw_weight(params: ParameterSet, validation: Dataset) -> float:
    """Contribution of a committed model: its accuracy on the pooled
    validation set, in [0, 1].

    With one label per sample every miss is one false positive and one false
    negative, so this equals the micro-F1 of the pooled confusion matrix,
    2TP / (2TP + FP + FN) = TP / n, exactly: the hit count is an integer and
    only the final ratio is a float division. The federation has checked the
    pooled validation set against the model (``check_dataset``).
    """
    return accuracy(params, validation)


def accuracy(params: ParameterSet, data: Dataset) -> float:
    """Fraction of ``data``'s samples whose argmax prediction is their label:
    an integer hit count, divided once. The set is scaled and run whole: a
    matmul over row chunks may sum in another order and move the logits."""
    hits = predict(params, data.features) == data.labels
    return int(np.count_nonzero(hits)) / data.n


@dataclass(frozen=True)
class FedAsyncParams:
    """Polynomial staleness mixing: alpha_t = alpha * (staleness + 1)^-a."""

    alpha: float = 0.5
    a: float = 0.5
    rho: float = 0.005

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.a < 0.0:
            raise ValueError("staleness exponent a must be >= 0")
        if self.rho < 0.0:
            raise ValueError("proximal factor rho must be >= 0")


def fedasync_mix_factor(staleness: int, params: FedAsyncParams) -> float:
    """FedAsync's mixing weight alpha_t = alpha * (staleness + 1)^-a."""
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    return params.alpha * (staleness + 1.0) ** -params.a


def fedasync_poly_mix(w_c: ParameterSet, w_k: ParameterSet, alpha_t: float) -> ParameterSet:
    """Convex combination (1 - alpha_t) * w_c + alpha_t * w_k, as a new set."""
    if w_c.layout != w_k.layout:
        raise ShapeError(
            f"fedasync_poly_mix: parameter layouts differ "
            f"({w_c.layout.entries} vs {w_k.layout.entries})"
        )
    return ParameterSet((1.0 - alpha_t) * w_c.flat + alpha_t * w_k.flat, w_c.layout)
