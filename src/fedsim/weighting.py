"""Contribution-value schemes for mixing learner models into the community.

Static FedAvg weights (local training-set size), distributed-validation
weighting (micro-F1 over pooled confusion matrices), and the polynomial
staleness mixer used by the FedAsync baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ParameterSet, ShapeError, scale_add, scale

SCHEMES = ("sync_fedavg", "async_fedavg", "sync_dvw", "async_dvw", "fedasync_poly")
DVW_SCHEMES = ("sync_dvw", "async_dvw")


def fedavg_weight(train_size: int) -> float:
    """Static contribution: the learner's local training-set size."""
    if train_size < 1:
        raise ValueError("train_size must be >= 1")
    return float(train_size)


@dataclass(frozen=True)
class EvalReport:
    """Per-evaluator confusion matrices for one committed model."""

    per_evaluator: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.per_evaluator:
            raise ValueError("evaluation report is empty")
        ids = [lid for lid, _ in self.per_evaluator]
        if len(set(ids)) != len(ids):
            raise ValueError("an evaluator appears more than once in the report")
        entries = []
        shape = None
        for lid, cm in self.per_evaluator:
            m = _as_confusion(cm)
            if shape is None:
                shape = m.shape
            elif m.shape != shape:
                raise ShapeError(
                    f"evaluator {lid}: confusion matrix {m.shape} differs from {shape}"
                )
            entries.append((int(lid), m))
        object.__setattr__(self, "per_evaluator", tuple(entries))


def _as_confusion(cm: np.ndarray) -> np.ndarray:
    m = np.asarray(cm)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError("confusion matrix counts must be integers")
    if (m < 0).any():
        raise ValueError("confusion matrix counts must be non-negative")
    return m.astype(np.int64)


def pool_confusion(report: EvalReport) -> np.ndarray:
    """Elementwise integer sum of all evaluators' confusion matrices."""
    pooled = np.zeros_like(report.per_evaluator[0][1])
    for _, cm in report.per_evaluator:
        pooled = pooled + cm
    return pooled


def micro_f1(cm: np.ndarray) -> float:
    """Micro-averaged F1 of a confusion matrix (rows actual, columns predicted).

    TP/FP/FN totals are accumulated in exact integer arithmetic; only the
    final ratio is a float division.
    """
    m = _as_confusion(cm)
    total = int(m.sum())
    if total < 1:
        raise ValueError("micro-F1 is undefined on an empty confusion matrix")
    diag = np.diag(m)
    tp = int(diag.sum())
    fp = int((m.sum(axis=0) - diag).sum())
    fn = int((m.sum(axis=1) - diag).sum())
    return (2 * tp) / (2 * tp + fp + fn)


def dvw_weight(report: EvalReport) -> float:
    """Contribution of a committed model: pooled-validation micro-F1 in [0, 1]."""
    return micro_f1(pool_confusion(report))


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


def fedasync_poly_mix(
    w_c: ParameterSet,
    w_k: ParameterSet,
    staleness: int,
    params: FedAsyncParams,
) -> ParameterSet:
    """Convex combination (1 - alpha_t) * w_c + alpha_t * w_k."""
    alpha_t = fedasync_mix_factor(staleness, params)
    return scale_add(scale(w_c, 1.0 - alpha_t), w_k, alpha_t)
