"""Learner runtime: local training, update triggering, staleness tracking.

A learner trains epoch by epoch on its private data (momentum SGD, optional
proximal pull toward the last community model) and decides when to request a
community update. The fixed policy triggers every ``uf`` epochs; the adaptive
policy watches the per-epoch change of the local validation loss (conditions
C1/C2 with a tombstone allowance) and the learner's effective staleness
against a frozen median threshold (condition C3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .controller import CommunityModel
from .data import Dataset
from .nn import (
    ParameterBuffer,
    ParameterSet,
    ShapeError,
    Workspace,
    backward,  # noqa: F401 - re-exported: benchmark tracing looks it up here
    check_inputs,
    momentum_update,
    sgd_momentum_step,  # noqa: F401 - re-exported: benchmark tracing looks it up here
)

CAUSE_C1 = "C1"
CAUSE_C2 = "C2"
CAUSE_C3 = "C3"
CAUSE_FIXED = "fixed"


@dataclass(frozen=True)
class Hyperparameters:
    eta: float = 0.05
    gamma: float = 0.75
    batch_size: int = 100

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size beta must be >= 1")


@dataclass(frozen=True)
class FixedPolicy:
    """Request a community update after exactly ``uf`` local epochs."""

    uf: int = 4

    def __post_init__(self) -> None:
        if self.uf < 1:
            raise ValueError("update frequency uf must be >= 1")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Validation-loss and staleness criteria with a tombstone allowance.

    A cycle survives ``vc_tomb`` validation-loss failures and triggers on
    failure ``vc_tomb + 1``. The staleness criterion arms once
    ``warmup_cycles`` cycles have completed and fires when the current
    effective staleness strictly exceeds the frozen median of those first
    cycles. ``max_epochs_per_cycle`` is a safety cap.
    """

    vc_loss: float = 0.0
    vc_tomb: int = 0
    warmup_cycles: int = 20
    max_epochs_per_cycle: int = 32

    def __post_init__(self) -> None:
        if self.vc_loss < 0:
            raise ValueError("vc_loss must be >= 0")
        if self.vc_tomb < 0:
            raise ValueError("vc_tomb must be >= 0")
        if self.warmup_cycles < 1:
            raise ValueError("warmup_cycles must be >= 1")
        if self.max_epochs_per_cycle < 1:
            raise ValueError("max_epochs_per_cycle must be >= 1")


TriggerPolicy = Union[FixedPolicy, AdaptivePolicy]


@dataclass
class ValidationCycle:
    """Everything a learner did between two community updates."""

    epochs: int = 0
    losses: list[float] = field(default_factory=list)
    tombstones_used: int = 0
    staleness_at_commit: int | None = None
    trigger_cause: str | None = None


@dataclass
class LearnerState:
    """A learner's model and bookkeeping.

    ``params`` and ``momentum`` are buffers the learner owns and trains in
    place; they are copied out only at the exchange boundary
    (``params.snapshot()`` for an update request) and overwritten only by
    ``adopt_community``. ``anchor`` is the community model adopted at the
    last fetch.
    """

    id: int
    params: ParameterBuffer
    momentum: ParameterBuffer
    gamma: float
    policy: TriggerPolicy
    proximal_mu: float = 0.0
    data_seed: int = 0
    S_k_local: int = 0
    S_c_at_fetch: int = 0
    version_at_fetch: int = 0
    anchor: ParameterSet | None = None
    epochs_total: int = 0
    cycles: list[ValidationCycle] = field(default_factory=list)
    current: ValidationCycle = field(default_factory=ValidationCycle)


def new_learner(
    learner_id: int,
    community: CommunityModel,
    policy: TriggerPolicy,
    gamma: float,
    proximal_mu: float = 0.0,
    data_seed: int = 0,
) -> LearnerState:
    """Create a learner that has just adopted the broadcast community model."""
    if not (0.0 <= gamma < 1.0):
        raise ValueError("momentum attenuation must lie in [0, 1)")
    layout = community.params.layout
    state = LearnerState(
        id=learner_id,
        params=ParameterBuffer(layout),
        momentum=ParameterBuffer(layout),
        gamma=gamma,
        policy=policy,
        proximal_mu=proximal_mu,
        data_seed=data_seed,
    )
    adopt_community(state, community)
    return state


def run_epoch(
    state: LearnerState, train: Dataset, hp: Hyperparameters, workspace: Workspace | None = None
) -> int:
    """Train one epoch in a seed-determined shuffle order; returns steps taken.

    Each step works in place on the learner's buffers: the data gradient,
    plus mu * (w - w_anchor) with a positive proximal coefficient (a pull
    toward the community model adopted at the last fetch), then
    u <- gamma*u + g and w <- w - eta*u. ``workspace`` holds the batch and
    gradient scratch; a federation passes one shared by all its learners.
    Raises ``ShapeError`` at the first step that leaves a non-finite
    parameter.
    """
    if train.n < 1:
        raise ValueError("cannot train on an empty dataset")
    params = state.params
    check_inputs(params, train.features, train.labels)
    ws = workspace if workspace is not None else Workspace(params.layout)
    ws.reserve(min(hp.batch_size, train.n))
    w, u, g, tmp = params.flat, state.momentum.flat, ws.grad.flat, ws.tmp
    mu = state.proximal_mu
    anchor = state.anchor.flat if mu > 0.0 else None
    seq = np.random.SeedSequence([state.data_seed, 5, state.id, state.epochs_total])
    rng = np.random.Generator(np.random.Philox(seq))
    perm = rng.permutation(train.n)
    steps = 0
    for start in range(0, train.n, hp.batch_size):
        chunk = perm[start : start + hp.batch_size]
        m = chunk.shape[0]
        # mode="clip" skips the bounds pass that buffers the gather; a
        # permutation is always in range.
        x = np.take(train.features, chunk, axis=0, out=ws.x[:m], mode="clip")
        y = np.take(train.labels, chunk, out=ws.y[:m], mode="clip")
        ws.gradient(params, x, y)
        if anchor is not None:
            np.subtract(w, anchor, out=tmp)
            tmp *= mu
            g += tmp
        momentum_update(w, u, g, state.gamma, hp.eta, tmp)
        steps += 1
        if not np.isfinite(w).all():
            raise ShapeError(
                f"learner {state.id}: parameters became non-finite at step {steps} "
                f"of epoch {state.epochs_total}"
            )
    state.S_k_local += steps
    state.epochs_total += 1
    state.current.epochs += 1
    return steps


def local_validation_loss(
    state: LearnerState, validation: Dataset, workspace: Workspace | None = None
) -> float:
    """Mean cross-entropy of the local model on ``validation``."""
    ws = workspace if workspace is not None else Workspace(state.params.layout)
    return ws.loss(state.params, validation.features, validation.labels)


def record_validation_loss(state: LearnerState, loss: float) -> None:
    state.current.losses.append(loss)


def compute_vpct(vloss_now: float, vloss_prev: float) -> float:
    """Percentage change of the validation loss between consecutive epochs.

    A learner that fits its validation slice exactly can reach a loss of
    0.0. From there the change is 0.0 if the loss stays at zero and
    ``math.inf`` otherwise; both count as a C1 "no improvement" failure.
    """
    if vloss_prev < 0.0:
        raise ValueError("previous validation loss must be non-negative")
    if vloss_prev == 0.0:
        return 0.0 if vloss_now == 0.0 else math.inf
    return 100.0 * (vloss_now - vloss_prev) / vloss_prev


def check_adaptive_trigger(
    state: LearnerState, vpct: float | None, staleness_now: int
) -> str | None:
    """Evaluate the adaptive criteria at an epoch boundary.

    Returns the trigger cause, or None to keep training. A C1/C2 hit consumes
    one tombstone and triggers only once the allowance is exhausted; C3 fires
    immediately. ``vpct`` is None on the first epoch of a cycle, where no loss
    difference exists yet.
    """
    policy = state.policy
    if not isinstance(policy, AdaptivePolicy):
        raise TypeError("check_adaptive_trigger needs an adaptive policy")
    cycle = state.current
    if vpct is not None:
        failure = None
        if vpct >= 0.0:
            failure = CAUSE_C1
        elif abs(vpct) <= policy.vc_loss:
            failure = CAUSE_C2
        if failure is not None:
            cycle.tombstones_used += 1
            if cycle.tombstones_used > policy.vc_tomb:
                return failure
    threshold = frozen_staleness_threshold(state)
    if threshold is not None and staleness_now > threshold:
        return CAUSE_C3
    if cycle.epochs >= policy.max_epochs_per_cycle:
        return CAUSE_FIXED
    return None


def effective_staleness(s_c_now: int, state: LearnerState) -> int:
    """Committed steps elsewhere since the last fetch plus own local steps."""
    if s_c_now < state.S_c_at_fetch:
        raise RuntimeError(
            f"committed-step counter regressed: {s_c_now} < {state.S_c_at_fetch}"
        )
    return s_c_now - state.S_c_at_fetch + state.S_k_local


def staleness_threshold(samples: Sequence[int], warmup_cycles: int) -> float | None:
    """Median of the first ``warmup_cycles`` staleness samples, or None while
    fewer have been collected. Even counts take the lower-middle element."""
    if len(samples) < warmup_cycles:
        return None
    window = sorted(samples[:warmup_cycles])
    return float(window[(warmup_cycles - 1) // 2])


def frozen_staleness_threshold(state: LearnerState) -> float | None:
    policy = state.policy
    if not isinstance(policy, AdaptivePolicy):
        return None
    samples = [
        c.staleness_at_commit for c in state.cycles if c.staleness_at_commit is not None
    ]
    return staleness_threshold(samples, policy.warmup_cycles)


def adopt_community(
    state: LearnerState, community: CommunityModel, cause: str | None = None
) -> None:
    """Copy the community model into the local parameters and start a new cycle.

    The momentum buffer is zeroed (it was computed against a discarded
    trajectory), the local step counter restarts, and the finished cycle is
    archived with its effective staleness. Adopting again without training in
    between archives nothing.
    """
    if state.current.epochs >= 1:
        state.current.trigger_cause = cause
        state.current.staleness_at_commit = community.committed_steps - state.S_c_at_fetch
        state.cycles.append(state.current)
    state.current = ValidationCycle()
    state.params.load(community.params)
    state.momentum.flat.fill(0.0)
    state.anchor = community.params
    state.S_k_local = 0
    state.S_c_at_fetch = community.committed_steps
    state.version_at_fetch = community.version
