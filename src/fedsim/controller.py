"""Federation controller: community tier, caching tier, committed-step counter.

The controllers are single-threaded: the simulator's event loop commits one
update at a time, in event order. The caching controller keeps, per learner,
its most recent contribution value and model. An asynchronous commit then
touches only the running weighted sum and that single cache entry, so its cost
is independent of the federation size. ``audit_recompute`` is the deliberately
slow full pass kept as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .nn import ModelSpec, ParameterSet, ShapeError, init_parameters
from .weighting import fedasync_poly_mix


class DegenerateFederationError(RuntimeError):
    """The federation state cannot produce a community model."""


@dataclass(frozen=True)
class CommunityModel:
    """Snapshot returned to a learner after a fetch or commit."""

    params: ParameterSet
    version: int
    committed_steps: int


@dataclass(frozen=True)
class UpdateRequest:
    """One learner's commit: its model plus bookkeeping for weighting."""

    learner_id: int
    params: ParameterSet
    local_steps: int
    local_train_size: int

    def __post_init__(self) -> None:
        if not isinstance(self.params, ParameterSet):
            # The controller caches the model; a learner's training buffer
            # would keep changing under the cache.
            raise TypeError("an update must carry an immutable ParameterSet snapshot")
        if self.local_steps < 1:
            raise ValueError("an update must carry at least one local step")
        if self.local_train_size < 1:
            raise ValueError("local_train_size must be >= 1")


WeightFn = Callable[[UpdateRequest], float]


class _Controller:
    """The community model, its version and the committed-step count, which
    every commit advances together through ``_publish``."""

    def __init__(self, spec: ModelSpec) -> None:
        self._community = init_parameters(spec)
        self._version = 0
        self._committed_steps = 0

    @property
    def version(self) -> int:
        return self._version

    def committed_steps(self) -> int:
        """Total mini-batch steps across all committed updates."""
        return self._committed_steps

    def current_model(self) -> CommunityModel:
        return CommunityModel(self._community, self._version, self._committed_steps)

    def _publish(self, params: ParameterSet, steps: int) -> CommunityModel:
        """Install ``params`` as the next version, ``steps`` more committed steps on."""
        self._community = params
        self._version += 1
        self._committed_steps += steps
        return self.current_model()


class FederationController(_Controller):
    """Community/caching tier: the community model is the contribution-weighted
    mean of each learner's latest cached model."""

    def __init__(self, spec: ModelSpec) -> None:
        super().__init__(spec)
        self._layout = self._community.layout
        # Running sum of p * params over the cache, updated in place.
        self._weighted_sum = np.zeros(self._layout.size)
        self._normalizer = 0.0
        # learner id -> (p, the read-only ``flat`` of its committed model)
        self._cache: dict[int, tuple[float, np.ndarray]] = {}

    @property
    def normalizer(self) -> float:
        return self._normalizer

    def handle_async_update(self, req: UpdateRequest, weight_fn: WeightFn) -> CommunityModel:
        """Commit one model: swap the learner's cached contribution in O(model).

        Never-committed learners have an implicit (0, zero-model) entry, so
        the first commit skips the subtraction entirely.
        """
        p = float(weight_fn(req))
        if p < 0.0:
            raise ValueError("contribution values must be non-negative")
        self._require_layout(req)
        p_prev, w_prev = self._cache.get(req.learner_id, (0.0, None))
        new_normalizer = self._normalizer + p - p_prev
        if new_normalizer <= 0.0:
            raise DegenerateFederationError(
                f"normalizer would drop to {new_normalizer} on commit from learner "
                f"{req.learner_id} (p={p})"
            )
        self._weighted_sum += p * req.params.flat
        if w_prev is not None:
            self._weighted_sum += (-p_prev) * w_prev
        self._normalizer = new_normalizer
        self._cache[req.learner_id] = (p, req.params.flat)
        return self._publish(self._mean(), req.local_steps)

    def handle_sync_round(
        self, requests: Sequence[UpdateRequest], weight_fn: WeightFn
    ) -> CommunityModel:
        """Commit one synchronous round over all participating learners.

        The cache is rebuilt from the round's requests so the controller state
        afterwards matches what the same requests would leave behind as
        individual asynchronous commits.
        """
        if not requests:
            raise ValueError("a synchronous round needs at least one request")
        ids = [r.learner_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate learner in synchronous round")
        weights = [float(weight_fn(r)) for r in requests]
        if any(p < 0.0 for p in weights):
            raise ValueError("contribution values must be non-negative")
        round_normalizer = sum(weights)
        if round_normalizer <= 0.0:
            raise DegenerateFederationError("all contribution values are zero this round")
        for req in requests:
            self._require_layout(req)
        self._cache = {req.learner_id: (p, req.params.flat) for req, p in zip(requests, weights)}
        self._weighted_sum = self._sum_cache()
        self._normalizer = round_normalizer
        return self._publish(self._mean(), sum(r.local_steps for r in requests))

    def audit_recompute(self) -> CommunityModel:
        """Full O(model x learners) pass over the cache; the test oracle for
        the incremental path."""
        if not self._cache:
            raise DegenerateFederationError("cannot audit an empty cache")
        total = sum(p for p, _ in self._cache.values())
        if total <= 0.0:
            raise DegenerateFederationError("cached contributions sum to zero")
        params = ParameterSet((1.0 / total) * self._sum_cache(), self._layout)
        return CommunityModel(params, self._version, self._committed_steps)

    def _require_layout(self, req: UpdateRequest) -> None:
        if req.params.layout != self._layout:
            raise ShapeError(
                f"learner {req.learner_id}: parameter layout {req.params.layout.entries} "
                f"differs from the federation's {self._layout.entries}"
            )

    def _sum_cache(self) -> np.ndarray:
        """Fresh sum of p * params over the cache, in insertion order."""
        weighted = np.zeros(self._layout.size)
        for p, w in self._cache.values():
            weighted += p * w
        return weighted

    def _mean(self) -> ParameterSet:
        """The community model: the running sum over the normalizer."""
        return ParameterSet((1.0 / self._normalizer) * self._weighted_sum, self._layout)


class FedAsyncController(_Controller):
    """Mixing-based baseline controller: no cache, the community model is a
    staleness-discounted convex combination of itself and each commit."""

    def handle_update(self, req: UpdateRequest, alpha_t: float) -> CommunityModel:
        """Mix in one commit at its ``fedasync_mix_factor`` ``alpha_t``."""
        mixed = fedasync_poly_mix(self._community, req.params, alpha_t)
        return self._publish(mixed, req.local_steps)
