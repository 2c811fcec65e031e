"""Learner runtime: local training, update triggering, staleness tracking.

A learner trains epoch by epoch on its private data (momentum SGD, optional
proximal pull toward the last community model) and decides when to request a
community update. A federation's learners live in one ``LearnerBank``, the
only place a learner's model is writable: their models and momenta are rows of
two arrays, and their data are row ranges of pooled training and validation
sets. Learners whose epochs end together train as one cohort, gathered from
the bank along a leading member axis, with every member's arithmetic exactly
as if it trained alone. The fixed policy triggers every ``uf`` epochs; the
adaptive policy watches the per-epoch change of the local validation loss
(conditions C1/C2 with a tombstone allowance) and the learner's effective
staleness against the median of its first ``warmup_cycles`` commits
(condition C3). A learner keeps only what its trigger (``trigger_cause``) reads.
Cohorts of models too large to stack train side by side, one share of the
cohorts per thread, on threads that start for one epoch and are joined before
it ends (``_train_side_by_side``).
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar, Sequence, Union

import numpy as np

from .controller import CommunityModel
from .data import FederatedSplit, as_float64, philox_keys, seed_words
from .nn import (
    Layout,
    ParameterSet,
    ShapeError,
    Workspace,
    backward,  # noqa: F401 - re-exported: benchmark tracing looks it up here
    momentum_update,
)

CAUSE_C1 = "C1"
CAUSE_C2 = "C2"
CAUSE_C3 = "C3"
CAUSE_FIXED = "fixed"

# Scratch bytes one stacked cohort may use (``Workspace.member_bytes`` per
# member); larger cohorts are split. A cohort of big models then takes no more
# memory than one model, while a cohort of small ones stays whole.
COHORT_SCRATCH_BYTES = 1 << 18

# Epochs of shuffle keys derived per learner at once (``_shuffles``). One
# derivation has a fixed cost of about 0.15-0.25 ms on a 2-vCPU host, however
# many keys it makes, so a block spreads that over many epochs. A learner's
# first block holds SHUFFLE_KEY_BLOCK keys, and each refill doubles the last
# block's length up to SHUFFLE_KEY_BLOCK_MAX: a learner that trains for
# hundreds of epochs then pays for a few derivations, while one that trains
# for a few wastes few keys. A key takes 16 bytes, and keys past a learner's
# last epoch are never used.
SHUFFLE_KEY_BLOCK = 16
SHUFFLE_KEY_BLOCK_MAX = 256

# The variables that pin the BLAS thread count, in the order OpenBLAS reads
# them: the first that holds a positive integer wins (``worker_count``).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_WORD = 0xFFFFFFFF


@dataclass(frozen=True)
class Hyperparameters:
    """A run's training constants, the same for every learner: step size eta,
    momentum attenuation gamma, batch size beta and the proximal coefficient
    (FedProx's mu, or FedAsync's rho; 0 turns the proximal term off)."""

    eta: float = 0.05
    gamma: float = 0.75
    batch_size: int = 100
    proximal_mu: float = 0.0

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size beta must be >= 1")
        if self.proximal_mu < 0:
            raise ValueError("proximal_mu must be >= 0")


@dataclass(frozen=True)
class FixedPolicy:
    """Request a community update after exactly ``uf`` local epochs."""

    kind: ClassVar[str] = "fixed"
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


@dataclass(eq=False)
class LearnerState:
    """A learner's model and bookkeeping.

    ``params`` and ``momentum`` are the learner's rows of its ``LearnerBank``,
    which it trains in place, and ``arrays`` holds the entry views of
    ``params``. They are copied out only at the exchange boundary (an update
    request's ``ParameterSet``) and overwritten only by
    ``adopt_community``. ``anchor`` is the community model adopted at the
    last fetch, the target of the proximal pull. ``cycle_epochs``,
    ``tombstones_used`` and ``last_loss`` (the last two adaptive only) are
    the trigger's state since that fetch. ``warmup_staleness`` and
    ``c3_threshold`` are C3's state (adaptive only, filled by
    ``adopt_community``). The optimizer constants are the run's
    (``Hyperparameters``), not the learner's. ``shuffle_keys`` are the keys of
    its epoch shuffles from epoch ``shuffle_first`` on (``_shuffles``), derived
    from ``data_seed`` and ``id``, which never change. States compare by
    identity.
    """

    id: int
    params: np.ndarray
    momentum: np.ndarray
    policy: TriggerPolicy
    data_seed: int = 0
    S_k_local: int = 0
    S_c_at_fetch: int = 0
    version_at_fetch: int = 0
    anchor: ParameterSet | None = None
    epochs_total: int = 0
    cycle_epochs: int = 0
    tombstones_used: int = 0
    last_loss: float | None = None
    warmup_staleness: list[int] = field(default_factory=list)
    c3_threshold: float | None = None
    shuffle_first: int = field(default=0, repr=False)
    shuffle_keys: np.ndarray | tuple = field(default=(), repr=False)
    arrays: tuple[np.ndarray, ...] = field(default=(), repr=False)


class LearnerBank:
    """A federation's learners with their models and data, one row each.

    ``params`` and ``momentum`` are (N, layout.size) arrays, and learner
    ``states[r]`` trains in their row r. Row r trains on
    samples ``train_start[r]`` to ``train_start[r] + train_n[r]`` of the
    pooled ``split.train`` and is scored on its ``val_start``/``val_n``
    range of ``split.validation``, the sizes ``split.learner_sizes[r]``.
    Learners join with ``add``, row by row.
    """

    def __init__(self, layout: Layout, split: FederatedSplit) -> None:
        self.layout = layout
        self.split = split
        sizes = np.array(split.learner_sizes, np.intp)
        self.params = np.zeros((len(sizes), layout.size))
        self.momentum = np.zeros((len(sizes), layout.size))
        self.train_n, self.val_n = sizes.T
        self.train_start, self.val_start = (np.cumsum(sizes, axis=0) - sizes).T
        self.states: list[LearnerState] = []

    def add(
        self, learner_id: int, community: CommunityModel, policy: TriggerPolicy, data_seed: int = 0
    ) -> LearnerState:
        """A learner at the next free row that has just adopted the broadcast
        community model."""
        w, u = self.params[len(self.states)], self.momentum[len(self.states)]
        state = LearnerState(learner_id, w, u, policy, data_seed, arrays=self.layout.views(w))
        adopt_community(state, community)
        self.states.append(state)
        return state


def _cohorts(ws: Workspace, sizes: np.ndarray, batch: int | None = None) -> list[np.ndarray]:
    """Positions in ``sizes`` grouped by size (groups in order of first
    appearance, members in position order), each group cut into runs whose
    scratch (``ws.member_bytes`` at batches of ``batch`` rows, or of the whole
    set) stays within ``COHORT_SCRATCH_BYTES``. One stable sort groups them."""
    if sizes.size == 1:
        return [np.zeros(1, np.intp)]
    order = sizes.argsort(kind="stable")
    ranked = sizes[order]
    cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), sizes.size]
    groups = sorted((order[a:b] for a, b in zip(cuts, cuts[1:])), key=lambda g: g[0])
    out = []
    for members in groups:
        n = int(sizes[members[0]])
        rows = n if batch is None else min(batch, n)
        per = max(1, COHORT_SCRATCH_BYTES // ws.member_bytes(rows))
        out.extend(members[j : j + per] for j in range(0, members.size, per))
    return out


def _key_blocks(states: list[LearnerState], counts: list[int]) -> list[np.ndarray]:
    """The shuffle keys of each learner's next ``counts[k]`` epochs, its
    current one first, derived in one pass: a (counts[k], 2) uint64 array per
    learner whose row e is the key of
    ``SeedSequence([data_seed, 5, id, epochs_total + e])``."""
    prefixes = [seed_words(st.data_seed) + [5] + seed_words(st.id) for st in states]
    width = max(map(len, prefixes))
    sizes = np.array(counts)
    ends = np.cumsum(sizes)
    rows = np.arange(ends[-1])
    member = np.repeat(np.arange(len(states)), sizes)
    epochs = np.array([st.epochs_total for st in states], np.uint64)[member]
    epochs += (rows - np.repeat(ends - sizes, sizes)).astype(np.uint64)
    used = np.array([len(p) for p in prefixes])[member]
    padded = np.array([p + [0] * (width - len(p)) for p in prefixes], np.uint32)
    entropy = np.zeros((rows.size, width + 2), np.uint32)
    entropy[:, :width] = padded[member]
    entropy[rows, used] = (epochs & np.uint64(_WORD)).astype(np.uint32)
    entropy[rows, used + 1] = (epochs >> np.uint64(32)).astype(np.uint32)
    lengths = used + 1 + (epochs > _WORD)
    keys = philox_keys(entropy[:, : lengths.max()], lengths)
    # Copies, so that no block keeps the whole pass's array alive.
    return [block.copy() for block in np.split(keys, ends[:-1])]


def _shuffles(ws: Workspace, states: list[LearnerState], n: int) -> np.ndarray:
    """Each learner's order of its n samples for this epoch, as the rows of
    an (M, n) view of the workspace's int buffer "perms": row k is
    ``Generator(Philox(SeedSequence([data_seed, 5, id, epochs_total]))).permutation(n)``
    of learner k, bit for bit. Keys come from the learners' own blocks; the
    members whose block does not hold this epoch get new blocks, each twice
    as long as the one it replaces (``SHUFFLE_KEY_BLOCK``), in one pass.
    numpy's ``permutation(n)`` shuffles ``arange(n)`` in place, so each row
    starts as ``arange(n)`` and is shuffled by the workspace's one generator,
    reseated with the learner's key (``Workspace.seat``)."""
    stale = [
        st for st in states if not 0 <= st.epochs_total - st.shuffle_first < len(st.shuffle_keys)
    ]
    if stale:
        cap = SHUFFLE_KEY_BLOCK_MAX
        counts = [max(SHUFFLE_KEY_BLOCK, min(2 * len(st.shuffle_keys), cap)) for st in stale]
        for st, block in zip(stale, _key_blocks(stale, counts)):
            st.shuffle_first, st.shuffle_keys = st.epochs_total, block
    perms = ws.array("perms", (len(states), n), np.intp)
    perms[...] = np.arange(n)
    bits, seat, shuffle = ws.shuffle.bit_generator, ws.seat, ws.shuffle.shuffle
    philox = seat["state"]
    for k, st in enumerate(states):
        philox["key"] = st.shuffle_keys[st.epochs_total - st.shuffle_first].tolist()
        bits.state = seat
        shuffle(perms[k])
    return perms


def _steps(
    w: np.ndarray,
    arrays: tuple[np.ndarray, ...],
    u: np.ndarray,
    anchor: np.ndarray | None,
    features: np.ndarray,
    targets: np.ndarray,
    perms: np.ndarray,
    hp: Hyperparameters,
    ws: Workspace,
    bad: dict[int, int] | None = None,
) -> None:
    """One epoch of momentum SGD steps on the (stacked) models ``w`` (entry
    views ``arrays``) and momenta ``u``. Member k's batches are rows of
    ``features`` and one-hot ``targets`` in the order of ``perms[k]`` (a
    lone learner passes ``perms`` and ``w`` without the member axis), so
    each step gathers the whole cohort's batch in two ``take`` calls.
    uint8 ``features`` are gathered as uint8 and then scaled into the
    float64 batch (``as_float64``). With a ``bad`` dict, ``w`` is
    checked after every step, and each member's first step that left it
    non-finite is recorded there."""
    n, beta = perms.shape[-1], hp.batch_size
    members = perms.shape[0] if perms.ndim == 2 else 1
    # The full batch first: a smaller one then fits in its buffers.
    head = ws.batch(members, min(beta, n))
    tail = ws.batch(members, n % beta) if n > beta and n % beta else head
    gradient, mu, gamma, eta = ws.gradient, hp.proximal_mu, hp.gamma, hp.eta
    raw = features.dtype == np.uint8
    step = 0
    for start in range(0, n, beta):
        stop = start + beta
        s = head if stop <= n else tail
        chunk = perms[..., start:stop]
        # mode="clip" skips the bounds pass that buffers the gather; every
        # index lies within the member's own rows.
        features.take(chunk, axis=0, out=s.pixels if raw else s.x, mode="clip")
        if raw:
            as_float64(s.pixels, out=s.x)
        targets.take(chunk, axis=0, out=s.t, mode="clip")
        g = gradient(arrays, s)
        if anchor is not None:
            tmp = s.tmp
            np.subtract(w, anchor, out=tmp)
            tmp *= mu
            g += tmp
        momentum_update(w, u, g, gamma, eta, s.tmp)
        if bad is not None:
            step += 1
            if not np.isfinite(w).all():
                for i in np.flatnonzero(~np.isfinite(w).reshape(members, -1).all(axis=1)):
                    bad.setdefault(int(i), step)


def _train_cohort(
    bank: LearnerBank, members: np.ndarray, hp: Hyperparameters, ws: Workspace
) -> dict[int, int]:
    """One epoch of the learners at bank rows ``members``, whose training
    sets have equal sizes. Returns {member: first step that left it
    non-finite}.

    Batches are gathered from the pooled training set at each member's
    offset. A lone learner trains in place on its own row. A cohort of more
    gathers its rows into the workspace with one ``take`` each, trains them
    stacked, and writes them back with one assignment each. Under these
    updates a non-finite entry of ``w`` never turns finite again, so the
    steps run unchecked and one scan ends the epoch. Only when it fails does
    the epoch replay from its start with a check after every step, which
    leaves the same buffers. The start is the bank's rows for a stacked
    cohort, and a copy for a lone learner."""
    states = [bank.states[r] for r in members.tolist()]
    lone = len(states) == 1
    features, targets = bank.split.train.rows, bank.split.train.one_hot()
    perms = _shuffles(ws, states, int(bank.train_n[members[0]]))
    perms += bank.train_start[members][:, None]
    if lone:
        w, arrays, u = states[0].params, states[0].arrays, states[0].momentum
        start = ws.array("start", (2 * w.size,))
        np.concatenate((w, u), out=start)
        perms = perms[0]
    else:
        w = bank.params.take(members, axis=0, out=ws.array("w", (len(states), ws.layout.size)))
        u = bank.momentum.take(members, axis=0, out=ws.array("u", w.shape))
        arrays = ws.layout.views(w)
    anchor = None
    if hp.proximal_mu > 0.0:
        anchor = states[0].anchor.flat
        if not lone:
            anchor = ws.array("anchor", w.shape)
            np.concatenate([st.anchor.flat for st in states], out=anchor.reshape(-1))
    _steps(w, arrays, u, anchor, features, targets, perms, hp, ws)
    bad: dict[int, int] = {}
    if not np.isfinite(w).all():
        if lone:
            np.copyto(w, start[: w.size])
            np.copyto(u, start[w.size :])
        else:
            bank.params.take(members, axis=0, out=w)
            bank.momentum.take(members, axis=0, out=u)
        _steps(w, arrays, u, anchor, features, targets, perms, hp, ws, bad)
    if not lone:
        bank.params[members] = w
        bank.momentum[members] = u
    return bad


def _train(
    bank: LearnerBank,
    rows: np.ndarray,
    hp: Hyperparameters,
    ws: Workspace,
    cohorts: list[np.ndarray],
) -> list[tuple[int, int]]:
    """One epoch of each cohort (positions in ``rows``), one after another
    in ``ws``. Returns (position, first non-finite step) of every member
    whose parameters diverged."""
    failures = []
    for positions in cohorts:
        bad = _train_cohort(bank, rows[positions], hp, ws)
        failures.extend((int(positions[i]), step) for i, step in bad.items())
    return failures


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(cohorts: int) -> int:
    """Threads, the caller's included, that train ``cohorts`` cohorts of
    unstackable models side by side: min(cohorts, CPUs // BLAS threads). The
    BLAS threads are those the environment pins (``BLAS_THREAD_VARS``); when
    it pins none, BLAS already uses every CPU and the count is 1, because a
    thread added on top of a busy BLAS slows the run down."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, min(cohorts, cpu_count() // threads))
    return 1


def _shares(
    cohorts: list[np.ndarray], sizes: np.ndarray, workers: int
) -> list[list[np.ndarray]]:
    """The cohorts (positions in ``sizes``, the training-set sizes) dealt
    into ``workers`` shares of about equal samples: the largest cohort
    first, each to the share holding the fewest so far. The deal depends
    only on the sizes; a learner's shuffle keys are its own, so they serve
    it in whichever share it lands."""
    shares: list[list[np.ndarray]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for members in sorted(cohorts, key=lambda m: -len(m) * int(sizes[m[0]])):
        j = loads.index(min(loads))
        shares[j].append(members)
        loads[j] += len(members) * int(sizes[members[0]])
    return shares


def _train_side_by_side(
    bank: LearnerBank, rows: np.ndarray, hp: Hyperparameters, ws: Workspace, shares: list
) -> list[tuple[int, int]]:
    """``_train`` of every share at once, the first on this thread in ``ws``
    and each other one on a thread started for this call, in a spare
    workspace (``ws.spares``). Unstackable models' steps release the GIL, so
    the shares run on separate cores. The threads run in a copy of this
    thread's context, so numpy's error state carries over. Returns, or
    raises the first share's error, once every thread has been joined."""
    # Imported here: concurrent.futures pulls in logging (about 0.5 MB),
    # which a run that never starts a thread does not need.
    import concurrent.futures

    bank.split.train.one_hot()  # built once, before the threads read it
    while len(ws.spares) < len(shares) - 1:
        ws.spares.append(Workspace(ws.layout))
    with concurrent.futures.ThreadPoolExecutor(len(shares) - 1, "fedsim-cohort") as executor:
        futures = [
            executor.submit(contextvars.copy_context().run, _train, bank, rows, hp, space, share)
            for space, share in zip(ws.spares, shares[1:])
        ]
        failures = _train(bank, rows, hp, ws, shares[0])
    for future in futures:
        failures.extend(future.result())
    return failures


def run_epoch(
    bank: LearnerBank,
    rows: Sequence[int] | np.ndarray,
    hp: Hyperparameters,
    workspace: Workspace,
) -> int:
    """Train one epoch of the learners at bank ``rows``, each on its own
    training set; returns the steps taken by all of them.

    Each learner shuffles in its own seed-determined order, and each step
    works in place on its buffers: the data gradient, plus mu * (w - w_anchor)
    with a positive ``hp.proximal_mu`` (a pull toward the community model the
    learner adopted at its last fetch), then u <- gamma*u + g and
    w <- w - eta*u. eta, gamma and mu are the run's and come only from ``hp``;
    each learner keeps its own shuffle and anchor. Learners with equal data
    sizes train as one stacked cohort, which gives every one of them the same
    bits as training alone (``_train_cohort``).
    ``workspace`` holds the scratch; a federation passes one shared by all its
    learners, and has checked their datasets (``check_dataset``) once, when
    it was built. When the model is too large to stack (every cohort is cut
    to one member, ``COHORT_SCRATCH_BYTES``), the cohorts train in
    ``worker_count`` shares side by side on threads joined before this returns
    (``_train_side_by_side``), the first share on this thread in
    ``workspace``; every learner gets the same bits either way.
    Raises ``ShapeError`` for the first learner in ``rows`` that a step
    left with a non-finite parameter, naming that step.
    """
    rows = np.asarray(rows, dtype=np.intp)
    sizes = bank.train_n[rows]
    cohorts = _cohorts(workspace, sizes, hp.batch_size)
    workers = 1
    if len(cohorts) > 1:
        if workspace.member_bytes(min(hp.batch_size, int(sizes.min()))) > COHORT_SCRATCH_BYTES:
            workers = worker_count(len(cohorts))
    if workers > 1:
        failures = _train_side_by_side(bank, rows, hp, workspace, _shares(cohorts, sizes, workers))
    else:
        failures = _train(bank, rows, hp, workspace, cohorts)
    if failures:
        first, step = min(failures)
        state = bank.states[rows[first]]
        raise ShapeError(
            f"learner {state.id}: parameters became non-finite at step {step} "
            f"of epoch {state.epochs_total}"
        )
    total = 0
    for row, n in zip(rows.tolist(), sizes.tolist()):
        steps = -(-n // hp.batch_size)
        state = bank.states[row]
        state.S_k_local += steps
        state.epochs_total += 1
        state.cycle_epochs += 1
        total += steps
    return total


def local_validation_loss(
    bank: LearnerBank, rows: Sequence[int] | np.ndarray, workspace: Workspace
) -> list[float]:
    """Mean cross-entropy of the models at bank ``rows`` on their validation
    sets. Learners whose sets have equal sizes are scored as one stacked
    cohort in ``workspace``, their models and samples gathered from the bank
    with one ``take`` each; a lone learner is scored on its own row and a
    slice of the pool; uint8 rows are then scaled into the workspace
    (``as_float64``). The sets are checked as ``run_epoch``'s are: once,
    by the federation that owns the workspace."""
    rows = np.asarray(rows, dtype=np.intp)
    sizes = bank.val_n[rows]
    pooled, layout = bank.split.validation, workspace.layout
    raw = pooled.rows.dtype == np.uint8
    losses = [0.0] * rows.size
    for positions in _cohorts(workspace, sizes):
        members = rows[positions]
        m, n = members.size, int(sizes[positions[0]])
        if m == 1:
            a = int(bank.val_start[members[0]])
            arrays = bank.states[members[0]].arrays
            x, t = pooled.rows[a : a + n], pooled.one_hot()[a : a + n]
        else:
            w = bank.params.take(members, axis=0, out=workspace.array("w", (m, layout.size)))
            arrays = layout.views(w)
            index = workspace.array("index", (m, n), np.intp)
            np.add(bank.val_start[members][:, None], np.arange(n), out=index)
            s = workspace.batch(m, n)
            x = pooled.rows.take(index, axis=0, out=s.pixels if raw else s.x, mode="clip")
            t = pooled.one_hot().take(index, axis=0, out=s.t, mode="clip")
        if raw:
            x = as_float64(x, out=workspace.batch(m, n).x)
        for i, loss in zip(positions.tolist(), workspace.loss(arrays, x, t).tolist()):
            losses[i] = loss
    return losses


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
    if vpct is not None:
        failure = None
        if vpct >= 0.0:
            failure = CAUSE_C1
        elif abs(vpct) <= policy.vc_loss:
            failure = CAUSE_C2
        if failure is not None:
            state.tombstones_used += 1
            if state.tombstones_used > policy.vc_tomb:
                return failure
    threshold = state.c3_threshold
    if threshold is not None and staleness_now > threshold:
        return CAUSE_C3
    if state.cycle_epochs >= policy.max_epochs_per_cycle:
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


def trigger_cause(state: LearnerState, loss: float | None, staleness_now: int) -> str | None:
    """The cause for which the learner requests an update after an epoch, or
    None to keep training. A fixed policy reads neither argument; an adaptive
    one needs ``loss``, this epoch's validation loss (``check_adaptive_trigger``).
    """
    policy = state.policy
    if isinstance(policy, FixedPolicy):
        return CAUSE_FIXED if state.cycle_epochs >= policy.uf else None
    vpct = None if state.last_loss is None else compute_vpct(loss, state.last_loss)
    state.last_loss = loss
    return check_adaptive_trigger(state, vpct, staleness_now)


def adopt_community(state: LearnerState, community: CommunityModel) -> None:
    """Copy the community model into the local parameters and start a new cycle.

    The momentum buffer is zeroed (it was computed against a discarded
    trajectory) and the local step counter restarts. Until its C3 threshold
    freezes, an adaptive learner keeps the finished cycle's effective
    staleness. Adopting again without training in between records nothing.
    """
    policy = state.policy
    if isinstance(policy, AdaptivePolicy) and state.c3_threshold is None:
        if state.cycle_epochs >= 1:
            state.warmup_staleness.append(community.committed_steps - state.S_c_at_fetch)
            state.c3_threshold = staleness_threshold(state.warmup_staleness, policy.warmup_cycles)
    state.cycle_epochs = state.tombstones_used = 0
    state.last_loss = None
    np.copyto(state.params, community.params.flat)
    state.momentum.fill(0.0)
    state.anchor = community.params
    state.S_k_local = 0
    state.S_c_at_fetch = community.committed_steps
    state.version_at_fetch = community.version
