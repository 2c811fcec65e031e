import hashlib
import math
import os
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedsim import cli as cli_mod
from fedsim import learner as learner_mod
from fedsim.controller import CommunityModel, FederationController, UpdateRequest
from fedsim.data import Dataset, generate_blobs
from fedsim.learner import (
    BLAS_THREAD_VARS,
    COHORT_SCRATCH_BYTES,
    AdaptivePolicy,
    FixedPolicy,
    Hyperparameters,
    LearnerState,
    adopt_community,
    check_adaptive_trigger,
    compute_vpct,
    effective_staleness,
    local_validation_loss,
    run_epoch,
    staleness_threshold,
    trigger_cause,
    worker_count,
)
from fedsim.nn import ModelSpec, ParameterSet, ShapeError, Workspace, model_layout
from fedsim.weighting import accuracy, dvw_weight
from tests.conftest import counting_side_by_side_epochs, learner_bank, params_equal, pinned_cpus

SPEC = ModelSpec("softmax-regression", input_dim=4, num_classes=3, init_seed=1990)
HP = Hyperparameters(eta=0.05, gamma=0.5, batch_size=100)
# Scratch for SPEC's learners, shared by the tests: a workspace holds no state
# that outlives a call.
WS = Workspace(model_layout(SPEC))


@pytest.fixture
def train_set():
    return generate_blobs(4, 3, n_per_class=84, spread=0.3, seed=77)  # n = 252


@pytest.fixture
def controller():
    return FederationController(SPEC)


# A training set for learners that never train.
TINY = generate_blobs(4, 3, n_per_class=2, spread=0.3, seed=1)


def fresh_learner(controller, policy=None):
    """A bank's one learner, which has just adopted the community model."""
    return learner_bank(controller.current_model(), [TINY], policy=policy).states[0]


def frozen(state):
    """The learner's model as an update request carries it: a read-only copy."""
    return ParameterSet(state.params.copy(), state.anchor.layout)


def solo(controller, train, policy=None, learner_id=0, data_seed=0):
    """A bank whose one row is a fresh learner that trains on ``train``."""
    model = controller.current_model()
    return learner_bank(model, [train], ids=[learner_id], policy=policy, data_seed=data_seed)


# ---------------------------------------------------------------------------
# run_epoch
# ---------------------------------------------------------------------------


def test_epoch_step_count_is_ceil(train_set, controller):
    # 252 samples at batch 100 -> 3 steps (100, 100, 52)
    bank = solo(controller, train_set)
    state = bank.states[0]
    steps = run_epoch(bank, [0], HP, WS)
    assert steps == 3
    assert state.S_k_local == 3
    assert state.current.epochs == 1


def test_epoch_is_deterministic(train_set, controller):
    bank = learner_bank(controller.current_model(), [train_set, train_set])
    a, b = bank.states
    run_epoch(bank, [0], HP, WS)
    run_epoch(bank, [1], HP, WS)
    assert np.array_equal(a.params, b.params)


def test_zero_mu_matches_plain_trajectory(train_set, controller):
    # With mu = 0 the anchor is never read: moving it changes nothing.
    bank = learner_bank(controller.current_model(), [train_set, train_set])
    plain, prox = bank.states
    prox.anchor = ParameterSet(prox.anchor.flat + 100.0, prox.anchor.layout)
    hp = replace(HP, proximal_mu=0.0)
    for _ in range(3):
        run_epoch(bank, [0], hp, WS)
        run_epoch(bank, [1], hp, WS)
    assert np.array_equal(plain.params, prox.params)


def test_hp_gamma_is_what_trains(train_set, controller):
    # One multi-step epoch (252 samples at batch 100) from one community
    # model on the same data; only the run's gamma differs.
    bank = learner_bank(controller.current_model(), [train_set, train_set])
    slow, fast = bank.states
    run_epoch(bank, [0], replace(HP, gamma=0.0), WS)
    run_epoch(bank, [1], replace(HP, gamma=0.9), WS)
    assert not np.array_equal(slow.params, fast.params)
    assert not np.array_equal(slow.momentum, fast.momentum)


def test_zero_gamma_epoch_is_plain_sgd(controller):
    train = generate_blobs(4, 3, n_per_class=70, spread=0.3, seed=5)  # 210 -> 64,64,64,18
    bank = solo(controller, train)
    run_epoch(bank, [0], Hyperparameters(eta=0.1, gamma=0.75, batch_size=64), WS)
    assert np.any(bank.states[0].momentum != 0)  # momentum that gamma = 0 must ignore
    plain_sgd = Hyperparameters(eta=0.1, gamma=0.0, batch_size=64)
    assert_epoch_is_reference(bank, plain_sgd, WS)


def test_proximal_contracts_toward_anchor(controller):
    # With zero data gradient the update is w' = w - eta*mu*(w - anchor):
    # a pure contraction toward the community model.
    flat = generate_blobs(4, 3, n_per_class=2, spread=0.0, seed=1)
    zero_feats = type(flat)(np.zeros_like(flat.features), flat.labels, flat.num_classes)
    bank = solo(controller, zero_feats)
    state = bank.states[0]
    anchor = state.anchor
    state.params += 1.0
    # dataset with zero features still produces a data gradient on biases;
    # isolate the proximal term by checking the weight matrix only.
    hp = Hyperparameters(eta=0.01, gamma=0.0, batch_size=6, proximal_mu=10.0)
    w = state.arrays[0]  # the entry "W"
    before_gap = np.abs(w - anchor.arrays[0]).max()
    run_epoch(bank, [0], hp, WS)
    after_gap = np.abs(w - anchor.arrays[0]).max()
    expected = (1 - hp.eta * hp.proximal_mu) * before_gap
    assert after_gap == pytest.approx(expected, rel=1e-9)


def test_large_mu_closed_form_single_step(controller):
    flat = generate_blobs(4, 3, n_per_class=2, spread=0.0, seed=1)
    zero_feats = type(flat)(np.zeros_like(flat.features), flat.labels, flat.num_classes)
    bank = solo(controller, zero_feats)
    state = bank.states[0]
    # hand-run one proximal-only step on the weight entry
    drift = 0.5
    state.params += drift
    # one step per epoch
    hp = Hyperparameters(eta=0.0005, gamma=0.0, batch_size=6, proximal_mu=1000.0)
    w_before = state.arrays[0].copy()  # the entry "W"
    anchor_w = state.anchor.arrays[0]
    run_epoch(bank, [0], hp, WS)
    expected = w_before - hp.eta * 1000.0 * (w_before - anchor_w)
    assert np.allclose(state.arrays[0], expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# compute_vpct
# ---------------------------------------------------------------------------


def test_vpct_flat_is_zero():
    assert compute_vpct(1.0, 1.0) == 0.0


def test_vpct_hand_values():
    assert compute_vpct(0.9, 1.0) == pytest.approx(-10.0, abs=1e-12)
    assert compute_vpct(0.6, 0.5) == pytest.approx(20.0, abs=1e-12)


def test_vpct_rejects_negative_previous():
    with pytest.raises(ValueError):
        compute_vpct(1.0, -0.5)


def test_vpct_from_zero_previous_is_a_failure():
    # A learner that fits its validation slice reaches loss 0.0 exactly.
    assert compute_vpct(0.0, 0.0) == 0.0
    assert compute_vpct(1e-300, 0.0) == math.inf
    state = make_adaptive_state(AdaptivePolicy(vc_loss=0.0, vc_tomb=1))
    assert check_adaptive_trigger(state, compute_vpct(0.0, 0.0), staleness_now=0) is None
    assert check_adaptive_trigger(state, compute_vpct(0.5, 0.0), staleness_now=0) == "C1"


# ---------------------------------------------------------------------------
# check_adaptive_trigger
# ---------------------------------------------------------------------------


def make_adaptive_state(policy: AdaptivePolicy, epochs=2) -> LearnerState:
    state = fresh_learner(FederationController(SPEC), policy)
    state.current.epochs = epochs
    return state


def test_zero_tombstones_triggers_immediately():
    state = make_adaptive_state(AdaptivePolicy(vc_loss=0.0, vc_tomb=0))
    assert check_adaptive_trigger(state, vpct=2.0, staleness_now=0) == "C1"
    assert state.current.tombstones_used == 1


def test_four_tombstones_fire_on_fifth_failure():
    state = make_adaptive_state(AdaptivePolicy(vc_loss=0.0, vc_tomb=4))
    for i in range(4):
        assert check_adaptive_trigger(state, vpct=1.0, staleness_now=0) is None
    assert check_adaptive_trigger(state, vpct=0.0, staleness_now=0) == "C1"
    assert state.current.tombstones_used == 5


def test_c2_consumes_tombstone_within_threshold():
    state = make_adaptive_state(AdaptivePolicy(vc_loss=1.0, vc_tomb=1))
    assert check_adaptive_trigger(state, vpct=-0.5, staleness_now=0) is None
    assert state.current.tombstones_used == 1
    assert check_adaptive_trigger(state, vpct=-0.9, staleness_now=0) == "C2"


def test_big_improvement_is_not_a_failure():
    state = make_adaptive_state(AdaptivePolicy(vc_loss=1.0, vc_tomb=0))
    assert check_adaptive_trigger(state, vpct=-5.0, staleness_now=0) is None
    assert state.current.tombstones_used == 0


def test_first_epoch_never_triggers_on_loss():
    state = make_adaptive_state(AdaptivePolicy(vc_loss=0.0, vc_tomb=0), epochs=1)
    assert check_adaptive_trigger(state, vpct=None, staleness_now=0) is None


def commit_with_staleness(state: LearnerState, staleness: int) -> None:
    """End a one-epoch cycle with a commit whose effective staleness is ``staleness``."""
    state.current.epochs = 1
    adopt_community(state, CommunityModel(state.anchor, 0, state.S_c_at_fetch + staleness))


def test_c3_disabled_before_warmup():
    state = make_adaptive_state(AdaptivePolicy(vc_tomb=99, warmup_cycles=20))
    for s in range(19):
        commit_with_staleness(state, s)
    state.current.epochs = 2
    assert state.c3_threshold is None
    assert check_adaptive_trigger(state, vpct=-50.0, staleness_now=10**6) is None


def test_c3_fires_after_warmup_on_strict_excess():
    state = make_adaptive_state(AdaptivePolicy(vc_tomb=99, warmup_cycles=20))
    samples = [3, 7, 5, 9, 4, 6, 8, 2, 10, 1, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]
    for s in samples:
        commit_with_staleness(state, s)
    state.current.epochs = 2
    threshold = state.c3_threshold
    # sorted samples are 1..20; the lower-middle element (rank 10) is 10
    assert threshold == 10.0
    assert check_adaptive_trigger(state, vpct=-50.0, staleness_now=10) is None
    assert check_adaptive_trigger(state, vpct=-50.0, staleness_now=11) == "C3"


def test_max_epoch_cap_triggers_fixed():
    state = make_adaptive_state(AdaptivePolicy(vc_tomb=99, max_epochs_per_cycle=8), epochs=8)
    assert check_adaptive_trigger(state, vpct=-50.0, staleness_now=0) == "fixed"


def test_raising_vc_loss_never_lengthens_cycle():
    # The C2 predicate is monotone in vc_loss: replay a fixed loss sequence
    # under increasing thresholds and compare trigger epochs.
    losses = [1.0, 0.995, 0.993, 0.9925, 0.99245, 0.99243, 0.99242]

    def trigger_epoch(vc_loss):
        state = make_adaptive_state(AdaptivePolicy(vc_loss=vc_loss, vc_tomb=1), epochs=1)
        prev = losses[0]
        for i, loss in enumerate(losses[1:], start=2):
            state.current.epochs = i
            cause = check_adaptive_trigger(state, compute_vpct(loss, prev), 0)
            if cause:
                return i
            prev = loss
        return len(losses) + 1

    epochs = [trigger_epoch(v) for v in (0.0, 0.05, 0.2, 1.0)]
    assert all(a >= b for a, b in zip(epochs, epochs[1:]))


# ---------------------------------------------------------------------------
# trigger_cause and the state it keeps
# ---------------------------------------------------------------------------


def test_fixed_trigger_reads_only_the_epoch_count(controller):
    state = fresh_learner(controller, FixedPolicy(3))
    causes = []
    for epoch in range(1, 4):
        state.current.epochs = epoch
        causes.append(trigger_cause(state, None, staleness_now=10**9))
    assert causes == [None, None, "fixed"]
    assert state.current.last_loss is None


class FullHistoryTrigger:
    """The adaptive trigger over unbounded state: every validation loss of the
    cycle and every commit's effective staleness, none of it ever dropped."""

    def __init__(self, policy: AdaptivePolicy) -> None:
        self.policy = policy
        self.losses: list[float] = []
        self.samples: list[int] = []
        self.tombstones = 0

    def epoch(self, loss: float, staleness_now: int) -> str | None:
        policy = self.policy
        self.losses.append(loss)
        if len(self.losses) >= 2:
            vpct = compute_vpct(self.losses[-1], self.losses[-2])
            failure = "C1" if vpct >= 0.0 else "C2" if abs(vpct) <= policy.vc_loss else None
            if failure is not None:
                self.tombstones += 1
                if self.tombstones > policy.vc_tomb:
                    return failure
        threshold = staleness_threshold(self.samples, policy.warmup_cycles)
        if threshold is not None and staleness_now > threshold:
            return "C3"
        if len(self.losses) >= policy.max_epochs_per_cycle:
            return "fixed"
        return None

    def commit(self, staleness: int) -> None:
        if self.losses:
            self.samples.append(staleness)
        self.losses = []
        self.tombstones = 0


LOSSES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 4.0))
EPOCH = st.tuples(st.just("epoch"), LOSSES, st.integers(0, 40))
COMMIT = st.tuples(st.just("commit"), st.integers(0, 40))


@given(
    st.integers(1, 5),
    st.integers(0, 3),
    st.sampled_from([0.0, 1.0, 50.0]),
    st.integers(1, 6),
    st.lists(st.one_of(EPOCH, EPOCH, COMMIT), max_size=80),
)
@settings(max_examples=200, deadline=None)
def test_constant_size_state_decides_like_the_full_history(
    warmup_cycles, vc_tomb, vc_loss, max_epochs, ops
):
    policy = AdaptivePolicy(vc_loss, vc_tomb, warmup_cycles, max_epochs)
    state = fresh_learner(FederationController(SPEC), policy)
    reference = FullHistoryTrigger(policy)

    def commit(staleness):
        adopt_community(state, CommunityModel(state.anchor, 0, state.S_c_at_fetch + staleness))
        reference.commit(staleness)

    for op in ops:
        if op[0] == "epoch":
            _, loss, staleness_now = op
            state.current.epochs += 1  # what run_epoch does to the cycle
            cause = trigger_cause(state, loss, staleness_now)
            assert cause == reference.epoch(loss, staleness_now)
            if cause is not None:
                commit(staleness_now)
        else:
            commit(op[1])
        assert len(state.warmup_staleness) <= warmup_cycles
        assert state.warmup_staleness == reference.samples[:warmup_cycles]
        assert state.c3_threshold == staleness_threshold(reference.samples, warmup_cycles)


# ---------------------------------------------------------------------------
# effective_staleness / staleness_threshold
# ---------------------------------------------------------------------------


def test_staleness_self_only():
    ctrl = FederationController(SPEC)
    state = fresh_learner(ctrl)
    state.S_k_local = 12
    assert effective_staleness(ctrl.committed_steps(), state) == 12


def test_staleness_frozen_example():
    state = LearnerState(
        id=0,
        params=None,
        momentum=None,
        policy=FixedPolicy(4),
        S_k_local=20,
        S_c_at_fetch=100,
    )
    assert effective_staleness(160, state) == 80


def test_staleness_zero_right_after_fetch():
    ctrl = FederationController(SPEC)
    state = fresh_learner(ctrl)
    assert effective_staleness(ctrl.committed_steps(), state) == 0


def test_staleness_counter_regression_rejected():
    ctrl = FederationController(SPEC)
    state = fresh_learner(ctrl)
    state.S_c_at_fetch = 50
    with pytest.raises(RuntimeError):
        effective_staleness(10, state)


def test_threshold_none_before_warmup():
    assert staleness_threshold(list(range(19)), 20) is None


def test_threshold_lower_middle_of_first_20():
    samples = list(range(40, 0, -2))  # 20 values, descending
    thr = staleness_threshold(samples, 20)
    assert thr == float(sorted(samples)[9])


def test_threshold_frozen_after_warmup():
    samples = [5] * 20 + [1000] * 30
    assert staleness_threshold(samples, 20) == 5.0


# ---------------------------------------------------------------------------
# adopt_community
# ---------------------------------------------------------------------------


def test_adopt_twice_is_idempotent(controller):
    state = fresh_learner(controller, AdaptivePolicy(warmup_cycles=1))
    model = controller.current_model()
    adopt_community(state, model)
    adopt_community(state, model)
    assert np.array_equal(state.params, model.params.flat)
    assert state.warmup_staleness == [] and state.c3_threshold is None


def test_adopt_keeps_one_staleness_sample_per_warmup_commit(train_set, controller):
    bank = solo(controller, train_set, AdaptivePolicy(warmup_cycles=3))
    state = bank.states[0]
    for round_no in range(1, 6):
        run_epoch(bank, [0], HP, WS)
        req = UpdateRequest(0, frozen(state), state.S_k_local, train_set.n)
        model = controller.handle_async_update(req, lambda r: 1.0)
        adopt_community(state, model)
        assert state.warmup_staleness == [3] * min(round_no, 3)
        assert state.c3_threshold == (3.0 if round_no >= 3 else None)
        assert state.current.epochs == 0 and state.current.last_loss is None


def test_fixed_learner_keeps_no_staleness_samples(train_set, controller):
    bank = solo(controller, train_set)
    state = bank.states[0]
    run_epoch(bank, [0], HP, WS)
    req = UpdateRequest(0, frozen(state), state.S_k_local, train_set.n)
    adopt_community(state, controller.handle_async_update(req, lambda r: 1.0))
    assert state.warmup_staleness == [] and state.c3_threshold is None


def test_adopt_resets_counters_and_momentum(train_set, controller):
    bank = solo(controller, train_set)
    state = bank.states[0]
    run_epoch(bank, [0], HP, WS)
    assert np.any(state.momentum != 0)
    req = UpdateRequest(0, frozen(state), state.S_k_local, train_set.n)
    model = controller.handle_async_update(req, lambda r: 1.0)
    adopt_community(state, model)
    assert state.S_k_local == 0
    assert state.S_c_at_fetch == model.committed_steps
    assert np.all(state.momentum == 0)
    assert np.array_equal(state.params, model.params.flat)
    assert effective_staleness(controller.committed_steps(), state) == 0


def test_adopt_records_staleness_including_own_steps(train_set, controller):
    bank = learner_bank(
        controller.current_model(), [train_set, train_set], ids=[0, 1], policy=AdaptivePolicy()
    )
    state, other = bank.states
    run_epoch(bank, [0], HP, WS)  # 3 steps
    # another learner commits 7 steps in the meantime
    controller.handle_async_update(
        UpdateRequest(1, frozen(other), 7, train_set.n), lambda r: 1.0
    )
    model = controller.handle_async_update(
        UpdateRequest(0, frozen(state), state.S_k_local, train_set.n), lambda r: 1.0
    )
    adopt_community(state, model)
    assert state.warmup_staleness == [7 + 3]


def test_validation_loss_recorded(train_set, controller):
    bank = solo(controller, train_set, AdaptivePolicy())
    state = bank.states[0]
    run_epoch(bank, [0], HP, WS)
    loss = local_validation_loss(bank, [0], WS)[0]
    assert trigger_cause(state, loss, staleness_now=0) is None
    assert state.current.last_loss == loss
    assert loss > 0


# ---------------------------------------------------------------------------
# learner buffers vs the controller cache (aliasing guard)
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 4),
    st.sampled_from([0.0, 0.01, 1.0]),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_training_after_commit_leaves_cache_untouched(epochs_after, mu, gamma, data_seed):
    train = generate_blobs(4, 3, n_per_class=40, spread=0.3, seed=77)
    hp = Hyperparameters(eta=0.05, gamma=gamma, batch_size=32, proximal_mu=mu)
    ctrl = FederationController(SPEC)
    bank = solo(ctrl, train, data_seed=data_seed)
    state = bank.states[0]
    run_epoch(bank, [0], hp, WS)
    req = UpdateRequest(0, frozen(state), state.S_k_local, train.n)
    committed = ctrl.handle_async_update(req, lambda r: 2.0)
    cached = req.params.flat.copy()
    audit = ctrl.audit_recompute().params
    adopt_community(state, committed)
    for _ in range(epochs_after):
        run_epoch(bank, [0], hp, WS)
    assert not np.array_equal(state.params, committed.params.flat)
    assert np.array_equal(req.params.flat, cached)
    assert params_equal(ctrl.audit_recompute().params, audit)
    assert params_equal(ctrl.current_model().params, committed.params)
    assert params_equal(state.anchor, committed.params)


def test_update_request_rejects_a_training_buffer(controller):
    state = fresh_learner(controller)
    with pytest.raises(TypeError, match="snapshot"):
        UpdateRequest(0, state.params, 1, 10)


def reference_epoch(state, train, hp):
    """The allocating formulation of one epoch, from plain numpy expressions:
    the in-place loop must reproduce it bit for bit."""
    w = [a.copy() for a in state.arrays]
    u = [a.copy() for a in state.anchor.layout.views(state.momentum)]
    anchor = state.anchor.arrays
    seq = np.random.SeedSequence([state.data_seed, 5, state.id, state.epochs_total])
    perm = np.random.Generator(np.random.Philox(seq)).permutation(train.n)
    for start in range(0, train.n, hp.batch_size):
        chunk = perm[start : start + hp.batch_size]
        x, y, n = train.features[chunk], train.labels[chunk], len(chunk)
        hidden = np.tanh(x @ w[0] + w[1]) if len(w) == 4 else None
        logits = hidden @ w[2] + w[3] if len(w) == 4 else x @ w[0] + w[1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        dlogits = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        if hidden is None:
            g = [x.T @ dlogits, dlogits.sum(axis=0, keepdims=True)]
        else:
            dpre = (dlogits @ w[2].T) * (1.0 - hidden * hidden)
            g = [x.T @ dpre, dpre.sum(axis=0, keepdims=True)]
            g += [hidden.T @ dlogits, dlogits.sum(axis=0, keepdims=True)]
        if hp.proximal_mu > 0.0:
            g = [gi + hp.proximal_mu * (wi - ai) for gi, wi, ai in zip(g, w, anchor)]
        u = [hp.gamma * ui + gi for ui, gi in zip(u, g)]
        w = [wi - hp.eta * ui for wi, ui in zip(w, u)]
    return w, u


@pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_in_place_epoch_matches_reference(kind, mu):
    train = generate_blobs(4, 3, n_per_class=70, spread=0.3, seed=5)  # 210 -> 64,64,64,18
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=64, proximal_mu=mu)
    spec = ModelSpec(kind, input_dim=4, num_classes=3, hidden_dim=6 if kind == "mlp-1hidden" else 0)
    bank = solo(FederationController(spec), train, learner_id=2, data_seed=11)
    state = bank.states[0]
    ws = Workspace(model_layout(spec))
    run_epoch(bank, [0], hp, ws)  # a nonzero momentum and a drift from the anchor
    want_w, want_u = reference_epoch(state, train, hp)
    run_epoch(bank, [0], hp, ws)
    assert all(np.array_equal(a, b) for a, b in zip(state.arrays, want_w))
    assert all(np.array_equal(a, b) for a, b in zip(bank.layout.views(state.momentum), want_u))


# ---------------------------------------------------------------------------
# epoch shuffles: block-derived keys through one reseated Philox
# ---------------------------------------------------------------------------


def numpy_shuffle(seed, learner_id, epoch, n):
    seq = np.random.SeedSequence([seed, 5, learner_id, epoch])
    return np.random.Generator(np.random.Philox(seq)).permutation(n)


def shuffle_learner(seed, learner_id, epoch):
    """A learner with only what its shuffle reads."""
    return LearnerState(learner_id, None, None, FixedPolicy(), data_seed=seed, epochs_total=epoch)


# Seeds whose entropy takes 1, 2, 3 and 4 uint32 words.
seeds = st.one_of(*(st.integers(2 ** (32 * k) if k else 0, 2 ** (32 * k + 32) - 1)
                    for k in range(4)))
# n = 1, up to beta, and above beta.
shuffle_sizes = st.one_of(
    st.just(1), st.integers(2, HP.batch_size), st.integers(HP.batch_size + 1, 1000)
)


@given(
    draws=st.lists(
        st.tuples(seeds, st.integers(0, 2**40), st.integers(0, 2**40), shuffle_sizes),
        min_size=1,
        max_size=6,
    ),
    cohort_n=shuffle_sizes,
)
@settings(max_examples=100, deadline=None)
def test_shuffles_match_numpys_seed_sequence_philox(draws, cohort_n):
    ws = Workspace(model_layout(SPEC))
    # One learner at a time through the one reused generator, so state a
    # permutation leaves behind (buffered words, a half-used 64-bit draw)
    # would show in the next one.
    for seed, learner_id, epoch, n in draws:
        (got,) = learner_mod._shuffles(ws, [shuffle_learner(seed, learner_id, epoch)], n)
        assert np.array_equal(got, numpy_shuffle(seed, learner_id, epoch, n))
    # As one cohort, next epochs first: some blocks hit, others refill together.
    cohort = [shuffle_learner(s, i, e + 1) for s, i, e, _ in draws]
    cohort += [shuffle_learner(s, i, e) for s, i, e, _ in draws]
    got = learner_mod._shuffles(ws, cohort, cohort_n)
    for learner, perm in zip(cohort, got):
        want = numpy_shuffle(learner.data_seed, learner.id, learner.epochs_total, cohort_n)
        assert np.array_equal(perm, want)


def numpy_key(seed, learner_id, epoch):
    seq = np.random.SeedSequence([seed, 5, learner_id, epoch])
    return np.random.Philox(seq).state["state"]["key"]


def test_key_blocks_double_up_to_the_cap():
    ws = Workspace(model_layout(SPEC))
    # Two data seeds and one id; a third learner joins at epoch 496,
    # when the first two refill too, so one pass derives blocks of 256 and 16.
    a, b = shuffle_learner(3, 6, 0), shuffle_learner(2**40 + 1, 6, 0)
    late = shuffle_learner(3, 7, 496)
    blocks = {}
    for epoch in [*range(620), *range(100, 140)]:  # then set backwards once
        cohort = [a, b] + ([late] if epoch >= 496 else [])
        for learner in cohort:
            learner.epochs_total = epoch
        perms = learner_mod._shuffles(ws, cohort, 7)
        for learner, perm in zip(cohort, perms):
            assert np.array_equal(perm, numpy_shuffle(learner.data_seed, learner.id, epoch, 7))
            first, block = learner.shuffle_first, learner.shuffle_keys
            assert len(block) <= learner_mod.SHUFFLE_KEY_BLOCK_MAX
            history = blocks.setdefault((learner.data_seed, learner.id), [])
            if not history or history[-1][1] is not block:
                history.append((first, block))
    assert learner_mod.SHUFFLE_KEY_BLOCK == 16 and learner_mod.SHUFFLE_KEY_BLOCK_MAX == 256
    grown = [(0, 16), (16, 32), (48, 64), (112, 128), (240, 256), (496, 256), (100, 256)]
    for learner in (a, b):
        history = blocks[(learner.data_seed, learner.id)]
        assert [(first, len(block)) for first, block in history] == grown
    late_grown = [(496, 16), (512, 32), (544, 64), (608, 128)]
    assert [(first, len(block)) for first, block in blocks[(3, 7)]] == late_grown
    for (seed, learner_id), history in blocks.items():
        for first, block in history:
            assert block.base is None  # its own array, not a view of the pass
            for e, key in enumerate(block):
                assert np.array_equal(key, numpy_key(seed, learner_id, first + e))


@pytest.fixture
def shuffle_case():
    train = generate_blobs(4, 3, n_per_class=70, spread=0.3, seed=5)  # 210 -> 64,64,64,18
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=64)
    return train, hp, FederationController(SPEC), Workspace(model_layout(SPEC))


def learner_train(bank, row):
    """The training set of the learner at bank ``row``: its rows of the pool."""
    start, n = bank.train_start[row], bank.train_n[row]
    return bank.split.train.subset(np.arange(start, start + n))


def assert_epoch_is_reference(bank, hp, ws, row=0):
    """One epoch of the learner at ``row`` alone equals ``reference_epoch``."""
    state, train = bank.states[row], learner_train(bank, row)
    want_w, want_u = reference_epoch(state, train, hp)
    run_epoch(bank, [row], hp, ws)
    assert np.array_equal(state.params, np.concatenate([a.ravel() for a in want_w]))
    assert np.array_equal(state.momentum, np.concatenate([a.ravel() for a in want_u]))


def test_shuffle_across_a_key_block_boundary(shuffle_case):
    train, hp, ctrl, ws = shuffle_case
    bank = solo(ctrl, train, learner_id=4, data_seed=2**70 + 3)
    state = bank.states[0]
    state.epochs_total = learner_mod.SHUFFLE_KEY_BLOCK - 2
    for _ in range(5):
        assert_epoch_is_reference(bank, hp, ws)
    assert state.epochs_total == learner_mod.SHUFFLE_KEY_BLOCK + 3


def test_shuffle_after_epochs_total_is_set_backwards(shuffle_case):
    train, hp, ctrl, ws = shuffle_case
    bank = solo(ctrl, train, learner_id=4, data_seed=9)
    for epoch in [7, 8, 6, 3, 7 + learner_mod.SHUFFLE_KEY_BLOCK, 8]:
        bank.states[0].epochs_total = epoch
        assert_epoch_is_reference(bank, hp, ws)


def test_shuffle_keys_are_per_data_seed_in_a_shared_workspace(shuffle_case):
    train, hp, ctrl, ws = shuffle_case
    a, b = (solo(ctrl, train, learner_id=4, data_seed=seed) for seed in (1, 2))
    for _ in range(3):
        assert_epoch_is_reference(a, hp, ws)
        assert_epoch_is_reference(b, hp, ws)
    assert not np.array_equal(a.states[0].params, b.states[0].params)


def test_shuffle_keys_follow_the_learner_across_workspaces(shuffle_case):
    # Three epochs in one workspace, then three in another: the keys are the
    # learner's own, so one derivation serves all six epochs.
    train, hp, ctrl, ws = shuffle_case
    bank = solo(ctrl, train, learner_id=4, data_seed=4294967297)
    state = bank.states[0]
    with mock.patch.object(learner_mod, "_key_blocks", wraps=learner_mod._key_blocks) as derive:
        for space in (ws, Workspace(ws.layout)):
            for _ in range(3):
                (perm,) = learner_mod._shuffles(space, [state], train.n)
                want = numpy_shuffle(state.data_seed, state.id, state.epochs_total, train.n)
                assert np.array_equal(perm, want)
                assert_epoch_is_reference(bank, hp, space)
    assert derive.call_count == 1
    assert state.epochs_total == 6


# ---------------------------------------------------------------------------
# cohorts: training stacked learners equals training each alone
# ---------------------------------------------------------------------------


def overflow_start(hp, step):
    """Where a learner's last output bias starts, as a fraction of the largest
    float F, so that with momentum -F it first passes F at ``step`` (1, 2 or
    3) of training under ``hp``. At that scale the data gradient rounds away,
    and the bias b follows u <- gamma*u + mu*b, then b <- b - eta*u."""

    def path(b):  # the bias after steps 1 to 3, in units of F
        u, out = -1.0, []
        for _ in range(3):
            u = hp.gamma * u + hp.proximal_mu * b
            b -= hp.eta * u
            out.append(b)
        return out

    start = 1.0
    if step > 1:  # F halfway between two steps' values, both affine in b
        at0, at1 = (sum(path(b)[step - 2 : step]) for b in (0.0, 1.0))
        start = (2.0 - at0) / (at1 - at0)
    after = path(start)
    assert after[step - 1] > 1.0 and all(v < 1.0 for v in after[: step - 1])
    return start


def cohort_members(kind, hp, sizes, seed, poison=None, dims=(4, 5)):
    """A bank that holds a cohort among bystanders, and the cohort's rows.

    Every learner has its own id, data, epoch count, model, momentum and
    anchor, and ``dims`` are the model's input and hidden widths. Member k
    has (train n, validation n) ``sizes[k]``; the members sit at the odd rows,
    in a random order, so that the cohort's rows are unsorted and apart, and
    bystanders of random sizes fill the even rows. A member in ``poison``
    diverges through its parameters and momentum: "step1" at its first step,
    "step2" at its second, "step3" at its third (``overflow_start``). Equal
    arguments give equal banks."""
    dim, hidden = dims
    spec = ModelSpec(kind, dim, 3, hidden_dim=hidden if kind == "mlp-1hidden" else 0, init_seed=seed)
    ctrl = FederationController(spec)
    layout = ctrl.current_model().params.layout
    rng = np.random.default_rng(seed)
    rows = rng.permutation(np.arange(1, 2 * len(sizes), 2))
    row_sizes = [(int(rng.integers(5, 30)), int(rng.integers(1, 5))) for _ in range(2 * len(sizes) + 1)]
    for k, row in enumerate(rows):
        row_sizes[row] = sizes[k]
    trains, validations = [], []
    for row, (n, nv) in enumerate(row_sizes):
        data = generate_blobs(dim, 3, n_per_class=(n + nv) // 3 + 1, spread=0.3, seed=[seed, row])
        data = data.subset(rng.permutation(data.n)[: n + nv])
        trains.append(data.subset(np.arange(n)))
        validations.append(data.subset(np.arange(n, n + nv)))
    ids = [3 * row + 1 for row in range(len(row_sizes))]
    bank = learner_bank(ctrl.current_model(), trains, validations, ids, data_seed=seed)
    for state in bank.states:
        state.params[:] = rng.normal(size=layout.size)
        state.momentum[:] = rng.normal(size=layout.size)
        state.anchor = ParameterSet(rng.normal(size=layout.size), layout)
        state.epochs_total = int(rng.integers(0, 5))
    for k, when in (poison or {}).items():
        state = bank.states[rows[k]]
        start = overflow_start(hp, int(when[-1]))
        big = np.finfo(np.float64).max
        state.params[-1], state.momentum[-1] = start * big, -big
    return bank, rows


def counters(bank):
    return [(s.S_k_local, s.epochs_total, s.current.epochs) for s in bank.states]


cohort_cases = dict(
    kind=st.sampled_from(["softmax-regression", "mlp-1hidden"]),
    gamma=st.sampled_from([0.0, 0.5, 0.75]),
    mu=st.sampled_from([0.0, 0.05]),
    sizes=st.lists(st.sampled_from([(12, 3), (20, 3), (20, 4)]), min_size=1, max_size=8),
    batch=st.sampled_from([8, 64]),  # n > beta and n <= beta
    per_cohort=st.sampled_from([1, 2, 3, None]),  # scratch cap in members; None: default
    seed=st.integers(0, 2**16),
)


def capped_cohorts(kind, batch, per_cohort):
    """Lower the scratch cap so that cohorts split into runs of about
    ``per_cohort`` learners; None keeps the shipped cap."""
    cap = learner_mod.COHORT_SCRATCH_BYTES
    if per_cohort is not None:
        spec = ModelSpec(kind, 4, 3, hidden_dim=5 if kind == "mlp-1hidden" else 0)
        layout = FederationController(spec).current_model().params.layout
        cap = Workspace(layout).member_bytes(batch) * per_cohort
    return mock.patch.object(learner_mod, "COHORT_SCRATCH_BYTES", cap)


@given(**cohort_cases)
@settings(max_examples=60, deadline=None)
def test_cohort_epoch_matches_each_member_alone(
    kind, gamma, mu, sizes, batch, per_cohort, seed
):
    hp = Hyperparameters(eta=0.1, gamma=gamma, batch_size=batch, proximal_mu=mu)
    together, rows = cohort_members(kind, hp, sizes, seed)
    alone, _ = cohort_members(kind, hp, sizes, seed)
    others = np.setdiff1d(np.arange(len(together.states)), rows)
    bystanders = together.params[others].copy(), together.momentum[others].copy()
    ws = Workspace(together.layout)
    with capped_cohorts(kind, batch, per_cohort):
        for _ in range(2):
            steps = run_epoch(together, rows, hp, ws)
            losses = local_validation_loss(together, rows, ws)
            want_steps = sum(run_epoch(alone, [row], hp, ws) for row in rows)
            want_losses = [local_validation_loss(alone, [row], ws)[0] for row in rows]
            assert steps == want_steps
            assert losses == want_losses
    # Every member has the bits it gets training alone, and no other row moved.
    assert np.array_equal(together.params, alone.params)
    assert np.array_equal(together.momentum, alone.momentum)
    assert np.array_equal(together.params[others], bystanders[0])
    assert np.array_equal(together.momentum[others], bystanders[1])
    assert counters(together) == counters(alone)


@given(
    poisons=st.lists(st.sampled_from([None, "step1", "step2"]), min_size=8, max_size=8),
    # A poison needs momentum (gamma > 0) to carry a bias past the float limit.
    **dict(cohort_cases, gamma=st.sampled_from([0.5, 0.75])),
)
@settings(max_examples=40, deadline=None)
def test_cohort_divergence_raises_like_sequential_training(
    poisons, kind, gamma, mu, sizes, batch, per_cohort, seed
):
    poison = {k: p for k, p in enumerate(poisons[: len(sizes)]) if p is not None}
    assume(poison)
    hp = Hyperparameters(eta=0.1, gamma=gamma, batch_size=batch, proximal_mu=mu)
    together, rows = cohort_members(kind, hp, sizes, seed, poison)
    alone, _ = cohort_members(kind, hp, sizes, seed, poison)
    others = np.setdiff1d(np.arange(len(together.states)), rows)
    bystanders = together.params[others].copy(), together.momentum[others].copy()
    ws = Workspace(together.layout)
    # Where each poison strikes first, in rounds of one epoch per learner.
    strikes = []
    for k, when in poison.items():
        if when == "step1":
            strikes.append((0, k, 1))
        elif sizes[k][0] > batch:
            strikes.append((0, k, 2))
        else:  # one step per epoch: the second step is the next epoch's first
            strikes.append((1, k, 1))
    epoch, k, step = min(strikes)
    learner = alone.states[rows[k]]
    expected = (
        f"learner {learner.id}: parameters became non-finite at step {step} "
        f"of epoch {learner.epochs_total + epoch}"
    )
    with np.errstate(all="ignore"), capped_cohorts(kind, batch, per_cohort):
        with pytest.raises(ShapeError) as sequential:
            for _ in range(2):
                for row in rows:
                    run_epoch(alone, [row], hp, ws)
        with pytest.raises(ShapeError) as stacked:
            for _ in range(2):
                run_epoch(together, rows, hp, ws)
    assert str(sequential.value) == expected
    assert str(stacked.value) == expected
    assert np.array_equal(together.params[others], bystanders[0])
    assert np.array_equal(together.momentum[others], bystanders[1])


@pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
@pytest.mark.parametrize("members", [1, 3])
def test_divergence_at_the_last_step_is_found_by_the_epoch_scan(kind, members):
    # 20 samples at batch 8: steps of 8, 8 and 4. The last member diverges
    # at step 3, so only the scan after the epoch sees it and the replay has
    # to find the step.
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=8, proximal_mu=0.05)
    sizes = [(20, 3)] * members
    bank, rows = cohort_members(kind, hp, sizes, 7, {members - 1: "step3"})
    with np.errstate(all="ignore"):
        # Training that checks every step still finishes the epoch: every
        # buffer must end where reference_epoch ends it.
        wants = [reference_epoch(bank.states[r], learner_train(bank, r), hp) for r in rows]
        with pytest.raises(ShapeError) as raised:
            run_epoch(bank, rows, hp, Workspace(bank.layout))
    last = bank.states[rows[-1]]
    assert str(raised.value) == (
        f"learner {last.id}: parameters became non-finite at step 3 of epoch {last.epochs_total}"
    )
    assert not np.isfinite(last.params).all()
    for row, (want_w, want_u) in zip(rows, wants):
        state = bank.states[row]
        got_w, got_u = state.params, state.momentum
        assert np.array_equal(got_w, np.concatenate([a.ravel() for a in want_w]), equal_nan=True)
        assert np.array_equal(got_u, np.concatenate([a.ravel() for a in want_u]), equal_nan=True)
        assert state.S_k_local == 0 and state.current.epochs == 0


# ---------------------------------------------------------------------------
# cohorts of unstackable models on worker threads
# ---------------------------------------------------------------------------


def test_worker_count_never_exceeds_the_cohorts():
    threads = threading.active_count()
    with pinned_cpus(10**9):
        assert [worker_count(cohorts) for cohorts in (1, 2, 7, 4096)] == [1, 2, 7, 4096]
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),  # BLAS already runs on every CPU
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "3"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many", "GOTO_NUM_THREADS": "16"}, 1),
    ],
)
def test_worker_count_divides_the_cpus_by_the_blas_threads(monkeypatch, env, workers):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(learner_mod, "cpu_count", lambda: 8)
    assert worker_count(16) == workers


@given(
    sizes=st.lists(st.sampled_from([(9, 3), (20, 3), (33, 4)]), min_size=2, max_size=5),
    mu=st.sampled_from([0.0, 0.05]),
    batch=st.sampled_from([8, 64]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_unstackable_cohorts_train_alike_on_one_and_two_workers(sizes, mu, batch, seed):
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=batch, proximal_mu=mu)
    trained, maps = [], []
    for cpus in (1, 2):
        bank, rows = cohort_members("mlp-1hidden", hp, sizes, seed, dims=(64, 256))
        ws = Workspace(bank.layout)
        assert ws.member_bytes(1) > COHORT_SCRATCH_BYTES  # every cohort has one member
        with pinned_cpus(cpus), counting_side_by_side_epochs() as spy:
            for _ in range(2):
                run_epoch(bank, rows, hp, ws)
        trained.append(bank)
        maps.append(spy.call_count)
    assert maps == [0, 2]
    one, two = trained
    assert np.array_equal(one.params, two.params)
    assert np.array_equal(one.momentum, two.momentum)
    assert counters(one) == counters(two)


def test_unstackable_cohorts_on_more_threads_than_cpus_train_alike():
    # Six threads on this host's CPUs, switching as often as the interpreter
    # allows: every learner must still end with the bits of a serial epoch.
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=8, proximal_mu=0.05)
    sizes = [(9, 3), (20, 3), (33, 4), (20, 3), (9, 3), (33, 4)]
    serial, rows = cohort_members("mlp-1hidden", hp, sizes, 11, dims=(64, 256))
    threaded, _ = cohort_members("mlp-1hidden", hp, sizes, 11, dims=(64, 256))
    ws, interval = Workspace(serial.layout), sys.getswitchinterval()
    with pinned_cpus(1):
        for _ in range(3):
            run_epoch(serial, rows, hp, ws)
    sys.setswitchinterval(1e-6)
    try:
        with pinned_cpus(6):
            for _ in range(3):
                run_epoch(threaded, rows, hp, ws)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial.params, threaded.params)
    assert np.array_equal(serial.momentum, threaded.momentum)


@given(
    cohorts=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 50)), min_size=1, max_size=12),
    workers=st.integers(1, 12),
    order=st.randoms(use_true_random=False),
)
def test_shares_deal_every_cohort_once_and_balance_the_loads(cohorts, workers, order):
    # Cohort k has members[k] learners of size[k] samples each.
    workers = min(workers, len(cohorts))
    members, size = zip(*cohorts)
    sizes = np.repeat(size, members)
    ends = np.cumsum(members)
    positions = [np.arange(end - m, end) for m, end in zip(members, ends)]

    def deal(positions, sizes):  # the shares as lists of cohort indices
        index = {id(c): k for k, c in enumerate(positions)}
        shares = learner_mod._shares(positions, sizes, workers)
        return [[index[id(c)] for c in share] for share in shares]

    shares = deal(positions, sizes)
    assert len(shares) == workers and all(shares)
    assert sorted(k for share in shares for k in share) == list(range(len(cohorts)))
    loads = [sum(members[k] * size[k] for k in share) for share in shares]
    assert max(loads) - min(loads) <= max(m * n for m, n in cohorts)
    # The same cohorts at other positions, with the same sizes, are dealt alike.
    moved = list(range(sizes.size))
    order.shuffle(moved)
    moved_sizes = np.empty_like(sizes)
    moved_sizes[moved] = sizes
    assert deal([np.array([moved[i] for i in c]) for c in positions], moved_sizes) == shares


def unstackable_shares(hp, sizes, workers):
    """The shares ``run_epoch`` deals the members of ``cohort_members`` with
    ``sizes`` into at ``workers`` threads, as lists of member positions."""
    bank, _ = cohort_members("mlp-1hidden", hp, sizes, 0, dims=(64, 256))
    ws, n = Workspace(bank.layout), np.array([t for t, _ in sizes])
    shares = learner_mod._shares(learner_mod._cohorts(ws, n, hp.batch_size), n, workers)
    return [[int(p) for cohort in share for p in cohort] for share in shares]


UNSTACKABLE_SIZES = [(9, 3), (20, 3), (33, 4), (20, 3)]


@pytest.mark.parametrize("share", [0, 1], ids=["calling-thread", "worker-thread"])
def test_a_diverging_learner_on_any_thread_is_named_as_on_one_cpu(share):
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=8)
    member = unstackable_shares(hp, UNSTACKABLE_SIZES, 2)[share][0]
    threads, messages, sides = threading.active_count(), [], []
    for cpus in (1, 2):
        bank, rows = cohort_members(
            "mlp-1hidden", hp, UNSTACKABLE_SIZES, 5, poison={member: "step2"}, dims=(64, 256)
        )
        with pinned_cpus(cpus), counting_side_by_side_epochs() as spy:
            with np.errstate(all="ignore"), pytest.raises(ShapeError) as raised:
                run_epoch(bank, rows, hp, Workspace(bank.layout))
        assert threading.active_count() == threads
        messages.append(str(raised.value))
        sides.append(spy.call_count)
    assert sides == [0, 1]
    state = bank.states[rows[member]]
    assert messages == [
        f"learner {state.id}: parameters became non-finite at step 2 of epoch {state.epochs_total}"
    ] * 2


@pytest.mark.parametrize("failing", [[1], [0, 1]], ids=["worker", "both"])
def test_an_error_in_a_share_surfaces_after_every_thread_is_joined(failing):
    # Only the first share's error is raised when both fail.
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=8)
    shares = unstackable_shares(hp, UNSTACKABLE_SIZES, 2)
    bank, rows = cohort_members("mlp-1hidden", hp, UNSTACKABLE_SIZES, 5, dims=(64, 256))
    bad = {int(rows[shares[k][-1]]): k for k in failing}
    train_cohort = learner_mod._train_cohort

    def failing_cohort(bank, members, hp, ws):
        if int(members[0]) in bad:
            raise RuntimeError(f"share {bad[int(members[0])]}")
        return train_cohort(bank, members, hp, ws)

    threads = threading.active_count()
    with pinned_cpus(2), mock.patch.object(learner_mod, "_train_cohort", failing_cohort):
        with pytest.raises(RuntimeError) as raised:
            run_epoch(bank, rows, hp, Workspace(bank.layout))
    assert str(raised.value) == f"share {failing[0]}"
    assert threading.active_count() == threads


def test_side_by_side_epochs_reuse_their_spare_workspaces():
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=8)
    bank, rows = cohort_members("mlp-1hidden", hp, UNSTACKABLE_SIZES, 5, dims=(64, 256))
    ws, spares = Workspace(bank.layout), []
    with pinned_cpus(3):
        for _ in range(2):
            run_epoch(bank, rows, hp, ws)
            spares.append(list(ws.spares))
    assert [len(s) for s in spares] == [2, 2]
    assert all(a is b for a, b in zip(*spares))


# ---------------------------------------------------------------------------
# uint8 pools read like their float64 image
# ---------------------------------------------------------------------------


def pixel_banks(kind, sizes, seed, dim=6):
    """Two banks alike but for their pools' rows: random uint8 pixels in one,
    their float64 image ``pixels.astype(np.float64) / 255.0`` in the other.
    Learner k holds (train n, validation n) ``sizes[k]``, and every learner
    starts from the same random model and momentum in both."""
    rng = np.random.default_rng(seed)
    total = sum(n + v for n, v in sizes)
    pixels = rng.integers(0, 256, (total, dim), dtype=np.uint8)
    labels = rng.integers(0, 3, total)
    spec = ModelSpec(kind, dim, 3, hidden_dim=5 if kind == "mlp-1hidden" else 0, init_seed=seed)
    community = FederationController(spec).current_model()
    ends = np.cumsum([n + v for n, v in sizes])
    banks = []
    for rows in (pixels, pixels.astype(np.float64) / 255.0):
        data = Dataset(rows, labels, 3)
        trains = [data.subset(np.arange(e - n - v, e - v)) for e, (n, v) in zip(ends, sizes)]
        validations = [data.subset(np.arange(e - v, e)) for e, (n, v) in zip(ends, sizes)]
        bank = learner_bank(community, trains, validations, list(range(len(sizes))), data_seed=seed)
        start = np.random.default_rng([seed, 1])
        bank.params[:] = start.normal(size=bank.params.shape)
        bank.momentum[:] = start.normal(size=bank.momentum.shape)
        banks.append(bank)
    return banks


@given(
    kind=st.sampled_from(["softmax-regression", "mlp-1hidden"]),
    path=st.sampled_from(["lone", "stacked", "side-by-side"]),
    sizes=st.lists(st.sampled_from([(12, 3), (20, 3), (20, 4)]), min_size=2, max_size=5),
    batch=st.sampled_from([8, 64]),
    mu=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_uint8_pools_read_like_their_float64_image(kind, path, sizes, batch, mu, seed):
    # Training, the validation loss, DVW's accuracy and the test fingerprint
    # give the same bytes on uint8 pixels as on their float64 image: along
    # lone and stacked cohorts, and on two threads side by side (a scratch
    # cap of one byte makes every cohort one unstackable member).
    hp = Hyperparameters(eta=0.1, gamma=0.75, batch_size=batch, proximal_mu=mu)
    cap = 1 if path == "side-by-side" else COHORT_SCRATCH_BYTES
    got = []
    for bank in pixel_banks(kind, sizes, seed):
        ws, rows = Workspace(bank.layout), np.arange(len(sizes))
        losses = []
        with pinned_cpus(2), mock.patch.object(learner_mod, "COHORT_SCRATCH_BYTES", cap):
            with counting_side_by_side_epochs() as spy:
                for _ in range(2):
                    if path == "lone":
                        for row in rows:
                            run_epoch(bank, [row], hp, ws)
                            losses += local_validation_loss(bank, [row], ws)
                    else:
                        run_epoch(bank, rows, hp, ws)
                        losses += local_validation_loss(bank, rows, ws)
        assert spy.call_count == (2 if path == "side-by-side" else 0)
        models = [ParameterSet(w.copy(), bank.layout) for w in bank.params]
        scores = [dvw_weight(m, bank.split.validation) for m in models]
        scores += [accuracy(m, bank.split.train) for m in models]
        fingerprint = cli_mod._dataset_fingerprint(bank.split.test)
        got.append((bank.params.tobytes(), bank.momentum.tobytes(), losses, scores, fingerprint))
    pixels, image = got
    assert pixels == image
    # The float64 image hashes like the whole set did, in one piece.
    test = bank.split.test
    assert image[-1] == hashlib.sha256(test.features.tobytes() + test.labels.tobytes()).hexdigest()
