import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.controller import (
    DegenerateFederationError,
    FedAsyncController,
    FederationController,
    UpdateRequest,
)
from fedsim.nn import ModelSpec, ParameterSet, init_parameters
from fedsim.weighting import FedAsyncParams, fedavg_weight
from tests.conftest import cache_size, params_allclose, params_equal, random_params


SPEC = ModelSpec("softmax-regression", input_dim=3, num_classes=3, init_seed=1990)


def by_size(req: UpdateRequest) -> float:
    return fedavg_weight(req.local_train_size)


def make_request(lid, params, steps=1, size=10):
    return UpdateRequest(lid, params, local_steps=steps, local_train_size=size)


def constant_model(spec, value):
    layout = init_parameters(spec).layout
    return ParameterSet(np.full(layout.size, value), layout)


def recompute_from_latest(commits):
    """From-scratch oracle over the latest (p, w) per learner."""
    latest = {}
    for lid, p, w in commits:
        latest[lid] = (p, w)
    total = sum(p for p, _ in latest.values())
    acc = sum(p * w.flat for p, w in latest.values())
    return ParameterSet((1.0 / total) * acc, w.layout)


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_identical_across_controllers():
    a, b = FederationController(SPEC), FederationController(SPEC)
    assert params_equal(a.current_model().params, b.current_model().params)


def test_init_state():
    ctrl = FederationController(SPEC)
    model = ctrl.current_model()
    assert model.version == 0
    assert model.committed_steps == 0
    assert cache_size(ctrl) == 0
    assert ctrl.normalizer == 0.0


def test_audit_requires_nonempty_cache():
    ctrl = FederationController(SPEC)
    with pytest.raises(DegenerateFederationError):
        ctrl.audit_recompute()


# ---------------------------------------------------------------------------
# handle_sync_round
# ---------------------------------------------------------------------------


def test_sync_round_midpoint():
    ctrl = FederationController(SPEC)
    w0, w1 = constant_model(SPEC, 0.0), constant_model(SPEC, 1.0)
    model = ctrl.handle_sync_round(
        [make_request(0, w0, size=10), make_request(1, w1, size=10)], by_size
    )
    assert all(np.allclose(a, 0.5) for a in model.params.arrays)
    assert model.version == 1


def test_sync_round_weighted_sum_oracle(rng):
    ctrl = FederationController(SPEC)
    models = [random_params("softmax-regression", rng, input_dim=3) for _ in range(3)]
    sizes = [598, 212, 190]
    reqs = [make_request(i, m, size=s) for i, (m, s) in enumerate(zip(models, sizes))]
    got = ctrl.handle_sync_round(reqs, by_size).params
    a, b, c = (m.flat for m in models)
    expected = ParameterSet(0.598 * a + 0.212 * b + 0.190 * c, models[0].layout)
    assert params_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_sync_round_single_learner_returns_its_model(rng):
    ctrl = FederationController(SPEC)
    w = random_params("softmax-regression", rng, input_dim=3)
    got = ctrl.handle_sync_round([make_request(0, w, size=7)], by_size).params
    assert params_allclose(got, w, rtol=1e-12, atol=1e-15)


def test_sync_round_rejects_duplicates(rng):
    ctrl = FederationController(SPEC)
    w = random_params("softmax-regression", rng, input_dim=3)
    with pytest.raises(ValueError, match="duplicate"):
        ctrl.handle_sync_round([make_request(0, w), make_request(0, w)], by_size)


def test_sync_round_rejects_zero_weights(rng):
    ctrl = FederationController(SPEC)
    w = random_params("softmax-regression", rng, input_dim=3)
    with pytest.raises(DegenerateFederationError):
        ctrl.handle_sync_round([make_request(0, w)], lambda r: 0.0)


def test_sync_round_accumulates_steps():
    ctrl = FederationController(SPEC)
    w = constant_model(SPEC, 1.0)
    ctrl.handle_sync_round([make_request(0, w, steps=20), make_request(1, w, steps=35)], by_size)
    assert ctrl.committed_steps() == 55


# ---------------------------------------------------------------------------
# handle_async_update
# ---------------------------------------------------------------------------


def test_first_commit_returns_committed_model(rng):
    ctrl = FederationController(SPEC)
    w = random_params("softmax-regression", rng, input_dim=3)
    got = ctrl.handle_async_update(make_request(5, w), lambda r: 1.0)
    assert params_allclose(got.params, w, rtol=1e-12, atol=1e-15)
    assert got.version == 1


def test_recommit_identical_is_stable(rng):
    ctrl = FederationController(SPEC)
    w_a = random_params("softmax-regression", rng, input_dim=3)
    w_b = random_params("softmax-regression", rng, input_dim=3)
    ctrl.handle_async_update(make_request(0, w_a, size=30), by_size)
    before = ctrl.handle_async_update(make_request(1, w_b, size=50), by_size)
    after = ctrl.handle_async_update(make_request(1, w_b, size=50), by_size)
    assert params_allclose(after.params, before.params, rtol=0, atol=1e-12)


def test_first_commit_with_zero_weight_rejected(rng):
    ctrl = FederationController(SPEC)
    w = random_params("softmax-regression", rng, input_dim=3)
    with pytest.raises(DegenerateFederationError):
        ctrl.handle_async_update(make_request(0, w), lambda r: 0.0)
    # state untouched: next commit still works
    model = ctrl.handle_async_update(make_request(0, w), lambda r: 1.0)
    assert model.version == 1


def test_zero_weight_commit_applies_when_others_cached(rng):
    ctrl = FederationController(SPEC)
    w_a = random_params("softmax-regression", rng, input_dim=3)
    w_b = random_params("softmax-regression", rng, input_dim=3)
    ctrl.handle_async_update(make_request(0, w_a), lambda r: 2.0)
    model = ctrl.handle_async_update(make_request(1, w_b), lambda r: 0.0)
    # zero-weight entry contributes nothing: community stays at w_a
    assert params_allclose(model.params, w_a, rtol=0, atol=1e-12)
    assert cache_size(ctrl) == 2


def test_interleaved_updates_match_recompute_oracle(rng):
    ctrl = FederationController(SPEC)
    commits = []
    models = {lid: [random_params("softmax-regression", rng, input_dim=3) for _ in range(12)] for lid in range(5)}
    order = rng.integers(0, 5, size=50)
    counters = {lid: 0 for lid in range(5)}
    for lid in order:
        lid = int(lid)
        w = models[lid][counters[lid] % 12]
        counters[lid] += 1
        p = float(rng.uniform(0.1, 5.0))
        got = ctrl.handle_async_update(make_request(lid, w), lambda r: p)
        commits.append((lid, p, w))
        oracle = recompute_from_latest(commits)
        assert params_allclose(got.params, oracle, rtol=1e-9, atol=1e-12)


def test_async_matches_audit_after_many_updates(rng):
    ctrl = FederationController(SPEC)
    for step in range(300):
        lid = int(rng.integers(0, 10))
        w = random_params("softmax-regression", rng, input_dim=3)
        p = float(rng.uniform(0.01, 3.0))
        got = ctrl.handle_async_update(make_request(lid, w), lambda r: p)
        audit = ctrl.audit_recompute()
        assert params_allclose(got.params, audit.params, rtol=1e-9, atol=1e-12)


def test_sync_equals_fresh_async_sequence(rng):
    reqs = [
        make_request(i, random_params("softmax-regression", rng, input_dim=3), steps=3, size=int(s))
        for i, s in enumerate([50, 30, 20, 10])
    ]
    sync_ctrl = FederationController(SPEC)
    sync_model = sync_ctrl.handle_sync_round(reqs, by_size)
    async_ctrl = FederationController(SPEC)
    for req in reqs:
        async_model = async_ctrl.handle_async_update(req, by_size)
    assert params_allclose(sync_model.params, async_model.params, rtol=1e-9, atol=1e-12)
    assert sync_ctrl.committed_steps() == async_ctrl.committed_steps()


def test_replay_is_bit_identical(rng):
    # Linearizability surrogate: same arrival order in, identical state out.
    reqs = []
    for i in range(40):
        lid = int(rng.integers(0, 4))
        reqs.append((lid, float(rng.uniform(0.5, 2.0)), random_params("softmax-regression", rng, input_dim=3)))

    def run():
        ctrl = FederationController(SPEC)
        trace = []
        for lid, p, w in reqs:
            model = ctrl.handle_async_update(make_request(lid, w), lambda r: p)
            trace.append((model.version, model.params))
        return trace

    t1, t2 = run(), run()
    for (v1, p1), (v2, p2) in zip(t1, t2):
        assert v1 == v2
        assert params_equal(p1, p2)


def test_committed_steps_monotone(rng):
    ctrl = FederationController(SPEC)
    assert ctrl.committed_steps() == 0
    w = random_params("softmax-regression", rng, input_dim=3)
    ctrl.handle_async_update(make_request(0, w, steps=20), lambda r: 1.0)
    assert ctrl.committed_steps() == 20
    ctrl.handle_async_update(make_request(1, w, steps=35), lambda r: 1.0)
    assert ctrl.committed_steps() == 55


def test_update_request_validation(rng):
    w = random_params("softmax-regression", rng, input_dim=3)
    with pytest.raises(ValueError):
        UpdateRequest(0, w, local_steps=0, local_train_size=5)
    with pytest.raises(ValueError):
        UpdateRequest(0, w, local_steps=1, local_train_size=0)


def test_sync_round_order_independent(rng):
    # the community model of a round does not depend on request arrival order
    reqs = [
        make_request(i, random_params("softmax-regression", rng, input_dim=3), size=int(s))
        for i, s in enumerate([50, 30, 20, 10])
    ]
    a = FederationController(SPEC).handle_sync_round(reqs, by_size)
    b = FederationController(SPEC).handle_sync_round(list(reversed(reqs)), by_size)
    assert params_allclose(a.params, b.params, rtol=1e-9, atol=1e-12)


def _commit_to_federation(ctrl, reqs, rng):
    if len(reqs) > 1 or rng.random() < 0.5:
        return ctrl.handle_sync_round(reqs, by_size)
    return ctrl.handle_async_update(reqs[0], by_size)


def _commit_to_fedasync(ctrl, reqs, rng):
    return ctrl.handle_update(reqs[0], staleness=int(rng.integers(0, 6)))


@pytest.mark.parametrize(
    "make, commit, round_size",
    [
        (lambda: FederationController(SPEC), _commit_to_federation, 4),
        (lambda: FedAsyncController(SPEC, FedAsyncParams()), _commit_to_fedasync, 1),
    ],
    ids=["federation", "fedasync"],
)
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_each_commit_publishes_one_version(make, commit, round_size, seed):
    # An async commit or a sync round is one version; its requests' steps
    # all count, and the model it returns is the one current_model serves.
    rng = np.random.default_rng(seed)
    ctrl = make()
    commits = int(rng.integers(1, 25))
    steps = 0
    for _ in range(commits):
        ids = rng.permutation(round_size)[: int(rng.integers(1, round_size + 1))]
        reqs = [
            make_request(
                int(lid),
                random_params("softmax-regression", rng, input_dim=3),
                steps=int(rng.integers(1, 30)),
                size=int(rng.integers(1, 50)),
            )
            for lid in ids
        ]
        steps += sum(r.local_steps for r in reqs)
        returned = commit(ctrl, reqs, rng)
    assert ctrl.version == returned.version == commits
    assert ctrl.committed_steps() == returned.committed_steps == steps
    assert ctrl.current_model().params is returned.params


# ---------------------------------------------------------------------------
# FedAsync baseline controller
# ---------------------------------------------------------------------------


def test_fedasync_zero_staleness_midpoint(rng):
    ctrl = FedAsyncController(SPEC, FedAsyncParams(alpha=0.5, a=0.5))
    w0 = ctrl.current_model().params
    w = random_params("softmax-regression", rng, input_dim=3)
    model = ctrl.handle_update(make_request(0, w, steps=4), staleness=0)
    expected = ParameterSet(0.5 * (w0.flat + w.flat), w.layout)
    assert params_allclose(model.params, expected, rtol=0, atol=1e-15)
    assert model.version == 1
    assert model.committed_steps == 4


# ---------------------------------------------------------------------------
# in-place running sum: properties under random commit mixes
# ---------------------------------------------------------------------------

# One operation: ("async", learner, weight) or ("sync", [(learner, weight), ...]).
_weights = st.floats(0.01, 5.0, allow_nan=False)
_async_op = st.tuples(st.just("async"), st.integers(0, 5), _weights)
_sync_op = st.tuples(
    st.just("sync"),
    st.lists(
        st.tuples(st.integers(0, 5), _weights), min_size=1, max_size=6, unique_by=lambda e: e[0]
    ),
)


@given(st.integers(0, 2**31 - 1), st.lists(st.one_of(_async_op, _sync_op), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_running_sum_tracks_audit_under_mixed_commits(seed, ops):
    rng = np.random.default_rng(seed)
    ctrl = FederationController(SPEC)
    cached_p = {}  # the cache as the test sees it: latest weight per learner
    for op in ops:
        if op[0] == "async":
            _, lid, p = op
            w = random_params("softmax-regression", rng, input_dim=3)
            ctrl.handle_async_update(make_request(lid, w), lambda r: p)
            cached_p[lid] = p
        else:
            weights = dict(op[1])
            reqs = [
                make_request(lid, random_params("softmax-regression", rng, input_dim=3))
                for lid in weights
            ]
            ctrl.handle_sync_round(reqs, lambda r: weights[r.learner_id])
            cached_p = weights
        audit = ctrl.audit_recompute()
        assert params_allclose(ctrl.current_model().params, audit.params, rtol=1e-9, atol=1e-12)
        assert cache_size(ctrl) == len(cached_p)
        assert ctrl.normalizer == pytest.approx(sum(cached_p.values()), rel=1e-9)
