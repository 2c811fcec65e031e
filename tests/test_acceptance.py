"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a PASS line once its assertions hold, so a verbose run
gives one line per criterion. Wall-clock limits are asserted where the
criterion states one.
"""

import time

import numpy as np

from fedsim.config import config_from_dict, get_preset, preset_names
from fedsim.controller import CommunityModel, FederationController, UpdateRequest
from fedsim.data import generate_blobs
from fedsim.learner import (
    AdaptivePolicy,
    FixedPolicy,
    Hyperparameters,
    adopt_community,
    check_adaptive_trigger,
    effective_staleness,
    run_epoch,
)
from fedsim.nn import MLP_1HIDDEN, SOFTMAX_REGRESSION, ModelSpec, ParameterSet, Workspace, momentum_update
from fedsim.simulator import evaluate_test_accuracy, run_simulation_detailed
from fedsim.weighting import dvw_weight
from tests.conftest import (
    controller_from,
    identity_model,
    learner_bank,
    one_hot_dataset,
    random_batch,
    random_params,
)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: PASS - {message}", flush=True)


def random_model(rng: np.random.Generator, kind: str) -> ParameterSet:
    return random_params(kind, rng, input_dim=4, num_classes=5, hidden=5)


# ---------------------------------------------------------------------------
# 1. Cache correctness
# ---------------------------------------------------------------------------


def test_criterion_01_cache_correctness():
    start = time.perf_counter()
    federations = [(3, SOFTMAX_REGRESSION), (5, SOFTMAX_REGRESSION), (10, SOFTMAX_REGRESSION),
                   (3, MLP_1HIDDEN), (10, MLP_1HIDDEN)]
    for fed_idx, (n_learners, kind) in enumerate(federations):
        rng = np.random.default_rng(1990 + fed_idx)
        initial = random_model(rng, kind)
        ctrl = controller_from(initial)
        for _ in range(200):
            lid = int(rng.integers(0, n_learners))
            w = random_model(rng, kind)
            p = float(rng.uniform(0.05, 4.0))
            got = ctrl.handle_async_update(
                UpdateRequest(lid, w, local_steps=1, local_train_size=1),
                lambda r: p,
            )
            audit = ctrl.audit_recompute()
            for a, b in zip(got.params.arrays, audit.params.arrays):
                assert np.allclose(a, b, rtol=1e-9, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"cached community model matches audit recompute everywhere ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Constant-time cache
# ---------------------------------------------------------------------------


def _controller_with_cache(n_learners: int, models: list[ParameterSet]) -> FederationController:
    ctrl = controller_from(models[0])
    for lid in range(n_learners):
        ctrl.handle_async_update(
            UpdateRequest(lid, models[lid % len(models)], 1, 1), lambda r: 1.0
        )
    return ctrl


def _median_latencies(sizes: tuple[int, ...], updates: int = 600, audits: int = 20):
    """Median async-commit and audit-recompute seconds of a controller per
    federation size in ``sizes``. Both controllers are built first, then
    timed in turns, one commit (and every ``updates // audits`` commits one
    audit) each, swapping which size goes first on every turn, so that load
    on the host slows both sides alike."""
    import gc

    rng = np.random.default_rng(7)
    models = [random_params(MLP_1HIDDEN, rng, input_dim=64, num_classes=8, hidden=48) for _ in range(8)]
    ctrls = [_controller_with_cache(n, models) for n in sizes]
    update_lat = [[] for _ in sizes]
    audit_lat = [[] for _ in sizes]
    weight_fn = lambda r: 1.0
    gc.collect()
    gc.disable()
    try:
        for i in range(updates):
            order = range(len(sizes)) if i % 2 == 0 else reversed(range(len(sizes)))
            for k in order:
                req = UpdateRequest(i % sizes[k], models[i % 8], 1, 1)
                t0 = time.perf_counter()
                ctrls[k].handle_async_update(req, weight_fn)
                update_lat[k].append(time.perf_counter() - t0)
                if i % (updates // audits) == 0:
                    t0 = time.perf_counter()
                    ctrls[k].audit_recompute()
                    audit_lat[k].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return [(float(np.median(u)), float(np.median(a))) for u, a in zip(update_lat, audit_lat)]


def test_criterion_02_constant_time_cache():
    start = time.perf_counter()
    (update_small, audit_small), (update_large, audit_large) = _median_latencies((10, 1000))
    elapsed = time.perf_counter() - start
    assert update_large <= 1.5 * update_small, (
        f"cached update degraded with federation size: {update_small:.2e}s -> {update_large:.2e}s"
    )
    assert audit_large >= 20.0 * audit_small, (
        f"audit recompute did not scale with federation size: {audit_small:.2e}s -> {audit_large:.2e}s"
    )
    assert elapsed < 60.0
    report(
        2,
        f"update latency N=1000 is {update_large / update_small:.2f}x N=10; "
        f"audit grew {audit_large / audit_small:.0f}x ({elapsed:.1f}s)",
    )


class _CountingCache(dict):
    """A controller cache that counts the entries read from it."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def values(self):
        self.reads += len(self)
        return super().values()

    def items(self):
        self.reads += len(self)
        return super().items()

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()


def test_criterion_02_commit_reads_one_cache_entry():
    # Deterministic companion of the latency check: at N=1000 an async commit
    # reads only the committing learner's cache entry and never re-sums.
    n_learners = 1000
    rng = np.random.default_rng(7)
    models = [random_params(SOFTMAX_REGRESSION, rng, input_dim=4, num_classes=3) for _ in range(8)]
    ctrl = _controller_with_cache(n_learners, models)
    cache = _CountingCache(ctrl._cache)
    ctrl._cache = cache
    sums = []
    sum_cache = ctrl._sum_cache
    ctrl._sum_cache = lambda: sums.append(1) or sum_cache()
    for i in range(200):
        cache.reads = 0
        req = UpdateRequest(int(rng.integers(0, n_learners)), models[i % 8], 1, 1)
        ctrl.handle_async_update(req, lambda r: float(rng.uniform(0.5, 2.0)))
        assert cache.reads == 1
    assert sums == []
    assert len(cache) == n_learners
    # The counters see the full pass when it does happen.
    cache.reads = 0
    ctrl.audit_recompute()
    assert sums == [1] and cache.reads >= n_learners
    report(2, "an async commit at N=1000 reads one cache entry and never re-sums the cache")


# ---------------------------------------------------------------------------
# 3. Micro-F1 oracle
# ---------------------------------------------------------------------------


def test_criterion_03_micro_f1_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1990)
    for _ in range(1000):
        num_classes = int(rng.integers(2, 6))
        n_eval = int(rng.integers(1, 6))
        all_actual, all_predicted = [], []
        matches = 0
        total = 0
        for _lid in range(n_eval):
            n = int(rng.integers(1, 20))
            actual = rng.integers(0, num_classes, size=n)
            predicted = rng.integers(0, num_classes, size=n)
            all_actual.append(actual)
            all_predicted.append(predicted)
            matches += int((actual == predicted).sum())
            total += n
        # The identity model predicts the random labels on one-hot rows.
        pooled = one_hot_dataset(
            np.concatenate(all_actual), np.concatenate(all_predicted), num_classes
        )
        got = dvw_weight(identity_model(num_classes), pooled)
        # oracle from first principles over concatenated predictions:
        # every miss is exactly one false positive and one false negative
        misses = total - matches
        oracle = (2 * matches) / (2 * matches + misses + misses)
        assert got == oracle
        assert got == matches / total
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"1000 pooled evaluations equal concatenated-prediction micro-F1 exactly ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Gradient check
# ---------------------------------------------------------------------------


def _central_differences(ws: Workspace, w: np.ndarray, x, t, eps: float = 1e-5) -> np.ndarray:
    """d loss / d w by central differences of ``Workspace.loss``, bumping one
    coordinate of the flat vector ``w`` at a time (in every member at once
    for a stacked (M, size) cohort)."""
    numeric = np.empty_like(w)
    for j in range(w.shape[-1]):
        up, dn = w.copy(), w.copy()
        up[..., j] += eps
        dn[..., j] -= eps
        lu = ws.loss(ws.layout.views(up), x, t)
        ld = ws.loss(ws.layout.views(dn), x, t)
        numeric[..., j] = (lu - ld).reshape(w.shape[:-1]) / (2 * eps)
    return numeric


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float((np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))).max())


def test_criterion_04_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(1990)
    pairs = {"softmax-regression": [], "mlp-1hidden": []}
    worst = 0.0
    for pair in range(20):
        kind = "softmax-regression" if pair % 2 == 0 else "mlp-1hidden"
        params = random_params(kind, rng, input_dim=4, num_classes=3, hidden=6)
        x, y = random_batch(rng, n=5, input_dim=4, num_classes=3)
        pairs[kind].append((params, x, y))
        # a cohort of one: 2-D arrays, no member axis
        ws = Workspace(params.layout)
        s = ws.batch(1, 5)
        s.x[...], s.t[...] = x, np.eye(3)[y]
        analytic = ws.gradient(params.arrays, s).copy()
        numeric = _central_differences(ws, params.flat, x, s.t)
        worst = max(worst, _relative_error(analytic, numeric))
    for kind, members in pairs.items():
        # the same pairs as one stacked cohort of ten
        ws = Workspace(members[0][0].layout)
        w = np.stack([params.flat for params, _, _ in members])
        s = ws.batch(len(members), 5)
        s.x[...] = np.stack([x for _, x, _ in members])
        s.t[...] = np.eye(3)[np.stack([y for _, _, y in members])]
        analytic = ws.gradient(ws.layout.views(w), s).copy()
        numeric = _central_differences(ws, w, s.x, s.t)
        worst = max(worst, _relative_error(analytic, numeric))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report(
        4,
        f"max relative gradient error {worst:.2e} over 20 pairs, alone and as one "
        f"stacked cohort per model kind ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 5. Momentum semantics
# ---------------------------------------------------------------------------


def test_criterion_05_momentum_semantics():
    # two-step closed form from u0 = 0 under a constant gradient:
    # w2 = w0 - eta*g*(2 + gamma); alone, and stacked with per-member gamma
    w0, g, eta, gamma = 2.5, -0.7, 0.1, 0.75
    w, u, grad = np.full(2, w0), np.zeros(2), np.full(2, g)
    for _ in range(2):
        momentum_update(w, u, grad, gamma, eta, np.empty(2))
    closed_form = w0 - eta * g * (2 + gamma)
    assert np.abs(w - closed_form).max() <= 1e-12
    gammas = np.array([[0.0], [0.5], [gamma], [0.9]])
    w, u, grad = np.full((4, 2), w0), np.zeros((4, 2)), np.full((4, 2), g)
    for _ in range(2):
        momentum_update(w, u, grad, gammas, eta, np.empty((4, 2)))
    assert np.abs(w - (w0 - eta * g * (2 + gammas))).max() <= 1e-12

    # gamma = 0 equals vanilla SGD bit-for-bit over a full trajectory, for a
    # cohort of one (2-D arrays) and for a stacked cohort of four
    rng = np.random.default_rng(3)
    for members in (1, 4):
        models = [random_params("softmax-regression", rng) for _ in range(members)]
        ws = Workspace(models[0].layout)
        w = models[0].flat.copy() if members == 1 else np.stack([m.flat for m in models])
        vanilla, u, tmp = w.copy(), np.zeros_like(w), np.empty_like(w)
        for _ in range(10):
            batches = [random_batch(rng) for _ in range(members)]
            s = ws.batch(members, 6)
            s.x[...] = np.stack([x for x, _ in batches]).reshape(s.x.shape)
            s.t[...] = np.eye(3)[np.stack([y for _, y in batches])].reshape(s.t.shape)
            grads = ws.gradient(ws.layout.views(w), s)
            momentum_update(w, u, grads, 0.0, 0.05, tmp)
            vgrads = ws.gradient(ws.layout.views(vanilla), s)
            vanilla = vanilla - 0.05 * vgrads
            assert np.array_equal(w, vanilla)
    report(
        5,
        "two-step closed form within 1e-12; gamma=0 trajectory bit-equal to vanilla SGD, "
        "alone and stacked",
    )


# ---------------------------------------------------------------------------
# 6. Staleness bookkeeping
# ---------------------------------------------------------------------------


def test_criterion_06_staleness_bookkeeping():
    spec = ModelSpec("softmax-regression", input_dim=3, num_classes=2, init_seed=1990)
    ctrl = FederationController(spec)
    rng = np.random.default_rng(11)
    tiny = generate_blobs(3, 2, n_per_class=2, spread=0.3, seed=1)
    bank = learner_bank(ctrl.current_model(), [tiny] * 3, ids=[0, 1, 2], policy=FixedPolicy(4))
    learners = dict(enumerate(bank.states))

    def commit(lid: int, steps: int) -> int:
        state = learners[lid]
        state.S_k_local += steps  # scripted local training
        staleness = effective_staleness(ctrl.committed_steps(), state)
        w = random_params("softmax-regression", rng, input_dim=3, num_classes=2)
        model = ctrl.handle_async_update(
            UpdateRequest(lid, w, local_steps=steps, local_train_size=10), lambda r: 1.0
        )
        adopt_community(state, model)
        return staleness

    # hand-computed: staleness = (committed steps since fetch) + own steps
    assert commit(1, 20) == 20  # nothing committed before, own 20
    assert commit(0, 12) == 20 - 0 + 12  # saw B's 20
    assert commit(2, 5) == 32 - 0 + 5  # saw B's 20 and A's 12
    assert commit(1, 8) == 37 - 20 + 8  # fetched at 20, saw 17 foreign steps
    assert commit(0, 3) == 45 - 32 + 3
    assert ctrl.committed_steps() == 48
    report(6, "scripted 3-learner staleness equals hand computation exactly")


# ---------------------------------------------------------------------------
# 7. Trigger semantics
# ---------------------------------------------------------------------------


def _adaptive_state(policy: AdaptivePolicy):
    spec = ModelSpec("softmax-regression", input_dim=3, num_classes=2, init_seed=0)
    ctrl = FederationController(spec)
    tiny = generate_blobs(3, 2, n_per_class=2, spread=0.3, seed=1)
    return learner_bank(ctrl.current_model(), [tiny], policy=policy).states[0]


def test_criterion_07_trigger_semantics():
    # vc_loss=0, vc_tomb=4: exactly 4 non-improving epochs tolerated
    state = _adaptive_state(AdaptivePolicy(vc_loss=0.0, vc_tomb=4))
    state.cycle_epochs = 1
    outcomes = []
    for epoch in range(2, 8):
        state.cycle_epochs = epoch
        outcomes.append(check_adaptive_trigger(state, vpct=1.0, staleness_now=0))
    assert outcomes == [None, None, None, None, "C1", "C1"][: len(outcomes)]
    assert outcomes[4] == "C1" and all(o is None for o in outcomes[:4])

    # vc_loss=1, vc_tomb=1: the second failure fires
    state = _adaptive_state(AdaptivePolicy(vc_loss=1.0, vc_tomb=1))
    state.cycle_epochs = 2
    assert check_adaptive_trigger(state, vpct=-0.5, staleness_now=0) is None
    state.cycle_epochs = 3
    assert check_adaptive_trigger(state, vpct=-0.8, staleness_now=0) == "C2"

    # C3 arms only after 20 completed cycles and fires on strict excess
    state = _adaptive_state(AdaptivePolicy(vc_loss=0.0, vc_tomb=99, warmup_cycles=20))

    def commit(staleness: int) -> None:
        state.cycle_epochs = 1
        steps = state.S_c_at_fetch + staleness
        adopt_community(state, CommunityModel(state.anchor, 0, steps))
        state.cycle_epochs = 2

    for s in [4] * 10 + [6] * 9:
        commit(s)
    assert state.c3_threshold is None
    assert check_adaptive_trigger(state, vpct=-9.0, staleness_now=10**9) is None
    commit(6)
    thr = state.c3_threshold
    assert thr == 4.0  # lower-middle of ten 4s and ten 6s
    assert check_adaptive_trigger(state, vpct=-9.0, staleness_now=4) is None
    assert check_adaptive_trigger(state, vpct=-9.0, staleness_now=5) == "C3"
    report(7, "tombstone allowances and frozen-median staleness trigger behave as scripted")


# ---------------------------------------------------------------------------
# 8. Convergence sanity
# ---------------------------------------------------------------------------


def test_criterion_08_convergence_sanity():
    start = time.perf_counter()
    cfg = config_from_dict(
        {
            "name": "acceptance-8",
            "num_learners": 10,
            "dataset": {
                "kind": "blobs",
                "input_dim": 8,
                "num_classes": 4,
                "train_samples_per_class": 1200,
                "test_samples_per_class": 250,
                "spread": 0.45,
            },
            "size_distribution": {"kind": "uniform", "total": 4000},
            "class_assignment": {"kind": "iid"},
            "scheme": "sync_fedavg",
            "trigger": {"kind": "fixed", "uf": 4},
            "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
            "seed": 1990,
            "time_budget": 1e9,
            "max_versions": 50,
        }
    )
    result = run_simulation_detailed(cfg)
    federated = result.log.rows[-1].test_top1

    # centralized oracle: same architecture trained on the pooled train data
    union = result.bank.split.train
    ds, model = cfg.dataset, cfg.model
    spec = ModelSpec(model.kind, ds.input_dim, ds.num_classes, model.hidden_dim, cfg.seed)
    ctrl = FederationController(spec)
    bank = learner_bank(ctrl.current_model(), [union], policy=FixedPolicy(1))
    state = bank.states[0]
    hp = Hyperparameters(eta=0.05, gamma=0.75, batch_size=100)
    ws = Workspace(bank.layout)
    for _ in range(200):
        run_epoch(bank, [0], hp, ws)
    trained = ParameterSet(state.params.copy(), bank.layout)
    centralized = evaluate_test_accuracy(trained, result.bank.split.test)
    elapsed = time.perf_counter() - start
    assert federated >= 0.95 * centralized, (
        f"federated {federated:.4f} below 95% of centralized {centralized:.4f}"
    )
    assert elapsed < 120.0
    report(
        8,
        f"SyncFedAvg reached {federated:.4f} vs centralized {centralized:.4f} "
        f"in 50 rounds ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 9. Trend reproduction
# ---------------------------------------------------------------------------


def _trend_grid_base() -> dict:
    base = get_preset("blobs-powerlaw-noniid")
    base.pop("schemes")
    return base


def test_criterion_09_trend_reproduction(simulated):
    start = time.perf_counter()
    base = _trend_grid_base()
    async_wins = 0
    sync_wins = 0
    for seed in (1990, 1991, 1992):
        finals = {}
        for scheme in ("async_dvw", "async_fedavg", "sync_dvw", "sync_fedavg"):
            cell = dict(base, scheme=scheme, seed=seed)
            if scheme != "async_dvw":
                cell["trigger"] = {"kind": "fixed", "uf": 4}
            log = simulated(config_from_dict(cell))
            finals[scheme] = log.rows[-1].test_top1
        async_wins += finals["async_dvw"] >= finals["async_fedavg"]
        sync_wins += finals["sync_dvw"] >= finals["sync_fedavg"]
    elapsed = time.perf_counter() - start
    assert async_wins == 3, f"AsyncDVW(adaptive) >= AsyncFedAvg in only {async_wins}/3 seeds"
    assert sync_wins >= 2, f"SyncDVW >= SyncFedAvg in only {sync_wins}/3 seeds"
    assert elapsed < 600.0
    report(
        9,
        f"AsyncDVW beat AsyncFedAvg {async_wins}/3, SyncDVW beat SyncFedAvg "
        f"{sync_wins}/3 on power-law non-IID ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 10. Communication accounting
# ---------------------------------------------------------------------------


def test_criterion_10_communication_accounting(simulated):
    base = _trend_grid_base()
    # exact exchange counts on completed runs, N=10
    for scheme, factor in (("async_fedavg", 2), ("fedasync_poly", 2), ("async_dvw", 11)):
        cell = dict(base, scheme=scheme, seed=1990, time_budget=6.0)
        if scheme != "async_dvw":
            cell["trigger"] = {"kind": "fixed", "uf": 4}
        last = simulated(config_from_dict(cell)).rows[-1]
        assert last.models_exchanged_cum == factor * last.update_requests_cum

    sync_last = simulated(
        config_from_dict(
            dict(base, scheme="sync_fedavg", seed=1990, time_budget=6.0,
                 trigger={"kind": "fixed", "uf": 4})
        )
    ).rows[-1]
    assert sync_last.models_exchanged_cum == 2 * sync_last.update_requests_cum

    # adaptive DVW requests never exceed non-adaptive DVW on the same preset
    adaptive = simulated(config_from_dict(dict(base, scheme="async_dvw", seed=1990)))
    nonadaptive = simulated(
        config_from_dict(
            dict(base, scheme="async_dvw", seed=1990, trigger={"kind": "fixed", "uf": 4})
        )
    )
    req_a = adaptive.rows[-1].update_requests_cum
    req_n = nonadaptive.rows[-1].update_requests_cum
    assert req_a <= req_n, f"adaptive issued {req_a} requests vs non-adaptive {req_n}"
    report(
        10,
        f"exchange counters exact (2x / 11x at N=10); adaptive DVW used {req_a} "
        f"requests vs {req_n} non-adaptive",
    )


# ---------------------------------------------------------------------------
# 11. Determinism
# ---------------------------------------------------------------------------


def test_criterion_11_preset_determinism(simulated):
    start = time.perf_counter()
    checked = 0
    for name in preset_names():
        cfg = config_from_dict(get_preset(name))
        cells = (
            [cfg.with_scheme(s) for s in cfg.schemes] if cfg.schemes else [cfg]
        )
        for cell in cells:
            first = simulated(cell).to_csv()  # may be a run another check made
            second = run_simulation_detailed(cell).log.to_csv()  # always a fresh replay
            assert first == second, f"preset {name}/{cell.scheme} replay diverged"
            checked += 1
    elapsed = time.perf_counter() - start
    report(11, f"{checked} preset cells replayed byte-identically ({elapsed:.1f}s)")
