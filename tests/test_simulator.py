import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fedsim import controller as controller_mod
from fedsim import nn as nn_mod
from fedsim import simulator as simulator_mod
from fedsim import weighting as weighting_mod
from fedsim.config import config_from_dict, get_preset
from fedsim.data import generate_blobs
from fedsim.learner import AdaptivePolicy, FixedPolicy, run_epoch
from fedsim.nn import ModelSpec, ShapeError, init_parameters, predict
from fedsim.simulator import (
    MetricsLog,
    MetricsRow,
    _Simulation,
    build_federation,
    evaluate_test_accuracy,
    run_simulation_detailed,
)
from tests.conftest import counting_side_by_side_epochs, literal_model, pinned_cpus
from tests.test_data import write_idx_images, write_idx_labels


def blob_config(**overrides):
    base = {
        "name": "sim-test",
        "num_learners": 4,
        "dataset": {
            "kind": "blobs",
            "input_dim": 4,
            "num_classes": 3,
            "train_samples_per_class": 200,
            "test_samples_per_class": 50,
            "spread": 0.4,
        },
        "size_distribution": {"kind": "uniform", "total": 400},
        "scheme": "sync_fedavg",
        "trigger": {"kind": "fixed", "uf": 2},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 50},
        "time_budget": 6.0,
        "seed": 1990,
    }
    base.update(overrides)
    return config_from_dict(base)


HETERO_PROFILES = {
    "num_fast": 2,
    "fast": {"steps_per_second": 100.0, "eval_samples_per_second": 2000.0},
    "slow": {"steps_per_second": 20.0, "eval_samples_per_second": 400.0},
}


def groups_of(cfg) -> dict[int, str]:
    """Each learner's speed group, from the config."""
    return {k: profile.group for k, profile in enumerate(cfg.speed_profiles)}


# ---------------------------------------------------------------------------
# evaluate_test_accuracy
# ---------------------------------------------------------------------------


def test_accuracy_bounds_and_crosscheck(rng):
    test = generate_blobs(4, 3, 40, 0.4, seed=3)
    params = init_parameters(ModelSpec("softmax-regression", 4, 3, init_seed=7))
    acc = evaluate_test_accuracy(params, test)
    hits = sum(int(predict(params, x[None])[0] == y) for x, y in zip(test.features, test.labels))
    assert acc == hits / test.n
    assert 0.0 <= acc <= 1.0


def test_constant_predictor_accuracy_is_one_over_c():
    # zero model predicts class 0 everywhere; blobs are balanced
    test = generate_blobs(4, 4, 25, 0.0, seed=3)
    params = literal_model(np.zeros((4, 4)), np.zeros((1, 4)))
    assert evaluate_test_accuracy(params, test) == 0.25


# ---------------------------------------------------------------------------
# DVW scoring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["sync_dvw", "async_dvw"])
@pytest.mark.parametrize("num_learners, seed", [(1, 1990), (3, 7), (5, 2008)])
@pytest.mark.parametrize(
    "model", [{"kind": "softmax-regression"}, {"kind": "mlp-1hidden", "hidden_dim": 8}]
)
def test_dvw_weight_is_micro_f1_over_every_slice(scheme, num_learners, seed, model):
    cfg = blob_config(
        scheme=scheme,
        num_learners=num_learners,
        seed=seed,
        model=model,
        class_assignment={"kind": "noniid", "classes_per_learner": 2},
    )
    sim = _Simulation(cfg)
    num_classes = sim.bank.layout.entries[-1][2]
    bank, val = sim.bank, sim.bank.split.validation
    for learner_id in range(num_learners):
        run_epoch(bank, [learner_id], sim.cfg.hyperparameters, sim.workspace)
        req = sim._update_request(learner_id)
        # One confusion matrix per learner, counted sample by sample; the
        # committing learner's own slice is one of them, once.
        cms = []
        for a, n in zip(bank.val_start.tolist(), bank.val_n.tolist()):
            cm = np.zeros((num_classes, num_classes), dtype=np.int64)
            for x, y in zip(val.features[a : a + n], val.labels[a : a + n]):
                cm[y, predict(req.params, x[None])[0]] += 1
            cms.append(cm)
        pooled = sum(cms)
        tp = int(np.trace(pooled))
        fp = int((pooled.sum(axis=0) - np.diag(pooled)).sum())
        fn = int((pooled.sum(axis=1) - np.diag(pooled)).sum())
        assert sim._weight(req) == (2 * tp) / (2 * tp + fp + fn)
        assert val.n == sum(bank.val_n)


@pytest.mark.parametrize(
    "eval_rates, sizes",
    [
        ([2000.0], "uniform"),
        ([400.0, 2000.0], "uniform"),
        ([400.0, 400.0], "uniform"),  # tied
        ([400.0, 2000.0, 400.0, 1000.0, 400.0], "uniform"),  # three tied at the top
        ([2000.0, 1000.0, 400.0, 800.0, 1500.0], "powerlaw"),  # validation sizes differ
        ([400.0, 400.0, 2000.0, 2000.0, 400.0], "powerlaw"),
    ],
)
def test_eval_fanout_duration_is_the_slowest_other_evaluator(eval_rates, sizes):
    profiles = [
        {"group": "slow", "steps_per_second": 20.0, "eval_samples_per_second": rate}
        for rate in eval_rates
    ]
    cfg = blob_config(
        scheme="async_dvw",
        num_learners=len(eval_rates),
        speed_profiles=profiles,
        size_distribution={"kind": sizes, "total": 400},
        trigger={"kind": "adaptive"},
    )
    sim = _Simulation(cfg)
    val_n = sim.bank.val_n.tolist()
    for committing in range(len(val_n)):
        brute = max(
            (
                n / profile.eval_samples_per_second
                for k, (n, profile) in enumerate(zip(val_n, cfg.speed_profiles))
                if k != committing
            ),
            default=0.0,
        )
        assert sim.fanout_durations[committing] == brute


@pytest.mark.parametrize("scheme", ["sync_fedavg", "async_fedavg", "sync_dvw", "async_dvw"])
def test_p_k_is_the_commits_contribution_value(scheme):
    cfg = blob_config(
        scheme=scheme,
        speed_profiles=HETERO_PROFILES,
        size_distribution={"kind": "powerlaw", "total": 400},
    )
    res = run_simulation_detailed(cfg)
    train_sizes = res.bank.train_n.tolist()
    assert len(set(train_sizes)) > 1
    commits = [row for row in res.log if row.version >= 1]
    assert commits
    for row in commits:
        if scheme == "async_fedavg":
            assert row.p_k == train_sizes[row.committing_learner]
        elif scheme == "sync_fedavg":
            assert row.p_k == sum(train_sizes)
        elif scheme == "async_dvw":
            assert 0.0 <= row.p_k <= 1.0
        else:
            assert 0.0 <= row.p_k <= len(train_sizes)


def test_learner_sets_are_views_of_the_bank_pools(monkeypatch):
    scored = []
    weight = simulator_mod.dvw_weight

    def recording(params, validation):
        scored.append(validation)
        return weight(params, validation)

    monkeypatch.setattr(simulator_mod, "dvw_weight", recording)
    for scheme in ("sync_fedavg", "async_fedavg", "fedasync_poly", "sync_dvw", "async_dvw"):
        cfg = blob_config(scheme=scheme, size_distribution={"kind": "powerlaw", "total": 400})
        sim = _Simulation(cfg)
        bank = sim.bank
        split = bank.split
        # The bank's offsets tile both pools in id order, at the split's sizes.
        assert split.learner_sizes == tuple(zip(bank.train_n.tolist(), bank.val_n.tolist()))
        for pool, start, n in (
            (split.train, bank.train_start, bank.train_n),
            (split.validation, bank.val_start, bank.val_n),
        ):
            assert (n >= 1).all()
            assert start[0] == 0 and np.array_equal(start[1:], (start + n)[:-1])
            assert start[-1] + n[-1] == pool.n
        # Each learner trains in place on its row of the bank.
        for row, state in enumerate(bank.states):
            assert np.shares_memory(state.params, bank.params[row])
            assert np.shares_memory(state.momentum, bank.momentum[row])
        scored.clear()
        sim.run()
        # DVW scores every commit on the pooled validation set itself.
        assert bool(scored) == (scheme in ("sync_dvw", "async_dvw"))
        assert all(data is split.validation for data in scored)


# ---------------------------------------------------------------------------
# determinism and log structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme,trigger",
    [
        ("sync_fedavg", {"kind": "fixed", "uf": 2}),
        ("async_fedavg", {"kind": "fixed", "uf": 2}),
        ("sync_dvw", {"kind": "fixed", "uf": 2}),
        ("async_dvw", {"kind": "fixed", "uf": 2}),
        ("fedasync_poly", {"kind": "fixed", "uf": 2}),
        (
            "async_dvw",
            {"kind": "adaptive", "vc_loss": 0.5, "vc_tomb": 1, "warmup_cycles": 5},
        ),
    ],
)
def test_replay_is_bit_identical(scheme, trigger):
    cfg = blob_config(scheme=scheme, trigger=trigger, time_budget=3.0)
    a = run_simulation_detailed(cfg).log
    b = run_simulation_detailed(cfg).log
    assert a.to_csv() == b.to_csv()


def test_each_commit_logs_the_cause_of_its_own_trigger(monkeypatch):
    # Fast and slow adaptive learners: one learner's DVW fan-out is still
    # running when another's trigger fires for a different cause.
    cfg = blob_config(
        scheme="async_dvw",
        speed_profiles=HETERO_PROFILES,
        trigger={
            "kind": "adaptive",
            "vc_loss": {"fast": 0.0, "slow": 1.0},
            "vc_tomb": {"fast": 2, "slow": 0},
            "warmup_cycles": 3,
            "max_epochs_per_cycle": 6,
        },
        time_budget=6.0,
    )
    sim = _Simulation(cfg)
    fired = []

    def recording(cause_of):
        def cause_recorded(policy, state, loss, staleness_now):
            cause = cause_of(policy, state, loss, staleness_now)
            if cause is not None:
                fired.append((sim.clock, state.id, cause))
            return cause

        return cause_recorded

    for policy_class in (FixedPolicy, AdaptivePolicy):
        monkeypatch.setattr(policy_class, "cause", recording(policy_class.cause))
    commits = [row for row in sim.run().log if row.version >= 1]
    fan_outs = []
    for k in range(cfg.num_learners):
        firings = [(t, cause) for t, lid, cause in fired if lid == k]
        rows = [row for row in commits if row.committing_learner == k]
        # At most the last firing is still waiting when the budget ends.
        assert len(firings) - len(rows) in (0, 1)
        assert [row.cause for row in rows] == [cause for _, cause in firings[: len(rows)]]
        fan_outs += [(t, row.virtual_time, k, cause) for (t, cause), row in zip(firings, rows)]
    assert any(
        a[2] != b[2] and a[3] != b[3] and a[0] < b[0] < a[1] for a in fan_outs for b in fan_outs
    )


def test_log_starts_with_initial_model_row():
    log = run_simulation_detailed(blob_config(time_budget=2.0)).log
    first = log.rows[0]
    assert first.version == 0
    assert first.virtual_time == 0.0
    assert first.cause == "init"


def test_counters_and_time_monotone():
    cfg = blob_config(scheme="async_fedavg", speed_profiles=HETERO_PROFILES)
    log = run_simulation_detailed(cfg).log
    rows = log.rows
    for a, b in zip(rows, rows[1:]):
        assert b.virtual_time >= a.virtual_time
        assert b.models_exchanged_cum >= a.models_exchanged_cum
        assert b.update_requests_cum >= a.update_requests_cum
        assert b.version == a.version + 1


def test_async_requests_equal_commit_rows():
    cfg = blob_config(scheme="async_fedavg", time_budget=4.0)
    log = run_simulation_detailed(cfg).log
    commits = [r for r in log if r.version >= 1]
    assert log.rows[-1].update_requests_cum == len(commits)


def test_exchange_accounting_non_dvw():
    for scheme in ("async_fedavg", "fedasync_poly"):
        log = run_simulation_detailed(blob_config(scheme=scheme, time_budget=3.0)).log
        last = log.rows[-1]
        assert last.models_exchanged_cum == 2 * last.update_requests_cum


def test_exchange_accounting_dvw_n_plus_one():
    # N=4: one upload + 3 evaluator ships + one pull = 5 per request
    log = run_simulation_detailed(blob_config(scheme="async_dvw", time_budget=3.0)).log
    last = log.rows[-1]
    assert last.models_exchanged_cum == 5 * last.update_requests_cum


def test_sync_round_requests_count_all_learners():
    log = run_simulation_detailed(blob_config(max_versions=5)).log
    last = log.rows[-1]
    assert last.version == 5
    assert last.update_requests_cum == 5 * 4
    assert last.models_exchanged_cum == 2 * last.update_requests_cum


def test_max_versions_stops_run():
    cfg = blob_config(scheme="async_fedavg", max_versions=7, time_budget=100.0)
    log = run_simulation_detailed(cfg).log
    assert log.rows[-1].version == 7


def test_time_budget_stops_run():
    cfg = blob_config(scheme="async_fedavg", time_budget=1.5)
    log = run_simulation_detailed(cfg).log
    assert all(r.virtual_time <= 1.5 for r in log)


# ---------------------------------------------------------------------------
# lockstep and rate behavior
# ---------------------------------------------------------------------------


def test_sync_lockstep_commit_times_are_round_multiples():
    cfg = blob_config(max_versions=6)
    res = run_simulation_detailed(cfg)
    # uniform 100-sample learners at batch 50 -> 2 steps/epoch, uf=2,
    # 100 steps/s -> round duration 0.04 virtual seconds
    times = [r.virtual_time for r in res.log if r.version >= 1]
    expected = [round(0.04 * k, 10) for k in range(1, 7)]
    assert [round(t, 10) for t in times] == expected


def test_fast_learners_commit_proportionally_more():
    cfg = blob_config(
        scheme="async_fedavg",
        speed_profiles=HETERO_PROFILES,
        time_budget=20.0,
    )
    log = run_simulation_detailed(cfg).log
    per_learner = {}
    for row in log:
        if row.committing_learner >= 0:
            per_learner[row.committing_learner] = per_learner.get(row.committing_learner, 0) + 1
    fast = per_learner.get(0, 0) + per_learner.get(1, 0)
    slow = per_learner.get(2, 0) + per_learner.get(3, 0)
    # 5x rate ratio with equal data sizes -> roughly 5x the commits
    assert fast > 3.5 * slow
    assert slow > 0


def test_single_learner_staleness_equals_own_steps():
    cfg = blob_config(
        num_learners=1,
        scheme="async_fedavg",
        size_distribution={"kind": "uniform", "total": 100},
        trigger={"kind": "fixed", "uf": 2},
        time_budget=5.0,
        max_versions=20,
    )
    res = run_simulation_detailed(cfg)
    # 100 samples -> 95 train at batch 50 -> 2 steps/epoch, uf=2 -> 4 steps/cycle
    for row in res.log:
        if row.committing_learner >= 0:
            assert row.staleness == 4


def test_mlp_model_runs_end_to_end():
    cfg = blob_config(
        model={"kind": "mlp-1hidden", "hidden_dim": 12},
        scheme="async_dvw",
        time_budget=2.0,
    )
    log = run_simulation_detailed(cfg).log
    assert len(log) > 1
    assert all(0.0 <= r.test_top1 <= 1.0 for r in log)


def test_idx_federation_builds_no_float64_copy_of_the_source(tmp_path):
    # 2,000 MNIST-shaped training images and a 784-16-10 MLP. The pools are
    # gathered from the uint8 pixels and stay uint8, so set-up holds no
    # float64 copy of the training file or of any pool. A float64 training
    # pool (1,900 rows, 11.9 MB) would break the bound on its own.
    rng = np.random.default_rng(11)
    files = {}
    for part, n in (("train", 2000), ("test", 300)):
        files[f"{part}_images"] = str(tmp_path / f"{part}-images.idx")
        files[f"{part}_labels"] = str(tmp_path / f"{part}-labels.idx")
        write_idx_images(files[f"{part}_images"], rng.integers(0, 256, (n, 28, 28)))
        write_idx_labels(files[f"{part}_labels"], np.arange(n) % 10)
    cfg = blob_config(
        num_learners=10,
        dataset={"kind": "idx", "num_classes": 10, **files},
        model={"kind": "mlp-1hidden", "hidden_dim": 16},
        size_distribution={"kind": "uniform"},
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, split, _, bank, _ = build_federation(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    sets = (split.train, split.validation, split.test)
    assert [d.rows.dtype for d in sets] == [np.uint8] * 3
    held = sum(d.rows.nbytes + d.labels.nbytes for d in sets)
    held += bank.params.nbytes + bank.momentum.nbytes
    source_float64 = 2000 * 28 * 28 * 8
    assert split.train.n + split.validation.n == 2000
    assert peak < held + source_float64 // 2, (peak, held)


def test_fixed_policy_cycles_have_exact_uf_epochs():
    cfg = blob_config(scheme="async_fedavg", trigger={"kind": "fixed", "uf": 3}, time_budget=4.0)
    res = run_simulation_detailed(cfg)
    for state in res.learners:
        commits = sum(row.committing_learner == state.id for row in res.log)
        assert commits, "every learner should have completed cycles"
        assert state.epochs_total == 3 * commits + state.cycle_epochs
        assert state.cycle_epochs < 3


def record_validation_losses(monkeypatch) -> list[list[float]]:
    """Wrap the simulator's validation-loss call; the returned list collects
    what each call returns."""
    calls = []
    score = simulator_mod.local_validation_loss

    def recording(bank, rows, workspace):
        calls.append(score(bank, rows, workspace))
        return calls[-1]

    monkeypatch.setattr(simulator_mod, "local_validation_loss", recording)
    return calls


@pytest.mark.parametrize("scheme", ["sync_fedavg", "sync_dvw", "async_fedavg", "fedasync_poly"])
def test_fixed_policy_runs_compute_no_validation_loss(monkeypatch, scheme):
    calls = record_validation_losses(monkeypatch)
    res = run_simulation_detailed(blob_config(scheme=scheme, time_budget=3.0))
    assert len(res.log) > 1
    assert calls == []


def test_adaptive_run_scores_each_epoch_once_and_keeps_warmup_samples(monkeypatch):
    calls = record_validation_losses(monkeypatch)
    trigger = {"kind": "adaptive", "vc_loss": 0.5, "vc_tomb": 1, "warmup_cycles": 3}
    cfg = blob_config(scheme="async_dvw", trigger=trigger, speed_profiles=HETERO_PROFILES)
    res = run_simulation_detailed(cfg)
    assert all(isinstance(state.policy, AdaptivePolicy) for state in res.learners)
    assert sum(map(len, calls)) == sum(state.epochs_total for state in res.learners)
    for state in res.learners:
        assert sum(row.committing_learner == state.id for row in res.log) > 3
        assert len(state.warmup_staleness) == 3
        assert state.c3_threshold is not None


def test_fedasync_mix_factor_runs_once_per_commit(monkeypatch):
    # Each commit's alpha_t is computed once, logged as p_k and handed to the
    # controller, which mixes at it.
    factors, mixed_at = [], []
    factor, mix = weighting_mod.fedasync_mix_factor, controller_mod.fedasync_poly_mix

    def counting(staleness, params):
        factors.append(factor(staleness, params))
        return factors[-1]

    def recording(w_c, w_k, alpha_t):
        mixed_at.append(alpha_t)
        return mix(w_c, w_k, alpha_t)

    for module in (simulator_mod, weighting_mod):
        monkeypatch.setattr(module, "fedasync_mix_factor", counting)
    monkeypatch.setattr(controller_mod, "fedasync_poly_mix", recording)
    res = run_simulation_detailed(blob_config(scheme="fedasync_poly"))
    commits = res.log.rows[1:]
    assert len(commits) > 4
    assert factors == mixed_at == [row.p_k for row in commits]


@pytest.mark.parametrize("scheme", ["sync_dvw", "async_dvw"])
def test_federation_checks_each_dataset_once(monkeypatch, scheme):
    checked = []
    check = nn_mod.check_dataset

    def counting(layout, data):
        checked.append(data)
        check(layout, data)

    # Also nn's own name, so that predict, which dvw_weight and every test
    # evaluation call, would be counted if it checked its input.
    monkeypatch.setattr(simulator_mod, "check_dataset", counting)
    monkeypatch.setattr(nn_mod, "check_dataset", counting)
    calls = record_validation_losses(monkeypatch)
    trigger = {"kind": "adaptive"} if scheme == "async_dvw" else {"kind": "fixed", "uf": 2}
    res = run_simulation_detailed(blob_config(scheme=scheme, trigger=trigger))
    assert sum(state.epochs_total for state in res.learners) > 4 * len(res.learners)
    assert bool(calls) == (scheme == "async_dvw")
    assert len(res.log) > 2  # commits, each scored (DVW) and tested
    # The two pools, which hold every learner's slices, and the test set,
    # checked when the federation is built and never again: 3 checks.
    sets = [res.bank.split.train, res.bank.split.validation, res.bank.split.test]
    assert len(checked) == 3
    assert all(a is b for a, b in zip(checked, sets))


# ---------------------------------------------------------------------------
# staleness, read from the commit log
# ---------------------------------------------------------------------------


def staleness_by_learner(log: MetricsLog) -> dict[int, list[int]]:
    """Each committing learner's staleness values, in commit order."""
    per_learner: dict[int, list[int]] = {}
    for row in log:
        if row.committing_learner >= 0:
            per_learner.setdefault(row.committing_learner, []).append(row.staleness)
    return per_learner


def test_every_learner_and_group_commits_at_nonnegative_staleness():
    cfg = blob_config(
        scheme="async_fedavg", speed_profiles=HETERO_PROFILES, time_budget=20.0
    )
    per_learner = staleness_by_learner(run_simulation_detailed(cfg).log)
    assert sorted(per_learner) == list(range(cfg.num_learners))
    groups = groups_of(cfg)
    assert {groups[k] for k in per_learner} == {"fast", "slow"}
    assert all(s >= 0 for values in per_learner.values() for s in values)


def test_homogeneous_learners_commit_at_similar_staleness():
    profiles = {
        "num_fast": 4,
        "fast": {"steps_per_second": 100.0, "eval_samples_per_second": 2000.0},
    }
    cfg = blob_config(scheme="async_fedavg", speed_profiles=profiles, time_budget=20.0)
    per_learner = staleness_by_learner(run_simulation_detailed(cfg).log)
    # Each learner's lower-middle median.
    medians = [sorted(values)[(len(values) - 1) // 2] for values in per_learner.values()]
    assert max(medians) <= 1.2 * max(min(medians), 1)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    log = run_simulation_detailed(blob_config(time_budget=2.0)).log
    path = tmp_path / "metrics.csv"
    log.write_csv(path)
    loaded = MetricsLog.from_csv(path)
    assert loaded.to_csv() == log.to_csv()
    assert [r for r in loaded] == [r for r in log]


def test_log_cutoff_helpers():
    rows = [
        MetricsRow(0.0, 0, "s", 0.3, -1, 0.0, 0, "init", 0, 0),
        MetricsRow(1.0, 1, "s", 0.5, 0, 1.0, 0, "fixed", 2, 1),
        MetricsRow(2.0, 2, "s", 0.7, 1, 1.0, 0, "fixed", 4, 2),
    ]
    log = MetricsLog()
    for row in rows:
        log.append(row)
    assert log.last_at_or_before("virtual_time", 0.5).test_top1 == 0.3
    assert log.last_at_or_before("virtual_time", 1.5).test_top1 == 0.5
    assert log.last_at_or_before("virtual_time", 9.0).test_top1 == 0.7
    assert log.last_at_or_before("version", 1).test_top1 == 0.5
    assert log.last_at_or_before("virtual_time", math.inf).test_top1 == 0.7
    assert log.last_at_or_before("virtual_time", -math.inf) is None
    assert log.last_at_or_before("version", -1) is None
    # a row may not go back in virtual_time or in version, nor have a NaN time
    for back in (
        replace(rows[2], virtual_time=1.5, version=3),
        replace(rows[2], version=1),
        replace(rows[2], virtual_time=math.nan, version=3),
    ):
        with pytest.raises(ValueError, match="goes back"):
            log.append(back)
    assert len(log) == 3
    # nor may update_requests_cum go back, nor a request exchange fewer than
    # 2 models; both counters count from 0 before the first row
    later = replace(rows[2], virtual_time=3.0, version=3)
    for bad in (
        replace(later, update_requests_cum=1),
        replace(later, models_exchanged_cum=5, update_requests_cum=3),
    ):
        with pytest.raises(ValueError, match="fewer than 2 models per request"):
            log.append(bad)
    with pytest.raises(ValueError, match="fewer than 2 models per request"):
        MetricsLog().append(replace(rows[0], models_exchanged_cum=6, update_requests_cum=6))
    log.append(replace(later, models_exchanged_cum=6, update_requests_cum=3))
    assert len(log) == 4
    # test_top1 is an accuracy: 0 and 1 are its bounds, and NaN is none
    for top1 in (7.5, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"is not an accuracy in \[0, 1\]"):
            log.append(replace(log.rows[-1], test_top1=top1))
    for top1 in (0.0, 1.0):
        log.append(replace(log.rows[-1], test_top1=top1))
    assert [row.test_top1 for row in log.rows[3:]] == [0.7, 0.0, 1.0]


def test_zero_validation_loss_does_not_abort_the_run(monkeypatch):
    # At eta=50 a 2-class non-IID learner fits its validation slice and its
    # loss underflows to 0.0; the run used to abort in compute_vpct.
    raw = get_preset("blobs-powerlaw-noniid")
    raw.update(schemes=None, scheme="async_dvw")
    raw["hyperparameters"]["eta"] = 50.0
    calls = record_validation_losses(monkeypatch)
    result = run_simulation_detailed(config_from_dict(raw))
    assert any(0.0 in losses for losses in calls)
    assert len(result.log) > 1


# ---------------------------------------------------------------------------
# models too large to stack, trained on worker threads
# ---------------------------------------------------------------------------


def unstackable_config(**overrides):
    """A run (sync_fedavg unless overridden) of a 64-256-3 MLP, larger than
    the cohort scratch cap, over learners of mixed sizes unless overridden."""
    dataset = {
        "kind": "blobs",
        "input_dim": 64,
        "num_classes": 3,
        "train_samples_per_class": 60,
        "test_samples_per_class": 20,
        "spread": 0.4,
    }
    sizes = {"kind": "powerlaw", "total": 150}
    overrides = {"size_distribution": sizes, "max_versions": 3, **overrides}
    model = {"kind": "mlp-1hidden", "hidden_dim": 256}
    return blob_config(dataset=dataset, model=model, **overrides)


@pytest.mark.parametrize(
    "model",
    [{"kind": "softmax-regression"}, {"kind": "mlp-1hidden", "hidden_dim": 5}],
    ids=["softmax", "mlp"],
)
def test_a_learner_is_its_bank_row_and_a_request_copies_it(model):
    sim = _Simulation(blob_config(model=model))
    bank = sim.bank
    for k, state in enumerate(bank.states):
        assert np.shares_memory(state.params, bank.params[k])
        assert np.shares_memory(state.momentum, bank.momentum[k])
        assert len(state.arrays) == len(bank.layout.entries)
        for view, (_, rows, cols) in zip(state.arrays, bank.layout.entries):
            assert view.shape == (rows, cols)
            assert np.shares_memory(view, bank.params[k])
    run_epoch(bank, range(len(bank.states)), sim.cfg.hyperparameters, sim.workspace)
    for k in range(len(bank.states)):
        req = sim._update_request(k)
        assert req.params.layout == bank.layout
        assert np.array_equal(req.params.flat, bank.params[k])
        assert not np.shares_memory(req.params.flat, bank.params)
        assert not req.params.flat.flags.writeable
        with pytest.raises(ValueError):
            req.params.arrays[0][0, 0] = 1.0
        before = req.params.flat.copy()
        bank.params[k] += 1.0
        assert np.array_equal(req.params.flat, before)


UNIFORM = {"size_distribution": {"kind": "uniform", "total": 160}, "max_versions": 16}


@pytest.mark.parametrize(
    "scheme, overrides",
    [
        pytest.param("sync_fedavg", {}, id="sync_fedavg-powerlaw"),
        pytest.param("sync_fedavg", UNIFORM, id="sync_fedavg-uniform"),
        pytest.param("async_dvw", UNIFORM, id="async_dvw-uniform"),
        pytest.param("fedasync_poly", UNIFORM, id="fedasync_poly-uniform"),
    ],
)
def test_unstackable_run_writes_the_same_csv_on_one_and_two_workers(scheme, overrides):
    # Async learners of one speed and equal sizes end their epochs together.
    cfg = unstackable_config(scheme=scheme, **overrides)
    csvs, maps = [], []
    for cpus in (1, 2):
        with pinned_cpus(cpus), counting_side_by_side_epochs() as spy:
            csvs.append(run_simulation_detailed(cfg).log.to_csv())
        maps.append(spy.call_count)
    assert maps[0] == 0 and maps[1] > 0
    assert csvs[0] == csvs[1]


def poison(state, hp, step):
    """Set the learner's last output bias and its momentum so that, at
    ``hp.proximal_mu`` 0, the bias first overflows at ``step`` of its
    training. From u = -F (the largest float), the bias follows
    u <- gamma*u, b <- b - eta*u; at that scale the data gradient rounds
    away. The bias starts half of step ``step``'s rise below F."""
    big = np.finfo(np.float64).max
    rise = hp.eta * sum(hp.gamma**i for i in range(1, step))
    state.params[-1] = (1.0 - rise - hp.eta * hp.gamma**step / 2) * big
    state.momentum[-1] = -big


@pytest.mark.parametrize("unstackable, cpus", [(False, 1), (True, 2)])
def test_sync_round_reports_the_earliest_diverging_epoch_first(unstackable, cpus):
    # Learner 0 overflows at the first step of its second epoch, learner 1
    # at the first step of its first. Each epoch of the round trains every
    # learner, so learner 1 is named, although learner 0 has the lower id.
    cfg = unstackable_config() if unstackable else blob_config()
    with pinned_cpus(cpus):
        sim = _Simulation(cfg)
        first, second = sim.bank.states[:2]
        steps = math.ceil(sim.bank.train_n[0] / cfg.hyperparameters.batch_size)
        poison(first, cfg.hyperparameters, steps + 1)
        poison(second, cfg.hyperparameters, 1)
        with np.errstate(all="ignore"), pytest.raises(ShapeError) as raised:
            sim.run()
    assert str(raised.value) == "learner 1: parameters became non-finite at step 1 of epoch 0"


def test_runs_leave_no_worker_thread_behind():
    threads = threading.active_count()
    with pinned_cpus(2), counting_side_by_side_epochs() as spy:
        run_simulation_detailed(unstackable_config()).log
        assert spy.call_count > 0
        assert threading.active_count() == threads
        sim = _Simulation(unstackable_config())
        poison(sim.bank.states[1], sim.cfg.hyperparameters, 1)
        calls = spy.call_count
        with np.errstate(all="ignore"), pytest.raises(ShapeError):
            sim.run()
        assert spy.call_count == calls + 1
    assert threading.active_count() == threads
