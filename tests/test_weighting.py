import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.nn import ParameterSet, ShapeError, params_allclose
from fedsim.weighting import (
    EvalReport,
    FedAsyncParams,
    dvw_weight,
    fedasync_mix_factor,
    fedasync_poly_mix,
    fedavg_weight,
    micro_f1,
    pool_confusion,
)
from tests.conftest import random_params


def confusion_of(actual, predicted, num_classes):
    """Independent per-sample recount used as the pooling oracle."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for a, p in zip(actual, predicted):
        cm[a, p] += 1
    return cm


# ---------------------------------------------------------------------------
# fedavg_weight
# ---------------------------------------------------------------------------


def test_fedavg_weight_is_train_size():
    assert fedavg_weight(100) == 100.0
    sizes = [598, 212, 115, 75]
    total = sum(fedavg_weight(s) for s in sizes)
    shares = [fedavg_weight(s) / total for s in sizes]
    assert shares == pytest.approx([0.598, 0.212, 0.115, 0.075], abs=1e-12)


def test_fedavg_equal_sizes_equal_shares():
    weights = [fedavg_weight(50) for _ in range(4)]
    assert all(w / sum(weights) == 0.25 for w in weights)


def test_fedavg_weight_rejects_empty():
    with pytest.raises(ValueError):
        fedavg_weight(0)


# ---------------------------------------------------------------------------
# pool_confusion / micro_f1
# ---------------------------------------------------------------------------


def test_pool_single_evaluator_identity():
    cm = np.array([[3, 1], [0, 2]])
    report = EvalReport(((0, cm),))
    assert np.array_equal(pool_confusion(report), cm)


def test_pool_two_diagonals():
    report = EvalReport(((0, np.diag([3, 4])), (1, np.diag([1, 2]))))
    assert np.array_equal(pool_confusion(report), np.diag([4, 6]))


def test_pool_rejects_mismatched_classes():
    with pytest.raises(ShapeError):
        EvalReport(((0, np.zeros((2, 2), dtype=int)), (1, np.zeros((3, 3), dtype=int))))


def test_pool_rejects_duplicate_evaluator():
    cm = np.ones((2, 2), dtype=int)
    with pytest.raises(ValueError):
        EvalReport(((0, cm), (0, cm)))


def test_micro_f1_diagonal_is_one():
    assert micro_f1(np.diag([5, 3, 2])) == 1.0


def test_micro_f1_zero_diagonal_is_zero():
    assert micro_f1(np.array([[0, 3], [4, 0]])) == 0.0


def test_micro_f1_hand_example():
    # [[5,1],[2,4]]: TP=9, FP=3, FN=3 -> 18/24
    assert micro_f1(np.array([[5, 1], [2, 4]])) == 0.75


def test_micro_f1_rejects_empty():
    with pytest.raises(ValueError):
        micro_f1(np.zeros((3, 3), dtype=int))


def test_dvw_weight_hand_pooling():
    report = EvalReport(
        ((0, np.array([[5, 1], [2, 4]])), (1, np.array([[3, 0], [0, 3]])))
    )
    # pooled [[8,1],[2,7]]: TP=15, FP=3, FN=3 -> 30/36
    assert dvw_weight(report) == pytest.approx(30 / 36, abs=0)
    assert dvw_weight(report) == (2 * 15) / (2 * 15 + 3 + 3)


def test_dvw_weight_order_invariant(rng):
    cms = [rng.integers(0, 9, size=(3, 3)) for _ in range(4)]
    fwd = dvw_weight(EvalReport(tuple((i, cm) for i, cm in enumerate(cms))))
    rev = dvw_weight(EvalReport(tuple((i, cm) for i, cm in reversed(list(enumerate(cms))))))
    assert fwd == rev


def test_dvw_weight_perfect_diagonals():
    report = EvalReport(((0, np.diag([4, 4])), (1, np.diag([2, 6]))))
    assert dvw_weight(report) == 1.0


@given(
    arrays(np.int64, (4, 4), elements=st.integers(0, 50)),
)
@settings(max_examples=100, deadline=None)
def test_micro_f1_equals_pooled_accuracy(cm):
    # Single-label identity: every miss is one FP and one FN, so
    # 2TP/(2TP+FP+FN) == TP/total, exactly.
    total = int(cm.sum())
    if total == 0:
        with pytest.raises(ValueError):
            micro_f1(cm)
        return
    tp = int(np.trace(cm))
    assert micro_f1(cm) == tp / total


@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_pooling_matches_concatenated_predictions(seed, n_eval, num_classes):
    # Oracle: concatenate per-sample predictions across evaluators, recount,
    # and score once. Exact equality is required, not approximate.
    rng = np.random.default_rng(seed)
    entries = []
    all_actual, all_pred = [], []
    for lid in range(n_eval):
        n = int(rng.integers(1, 25))
        actual = rng.integers(0, num_classes, size=n)
        pred = rng.integers(0, num_classes, size=n)
        entries.append((lid, confusion_of(actual, pred, num_classes)))
        all_actual.extend(actual.tolist())
        all_pred.extend(pred.tolist())
    report = EvalReport(tuple(entries))
    oracle_cm = confusion_of(all_actual, all_pred, num_classes)
    assert np.array_equal(pool_confusion(report), oracle_cm)
    assert dvw_weight(report) == micro_f1(oracle_cm)


# ---------------------------------------------------------------------------
# fedasync_poly_mix
# ---------------------------------------------------------------------------


def test_mix_zero_staleness_is_midpoint(rng):
    w_c = random_params("softmax-regression", rng)
    w_k = random_params("softmax-regression", rng)
    mixed = fedasync_poly_mix(w_c, w_k, 0, FedAsyncParams(alpha=0.5, a=0.5))
    midpoint = ParameterSet(
        (n, 0.5 * (a + b)) for (n, a), (_, b) in zip(w_c, w_k)
    )
    assert params_allclose(mixed, midpoint, rtol=0, atol=1e-15)


def test_mix_factor_hand_value():
    assert fedasync_mix_factor(3, FedAsyncParams(alpha=0.5, a=0.5)) == pytest.approx(0.25, abs=1e-15)


def test_mix_factor_vanishes_with_staleness():
    params = FedAsyncParams(alpha=0.5, a=0.5)
    factors = [fedasync_mix_factor(s, params) for s in (0, 10, 1000, 10**6)]
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert factors[-1] < 1e-3


def test_mix_is_entrywise_convex(rng):
    w_c = random_params("softmax-regression", rng)
    w_k = random_params("softmax-regression", rng)
    for s in (0, 1, 5, 40):
        mixed = fedasync_poly_mix(w_c, w_k, s, FedAsyncParams())
        for m, a, b in zip(mixed.arrays, w_c.arrays, w_k.arrays):
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            assert np.all(m >= lo - 1e-12)
            assert np.all(m <= hi + 1e-12)


def test_mix_rejects_negative_staleness(rng):
    w = random_params("softmax-regression", rng)
    with pytest.raises(ValueError):
        fedasync_poly_mix(w, w, -1, FedAsyncParams())
