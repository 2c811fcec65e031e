import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.nn import ParameterSet, ShapeError, check_dataset
from fedsim.weighting import (
    FedAsyncParams,
    dvw_weight,
    fedasync_mix_factor,
    fedasync_poly_mix,
    fedavg_weight,
)
from tests.conftest import identity_model, one_hot_dataset, params_allclose, random_params


def confusion_of(actual, predicted, num_classes):
    """Independent per-sample recount used as the pooling oracle."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for a, p in zip(actual, predicted):
        cm[a, p] += 1
    return cm


def micro_f1_of(cm):
    """2TP / (2TP + FP + FN) of a confusion matrix (rows actual)."""
    tp = int(np.trace(cm))
    fp = int((cm.sum(axis=0) - np.diag(cm)).sum())
    fn = int((cm.sum(axis=1) - np.diag(cm)).sum())
    return (2 * tp) / (2 * tp + fp + fn)


def scored(*cms):
    """dvw_weight of the one-hot identity model on the samples that realize
    each confusion matrix, pooled in order."""
    actual, predicted = [], []
    for cm in cms:
        for (a, p), count in np.ndenumerate(np.asarray(cm)):
            actual += [a] * int(count)
            predicted += [p] * int(count)
    num_classes = np.asarray(cms[0]).shape[0]
    return dvw_weight(identity_model(num_classes), one_hot_dataset(actual, predicted, num_classes))


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
# dvw_weight: pooled-validation accuracy, equal to micro-F1
# ---------------------------------------------------------------------------


def test_pool_single_evaluator_identity():
    # One slice: its own accuracy, 5 hits out of 6.
    assert scored(np.array([[3, 1], [0, 2]])) == 5 / 6


def test_pool_rejects_mismatched_classes():
    # dvw_weight trusts its pool: a federation checks every validation slice
    # against the model once, when it is built.
    data = one_hot_dataset([0, 1], [0, 1], 2)
    model = random_params("softmax-regression", np.random.default_rng(0), 2, 3)
    with pytest.raises(ShapeError, match="model predicts 3 classes, dataset declares 2"):
        check_dataset(model.layout, data)


def test_micro_f1_diagonal_is_one():
    assert scored(np.diag([5, 3, 2])) == 1.0


def test_micro_f1_zero_diagonal_is_zero():
    assert scored(np.array([[0, 3], [4, 0]])) == 0.0


def test_micro_f1_hand_example():
    # [[5,1],[2,4]]: TP=9, FP=3, FN=3 -> 18/24
    assert scored(np.array([[5, 1], [2, 4]])) == 0.75


def test_micro_f1_rejects_empty():
    # An empty validation set cannot be built, so the score is always defined.
    with pytest.raises(ValueError, match="at least one sample"):
        dvw_weight(identity_model(3), one_hot_dataset([], [], 3))


def test_dvw_weight_hand_pooling():
    # pooled [[8,1],[2,7]]: TP=15, FP=3, FN=3 -> 30/36
    got = scored(np.array([[5, 1], [2, 4]]), np.array([[3, 0], [0, 3]]))
    assert got == pytest.approx(30 / 36, abs=0)
    assert got == (2 * 15) / (2 * 15 + 3 + 3)


def test_dvw_weight_order_invariant(rng):
    cms = [rng.integers(0, 9, size=(3, 3)) for _ in range(4)]
    assert scored(*cms) == scored(*reversed(cms))


def test_dvw_weight_perfect_diagonals():
    assert scored(np.diag([4, 4]), np.diag([2, 6])) == 1.0


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
            scored(cm)
        return
    tp = int(np.trace(cm))
    assert scored(cm) == tp / total
    assert scored(cm) == micro_f1_of(cm)


@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_pooling_matches_concatenated_predictions(seed, n_eval, num_classes):
    # Oracle: concatenate per-sample predictions across evaluators, recount,
    # and score once. Exact equality is required, not approximate.
    rng = np.random.default_rng(seed)
    cms = []
    all_actual, all_pred = [], []
    for _ in range(n_eval):
        n = int(rng.integers(1, 25))
        actual = rng.integers(0, num_classes, size=n)
        pred = rng.integers(0, num_classes, size=n)
        cms.append(confusion_of(actual, pred, num_classes))
        all_actual.extend(actual.tolist())
        all_pred.extend(pred.tolist())
    oracle_cm = confusion_of(all_actual, all_pred, num_classes)
    assert scored(*cms) == micro_f1_of(oracle_cm)
    pooled = one_hot_dataset(all_actual, all_pred, num_classes)
    assert dvw_weight(identity_model(num_classes), pooled) == micro_f1_of(oracle_cm)


# ---------------------------------------------------------------------------
# fedasync_poly_mix
# ---------------------------------------------------------------------------


def test_mix_zero_staleness_is_midpoint(rng):
    w_c = random_params("softmax-regression", rng)
    w_k = random_params("softmax-regression", rng)
    mixed = fedasync_poly_mix(w_c, w_k, 0, FedAsyncParams(alpha=0.5, a=0.5))
    midpoint = ParameterSet(0.5 * (w_c.flat + w_k.flat), w_c.layout)
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
