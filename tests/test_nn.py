import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import Dataset
from fedsim.learner import Hyperparameters
from fedsim.nn import (
    MLP_1HIDDEN,
    SOFTMAX_REGRESSION,
    ModelSpec,
    ParameterSet,
    ShapeError,
    Workspace,
    backward,
    check_dataset,
    init_parameters,
    model_layout,
    momentum_update,
    predict,
)
from fedsim.weighting import FedAsyncParams, fedasync_mix_factor, fedasync_poly_mix
from tests.conftest import (
    literal_model,
    params_allclose,
    params_equal,
    random_batch,
    random_params,
    zeros_like,
)
from tests.kernel_reference import reference_gradient, reference_loss


# ---------------------------------------------------------------------------
# init_parameters
# ---------------------------------------------------------------------------


def test_init_is_deterministic(softmax_spec):
    assert params_equal(init_parameters(softmax_spec), init_parameters(softmax_spec))


def test_init_differs_across_seeds():
    a = init_parameters(ModelSpec(SOFTMAX_REGRESSION, 4, 3, init_seed=1990))
    b = init_parameters(ModelSpec(SOFTMAX_REGRESSION, 4, 3, init_seed=1991))
    assert not params_equal(a, b)


def test_init_mlp_shapes():
    spec = ModelSpec(MLP_1HIDDEN, input_dim=4, num_classes=3, hidden_dim=16)
    params = init_parameters(spec)
    assert params.layout.entries == (
        ("W1", 4, 16),
        ("b1", 1, 16),
        ("W2", 16, 3),
        ("b2", 1, 3),
    )
    assert np.all(params.arrays[1] == 0.0)
    assert np.all(params.arrays[3] == 0.0)


def test_init_weights_within_glorot_bound():
    spec = ModelSpec(SOFTMAX_REGRESSION, input_dim=6, num_classes=4)
    w = init_parameters(spec).arrays[0]
    r = math.sqrt(6.0 / (6 + 4))
    assert np.all(np.abs(w) <= r)


# ---------------------------------------------------------------------------
# Workspace.loss
# ---------------------------------------------------------------------------


def one_hot(y, classes=3) -> np.ndarray:
    return np.eye(classes)[np.asarray(y)]


def loss_of(params, x, y) -> float:
    """Mean cross-entropy of one model (a cohort of one) on ``x`` and labels ``y``."""
    ws = Workspace(params.layout)
    t = one_hot(y, params.layout.entries[-1][2])
    return float(ws.loss(params.arrays, np.asarray(x, dtype=np.float64), t)[0])


def test_uniform_logits_loss_is_log_c():
    # Zero weights and bias produce uniform logits over C=4 classes.
    params = literal_model(np.zeros((3, 4)), np.zeros((1, 4)))
    ws = Workspace(params.layout)
    loss = ws.loss(params.arrays, np.ones((5, 3)), one_hot([0, 1, 2, 3, 0], 4))
    assert loss.shape == (1,)
    assert ws.batch(1, 5).logits.shape == (5, 4)
    assert loss[0] == pytest.approx(math.log(4), abs=1e-12)


def test_loss_vanishes_with_growing_margin():
    losses = []
    for margin in (1.0, 10.0, 100.0):
        params = literal_model([[margin, 0.0]], np.zeros((1, 2)))
        losses.append(loss_of(params, np.ones((1, 1)), np.array([0])))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-10


def test_loss_matches_scalar_evaluation():
    # Independent oracle: per-sample softmax + log computed with plain floats.
    w = np.array([[0.5, -1.0, 0.25], [2.0, 0.5, -0.5]])
    b = np.array([[0.1, -0.2, 0.3]])
    params = literal_model(w, b)
    x = np.array([[1.0, -2.0], [0.5, 0.25]])
    y = [2, 0]
    expected = 0.0
    for i in range(2):
        logits = [
            sum(x[i][j] * w[j][c] for j in range(2)) + b[0][c] for c in range(3)
        ]
        z = sum(math.exp(v) for v in logits)
        expected += -math.log(math.exp(logits[y[i]]) / z)
    expected /= 2
    assert loss_of(params, x, y) == pytest.approx(expected, rel=1e-12)


def test_check_dataset_rejects_a_wrong_width(softmax_spec):
    layout = model_layout(softmax_spec)
    check_dataset(layout, Dataset(np.ones((2, 4)), np.array([0, 2]), 3))
    with pytest.raises(ShapeError, match="feature dim 7 does not match input dim 4"):
        check_dataset(layout, Dataset(np.ones((2, 7)), np.array([0, 2]), 3))


def test_check_dataset_rejects_a_wrong_class_count(softmax_spec):
    # Labels that a 3-class model could score do not make up for a dataset
    # that declares more classes: a run has one class count.
    data = Dataset(np.zeros((4, 4)), np.array([0, 1, 2, 0]), 5)
    with pytest.raises(ShapeError, match="model predicts 3 classes, dataset declares 5"):
        check_dataset(model_layout(softmax_spec), data)


def test_loss_nonnegative_random(rng):
    for kind in (SOFTMAX_REGRESSION, MLP_1HIDDEN):
        models = [random_params(kind, rng) for _ in range(3)]
        batches = [random_batch(rng) for _ in range(3)]
        alone = [loss_of(m, x, y) for m, (x, y) in zip(models, batches)]
        assert all(v >= 0.0 and math.isfinite(v) for v in alone)
        # stacked: one loss per member, each the bits it gets alone
        ws = Workspace(models[0].layout)
        w = np.stack([m.flat for m in models])
        x = np.stack([x for x, _ in batches])
        t = one_hot(np.stack([y for _, y in batches]))
        assert ws.loss(ws.layout.views(w), x, t).tolist() == alone


# ---------------------------------------------------------------------------
# Workspace.gradient
# ---------------------------------------------------------------------------


def central_difference_grads(params, x, y, eps: float = 1e-5) -> np.ndarray:
    """Finite-difference oracle over the flat parameter vector."""
    grad = np.empty(params.layout.size)
    for j in range(grad.size):
        up, dn = params.flat.copy(), params.flat.copy()
        up[j] += eps
        dn[j] -= eps
        lu = loss_of(ParameterSet(up, params.layout), x, y)
        ld = loss_of(ParameterSet(dn, params.layout), x, y)
        grad[j] = (lu - ld) / (2 * eps)
    return grad


@pytest.mark.parametrize("kind", [SOFTMAX_REGRESSION, MLP_1HIDDEN])
def test_gradient_matches_central_difference(kind, rng):
    params = random_params(kind, rng)
    x, y = random_batch(rng)
    ws = Workspace(params.layout)
    s = ws.batch(1, len(y))
    s.x[...], s.t[...] = x, np.eye(3)[y]
    analytic = ws.gradient(params.arrays, s)
    numeric = central_difference_grads(params, x, y)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    assert rel.max() < 1e-4
    assert np.array_equal(backward(params, x, y).flat, analytic)


def test_zero_input_softmax_gradient():
    params = literal_model([[0.3, -0.1]], [[0.2, 0.4]])
    grads = backward(params, np.zeros((4, 1)), np.array([0, 0, 1, 1]))
    assert np.all(grads.arrays[0] == 0.0)
    assert np.any(grads.arrays[1] != 0.0)


def test_duplicated_sample_mean_invariance(rng):
    params = random_params(SOFTMAX_REGRESSION, rng)
    x = rng.normal(size=(1, 5))
    once = backward(params, x, np.array([1]))
    twice = backward(params, np.vstack([x, x]), np.array([1, 1]))
    assert params_allclose(once, twice, rtol=1e-12, atol=1e-15)


@given(
    kind=st.sampled_from([SOFTMAX_REGRESSION, MLP_1HIDDEN]),
    members=st.integers(1, 8),
    classes=st.integers(2, 12),
    rows=st.integers(1, 130),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_kernels_match_the_reference_formulation(kind, members, classes, rows, dim, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind, dim, classes, hidden_dim=rng.integers(1, 7) if kind == MLP_1HIDDEN else 0)
    layout = model_layout(spec)
    ws = Workspace(layout)
    lead = (members,) if members > 1 else ()
    w = rng.normal(scale=rng.choice([0.1, 1.0, 30.0]), size=(*lead, layout.size))
    arrays = layout.views(w)
    s = ws.batch(members, rows)
    # Gathered as training gathers a cohort's batch: each member's rows of
    # one pooled set, in one take for the whole cohort.
    sizes = rows + rng.integers(0, 20, members)
    total = int(sizes.sum())
    pool = Dataset(rng.normal(size=(total, dim)), rng.integers(0, classes, total), classes)
    chunk = np.stack([rng.permutation(n)[:rows] for n in sizes]) + (np.cumsum(sizes) - sizes)[:, None]
    chunk = chunk if lead else chunk[0]
    pool.rows.take(chunk, axis=0, out=s.x, mode="clip")
    pool.one_hot().take(chunk, axis=0, out=s.t, mode="clip")
    x, t, y = s.x.copy(), s.t.copy(), s.t.argmax(axis=-1)
    assert np.array_equal(ws.gradient(arrays, s), reference_gradient(arrays, x, y))
    # The loss reads the one-hot targets that the gradient reads.
    assert np.array_equal(ws.loss(arrays, x, t), reference_loss(arrays, x, y))


# ---------------------------------------------------------------------------
# momentum_update
# ---------------------------------------------------------------------------


def test_zero_gradient_leaves_params_unchanged(rng):
    params = random_params(SOFTMAX_REGRESSION, rng)
    w, u = params.flat.copy(), np.zeros(params.layout.size)
    momentum_update(w, u, zeros_like(params).flat, 0.5, 0.1, np.empty_like(w))
    assert np.array_equal(w, params.flat)
    assert np.array_equal(u, np.zeros_like(u))


def test_momentum_recurrence_hand_values():
    # w=1, u=0, g=2, gamma=0.5, eta=0.1:
    #   step 1: u=2, w=0.8;  step 2 (same g): u=3, w=0.5
    w, u, g, tmp = np.array([1.0, 0.0]), np.zeros(2), np.array([2.0, 0.0]), np.empty(2)
    momentum_update(w, u, g, 0.5, 0.1, tmp)
    assert u[0] == pytest.approx(2.0, abs=1e-15)
    assert w[0] == pytest.approx(0.8, abs=1e-15)
    momentum_update(w, u, g, 0.5, 0.1, tmp)
    assert u[0] == pytest.approx(3.0, abs=1e-15)
    assert w[0] == pytest.approx(0.5, abs=1e-15)
    assert w[1] == 0.0 and u[1] == 0.0


def test_two_step_closed_form():
    # From u0=0 with constant gradient g: w2 = w0 - eta*g*(2+gamma).
    w0, g, eta, gamma = 1.7, 0.42, 0.05, 0.9
    w, u = np.full(2, w0), np.zeros(2)
    for _ in range(2):
        momentum_update(w, u, np.full(2, g), gamma, eta, np.empty(2))
    expected = w0 - eta * g * (2 + gamma)
    assert w[0] == pytest.approx(expected, abs=1e-12)


def test_zero_gamma_is_vanilla_sgd(rng):
    params = random_params(SOFTMAX_REGRESSION, rng)
    grads = backward(params, *random_batch(rng))
    stepped, u = params.flat.copy(), np.zeros(params.layout.size)
    momentum_update(stepped, u, grads.flat, 0.0, 0.05, np.empty_like(stepped))
    vanilla = ParameterSet(params.flat - 0.05 * grads.flat, params.layout)
    assert np.array_equal(stepped, vanilla.flat)


def test_step_rejects_bad_eta():
    for eta in (0.0, -0.05):
        with pytest.raises(ValueError, match="eta must be positive"):
            Hyperparameters(eta=eta)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def confusion_of(params, features, labels, num_classes):
    """C x C counts of one batch prediction: rows actual, columns predicted."""
    pred = predict(params, features)
    return np.bincount(labels * num_classes + pred, minlength=num_classes**2).reshape(
        num_classes, num_classes
    )


def test_perfect_classifier_diagonal():
    # One-feature model that cleanly separates two classes.
    params = literal_model([[-5.0, 5.0]], np.zeros((1, 2)))
    x = np.array([[-1.0]] * 5 + [[1.0]] * 5)
    y = np.array([0] * 5 + [1] * 5)
    cm = confusion_of(params, x, y, 2)
    assert np.array_equal(cm, np.diag([5, 5]))


def test_constant_predictor_counts():
    params = literal_model(np.zeros((3, 2)), [[1.0, 0.0]])
    x = np.zeros((10, 3))
    y = np.array([0] * 5 + [1] * 5)
    cm = confusion_of(params, x, y, 2)
    assert cm[0, 0] == 5 and cm[1, 0] == 5
    assert cm[:, 1].sum() == 0


def test_confusion_matches_per_sample_loop(rng):
    # One pass over a batch predicts what row-by-row passes predict; pooled
    # validation scoring relies on it.
    params = random_params(MLP_1HIDDEN, rng)
    x, y = random_batch(rng, n=40)
    cm = confusion_of(params, x, y, 3)
    # Oracle: recount sample by sample.
    expected = np.zeros((3, 3), dtype=np.int64)
    for i in range(40):
        pred = predict(params, x[i : i + 1])[0]
        expected[y[i], pred] += 1
    assert np.array_equal(cm, expected)
    assert cm.sum() == 40


def test_argmax_ties_break_low():
    params = literal_model(np.zeros((2, 3)), np.zeros((1, 3)))
    pred = predict(params, np.ones((4, 2)))
    assert np.all(pred == 0)


@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_confusion_mass_conservation(seed, num_classes, n):
    rng = np.random.default_rng(seed)
    params = random_params(SOFTMAX_REGRESSION, rng, input_dim=3, num_classes=num_classes)
    x = rng.normal(size=(n, 3))
    pred = predict(params, x)
    assert pred.shape == (n,)
    assert ((pred >= 0) & (pred < num_classes)).all()
    y = rng.integers(0, num_classes, size=n)
    cm = confusion_of(params, x, y, num_classes)
    assert cm.sum() == n
    assert (cm >= 0).all()


# ---------------------------------------------------------------------------
# Weighted sums of flat vectors
# ---------------------------------------------------------------------------


def test_three_model_weighted_sum(rng):
    models = [random_params(SOFTMAX_REGRESSION, rng) for _ in range(3)]
    weights = [0.598, 0.212, 0.190]
    acc = zeros_like(models[0]).flat
    for m, p in zip(models, weights):
        acc = acc + p * m.flat
    acc = ParameterSet(acc, models[0].layout)
    # Oracle: direct sum over raw arrays.
    for i in range(len(acc.arrays)):
        direct = sum(p * m.arrays[i] for m, p in zip(models, weights))
        assert np.allclose(acc.arrays[i], direct, rtol=0, atol=1e-12)


def two_step_mix(w_c, w_k, alpha_t) -> np.ndarray:
    """FedAsync's mix as scale, then scale-and-add: (1 - a) * w_c, then + a * w_k."""
    scaled = (1.0 - alpha_t) * w_c.flat
    return scaled + alpha_t * w_k.flat


@given(
    kind=st.sampled_from([SOFTMAX_REGRESSION, MLP_1HIDDEN]),
    staleness=st.integers(0, 10**6),
    alpha=st.floats(1e-6, 1.0),
    a=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fedasync_mix_is_the_two_step_reference(kind, staleness, alpha, a, seed):
    rng = np.random.default_rng(seed)
    w_c, w_k = random_params(kind, rng), random_params(kind, rng)
    before = w_c.flat.copy(), w_k.flat.copy()
    params = FedAsyncParams(alpha=alpha, a=a)
    alpha_t = fedasync_mix_factor(staleness, params)
    mixed = fedasync_poly_mix(w_c, w_k, alpha_t)
    assert mixed.layout == w_c.layout
    assert mixed.flat.tobytes() == two_step_mix(w_c, w_k, alpha_t).tobytes()
    assert w_c.flat.tobytes() == before[0].tobytes() and w_k.flat.tobytes() == before[1].tobytes()
    assert not (w_c.flat.flags.writeable or w_k.flat.flags.writeable)
    other = random_params(kind, rng, input_dim=6)
    for pair in ((w_c, other), (other, w_k)):
        with pytest.raises(ShapeError, match="parameter layouts differ"):
            fedasync_poly_mix(*pair, alpha_t)


# ---------------------------------------------------------------------------
# ParameterSet construction
# ---------------------------------------------------------------------------


# sha256 of init_parameters(spec).flat, recorded before ParameterSet lost its
# pairs constructor: the draws and their order must not move.
INIT_DIGESTS = {
    (SOFTMAX_REGRESSION, 1990): "8691f9c19c85379c250d6e54cd71eb6c9debebddbd1b4c6d09bfebed0bcc1de5",
    (MLP_1HIDDEN, 1990): "5ff242649c6b1097417ead3a815e7536fdbbe08be3f783cdb716442fb992865f",
    (SOFTMAX_REGRESSION, 2**64 + 3): "ce9e5b34f02714626147294c9f6e0d2a71f76f8d5bcaec45838003e9bf6bb4f4",
    (MLP_1HIDDEN, 2**64 + 3): "5198b11cd0d54ce4103a99b2cbfe43e64e65a9fb57e5ab5d34b547cbd7dc0cb2",
}


@pytest.mark.parametrize("kind, seed", sorted(INIT_DIGESTS))
def test_init_parameters_digest(kind, seed):
    spec = ModelSpec(kind, input_dim=784, num_classes=10, hidden_dim=128, init_seed=seed)
    flat = init_parameters(spec).flat
    assert hashlib.sha256(flat.tobytes()).hexdigest() == INIT_DIGESTS[kind, seed]


def test_parameter_set_rejection_messages():
    layout = model_layout(ModelSpec(MLP_1HIDDEN, input_dim=4, num_classes=3, hidden_dim=5))
    wrong = "expected a contiguous float64 vector of 43 values for ('W1', 'b1', 'W2', 'b2')"
    for flat in (
        np.zeros(layout.size, np.float32),
        np.zeros(2 * layout.size)[::2],
        np.zeros(layout.size + 1),
    ):
        with pytest.raises(ShapeError) as err:
            ParameterSet(flat, layout)
        assert str(err.value) == wrong
    flat = np.zeros(layout.size)
    flat[-2] = np.nan  # inside b2 only
    with pytest.raises(ShapeError) as err:
        ParameterSet(flat, layout)
    assert str(err.value) == "entry 'b2' contains non-finite values"


def test_parameter_set_rejects_non_finite():
    with pytest.raises(ShapeError):
        literal_model([[np.nan, 0.0]], np.zeros((1, 2)))


def test_parameter_arrays_are_read_only(rng):
    params = random_params(SOFTMAX_REGRESSION, rng)
    with pytest.raises(ValueError):
        params.arrays[0][0, 0] = 1.0


def test_parameter_set_is_one_flat_vector_in_layout_order(rng):
    params = random_params(MLP_1HIDDEN, rng)
    assert params.flat.shape == (params.layout.size,)
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in params.arrays]))
    assert all(np.shares_memory(a, params.flat) for a in params.arrays)


def test_parameter_set_adopts_a_flat_vector_and_freezes_it(softmax_spec):
    layout = model_layout(softmax_spec)
    flat = np.arange(float(layout.size))
    params = ParameterSet(flat, layout)
    assert not flat.flags.writeable
    assert params.arrays[1][0, 0] == float(softmax_spec.input_dim * softmax_spec.num_classes)
    with pytest.raises(ShapeError):
        ParameterSet(np.zeros(layout.size + 1), layout)
    with pytest.raises(ShapeError):
        ParameterSet(np.full(layout.size, np.inf), layout)
