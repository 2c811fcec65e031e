import numpy as np
import pytest

from fedsim.data import Dataset
from fedsim.nn import (
    MLP_1HIDDEN,
    SOFTMAX_REGRESSION,
    Batch,
    ModelSpec,
    ParameterSet,
)


def random_params(spec_kind: str, rng: np.random.Generator, input_dim=5, num_classes=3, hidden=4) -> ParameterSet:
    """Random small parameter sets in the canonical layouts."""
    if spec_kind == SOFTMAX_REGRESSION:
        return ParameterSet(
            [
                ("W", rng.normal(size=(input_dim, num_classes))),
                ("b", rng.normal(size=(1, num_classes))),
            ]
        )
    return ParameterSet(
        [
            ("W1", rng.normal(size=(input_dim, hidden))),
            ("b1", rng.normal(size=(1, hidden))),
            ("W2", rng.normal(size=(hidden, num_classes))),
            ("b2", rng.normal(size=(1, num_classes))),
        ]
    )


def random_batch(rng: np.random.Generator, n=6, input_dim=5, num_classes=3) -> Batch:
    return Batch(rng.normal(size=(n, input_dim)), rng.integers(0, num_classes, size=n))


def identity_model(num_classes: int) -> ParameterSet:
    """Softmax regression with W = I and b = 0: it predicts the hot column of
    a one-hot feature row."""
    return ParameterSet([("W", np.eye(num_classes)), ("b", np.zeros((1, num_classes)))])


def one_hot_dataset(actual, predicted, num_classes: int) -> Dataset:
    """Samples labelled ``actual`` on which ``identity_model`` predicts
    ``predicted``."""
    features = np.eye(num_classes)[np.asarray(predicted, dtype=np.int64)]
    return Dataset(features, np.asarray(actual, dtype=np.int64), num_classes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def softmax_spec():
    return ModelSpec(SOFTMAX_REGRESSION, input_dim=4, num_classes=3, init_seed=1990)


@pytest.fixture
def mlp_spec():
    return ModelSpec(MLP_1HIDDEN, input_dim=4, num_classes=3, hidden_dim=16, init_seed=1990)
