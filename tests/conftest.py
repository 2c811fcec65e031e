import contextlib
import json
import os
from unittest import mock

import numpy as np
import pytest

from fedsim import learner as learner_mod
from fedsim.controller import CommunityModel, FederationController
from fedsim.data import Dataset, FederatedSplit
from fedsim.learner import FixedPolicy, LearnerBank
from fedsim.nn import MODEL_KINDS, MLP_1HIDDEN, SOFTMAX_REGRESSION, ModelSpec, ParameterSet, model_layout
from fedsim.simulator import run_simulation_detailed


def params_equal(a, b) -> bool:
    """Bit-exact equality of two parameter vectors with the same layout."""
    return a.layout == b.layout and np.array_equal(a.flat, b.flat)


def controller_from(initial: ParameterSet) -> FederationController:
    """A caching controller whose first community model is ``initial``, of
    any layout: the federation never reads the model's architecture."""
    with mock.patch("fedsim.controller.init_parameters", lambda _spec: initial):
        return FederationController(None)


def cache_size(ctrl: FederationController) -> int:
    """The learners the controller holds a cached contribution for."""
    return len(ctrl._cache)


@contextlib.contextmanager
def pinned_cpus(cpus: int):
    """One BLAS thread and ``cpus`` CPUs, as ``learner.worker_count`` sees
    them: unstackable cohorts then train on min(cohorts, cpus) threads."""
    with mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}):
        with mock.patch.object(learner_mod, "cpu_count", return_value=cpus):
            yield


def counting_side_by_side_epochs():
    """Count ``learner._train_side_by_side`` calls: one per epoch whose
    shares train on threads."""
    return mock.patch.object(
        learner_mod, "_train_side_by_side", wraps=learner_mod._train_side_by_side
    )


def learner_bank(
    community: CommunityModel, trains, validations=None, ids=None, policy=None, data_seed=0
) -> LearnerBank:
    """A bank of learners that have just adopted ``community``: row k has id
    ``ids[k]`` (default 0) and trains on ``trains[k]``, and is scored on
    ``validations[k]`` (default: its training set). The sets are copied into
    the bank's pools, learner by learner."""
    validations = validations or trains
    pools = [
        Dataset(
            np.concatenate([d.rows for d in sets]),
            np.concatenate([d.labels for d in sets]),
            sets[0].num_classes,
        )
        for sets in (trains, validations)
    ]
    sizes = tuple((t.n, v.n) for t, v in zip(trains, validations))
    bank = LearnerBank(community.params.layout, FederatedSplit(*pools, pools[1], sizes))
    for k in range(len(trains)):
        bank.add(ids[k] if ids else 0, community, policy or FixedPolicy(4), data_seed)
    return bank


def params_allclose(a, b, rtol: float = 1e-9, atol: float = 0.0) -> bool:
    return a.layout == b.layout and np.allclose(a.flat, b.flat, rtol=rtol, atol=atol)


def zeros_like(params: ParameterSet) -> ParameterSet:
    return ParameterSet(np.zeros(params.layout.size), params.layout)


def random_params(spec_kind: str, rng: np.random.Generator, input_dim=5, num_classes=3, hidden=4) -> ParameterSet:
    """Random small parameter sets in the canonical layouts."""
    layout = model_layout(ModelSpec(spec_kind, input_dim, num_classes, hidden))
    return ParameterSet(rng.normal(size=layout.size), layout)


def literal_model(*arrays) -> ParameterSet:
    """The model whose matrices are ``arrays``: (W, b) or (W1, b1, W2, b2)."""
    w, b = np.shape(arrays[0]), np.shape(arrays[-1])
    spec = ModelSpec(MODEL_KINDS[len(arrays) // 4], w[0], b[1], hidden_dim=w[1])
    return ParameterSet(np.concatenate(arrays, axis=None, dtype=float), model_layout(spec))


def random_batch(rng: np.random.Generator, n=6, input_dim=5, num_classes=3):
    """Features (n x input_dim) and labels of a random mini-batch."""
    return rng.normal(size=(n, input_dim)), rng.integers(0, num_classes, size=n)


def identity_model(num_classes: int) -> ParameterSet:
    """Softmax regression with W = I and b = 0: it predicts the hot column of
    a one-hot feature row."""
    return literal_model(np.eye(num_classes), np.zeros((1, num_classes)))


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


@pytest.fixture(scope="session")
def simulated_result():
    """``run_simulation_detailed`` memoized for the test session by the
    config's canonical dict, so checks that read the same cell share one run.
    The returned results are shared: read them, do not change them."""
    memo = {}

    def run(cfg):
        key = json.dumps(cfg.to_dict(), sort_keys=True)
        if key not in memo:
            memo[key] = run_simulation_detailed(cfg)
        return memo[key]

    return run


@pytest.fixture(scope="session")
def simulated(simulated_result):
    """The metrics log of ``simulated_result``'s shared run of a cell."""
    return lambda cfg: simulated_result(cfg).log
