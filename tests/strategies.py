"""Hypothesis strategies shared by the whole-run property tests.

``small_blobs_configs`` draws raw JSON configs (dicts, as ``config_from_dict``
reads them) that run to completion in a few milliseconds: two to six
learners of two speed groups, at most 240 training samples, a short virtual
budget and a cap on commits.
"""

from hypothesis import strategies as st

from fedsim.weighting import SCHEMES

MODELS = st.sampled_from(
    [{"kind": "softmax-regression"}, {"kind": "mlp-1hidden", "hidden_dim": 6}]
)


def _group_rates(steps, evals):
    return st.fixed_dictionaries(
        {"steps_per_second": st.sampled_from(steps), "eval_samples_per_second": st.sampled_from(evals)}
    )


def _per_group(values):
    return st.fixed_dictionaries({group: st.sampled_from(values) for group in ("fast", "slow")})


def _trigger(scheme: str):
    fixed = st.builds(lambda uf: {"kind": "fixed", "uf": uf}, st.integers(1, 3))
    if scheme != "async_dvw":
        return fixed
    adaptive = st.fixed_dictionaries(
        {
            "kind": st.just("adaptive"),
            "vc_loss": _per_group([0.0, 0.5, 2.0]),
            "vc_tomb": _per_group([0, 1, 2]),
            "warmup_cycles": st.integers(1, 3),
            "max_epochs_per_cycle": st.integers(2, 6),
        }
    )
    return st.one_of(fixed, adaptive)


@st.composite
def small_blobs_configs(draw) -> dict:
    """A runnable blobs config: any scheme (the adaptive trigger only under
    async_dvw), either model, uniform or power-law sizes of 30-40 samples
    per learner, and fast and slow learners."""
    scheme = draw(st.sampled_from(SCHEMES))
    n = draw(st.integers(2, 6))
    return {
        "num_learners": n,
        "seed": draw(st.integers(0, 2**16)),
        "dataset": {
            "kind": "blobs",
            "input_dim": draw(st.integers(2, 4)),
            "num_classes": draw(st.integers(2, 3)),
            "train_samples_per_class": 150,
            "test_samples_per_class": 10,
            "spread": 0.5,
        },
        "model": draw(MODELS),
        "size_distribution": {
            "kind": draw(st.sampled_from(["uniform", "powerlaw"])),
            "total": n * draw(st.integers(30, 40)),
        },
        "speed_profiles": {
            "num_fast": draw(st.integers(1, n - 1)),
            "fast": draw(_group_rates([100.0, 160.0, 200.0], [1000.0, 2000.0])),
            "slow": draw(_group_rates([20.0, 25.0, 40.0], [250.0, 400.0])),
        },
        # Validation slices of several samples make it rare for a model to
        # score 0 on every slice, which ends a DVW run (exit 3).
        "validation_fraction": 0.25,
        "scheme": scheme,
        "trigger": draw(_trigger(scheme)),
        "hyperparameters": {
            "eta": draw(st.sampled_from([0.02, 0.05, 0.1])),
            "gamma": draw(st.sampled_from([0.0, 0.5, 0.75])),
            "beta": draw(st.integers(8, 32)),
        },
        "time_budget": draw(st.sampled_from([2.0, 3.0, 5.0])),
        "max_versions": draw(st.integers(4, 16)),
    }
