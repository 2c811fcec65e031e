"""Exact metamorphic properties of a whole run, over the small blobs configs
of ``tests.strategies``: rescaling every rate and the budget by a power of
two rescales the logged times and nothing else, a run stopped earlier logs
a prefix of the longer run's rows, training learners stacked or one by one
changes no bit, and a grid cell is the run of its scheme alone."""

import copy
import dataclasses
from unittest import mock

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fedsim import cli
from fedsim import learner as learner_mod
from fedsim.config import ExperimentConfig, config_from_dict
from fedsim.controller import DegenerateFederationError
from fedsim.simulator import run_simulation_detailed
from fedsim.weighting import SCHEMES
from tests.conftest import pinned_cpus
from tests.strategies import small_blobs_configs


def run(raw: dict | ExperimentConfig):
    """The result of config ``raw`` (raw JSON or resolved). A draw whose DVW
    commit scores 0 on every slice ends with ``DegenerateFederationError`` by
    design, and is rejected."""
    cfg = raw if isinstance(raw, ExperimentConfig) else config_from_dict(raw)
    try:
        return run_simulation_detailed(cfg)
    except DegenerateFederationError:
        reject()


def assert_same_run(got, want) -> None:
    """The same ``metrics.csv`` text and final bank bytes."""
    assert got.log.to_csv() == want.log.to_csv()
    assert got.bank.params.tobytes() == want.bank.params.tobytes()
    assert got.bank.momentum.tobytes() == want.bank.momentum.tobytes()


@given(small_blobs_configs(), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_time_scales_exactly(raw, k):
    scale = 2.0**k
    scaled = copy.deepcopy(raw)
    for rates in (scaled["speed_profiles"]["fast"], scaled["speed_profiles"]["slow"]):
        for key in rates:
            rates[key] *= scale
    scaled["time_budget"] /= scale
    base, fast = run(raw), run(scaled)
    assert len(fast.log) == len(base.log)
    for row, scaled_row in zip(base.log, fast.log):
        assert scaled_row.virtual_time == row.virtual_time / scale
        assert dataclasses.replace(scaled_row, virtual_time=row.virtual_time) == row
    assert fast.virtual_duration == base.virtual_duration / scale
    assert fast.bank.params.tobytes() == base.bank.params.tobytes()
    assert fast.bank.momentum.tobytes() == base.bank.momentum.tobytes()


@given(small_blobs_configs(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_shorter_run_is_a_prefix(raw, data):
    rows = run(raw).log.rows
    m = data.draw(st.integers(1, raw["max_versions"] - 1), label="max_versions")
    assert run(dict(raw, max_versions=m)).log.rows == rows[: m + 1]
    commit_times = [row.virtual_time for row in rows if row.version >= 1]
    t = data.draw(st.sampled_from(commit_times), label="time_budget")
    assert run(dict(raw, time_budget=t)).log.rows == [r for r in rows if r.virtual_time <= t]


@given(small_blobs_configs())
@settings(max_examples=30, deadline=None)
def test_stacking_is_invisible(raw):
    # No scratch for stacking: every cohort has one member, and each epoch
    # trains its cohorts in worker_count shares, one after another on one
    # CPU and side by side on threads on two.
    stacked = run(raw)
    for cpus in (1, 2):
        with pinned_cpus(cpus), mock.patch.object(learner_mod, "COHORT_SCRATCH_BYTES", 0):
            assert_same_run(run_simulation_detailed(config_from_dict(raw)), stacked)


@given(small_blobs_configs())
@settings(max_examples=15, deadline=None)
def test_a_grid_cell_is_its_solo_run(raw):
    grid = config_from_dict(dict(raw, schemes=list(SCHEMES)))
    for scheme in SCHEMES:
        cell = grid.with_scheme(scheme)
        trigger = raw["trigger"]
        if trigger["kind"] == "adaptive" and scheme != "async_dvw":
            trigger = {"kind": "fixed", "uf": 4}  # the adaptive trigger's default fixed_uf
        solo = config_from_dict(dict(raw, scheme=scheme, trigger=trigger))
        got, want = run(cell), run_simulation_detailed(solo)
        assert_same_run(got, want)
        assert cli.manifest(cell, got) == cli.manifest(solo, want)
