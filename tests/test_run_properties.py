"""Exact metamorphic properties of a whole run, over the small blobs configs
of ``tests.strategies``: rescaling every rate and the budget by a power of
two rescales the logged times and nothing else, and a run stopped earlier
logs a prefix of the longer run's rows."""

import copy
import dataclasses

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fedsim.config import config_from_dict
from fedsim.controller import DegenerateFederationError
from fedsim.simulator import run_simulation_detailed
from tests.strategies import small_blobs_configs


def run(raw: dict):
    """The result of config ``raw``. A draw whose DVW commit scores 0 on every
    slice ends with ``DegenerateFederationError`` by design, and is rejected."""
    try:
        return run_simulation_detailed(config_from_dict(raw))
    except DegenerateFederationError:
        reject()


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
