"""Differential tests: the device's two-task reallocation vs the general loop.

``Device._reallocate`` routes two co-running tasks (MuxWise's decode and
prefill green contexts) through ``_reallocate_pair``, which inlines the
general loop's occupancy, rates, interference factors and demands and
water-fills with :func:`repro.gpu.device.waterfill2`.  Every state it can
see — oversubscribed or fractional SM counts, finished dimensions, finite
bandwidth caps, demands on the water-fill's boundaries — must produce the
same floats, sign bits included, as ``_reallocate_general``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import device as device_module
from repro.gpu.device import Device, ExecTask
from repro.gpu.specs import A100
from repro.sim import Simulator

_EPS = 1e-9  # must match device._EPS


def _signed(value: float) -> tuple[float, float]:
    return (value, math.copysign(1.0, value))


def _build(state: dict) -> tuple[Device, list[ExecTask]]:
    device = Device(Simulator(), A100, n_gpus=state["n_gpus"])
    device.effective_bandwidth = device.effective_bandwidth * state["bw_factor"]
    tasks = []
    for spec in state["tasks"]:
        task = ExecTask(
            flops=spec["flops"],
            bytes=spec["bytes"],
            sm_count=spec["sm_count"],
            max_bandwidth=spec["cap"](device.effective_bandwidth),
        )
        task.rem_flops = spec["rem_flops"](task)
        task.rem_bytes = spec["rem_bytes"](task)
        tasks.append(task)
    device._active = tasks
    return device, tasks


def _observe(device: Device, tasks: list[ExecTask]) -> list:
    seen = [_signed(device._sm_occupancy), [_signed(f) for f in device._factors]]
    for task in tasks:
        seen.append((_signed(task.compute_rate), _signed(task.bw_rate)))
    return seen


def _run(reallocate) -> tuple[str, object]:
    try:
        reallocate()
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", None)


def assert_pair_matches_general(state: dict) -> None:
    fast_dev, fast_tasks = _build(state)
    ref_dev, ref_tasks = _build(state)
    assert _run(fast_dev._reallocate) == _run(ref_dev._reallocate_general)
    assert _observe(fast_dev, fast_tasks) == _observe(ref_dev, ref_tasks)
    # A second pass reads the interference factors from the cache.
    assert _run(fast_dev._reallocate) == _run(ref_dev._reallocate_general)
    assert _observe(fast_dev, fast_tasks) == _observe(ref_dev, ref_tasks)


# Remaining-work choices, as functions of the built task.
_rem_flops = st.sampled_from(
    [
        lambda t: t.flops,
        lambda t: t.flops * 0.37,
        lambda t: t._flops_floor,  # exactly on the floor: finished
        lambda t: t._flops_floor * 2,
        lambda t: 0.0,
    ]
)
_rem_bytes = st.sampled_from(
    [
        lambda t: t.bytes,
        lambda t: t.bytes * 0.61,
        lambda t: t._bytes_floor,
        lambda t: t._bytes_floor * 2,
        lambda t: 0.0,
    ]
)
# Bandwidth caps, as functions of the device's capacity: a flops-finished
# task demands exactly its cap, which puts demands on the water-fill's
# boundaries (capacity/2 ± _EPS, capacity - 1.0).
_caps = st.sampled_from(
    [
        lambda c: math.inf,
        lambda c: math.inf,
        lambda c: c / 2,
        lambda c: c / 2 + _EPS,
        lambda c: c / 2 - _EPS,
        lambda c: c - 1.0,
        lambda c: c * 0.3,
        lambda c: c * 1.7,
    ]
)
_sm_counts = st.one_of(
    st.integers(min_value=1, max_value=A100.sms),
    st.floats(min_value=0.5, max_value=float(A100.sms)),
    st.sampled_from([A100.sms, A100.sms + 1, 0]),  # full, over, invalid
)
_work = st.floats(min_value=1.0, max_value=1e15)

_task = st.fixed_dictionaries(
    {
        "flops": _work,
        "bytes": _work,
        "sm_count": _sm_counts,
        "cap": _caps,
        "rem_flops": _rem_flops,
        "rem_bytes": _rem_bytes,
    }
)
_state = st.fixed_dictionaries(
    {
        "n_gpus": st.sampled_from([1, 2, 8]),
        "bw_factor": st.sampled_from([1.0, 0.5, 1e-12]),
        "tasks": st.lists(_task, min_size=2, max_size=2),
    }
)


class TestPairReallocateMatchesGeneral:
    @given(state=_state)
    @settings(max_examples=600, deadline=None)
    def test_random_states(self, state):
        assert_pair_matches_general(state)

    @given(
        sm_a=st.integers(min_value=1, max_value=A100.sms),
        sm_b=st.integers(min_value=1, max_value=A100.sms),
        state=_state,
    )
    @settings(max_examples=200, deadline=None)
    def test_oversubscribed_sms(self, sm_a, sm_b, state):
        """Plain-stream multiplexing: the SM sum may exceed the device."""
        state["tasks"][0]["sm_count"] = sm_a
        state["tasks"][1]["sm_count"] = max(sm_b, A100.sms - sm_a + 1)
        assert_pair_matches_general(state)

    def test_pair_path_skips_the_general_waterfill(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("general waterfill called for two tasks")

        monkeypatch.setattr(device_module, "waterfill", forbidden)
        device = Device(Simulator(), A100)
        device._active = [
            ExecTask(flops=1e12, bytes=1e10, sm_count=32),
            ExecTask(flops=1e9, bytes=1e11, sm_count=76),
        ]
        device._reallocate()
        assert all(t.bw_rate > 0 for t in device._active)

    def test_stalled_pair_uses_the_general_loop(self):
        device = Device(Simulator(), A100)
        device._active = [
            ExecTask(flops=1e12, bytes=1e10, sm_count=32),
            ExecTask(flops=1e9, bytes=1e11, sm_count=76),
        ]
        device._stalled = True
        device._reallocate()
        assert [(t.compute_rate, t.bw_rate) for t in device._active] == [(0.0, 0.0)] * 2

    def test_out_of_range_sm_count_raises_like_the_general_loop(self):
        device = Device(Simulator(), A100)
        device._active = [
            ExecTask(flops=1e12, bytes=1e10, sm_count=A100.sms + 4),
            ExecTask(flops=1e9, bytes=1e11, sm_count=16),
        ]
        with pytest.raises(ValueError, match="out of range"):
            device._reallocate()
