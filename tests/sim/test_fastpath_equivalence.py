"""Differential equivalence: decode fast path vs scalar reference.

Every canonical perf scenario runs twice — elision on, elision off — and
the full result payloads must be byte-identical: same summaries, same
utilisation integrals, same event counts, same queue high-water marks.
The golden tests in ``tests/bench/test_perf.py`` pin the *values*; this
suite pins the *contract* that produced them: the fast path is an
optimisation, never a model change.

A second layer diffs the per-request metric streams (every token gap, in
emission order, tapped through a metrics sink) so a compensating error —
two deviations cancelling in an aggregate — cannot hide.

A third layer runs the sharded simulator against the flat one: the merged
pop order is the same total order, so results must again match byte for
byte.

A fourth layer drives MuxWise's decode-chain elision across the edges of
its contract — ``max_events`` and ``until`` cuts inside an elidable chain,
an arrival tied with a chain completion, a device stall, a preemption
storm, KV-pool preemptions, a partition resize and an enabled tracer —
and pins the planner itself against a real host-launch + green-context
device chain.
"""

import math

import pytest

from repro.baselines import ChunkedPrefillServer
from repro.bench.perf import SCENARIOS, _digest
from repro.bench.runner import run_system
from repro.bench.sinks import ListSink
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.config import ServingConfig
from repro.sim import ShardedSimulator, Simulator, fastpath
from repro.workloads import sharegpt_workload, toolagent_workload

#: Same scale as the golden fingerprints: small enough to run every
#: scenario twice, large enough to exercise batching, caching and faults.
SCALE = 0.05


def _run_scenario(name: str):
    payload, extras = SCENARIOS[name](SCALE)
    return (
        _digest(payload),
        int(extras.get("events_processed", 0)),
        int(extras.get("peak_event_queue", 0)),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_fastpath_equivalence(name):
    with fastpath.enabled():
        fast = _run_scenario(name)
    with fastpath.disabled():
        scalar = _run_scenario(name)
    # Fingerprint, processed-event count (elided events are charged), and
    # queue high-water mark all byte-identical.
    assert fast == scalar


class _StreamedRun:
    """One single-system run with the per-token metric stream tapped."""

    def __init__(self, sim_factory=None):
        self.sink = ListSink()

        def factory(sim, cfg):
            server = ChunkedPrefillServer(sim, cfg, token_budget=256)
            server.metrics.sink = self.sink
            return server

        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
        workload = sharegpt_workload(40, rate=6.0, seed=13)
        self.result = run_system(factory, cfg, workload, sim_factory=sim_factory)


class TestMetricStreamEquivalence:
    def test_per_request_token_streams_identical(self):
        with fastpath.enabled():
            fast = _StreamedRun()
        with fastpath.disabled():
            scalar = _StreamedRun()
        assert len(fast.sink.records) > 100
        # The full stream — request identity, emission time, exact gap
        # floats, emission order — not just aggregates.
        assert fast.sink.records == scalar.sink.records
        assert fast.result.summary.as_dict() == scalar.result.summary.as_dict()

    def test_streaming_tap_does_not_perturb_results(self):
        with fastpath.enabled():
            tapped = _StreamedRun()

            def factory(sim, cfg):
                return ChunkedPrefillServer(sim, cfg, token_budget=256)

            cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
            workload = sharegpt_workload(40, rate=6.0, seed=13)
            untapped = run_system(factory, cfg, workload)
        assert tapped.result.summary.as_dict() == untapped.summary.as_dict()


class TestShardedEquivalence:
    #: Scenarios the sharded merge is exercised against end to end; chaos
    #: covers scope cancellation (replica kills) against the sub-heaps.
    NAMES = ("single_goodput", "fleet_4_replicas", "chaos_4_replicas")

    @pytest.mark.parametrize("name", NAMES)
    def test_sharded_matches_flat(self, name):
        import repro.sim.shard as shard

        with fastpath.enabled():
            flat = _run_scenario(name)
            previous = shard.set_sharding_enabled(True)
            try:
                sharded = _run_scenario(name)
            finally:
                shard.set_sharding_enabled(previous)
        assert sharded == flat

    def test_sharded_metric_streams_identical(self):
        with fastpath.enabled():
            flat = _StreamedRun()
            sharded = _StreamedRun(sim_factory=ShardedSimulator)
        assert sharded.sink.records == flat.sink.records


# --------------------------------------------------------------------- #
# MuxWise decode-chain elision at the boundaries of the contract
# --------------------------------------------------------------------- #


def _mux_cfg() -> ServingConfig:
    return ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=8)


def _mux_workload():
    return toolagent_workload(12, request_rate=4.0, seed=13)


class _MuxRun:
    """A MuxWise run driven by hand, its token stream tapped.

    ``setup(sim, server)`` may schedule extra events before the first
    ``run``; ``cuts`` is a sequence of ``run`` keyword dicts applied in
    order (a bounded run, then the rest), with the full state digested
    after each.
    """

    def __init__(self, cuts=({},), setup=None, tracer=None, cfg=None, workload=None):
        from repro.core import MuxWiseServer

        self.sink = ListSink()
        sim = Simulator()
        if tracer is not None:
            sim.attach_tracer(tracer)
        server = MuxWiseServer(sim, cfg or _mux_cfg())
        server.metrics.sink = self.sink
        server.submit(workload() if workload else _mux_workload())
        if setup is not None:
            setup(sim, server)
        self.states = []
        for cut in cuts:
            sim.run(**cut)
            self.states.append(_mux_state(sim, server))
        self.server = server


def _mux_state(sim, server) -> str:
    """Digest of everything an elided chain touches (no side effects)."""
    device = server.instance.device
    engine = server.engine
    return _digest(
        {
            "now": sim.now,
            "events": sim.processed_events,
            "peak": sim.max_event_queue,
            "pending": sim.pending_events,
            "summary": server.metrics.summarize().as_dict(),
            "device": [
                device._sm_seconds,
                device._bw_bytes_served,
                device._bw_capacity_seconds,
                device._last_advance,
                len(device._active),
            ],
            "host": server.instance.host.busy_seconds,
            "streams": [
                engine.decode_stream._busy_seconds,
                engine.prefill_stream._busy_seconds,
                engine.decode_stream.sm_count,
            ],
            "partitions": server.partition_log,
            "running": len(server.running),
            "waiting": len(server.waiting),
            "storm": server.storm_preemptions,
        }
    )


@pytest.fixture
def commits(monkeypatch):
    """Record every committed chain: (fired before, start, completion, events)."""
    log = []
    commit = fastpath.commit_chain

    def recording(sim, device, plan):
        log.append((sim._fired_in_run, plan.start, plan.completion, plan.events))
        commit(sim, device, plan)

    monkeypatch.setattr(fastpath, "commit_chain", recording)
    return log


def _both(**kwargs):
    with fastpath.enabled():
        fast = _MuxRun(**kwargs)
    with fastpath.disabled():
        scalar = _MuxRun(**kwargs)
    assert fast.states == scalar.states
    assert fast.sink.records == scalar.sink.records
    return fast, scalar


def _probe(commits) -> list:
    """Commits of an unperturbed fast run (and the run's own check)."""
    _both()
    assert len(commits) > 50
    probe = list(commits)
    commits.clear()
    return probe


class TestMuxWiseElision:
    def test_full_run_identical_and_elided(self, commits):
        fast, _ = _both()
        assert len(commits) > 50
        assert len(fast.sink.records) > 500
        # Every elided chain opens with its host-launch event.
        assert all(events >= 3 for *_, events in commits)

    def test_max_events_cut_inside_an_elidable_chain(self, commits):
        probe = _probe(commits)
        fired, _, completion, events = probe[len(probe) // 2]
        # The cap lands before the chain's completion event.
        _both(cuts=({"max_events": fired + events - 1}, {}))
        assert all(c[2] != completion for c in commits)

    def test_until_cut_inside_an_elidable_chain(self, commits):
        probe = _probe(commits)
        _, start, completion, _ = probe[len(probe) // 2]
        _both(cuts=({"until": (start + completion) / 2}, {}))

    def test_until_exactly_at_a_chain_completion(self, commits):
        probe = _probe(commits)
        _, _, completion, _ = probe[len(probe) // 2]
        _both(cuts=({"until": completion}, {}))

    def test_arrival_tied_with_a_chain_completion(self, commits):
        probe = _probe(commits)
        _, _, completion, _ = probe[len(probe) // 2]

        def setup(sim, server):
            extra = sharegpt_workload(1, rate=1.0, seed=5).requests[0]
            sim.schedule_at(completion, lambda: server.inject(extra))

        _both(setup=setup)
        # The tied chain ran on the scalar path; others were still elided.
        assert commits
        assert all(c[2] != completion for c in commits)

    def test_mid_run_device_stall(self, commits):
        probe = _probe(commits)
        _, start, completion, _ = probe[len(probe) // 3]
        stall_at = (start + completion) / 2

        def setup(sim, server):
            device = server.instance.device
            sim.schedule_at(stall_at, lambda: device.stall(0.03))

        _both(setup=setup)
        assert commits

    def test_preemption_storm(self, commits):
        probe = _probe(commits)
        _, start, _, _ = probe[len(probe) // 2]

        def setup(sim, server):
            sim.schedule_at(start, server.force_preempt)

        fast, _ = _both(setup=setup)
        assert fast.server.storm_preemptions > 0
        assert commits

    def test_partition_resize_mid_steady_state(self, commits):
        probe = _probe(commits)
        _, start, _, _ = probe[len(probe) // 2]

        def setup(sim, server):
            def tighten():
                # A tighter TBT budget makes the dispatcher pick a larger
                # decode partition at the next iteration boundary.
                server.slo_margin = 0.2

            sim.schedule_at(start, tighten)

        fast, _ = _both(setup=setup)
        assert any(t >= start for t, _, _ in fast.server.partition_log)
        assert any(c[1] > start for c in commits)

    def test_kv_pool_pressure_preemptions(self, commits, monkeypatch):
        """Recompute preemptions leave requests waiting with no prefill job."""
        from repro.serving.batching import DecodeBatchMixin

        preempted = []
        emit = DecodeBatchMixin.emit_decode_iteration

        def counting(self, instance, batch):
            finished, evicted = emit(self, instance, batch)
            preempted.extend(evicted)
            return finished, evicted

        monkeypatch.setattr(DecodeBatchMixin, "emit_decode_iteration", counting)
        cfg = ServingConfig(
            model=LLAMA_8B,
            spec=A100,
            n_gpus=8,
            kv_pool_limit_bytes=5000 * LLAMA_8B.kv_bytes_per_token,
        )
        _both(cfg=cfg, workload=lambda: sharegpt_workload(60, rate=30.0, seed=3))
        assert preempted
        assert commits

    def test_every_bail_condition_refuses_elision(self, monkeypatch):
        """Each item of the bail list alone stops a chain from eliding."""
        from repro.core import MuxWiseServer

        def perturbations(server):
            """``(name, apply, undo)`` for each bail condition."""
            engine = server.engine
            host = server.instance.host
            device = server.instance.device
            token = object()
            for name, queue in (
                ("waiting", server.waiting),
                ("host queue", host._queue),
                ("device active", device._active),
            ):
                yield name, lambda q=queue: q.append(token), queue.pop
            for name, obj, attr, value in (
                ("active job", server, "active_job", token),
                ("preempted job", server, "preempted_job", token),
                ("pending preemptor", server, "_preemptor_state", token),
                ("spec decoding", server, "spec_decode", token),
                ("host busy", host, "_busy", True),
                ("decode stream busy", engine.decode_stream, "_running", token),
                ("prefill stream busy", engine.prefill_stream, "_running", token),
                ("device stalled", device, "_stalled", True),
            ):
                old = getattr(obj, attr)
                yield (
                    name,
                    lambda o=obj, a=attr, v=value: setattr(o, a, v),
                    lambda o=obj, a=attr, v=old: setattr(o, a, v),
                )

        checked = []
        elide = MuxWiseServer._elide_decode

        def probing(self, batch, work):
            sim = self.sim
            before = (sim.now, sim.processed_events)
            for name, apply, undo in perturbations(self):
                apply()
                try:
                    assert elide(self, batch, work) is False, name
                finally:
                    undo()
                assert (sim.now, sim.processed_events) == before, name
            elided = elide(self, batch, work)
            checked.append(elided)
            return elided

        monkeypatch.setattr(MuxWiseServer, "_elide_decode", probing)
        with fastpath.enabled():
            _MuxRun()
        assert sum(checked) > 50

    def test_enabled_tracer_takes_the_scalar_path(self, commits):
        from repro.trace import Tracer

        with fastpath.enabled():
            traced_fast = Tracer()
            fast = _MuxRun(tracer=traced_fast)
        with fastpath.disabled():
            traced_scalar = Tracer()
            scalar = _MuxRun(tracer=traced_scalar)
        assert commits == []
        assert fast.states == scalar.states
        assert fast.sink.records == scalar.sink.records
        assert len(traced_fast.events) == len(traced_scalar.events)


class TestChaosStallEquivalence:
    def test_fault_plan_stall_mid_decode(self, commits):
        from repro.bench.chaos import run_chaos
        from repro.cluster import FleetConfig, HealthConfig
        from repro.core import MuxWiseServer
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        plan = FaultPlan(
            specs=(
                FaultSpec(at=4.0, kind=FaultKind.PARTITION_STALL, target="r0", duration=0.05),
                FaultSpec(at=6.0, kind=FaultKind.PREEMPTION_STORM, target="r0"),
            )
        )

        def run():
            result = run_chaos(
                MuxWiseServer,
                _mux_cfg(),
                _mux_workload(),
                fleet=FleetConfig(replicas=1, health=HealthConfig()),
                plan=plan,
            )
            return result.to_json()

        with fastpath.enabled():
            fast = run()
        assert commits
        with fastpath.disabled():
            scalar = run()
        assert fast == scalar


class TestPlanChain:
    """The planner against a real device chain, and its refusal cases."""

    FLOPS, BYTES, FIXED, LAUNCH = 3.1e12, 2.7e10, 4e-4, 4.5e-4

    def _device(self):
        from repro.gpu.device import Device

        sim = Simulator(start_time=0.25)
        return sim, Device(sim, A100, n_gpus=8)

    def test_finite_bandwidth_cap_is_not_planned(self):
        _, device = self._device()
        args = (device, self.FLOPS, self.BYTES, self.FIXED, 0.25)
        assert fastpath.plan_chain(*args) is not None
        assert fastpath.plan_chain(*args, max_bandwidth=math.inf) is not None
        assert fastpath.plan_chain(*args, max_bandwidth=1e11) is None
        assert fastpath.plan_chain(*args, max_bandwidth=1e30) is None

    @pytest.mark.parametrize("sm_count", [16, 48.5, None])
    def test_green_context_chain_with_host_launch_matches_scalar(self, sm_count):
        from repro.gpu.host import HostThread
        from repro.gpu.stream import Stream, Work

        sim, device = self._device()
        stream = Stream(device, sm_count or device.total_sms)
        host = HostThread(sim)
        done = []
        work = Work(flops=self.FLOPS, bytes=self.BYTES, fixed_time=self.FIXED)
        host.enqueue(self.LAUNCH, lambda: stream.submit(work).on_complete(done.append))
        sim.run()

        twin_sim, twin = self._device()
        plan = fastpath.plan_chain(
            twin, self.FLOPS, self.BYTES, self.FIXED, twin_sim.now,
            sm_count=sm_count, launch=self.LAUNCH,
        )
        assert plan is not None
        fastpath.commit_chain(twin_sim, twin, plan)
        assert plan.start == 0.25 + self.LAUNCH
        assert [plan.completion] == done
        assert twin_sim.now == sim.now
        assert twin_sim.processed_events == sim.processed_events == plan.events
        assert twin_sim.max_event_queue == sim.max_event_queue
        assert stream._busy_seconds == plan.completion - plan.start
        for name in ("_sm_seconds", "_bw_bytes_served", "_bw_capacity_seconds", "_last_advance"):
            assert getattr(twin, name) == getattr(device, name), name
