"""Property: the fleet-level summary equals the merge of per-replica views.

Two angles:

1. A synthetic check on ``merge_collectors``: feeding disjoint request
   streams to separate collectors and merging must reproduce exactly what a
   single collector observing the union would report.
2. An end-to-end check on a deterministic seeded fleet run: the aggregated
   ``Summary`` must agree with re-merging the per-replica collectors, and
   the pooled percentile inputs must be the multiset union of the replicas'.

The one-pass ``pooled_summaries`` (which pools each collector's converted
samples instead of re-collecting them from the merged records) must equal
``merge_collectors(...).summarize()`` field for field, retired collectors
included.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ChunkedPrefillServer
from repro.cluster import Fleet, FleetConfig, HealthConfig
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.serving.metrics import MetricsCollector, merge_collectors, pooled_summaries
from repro.serving.slo import SLO
from repro.sim import Simulator
from repro.workloads import sharegpt_workload
from repro.workloads.request import Request
from repro.kvcache.radix import new_segment


SLO_DEFAULT = SLO(tbt=0.05, ttft=0.5)


def _feed(collector: MetricsCollector, request_id: int, arrival: float, tokens: int) -> None:
    request = Request(
        session_id=request_id,
        turn_index=0,
        arrival_time=arrival,
        history=[],
        new_input=new_segment(16),
        output_tokens=tokens,
    )
    request.request_id = request_id
    collector.on_arrival(request, arrival)
    collector.on_prefill_done(request, arrival + 0.05, new_tokens=16)
    for step in range(tokens):
        collector.on_tokens(request, arrival + 0.05 + 0.01 * (step + 1))


request_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # replica assignment
        st.floats(min_value=0.0, max_value=50.0),  # arrival
        st.integers(min_value=1, max_value=12),  # decoded tokens
    ),
    min_size=1,
    max_size=30,
)


class TestMergeCollectors:
    @given(plans=request_plans)
    @settings(max_examples=60, deadline=None)
    def test_merge_matches_single_observer(self, plans):
        shards = [MetricsCollector(SLO_DEFAULT, name=f"r{i}") for i in range(4)]
        union = MetricsCollector(SLO_DEFAULT, name="union")
        for request_id, (shard, arrival, tokens) in enumerate(plans):
            _feed(shards[shard], request_id, arrival, tokens)
            _feed(union, request_id, arrival, tokens)
        merged = merge_collectors(shards, SLO_DEFAULT, name="union")
        merged_dict = merged.summarize().as_dict()
        union_dict = union.summarize().as_dict()
        assert merged_dict.keys() == union_dict.keys()
        for key, value in union_dict.items():
            if isinstance(value, str):
                assert merged_dict[key] == value, key
                continue
            # Means are summed in a different record order after merging, so
            # allow for last-ulp float drift; everything else is exact.
            assert merged_dict[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
        assert Counter(merged.ttft_values()) == Counter(union.ttft_values())
        assert Counter(merged.all_token_gaps()) == Counter(union.all_token_gaps())


def _same(a, b) -> bool:
    """Field-for-field equality of two summaries (NaN equals NaN)."""
    a, b = a.as_dict(), b.as_dict()
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k]))
        for k in a
    )


class TestPooledSummaries:
    @given(plans=request_plans, retired=st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_pooled_equals_merge(self, plans, retired):
        shards = [MetricsCollector(SLO_DEFAULT, name=f"r{i}") for i in range(4)]
        for request_id, (shard, arrival, tokens) in enumerate(plans):
            _feed(shards[shard], request_id, arrival, tokens)
        fleet, own = pooled_summaries(
            shards[retired:], SLO_DEFAULT, name="fleet", retired=shards[:retired]
        )
        assert _same(fleet, merge_collectors(shards, SLO_DEFAULT, name="fleet").summarize())
        assert len(own) == len(shards) - retired
        for collector, summary in zip(shards[retired:], own):
            assert _same(summary, collector.summarize())

    def test_fleet_with_a_retired_generation(self, cfg_8b_single):
        sim = Simulator()
        fleet = Fleet(
            sim,
            lambda s, c: ChunkedPrefillServer(s, c, token_budget=256),
            cfg_8b_single,
            FleetConfig(replicas=2, health=HealthConfig()),
        )
        kill = FaultSpec(at=2.0, kind=FaultKind.REPLICA_KILL, target="r0", restart_after=1.0)
        FaultInjector(sim, fleet, FaultPlan(specs=(kill,))).arm()
        workload = sharegpt_workload(20, rate=10.0, seed=24)
        fleet.submit(workload)
        sim.run(until=workload.requests[-1].arrival_time + 3600.0)
        assert len(fleet._retired_collectors) == 1

        summary, per_replica = fleet.summaries()
        remerged = merge_collectors(
            [*fleet._retired_collectors, *(r.system.metrics for r in fleet.replicas)],
            cfg_8b_single.slo,
            name="fleet",
        )
        assert summary.as_dict() == remerged.summarize().as_dict()
        assert summary.requests_finished == len(workload)
        assert per_replica.keys() == fleet.per_replica_summaries().keys()
        for name, own in fleet.per_replica_summaries().items():
            assert per_replica[name].as_dict() == own.as_dict()


class TestFleetAggregation:
    def test_fleet_summary_is_merge_of_replica_summaries(self, cfg_8b_single):
        sim = Simulator()
        fleet = Fleet(
            sim,
            lambda s, c: ChunkedPrefillServer(s, c, token_budget=256),
            cfg_8b_single,
            FleetConfig(replicas=3, policy="least-outstanding"),
        )
        workload = sharegpt_workload(24, rate=10.0, seed=11)
        fleet.submit(workload)
        sim.run(until=workload.requests[-1].arrival_time + 3600.0)

        collectors = [r.system.metrics for r in fleet.replicas]
        remerged = merge_collectors(collectors, cfg_8b_single.slo)
        fleet_summary = fleet.summarize()
        assert fleet_summary.as_dict() == remerged.summarize().as_dict()

        pooled_ttfts = Counter(remerged.ttft_values())
        shard_ttfts = Counter()
        for collector in collectors:
            shard_ttfts.update(collector.ttft_values())
        assert pooled_ttfts == shard_ttfts

        pooled_gaps = Counter(remerged.all_token_gaps())
        shard_gaps = Counter()
        for collector in collectors:
            shard_gaps.update(collector.all_token_gaps())
        assert pooled_gaps == shard_gaps

        assert fleet_summary.requests_finished == len(workload)


class TestMixedConfigAggregation:
    """Same aggregation invariants when replicas run *different* configs."""

    def _mixed_fleet(self, cfg_8b_single):
        from repro.gpu.specs import H100, H200, L40S

        sim = Simulator()
        fleet = Fleet(
            sim,
            lambda s, c: ChunkedPrefillServer(s, c, token_budget=256),
            cfg_8b_single,
            FleetConfig(skus=(H200, H100, L40S), policy="least-outstanding"),
        )
        workload = sharegpt_workload(24, rate=10.0, seed=11)
        fleet.submit(workload)
        sim.run(until=workload.requests[-1].arrival_time + 3600.0)
        return fleet, workload

    def test_summary_is_merge_across_different_serving_configs(self, cfg_8b_single):
        fleet, workload = self._mixed_fleet(cfg_8b_single)
        assert fleet.heterogeneous
        assert len({r.spec.name for r in fleet.replicas}) == 3

        collectors = [r.system.metrics for r in fleet.replicas]
        remerged = merge_collectors(collectors, cfg_8b_single.slo)
        assert fleet.summarize().as_dict() == remerged.summarize().as_dict()

        pooled = Counter(remerged.ttft_values())
        shards = Counter()
        for collector in collectors:
            shards.update(collector.ttft_values())
        assert pooled == shards
        assert fleet.summarize().requests_finished == len(workload)

    def test_per_replica_attribution_keeps_sku_identity(self, cfg_8b_single):
        fleet, workload = self._mixed_fleet(cfg_8b_single)
        per_replica = fleet.per_replica_summaries()
        assert set(per_replica) == {r.name for r in fleet.replicas}
        assert (
            sum(s.requests_finished for s in per_replica.values())
            == fleet.summarize().requests_finished
        )
        # Every replica's summary reflects only requests it actually served.
        for replica in fleet.replicas:
            assert per_replica[replica.name].requests_total == len(
                replica.system.metrics.records
            )

    def test_cost_ledger_conserves_per_replica_dollars(self, cfg_8b_single):
        fleet, _ = self._mixed_fleet(cfg_8b_single)
        ledger = fleet.cost_ledger()
        rows = ledger["per_replica"]
        assert set(rows) == {r.name for r in fleet.replicas}
        assert ledger["usd"] == sum(row["usd"] for row in rows.values())
        assert ledger["kwh"] == sum(row["kwh"] for row in rows.values())
        assert ledger["replica_seconds"] == sum(
            row["active_seconds"] for row in rows.values()
        )
        # Each row independently recomputes from uptime x that SKU's price.
        now = fleet.sim.now
        for replica in fleet.replicas:
            row = rows[replica.name]
            assert row["sku"] == replica.spec.name
            hours = replica.uptime(now) / 3600.0
            assert row["usd"] == pytest.approx(hours * replica.cfg.hourly_cost)
            assert row["kwh"] == pytest.approx(hours * replica.cfg.power_watts / 1000.0)
