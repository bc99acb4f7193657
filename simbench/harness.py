"""Workload runs, correctness checks and metrics for the simulator benchmark.

Everything here measures the simulator from outside: it builds workloads and
systems through the public constructors, runs them through
:func:`repro.bench.runner.run_system` / :func:`repro.bench.fleet.run_fleet`,
times the calls, and reads the public result objects and the per-request
records of each system's :class:`repro.serving.metrics.MetricsCollector`.
Nothing under ``src/`` is patched; the only wrapper is a per-instance
``sim.run`` that stamps the host time at which set-up ends and the first
event is about to fire.

A *pass* runs one workload once at every rate of its grid.  Latency metrics
are read at the workload's operating rate; the capacity metric is read off
the whole grid.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
from dataclasses import dataclass
from pathlib import Path

from repro.baselines import ChunkedPrefillServer
from repro.bench.fleet import run_fleet
from repro.bench.perf import _digest
from repro.bench.runner import run_system
from repro.cluster import FleetConfig
from repro.core import MuxWiseServer
from repro.gpu.specs import A100
from repro.models.config import LLAMA_8B
from repro.serving.base import iter_instances
from repro.serving.config import ServingConfig
from repro.serving.metrics import percentile
from repro.serving.slo import default_slo
from repro.sim import make_sim
from repro.spec import ConstantAcceptance, SpecConfig
from repro.workloads import sharegpt_workload, toolagent_workload

#: Latency limits: the repository's own SLO values, not new settings.
TTFT_LIMIT_S = default_slo(LLAMA_8B).ttft
TBT_LIMIT_S = default_slo(LLAMA_8B).tbt

#: Layers named in the per-layer metrics; every other module's self-time
#: (stdlib, builtins, numpy, this benchmark, other ``repro`` packages) is
#: reported as ``other``.
LAYERS = (
    "sim", "gpu", "models", "kvcache", "serving", "core", "baselines", "cluster", "spec",
    "workloads",
)

#: Work counts read from the profile: metric -> (file under src/repro, function names).
CALL_COUNTS = {
    "sim.fastpath_plans": ("sim/fastpath.py", ("plan_chain",)),
    "sim.fastpath_commits": ("sim/fastpath.py", ("commit_chain",)),
    "gpu.submits": ("gpu/device.py", ("submit",)),
    "gpu.waterfills": ("gpu/device.py", ("waterfill",)),
    "models.prefill_calls": ("models/costs.py", ("prefill_layers", "prefill_full")),
    "models.decode_calls": ("models/costs.py", ("decode_iter", "decode_iter_totals")),
    "models.spec_calls": ("models/costs.py", ("draft_chain", "verify_iter")),
    "kvcache.match_calls": (
        "kvcache/radix.py",
        ("acquire", "match", "match_chain", "match_depth"),
    ),
    "kvcache.extend_calls": ("kvcache/radix.py", ("extend",)),
    "serving.decode_iters": ("serving/batching.py", ("emit_decode_iteration",)),
    "serving.token_records": ("serving/metrics.py", ("on_tokens_record",)),
    "core.prefill_groups": ("core/engine.py", ("launch_prefill_group",)),
    "core.decode_launches": ("core/engine.py", ("launch_decode",)),
    "core.estimator_calls": (
        "core/estimator.py",
        ("solo_decode", "solo_prefill", "worst_case_decode", "observe_decode"),
    ),
    "cluster.routes": ("cluster/router.py", ("route",)),
    "cluster.choices": ("cluster/router.py", ("choose",)),
    "spec.steps": ("spec/runtime.py", ("note_step",)),
}


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


def _mux(sim, cfg):
    return MuxWiseServer(sim, cfg)


def _chunked(sim, cfg):
    return ChunkedPrefillServer(sim, cfg, token_budget=256)


def build(name: str, size: int, rate: float, seed: int):
    """Return ``(workload, make_system, cfg, fleet)`` for one grid point.

    ``fleet`` is ``None`` for a single serving system.
    """
    if name == "mux_toolagent":
        workload = toolagent_workload(size, request_rate=rate, seed=seed)
        return workload, _mux, ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=8), None
    if name == "chunked_fleet_sharegpt":
        workload = sharegpt_workload(size, rate=rate, seed=seed)
        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1)
        return workload, _chunked, cfg, FleetConfig(replicas=4, policy="prefix-affinity")
    if name == "mux_spec_sharegpt":
        workload = sharegpt_workload(size, rate=rate, seed=seed)
        spec = SpecConfig(draft_len=4, acceptance=ConstantAcceptance(0.7))
        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=2, spec_decode=spec)
        return workload, _mux, cfg, None
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------------- #
# One simulation run
# --------------------------------------------------------------------- #


@dataclass
class RunOutcome:
    """One simulation run: host timings, checks and simulated results."""

    rate: float
    requests: int
    setup_s: float
    sim_s: float
    digest: str
    failures: list[str]
    sim: dict[str, float]
    work: dict[str, float]

    @property
    def within_capacity(self) -> bool:
        """Every request finished and TTFT p99 stayed within its limit."""
        return self.sim["req_done_frac"] == 1.0 and self.sim["ttft_p99_s"] <= TTFT_LIMIT_S


def simulate(name: str, size: int, rate: float, seed: int) -> RunOutcome:
    """Generate, build and run one grid point, then check and measure it."""
    start = time.perf_counter()
    workload, make_system, cfg, fleet = build(name, size, rate, seed)
    systems = []
    first_event = []

    def factory(sim, cfg):
        system = make_system(sim, cfg)
        systems.append(system)
        return system

    def sim_factory():
        sim = make_sim()
        run = sim.run

        def stamped_run(*args, **kwargs):
            first_event.append(time.perf_counter())
            return run(*args, **kwargs)

        sim.run = stamped_run
        return sim

    if fleet is None:
        result = run_system(factory, cfg, workload, sim_factory=sim_factory)
    else:
        result = run_fleet(factory, cfg, workload, fleet, sim_factory=sim_factory)
    end = time.perf_counter()
    return RunOutcome(
        rate,
        len(workload),
        first_event[0] - start,
        end - first_event[0],
        _digest(_payload(result)),
        *_measure(workload, result, systems),
    )


def _payload(result) -> dict:
    """Id-free aggregates, as ``repro.bench.perf`` fingerprints them."""
    payload = {
        "summary": result.summary.as_dict(),
        "cache_hit_rate": result.cache_hit_rate,
        "sm_utilization": result.sm_utilization,
        "bandwidth_utilization": result.bandwidth_utilization,
        "extras": result.extras,
    }
    if hasattr(result, "per_replica"):
        payload["per_replica"] = {n: s.as_dict() for n, s in sorted(result.per_replica.items())}
        payload["requests_shed"] = result.requests_shed
        payload["router_decisions"] = result.router_decisions
    return payload


def _measure(workload, result, systems):
    """Return ``(failures, simulated metrics, work counts)`` of one run."""
    failures = []
    wanted = {r.request_id: r for r in workload.requests}
    records = {}
    for system in systems:
        for request_id, record in system.metrics.records.items():
            if request_id in records:
                failures.append(f"request {request_id} recorded twice")
            records[request_id] = record
    stray = records.keys() - wanted.keys()
    if stray:
        failures.append(f"{len(stray)} recorded requests not in the workload")
    # Conservation: attempted = finished + unfinished + shed + lost, where
    # finished and unfinished requests are recorded by exactly one system.
    # No workload injects faults, so a lost request is a defect.
    attempted = len(wanted)
    shed = getattr(result, "requests_shed", 0)
    finished = [r for r in records.values() if r.finished]
    lost = attempted - len(records) - shed
    if lost != 0:
        failures.append(f"conservation: {lost} requests neither recorded nor shed")
    for record in finished:
        if record.tokens_emitted != record.request.output_tokens:
            failures.append(
                f"request {record.request.request_id} emitted {record.tokens_emitted} "
                f"of {record.request.output_tokens} tokens"
            )
            break
    summary = result.summary
    if summary.requests_finished != len(finished):
        failures.append("summary disagrees with the per-request records")

    # TTFT from each request's scheduled arrival; TBT over emission gaps
    # (the tokens a verify step releases together with its first token
    # arrive with no gap of their own and are not separate emissions).
    ttfts = [r.first_token - r.request.arrival_time for r in records.values()
             if r.first_token is not None]
    gaps = [g for r in records.values() for g in r.token_gaps if g > 0.0]
    tokens_in_slo = 0
    for record in records.values():
        if record.first_token is not None:
            tokens_in_slo += record.first_token - record.request.arrival_time <= TTFT_LIMIT_S
            tokens_in_slo += sum(1 for g in record.token_gaps if g <= TBT_LIMIT_S)
    tokens_attempted = sum(r.output_tokens for r in workload.requests)
    sim = {
        "ttft_p50_s": percentile(ttfts, 50.0),
        "ttft_p99_s": percentile(ttfts, 99.0),
        "tbt_p50_ms": percentile(gaps, 50.0) * 1e3,
        "tbt_p99_ms": percentile(gaps, 99.0) * 1e3,
        "slo_attainment": tokens_in_slo / tokens_attempted,
        "useful_tok_s": summary.useful_throughput,
        "req_done_frac": len(finished) / attempted,
    }

    caches = [inst.cache for system in systems for inst in iter_instances(system)]
    engines = [s.engine for s in systems if getattr(s, "engine", None) is not None]
    runtimes = [s.spec_decode for s in systems if getattr(s, "spec_decode", None) is not None]
    spec_steps = sum(rt.steps for rt in runtimes)
    work = {
        "sim.events": result.extras["events_processed"],
        "sim.peak_queue": result.extras["peak_event_queue"],
        "gpu.sm_util": result.sm_utilization,
        "gpu.bw_util": result.bandwidth_utilization,
        "kvcache.hit_rate": result.cache_hit_rate,
        "kvcache.evicted_tokens": float(sum(c.stats.evicted_tokens for c in caches)),
        "core.reconfigs": float(sum(e.reconfigurations for e in engines)),
        "core.bubble_ratio": _mean([e.bubble_ratio() for e in engines]),
        "spec.accepted_per_step": (
            sum(rt.emitted for rt in runtimes) / spec_steps if spec_steps else 0.0
        ),
    }
    return failures, sim, work


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------- #
# Passes and metrics
# --------------------------------------------------------------------- #


def run_pass(name: str, spec: dict, seed: int, size_scale: float = 1.0) -> list[RunOutcome]:
    """Run every grid rate of one workload once.

    The operating rate gets the larger trace: its percentiles are the
    reported latencies.  The other grid points only decide capacity.
    """
    outcomes = []
    for rate in spec["rates"]:
        size = spec["operating_size"] if rate == spec["operating_rate"] else spec["size"]
        # Collect the previous run's garbage now, so that a collection
        # triggered inside the next run's set-up does not charge it.
        gc.collect()
        outcomes.append(simulate(name, max(4, int(size * size_scale)), rate, seed))
    return outcomes


def at_rate(outcomes: list[RunOutcome], rate: float) -> RunOutcome:
    """The outcome of the run at ``rate``."""
    return next(o for o in outcomes if o.rate == rate)


def simulated_metrics(outcomes: list[RunOutcome], operating_rate: float) -> dict[str, float]:
    """Latency metrics at the operating rate plus the grid's capacity."""
    metrics = dict(at_rate(outcomes, operating_rate).sim)
    passing = [o.rate for o in outcomes if o.within_capacity]
    metrics["capacity_rps"] = max(passing) if passing else 0.0
    return metrics


def layer_of(filename: str, src_repro: str) -> str:
    """The layer a profiled function belongs to (``other`` outside the layers)."""
    if filename.startswith(src_repro):
        package = filename[len(src_repro):].lstrip("/").split("/", 1)[0]
        if package in LAYERS:
            return package
    return "other"


def profile_pass(name: str, spec: dict, seed: int, size_scale: float = 1.0):
    """Run one pass under ``cProfile``; return its outcomes, wall time and stats."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    outcomes = run_pass(name, spec, seed, size_scale)
    profile.disable()
    wall = time.perf_counter() - start
    return outcomes, wall, pstats.Stats(profile).stats


def layer_metrics(stats, src_repro: Path, traced_wall: float) -> dict[str, float]:
    """Per-layer self time and call counts from a profile's raw stats."""
    root = str(src_repro)
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    counts = {metric: 0 for metric in CALL_COUNTS}
    gen_s = 0.0
    for (filename, _line, func), (_cc, calls, own, cumulative, _callers) in stats.items():
        self_s[layer_of(filename, root)] += own
        if filename.startswith(root):
            rel = filename[len(root):].lstrip("/")
            for metric, (module, names) in CALL_COUNTS.items():
                if rel == module and func in names:
                    counts[metric] += calls
            if rel == "workloads/traces.py" and func.endswith("_workload"):
                gen_s += cumulative
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update({k: float(v) for k, v in counts.items()})
    metrics["workloads.gen_s"] = gen_s
    metrics["trace.wall_s"] = traced_wall
    return metrics


def work_metrics(outcomes: list[RunOutcome], operating_rate: float) -> dict[str, float]:
    """Work counts summed over the pass; ratios and utilisations at the operating rate."""
    op = at_rate(outcomes, operating_rate).work
    metrics = dict(op)
    metrics["sim.events"] = sum(o.work["sim.events"] for o in outcomes)
    metrics["sim.peak_queue"] = max(o.work["sim.peak_queue"] for o in outcomes)
    metrics["kvcache.evicted_tokens"] = sum(o.work["kvcache.evicted_tokens"] for o in outcomes)
    metrics["core.reconfigs"] = sum(o.work["core.reconfigs"] for o in outcomes)
    return metrics

