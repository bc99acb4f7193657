"""Latency and throughput metrics for serving experiments.

Collects, per request: TTFT, every token gap (TBT), TPOT, end-to-end
latency; and per run: percentiles, SLO attainment, token throughput.  These
are exactly the quantities of the paper's Figs. 14-17 and Tables 3-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.serving.slo import SLO
from repro.workloads.request import Request


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile; NaN for empty (or all-NaN) input.

    NaN samples are excluded: NaN has no rank, so it takes no part in the
    order statistics.
    """
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100]")
    return _Samples.of(values).select(pct)[0]


class _Samples:
    """One metric's samples, ready for a mean and any order statistics.

    ``parts`` keeps the samples in their original order: means sum them in
    that order (float addition is not associative, and these numbers are
    fingerprinted byte for byte).  ``clean`` holds the same samples as one
    NaN-free float64 array.  Every percentile requested of it is read from
    a single ``numpy.partition`` on the needed ranks, and the rank and
    interpolation arithmetic is done in Python floats.  The k-th smallest
    sample is one value whichever way it is found, so the result is
    bit-identical to indexing the ``sorted()`` list.  The only exception
    is the sign of a zero: ``-0.0 == 0.0``, and a stable sort and a
    selection may pick different ones.  No simulated sample is ever
    ``-0.0``, since each is a later time minus an earlier one, and ``x - y``
    with ``x >= y`` rounds to ``+0.0`` when the two are equal.

    A fleet's samples are its collectors' samples pooled: the parts are
    chained in merge order and the arrays concatenated, so no sample list
    is converted twice.
    """

    __slots__ = ("parts", "size", "clean")

    def __init__(self, parts: list[list[float]], clean: np.ndarray) -> None:
        self.parts = parts
        self.size = sum(map(len, parts))
        self.clean = clean

    @classmethod
    def of(cls, values: list[float]) -> "_Samples":
        """Samples of one list (the array is a copy, so selection may
        reorder it; the list is kept as it is)."""
        clean = np.fromiter(values, dtype=np.float64, count=len(values))
        nan = np.isnan(clean)
        if nan.any():
            clean = clean[~nan]
        return cls([values], clean)

    @classmethod
    def pool(cls, samples: "Iterable[_Samples]") -> "_Samples":
        """The union of several sample sets, in the given order."""
        samples = list(samples)
        parts = [part for s in samples for part in s.parts]
        return cls(parts, np.concatenate([s.clean for s in samples]))

    def mean(self) -> float:
        """Arithmetic mean in sample order (NaN for no samples)."""
        if not self.size:
            return math.nan
        return sum(chain.from_iterable(self.parts)) / self.size

    def select(self, *pcts: float) -> list[float]:
        """Linear-interpolated percentiles of the NaN-free samples."""
        clean = self.clean
        n = len(clean)
        if n <= 1:
            only = float(clean[0]) if n else math.nan
            return [only] * len(pcts)
        ranks = []
        for pct in pcts:
            rank = (pct / 100.0) * (n - 1)
            ranks.append((rank, int(math.floor(rank)), int(math.ceil(rank))))
        clean.partition(sorted({k for _, low, high in ranks for k in (low, high)}))
        out = []
        for rank, low, high in ranks:
            value = float(clean[low])
            if low != high:
                frac = rank - low
                value = value * (1 - frac) + float(clean[high]) * frac
            out.append(value)
        return out

    def count_at_most(self, bound: float) -> int:
        """NaN-free samples ``<= bound`` (all of them for a NaN bound, as
        ``bisect_right`` on the sorted samples would count)."""
        return len(self.clean) - int(np.count_nonzero(self.clean > bound))


@dataclass
class RequestRecord:
    """Lifecycle timestamps of one request."""

    request: Request
    arrival: float
    first_token: float | None = None
    last_token: float | None = None
    tokens_emitted: int = 0
    token_gaps: list[float] = field(default_factory=list)
    #: New (non-reused) tokens this request's prefill computed; remembered
    #: so a record discarded after a replica failure can be un-counted.
    prefilled_tokens: int = 0

    @property
    def finished(self) -> bool:
        """True once every output token was emitted."""
        return self.tokens_emitted >= self.request.output_tokens

    @property
    def ttft(self) -> float:
        """Time to first token."""
        if self.first_token is None:
            return math.nan
        return self.first_token - self.arrival

    @property
    def ttft_per_token(self) -> float:
        """TTFT normalised by input length (Fig. 20's metric)."""
        return self.ttft / max(1, self.request.input_tokens)

    @property
    def tpot(self) -> float:
        """Average time per output token after the first."""
        if self.first_token is None or self.last_token is None or self.tokens_emitted < 2:
            return math.nan
        return (self.last_token - self.first_token) / (self.tokens_emitted - 1)

    @property
    def e2e(self) -> float:
        """End-to-end latency (arrival to last token)."""
        if self.last_token is None:
            return math.nan
        return self.last_token - self.arrival


@dataclass
class Summary:
    """Aggregate results of one run (one system x workload x rate)."""

    name: str
    requests_total: int
    requests_finished: int
    ttft_avg: float
    ttft_p50: float
    ttft_p99: float
    tbt_avg: float
    tbt_p50: float
    tbt_p99: float
    tpot_avg: float
    tpot_p50: float
    e2e_avg: float
    e2e_p50: float
    token_throughput: float
    useful_throughput: float
    output_throughput: float
    tbt_attainment: float
    slo_met: bool

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table printing."""
        return dict(self.__dict__)


class MetricsCollector:
    """Accumulates per-request records and produces run summaries.

    ``sink`` (any :class:`repro.bench.sinks.RecordSink`) taps the
    per-token gap stream: every decode emission also produces a record
    ``{"req": <arrival index>, "ts": <time>, "gaps": [..]}`` in emission
    order.  The tap is opt-in and purely additive — summaries and
    fingerprints are computed from the records exactly as without it; the
    fast-path equivalence suite diffs these streams between the elided
    and scalar paths.
    """

    def __init__(self, slo: SLO, name: str = "", sink=None) -> None:
        self.slo = slo
        self.name = name
        self.sink = sink
        self.records: dict[int, RequestRecord] = {}
        self._arrival_index: dict[int, int] = {}
        self._prefilled_tokens = 0
        self._useful_input_tokens = 0
        self._start_time: float | None = None
        self._end_time: float | None = None

    # ------------------------------------------------------------------ #
    # Event recording
    # ------------------------------------------------------------------ #

    def on_arrival(self, request: Request, time: float) -> RequestRecord:
        """Register a request's arrival."""
        record = RequestRecord(request=request, arrival=time)
        self.records[request.request_id] = record
        if request.request_id not in self._arrival_index:
            # Stable per-collector index: raw request ids are process-global
            # counters, so streamed records identify requests by arrival
            # order, which is invariant across runs in one process.
            self._arrival_index[request.request_id] = len(self._arrival_index)
        if self._start_time is None or time < self._start_time:
            self._start_time = time
        return record

    def on_prefill_done(self, request: Request, time: float, new_tokens: int) -> None:
        """Record the first token (end of prefill) and prefilled volume."""
        record = self.records[request.request_id]
        if record.first_token is not None:
            raise ValueError(f"request {request.request_id} prefilled twice")
        record.first_token = time
        record.last_token = time
        record.tokens_emitted = 1
        record.prefilled_tokens += new_tokens
        self._prefilled_tokens += new_tokens
        self._useful_input_tokens += request.input_tokens
        self._end_time = time if self._end_time is None else max(self._end_time, time)

    def on_tokens(self, request: Request, time: float, count: int = 1) -> None:
        """Record ``count`` decode tokens emitted at ``time``."""
        self.on_tokens_record(self.records[request.request_id], time, count)

    def on_tokens_record(self, record: RequestRecord, time: float, count: int = 1) -> None:
        """:meth:`on_tokens` for callers already holding the record.

        The serving hot path emits per-iteration decode tokens for every
        active request; handing the record in directly skips one dict
        lookup per token batch.
        """
        last = record.last_token
        if last is None:
            raise ValueError("tokens before first token")
        record.token_gaps.append(time - last)
        if count > 1:
            # A step that emits several tokens (speculative verification)
            # stalled the stream for the whole step: the first token carries
            # the full gap and the rest arrive with it.  Smearing the gap
            # evenly would hide the stall from P99 TBT and SLO attainment.
            record.token_gaps.extend(repeat(0.0, count - 1))
        record.tokens_emitted += count
        record.last_token = time
        if self.sink is not None:
            self.sink.emit(
                {
                    "req": self._arrival_index.get(record.request.request_id, -1),
                    "ts": time,
                    "gaps": record.token_gaps[-count:],
                }
            )
        end = self._end_time
        if end is None or time > end:
            self._end_time = time

    def discard(self, request_id: int) -> RequestRecord | None:
        """Forget an in-flight request whose replica died mid-serve.

        Un-counts the record's prefilled/useful token contributions so the
        collector reports only work this (now dead) replica actually
        delivered; the partial decode tokens it emitted are returned with
        the record so the fault layer can account them as wasted.  The
        request is then re-recorded from scratch wherever the router
        re-dispatches it — its TTFT is measured honestly against the
        original arrival, not the retry.  Returns None for unknown ids
        (e.g. a delivery that never reached the replica).
        """
        record = self.records.pop(request_id, None)
        if record is None:
            return None
        if record.first_token is not None:
            self._prefilled_tokens -= record.prefilled_tokens
            self._useful_input_tokens -= record.request.input_tokens
        return record

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def sliced(
        self,
        predicate: "Callable[[Request], bool]",
        slo: SLO | None = None,
        name: str | None = None,
    ) -> "MetricsCollector":
        """A sub-collector over the requests matching ``predicate``.

        Records are shared (not copied) and the throughput counters are
        recomputed from the surviving records.  The observation window is
        the *parent's* window, so per-slice throughputs are shares of the
        same elapsed time and sum to the parent's — the multi-tenant
        accounting slices per tenant/tier this way.  ``slo`` substitutes a
        different target (e.g. a tier SLO) for the slice's summary.
        """
        sub = MetricsCollector(slo if slo is not None else self.slo, name=name or self.name)
        for request_id, record in self.records.items():
            if not predicate(record.request):
                continue
            sub.records[request_id] = record
            if record.first_token is not None:
                sub._prefilled_tokens += record.prefilled_tokens
                sub._useful_input_tokens += record.request.input_tokens
        sub._start_time = self._start_time
        sub._end_time = self._end_time
        return sub

    @property
    def finished_records(self) -> list[RequestRecord]:
        """Records of requests that emitted all their tokens."""
        return [r for r in self.records.values() if r.finished]

    def all_token_gaps(self) -> list[float]:
        """Every TBT sample across all requests."""
        gaps: list[float] = []
        for record in self.records.values():
            gaps.extend(record.token_gaps)
        return gaps

    def ttft_values(self, finished_only: bool = False) -> list[float]:
        """TTFT samples (of requests that at least started decoding)."""
        records = self.finished_records if finished_only else self.records.values()
        return [r.ttft for r in records if r.first_token is not None]

    def summarize(self) -> Summary:
        """Aggregate all records into a :class:`Summary`."""
        return self._summary(self._samples())

    def _samples(self) -> "_RunSamples":
        """Every sample list a summary reads, each converted once."""
        finished = self.finished_records
        return _RunSamples(
            finished=len(finished),
            ttfts=_Samples.of(self.ttft_values()),
            gaps=_Samples.of(self.all_token_gaps()),
            tpots=_Samples.of([r.tpot for r in finished if not math.isnan(r.tpot)]),
            e2es=_Samples.of([r.e2e for r in finished]),
        )

    def _summary(self, samples: "_RunSamples") -> Summary:
        """A :class:`Summary` of this collector's records and window, with
        latency distributions read from ``samples``."""
        elapsed = 0.0
        if self._start_time is not None and self._end_time is not None:
            elapsed = max(1e-9, self._end_time - self._start_time)
        output_tokens = sum(r.tokens_emitted for r in self.records.values())
        total_tokens = output_tokens + self._prefilled_tokens
        useful_tokens = output_tokens + self._useful_input_tokens
        ttft_p50, ttft_p99 = samples.ttfts.select(50.0, 99.0)
        gaps = samples.gaps
        tbt_p50, tbt_p99 = gaps.select(50.0, 99.0)
        # A run with no decode gaps (every request emitted a single output
        # token) never violated the TBT SLO: attainment is vacuously 1.0
        # and the SLO is met, not failed.  NaN gaps (none in practice) are
        # never within the SLO but stay in the denominator as misses.
        attainment = gaps.count_at_most(self.slo.tbt) / gaps.size if gaps.size else 1.0
        return Summary(
            name=self.name,
            requests_total=len(self.records),
            requests_finished=samples.finished,
            ttft_avg=samples.ttfts.mean(),
            ttft_p50=ttft_p50,
            ttft_p99=ttft_p99,
            tbt_avg=gaps.mean(),
            tbt_p50=tbt_p50,
            tbt_p99=tbt_p99,
            tpot_avg=samples.tpots.mean(),
            tpot_p50=samples.tpots.select(50.0)[0],
            e2e_avg=samples.e2es.mean(),
            e2e_p50=samples.e2es.select(50.0)[0],
            token_throughput=total_tokens / elapsed if elapsed else 0.0,
            useful_throughput=useful_tokens / elapsed if elapsed else 0.0,
            output_throughput=output_tokens / elapsed if elapsed else 0.0,
            tbt_attainment=attainment,
            slo_met=tbt_p99 <= self.slo.tbt if gaps.size else True,
        )


@dataclass
class _RunSamples:
    """The latency samples behind one :class:`Summary`."""

    finished: int
    ttfts: _Samples
    gaps: _Samples
    tpots: _Samples
    e2es: _Samples

    @classmethod
    def pool(cls, runs: "list[_RunSamples]") -> "_RunSamples":
        """Samples of the merged collector, from its parts' samples."""
        return cls(
            finished=sum(r.finished for r in runs),
            ttfts=_Samples.pool(r.ttfts for r in runs),
            gaps=_Samples.pool(r.gaps for r in runs),
            tpots=_Samples.pool(r.tpots for r in runs),
            e2es=_Samples.pool(r.e2es for r in runs),
        )


def pooled_summaries(
    collectors: Sequence[MetricsCollector],
    slo: SLO,
    name: str = "fleet",
    retired: Sequence[MetricsCollector] = (),
) -> tuple[Summary, list[Summary]]:
    """A fleet summary and each collector's own summary, in one pass.

    The first result equals ``merge_collectors([*retired, *collectors],
    slo, name).summarize()`` field for field; the second lists
    ``c.summarize()`` for each of ``collectors``.  ``retired`` collectors
    count towards the fleet only.  Each collector's sample lists are
    converted once and the fleet's order statistics read off their
    concatenation, instead of re-collecting every sample from the merged
    records.
    """
    merged = merge_collectors([*retired, *collectors], slo, name=name)
    own_samples = [c._samples() for c in collectors]
    own = [c._summary(s) for c, s in zip(collectors, own_samples)]
    pooled = _RunSamples.pool([*(c._samples() for c in retired), *own_samples])
    return merged._summary(pooled), own


def merge_collectors(
    collectors: Iterable[MetricsCollector], slo: SLO, name: str = "fleet"
) -> MetricsCollector:
    """Union several collectors into one (fleet-level aggregation).

    Request ids are globally unique, so the merged record set is the plain
    union; throughput counters add and the observation window spans the
    earliest start to the latest end.  Summarising the merged collector
    computes fleet percentiles over the *pooled* per-request samples — the
    same numbers a single collector would have produced had it observed
    every replica's events directly.
    """
    merged = MetricsCollector(slo, name=name)
    for collector in collectors:
        overlap = merged.records.keys() & collector.records.keys()
        if overlap:
            raise ValueError(f"request ids recorded on two replicas: {sorted(overlap)[:5]}")
        merged.records.update(collector.records)
        merged._prefilled_tokens += collector._prefilled_tokens
        merged._useful_input_tokens += collector._useful_input_tokens
        for bound, pick in (("_start_time", min), ("_end_time", max)):
            theirs = getattr(collector, bound)
            if theirs is None:
                continue
            ours = getattr(merged, bound)
            setattr(merged, bound, theirs if ours is None else pick(ours, theirs))
    return merged
