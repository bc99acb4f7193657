"""Benchmark of the MuxWise simulator: host speed and simulated serving metrics.

Run from the root of a checkout::

    python3 simbench/run.py --workload mux_toolagent --seed 0 --seconds 35 --trace 0

``--trace 0`` repeats untraced passes for ``--seconds`` (at least three) and
reports the end-to-end metrics: host set-up time and host simulation time
(medians over the passes) and peak memory, plus the simulated latency, SLO
attainment, capacity and throughput of the workload.  ``--trace 1`` profiles
one pass after the first untraced one and reports per-layer host self-time
(``cProfile``, aggregated by ``repro`` package) and deterministic work counts
from it.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; an operation is one simulation
run, and a run fails when any of its correctness checks fails.

Workload definitions, rate grids, operating rates, seeds and notes live in
``simbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: A --trace 0 run makes at least this many passes, so medians have a middle.
MIN_PASSES = 3
#: Iterations of the calibration loop (about 0.1 s of pure Python).
CALIB_ITERS = 600_000


def _fail(message: str) -> None:
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_repro(root: Path):
    """Import ``repro`` from the checkout's ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        _fail(f"repro imported from {repro.__file__}, not from {src}")
    return src / "repro"


def calibration_loop() -> float:
    """Host seconds for a fixed heap-and-float loop (context for timings)."""
    start = time.perf_counter()
    heap: list[float] = []
    acc = 0.0
    for i in range(CALIB_ITERS):
        heapq.heappush(heap, (i * 7919) % 1009 + acc * 1e-9)
        if len(heap) > 64:
            acc += heapq.heappop(heap) * 1.0001
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink grid-point traces (self-test only)"
    )
    args = parser.parse_args(argv)

    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        _fail(f"measure the program as shipped: unset {', '.join(switches)}")
    src_repro = _import_repro(Path.cwd())
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(config['workloads'])}")
    spec = config["workloads"][args.workload]
    seed = config["default_seed"] if args.seed is None else args.seed

    import harness
    from repro.sim import fastpath

    operating = spec["operating_rate"]
    # Untraced passes repeat for --seconds (at least MIN_PASSES of them with
    # --trace 0); the host-time metrics are their medians.  With --trace 1
    # the profiled pass follows the first untraced pass, counts towards
    # --seconds, and the untraced passes give trace.overhead_x its base.
    min_passes = 1 if args.trace else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    passes, pass_s, calib, traced = [], [], [], None
    while len(passes) < min_passes or time.perf_counter() < deadline:
        calib.append(calibration_loop())
        start = time.perf_counter()
        passes.append(harness.run_pass(args.workload, spec, seed, args.scale))
        pass_s.append(time.perf_counter() - start)
        if args.trace and traced is None:
            traced = harness.profile_pass(args.workload, spec, seed, args.scale)

    reference = passes[0]
    if args.trace:
        traced_runs, traced_wall, stats = traced

    failed_names = []
    attempted = 0
    for outcomes in passes + ([traced_runs] if args.trace else []):
        for ref, outcome in zip(reference, outcomes):
            attempted += 1
            problems = list(outcome.failures)
            if outcome.digest != ref.digest:
                problems.append(f"result digest {outcome.digest[:12]} != {ref.digest[:12]}")
            if problems:
                failed_names.append(f"{args.workload}@{outcome.rate:g}: {'; '.join(problems)}")

    setup = [sum(o.setup_s for o in p) for p in passes]
    wall = [sum(o.sim_s for o in p) for p in passes]
    print(
        f"simbench: workload={args.workload} seed={seed} passes={len(passes)} "
        f"fastpath_enabled={fastpath.is_enabled()} calib_s={statistics.median(calib):.4f}"
    )
    print(f"  simulation host seconds per pass: {' '.join(f'{w:.4f}' for w in wall)}")
    for outcome in reference:
        cells = " ".join(f"{k}={v:.6g}" for k, v in outcome.sim.items())
        print(
            f"  rate {outcome.rate:g} req/s, {outcome.requests} requests: {cells} "
            f"within_capacity={outcome.within_capacity}"
        )
    for name in failed_names:
        print(f"  FAILED {name}")

    if not args.trace:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values.update(harness.simulated_metrics(reference, operating))
    else:
        values = harness.layer_metrics(stats, src_repro, traced_wall)
        values.update(harness.work_metrics(traced_runs, operating))
        iters = values["serving.decode_iters"]
        values["serving.mean_decode_batch"] = (
            values["serving.token_records"] / iters if iters else 0.0
        )
        values["trace.overhead_x"] = traced_wall / statistics.median(pass_s)
        self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(f"  traced wall {traced_wall:.4f} s, layer self-time sum {self_sum:.4f} s")

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    result = {
        "correct": not failed_names,
        "attempted": attempted,
        "failed": len(failed_names),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
