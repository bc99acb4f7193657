"""Tiny-scale self-test of the simulator benchmark.

Runs every workload of ``simbench/workloads.json`` at a small fraction of its
trace size, twice per mode with the same seed, and asserts that:

* the last output line is the result object, every run passed its checks,
  and every metric named in ``BENCHMARK.json`` is printed with its unit;
* the simulated metrics and the per-layer work counts of the two same-seed
  runs are identical (host timings are not compared);
* the per-layer self-times add up to the traced pass's wall time.

Run from the root of a checkout::

    python3 simbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SCALE = 0.02
#: Host-time metrics, which differ between two runs of the same seed.
HOST_METRICS = {"setup_s", "wall_s", "peak_rss_mb", "trace.wall_s", "trace.overhead_x",
                "workloads.gen_s"}
#: cProfile's own bookkeeping between calls is charged to no function.
SELF_TIME_SLACK = 0.10


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--scale", str(SCALE)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"{workload}: exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _deterministic(metrics: dict) -> dict:
    return {
        name: m["value"] for name, m in metrics.items()
        if name not in HOST_METRICS and not name.endswith(".self_s")
    }


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads)
    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            first, second = _run(workload, trace), _run(workload, trace)
            for result in (first, second):
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert result["correct"] and result["failed"] == 0, result
                expected = {m["name"]: m["unit"] for m in declared[section]}
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                assert printed == expected, f"{workload}: {printed} != {expected}"
            assert _deterministic(first["metrics"]) == _deterministic(second["metrics"]), workload
            if trace:
                metrics = first["metrics"]
                self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
                wall = metrics["trace.wall_s"]["value"]
                assert abs(self_sum - wall) <= SELF_TIME_SLACK * wall, (workload, self_sum, wall)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
