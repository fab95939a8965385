"""Print every benchmark metric: end-to-end per workload, then per-layer from a traced run.

Usage (from the repository root):
    python3 perfbench/report.py [--seeds N] [--seconds S] [--workloads a,b,...]

For each workload it runs `run.py` untraced on seeds 1..N and traced on seed 1.
End-to-end metrics are pooled over every loop of the untraced runs: median,
the highest percentile with at least ten samples beyond it (timings only),
and the sample count. A run of `run_seconds` makes one loop on each workload,
so a loop timing has one sample per seed (`setup_s` has seven): its tail
column reads `n<11` below 11 seeds, and stays a low percentile until far
more. The traced run gives the stage walls, the per-layer table and
`trace.overhead_s`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import percentile  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIMINGS = ("setup_s", "loop_s", "rank_s")


def run(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    """(samples, final result) of one run.py call."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    samples = next(json.loads(l[len("samples "):]) for l in lines if l.startswith("samples "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: outputs failed the check\n{proc.stderr}", file=sys.stderr)
    return samples, result


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it; it needs at
    least 11 samples (p9 at 11, p50 at 20, p90 at 100)."""
    n = len(values)
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return f"p{p}={percentile(values, p):.4g}"
    return "n<11"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", default=str(json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        pooled: dict[str, list[float]] = {}
        for seed in range(1, args.seeds + 1):
            samples, _ = run(workload, seed, args.seconds, 0)
            for name in E2E_UNITS:
                pooled.setdefault(name, []).extend(samples[name])
        print(f"\n== {workload} (end to end, {args.seeds} seeds)")
        print(f"{'metric':<24}{'unit':<10}{'median':>14}{'tail':>18}{'n':>5}")
        for name, unit in E2E_UNITS.items():
            values = pooled[name]
            print(f"{name:<24}{unit:<10}{statistics.median(values):>14.6g}"
                  f"{tail(values) if name in TIMINGS else '-':>18}{len(values):>5}")
        samples, traced = run(workload, 1, args.seconds, 1)
        stages = samples["stages"][-1]
        loop_s = sum(stages.values())
        print(f"-- {workload} traced loop, seed 1: "
              + ", ".join(f"{s} {w:.2f}s ({w / loop_s:.0%})" for s, w in stages.items()))
        for name, metric in traced["metrics"].items():
            value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
            print(f"  {name:<32}{metric['unit']:<8}{value:>14}")


if __name__ == "__main__":
    main()
