"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--out runs.json]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
for the ``run_seconds`` of ``BENCHMARK.json``, and prints for every metric
the median and the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``).  ``--out`` writes
that summary and every run's result, with the lines the run printed before
it, for a later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    runs, summary = {}, {}
    for workload in workloads.WORKLOADS:
        results = []
        for seed in seeds_of(args.seeds):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            *log, last = done.stdout.strip().splitlines()
            results.append({"seed": seed, "log": log, **json.loads(last)})
        runs[workload] = results
        summary[workload] = summarize(results)
        bad = [r["seed"] for r in results if not r["correct"]]
        print(f"{workload}: {len(results)} runs, incorrect seeds {bad or 'none'}")
        for name, s in summary[workload].items():
            print(
                f"  {name:34s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                f"q3 {s['q3']:12.5g}  spread {s['spread']:7.3f}"
            )
    if args.out:
        doc = {"seconds": seconds, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def summarize(results) -> dict:
    """Median, quartiles and quartile spread (as a share of the median) of
    every metric over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


if __name__ == "__main__":
    sys.exit(main())
