"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace] [--out FILE]

For each workload and seed it runs ``run.py`` once (one process at a
time) and reports, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median.  End-to-end spreads are compared with a third of the bound
in ``BENCHMARK.json``.  With ``--trace`` every seed runs twice and the
count metrics must agree exactly between the two runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if args.trace:
                again = run_once(workload, seed, spec["run_seconds"], True)
                for name in COUNTS:
                    a, b = result["metrics"][name]["value"], again["metrics"][name]["value"]
                    if a != b:
                        steady = False
                        print(f"{workload} seed {seed}: {name} differs, {a} vs {b}")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={result['wall_s']:.1f}s", flush=True)
            steady &= result["correct"]
            runs.append(result)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                metrics[name] = {"values": values, "missing": True}
                continue
            metrics[name] = {**spread(values), "unit": entry["unit"], "values": values}
            s = metrics[name]["spread"]
            flag = ""
            if name in bounds and (s is None or s >= bounds[name] / 3):
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:28s} median {metrics[name]['median']:.6g} {entry['unit']:12s} "
                  f"spread {s if s is None else round(s, 4)}{flag}")
        report[workload] = {
            "metrics": metrics,
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
