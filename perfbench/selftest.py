"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py                 # check the gate
    python3 perfbench/selftest.py --write-golden  # record golden.json

Checks, on every workload's fixed panel, that
1. the package's outputs equal ``golden.json`` (recorded from the package
   at the commit the benchmark was written against),
2. ``reference.py`` reproduces the same golden outputs, so checking timed
   ops against the reference is checking them against that commit,
3. perturbed outputs are caught: each perturbation raises ``error_rate``
   above 0, while the unperturbed outputs keep it at 0.

Exits 1 if any of these fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, import_package

import_package()

import workloads  # noqa: E402


def without_gains(summary: dict) -> dict:
    """What golden.json keeps of an output: every checked field but the gains."""
    return {key: value for key, value in summary.items() if key != "gains"}


def perturbations(summary: dict) -> dict:
    """Named single-field corruptions of one output."""
    out = {}
    if "changepoints" in summary:
        cps = summary["changepoints"]
        out["changepoint shifted by 1"] = {**summary, "changepoints": [cps[0] + 1] + cps[1:]}
        out["changepoint dropped"] = {**summary, "changepoints": cps[:-1]}
        out["threshold off by 1e-6"] = {**summary, "threshold": summary["threshold"] * (1 + 1e-6)}
        out["total_length off by 1"] = {**summary, "total_length": summary["total_length"] + 1}
        if summary["score"] is not None:
            out["ic score off by 1e-6"] = {**summary, "score": summary["score"] * (1 + 1e-6)}
    else:
        out["mse off by 1e-6"] = {**summary, "mse": summary["mse"] * (1 + 1e-6)}
        out["hausdorff off by 1"] = {**summary, "hausdorff": summary["hausdorff"] + 1}
        out["count_error off by 1"] = {**summary, "count_error": summary["count_error"] + 1}
    return out


def error_rate(wl, summaries, wants) -> float:
    failed = 0
    for summary, want in zip(summaries, wants):
        try:
            wl.check(summary, want)
        except workloads.Mismatch:
            failed += 1
    return failed / len(summaries)


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark correctness self-test")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    path = HERE / "golden.json"
    golden = {} if args.write_golden else json.loads(path.read_text())
    problems = []
    for name in workloads.NAMES:
        wl = workloads.build(name)
        summaries = [
            wl.summarize(wl.run(wl.make_input(workloads.PANEL_SEED, i)))
            for i in range(wl.panel_size)
        ]
        if args.write_golden:
            golden[name] = [without_gains(s) for s in summaries]
            print(f"{name}: recorded {len(summaries)} panel outputs")
            continue
        wants = golden[name]
        package = error_rate(wl, summaries, wants)
        refs = [wl.expect(workloads.PANEL_SEED, i) for i in range(wl.panel_size)]
        ref = error_rate(wl, refs, wants)
        print(f"{name}: package vs golden error_rate {package:g}, reference vs golden {ref:g}")
        if package or ref:
            problems.append(f"{name}: unperturbed outputs disagree with golden.json")
        for label, bad in perturbations(summaries[0]).items():
            rate = error_rate(wl, [bad] + summaries[1:], wants)
            print(f"  perturbed ({label}): error_rate {rate:g}")
            if not rate > 0:
                problems.append(f"{name}: perturbation '{label}' not caught")
    if args.write_golden:
        path.write_text(json.dumps(golden, indent=1) + "\n")
        return 0
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
