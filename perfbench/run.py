"""seedseg benchmark: one workload, one closed-loop client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.
Ops run until they have been busy for ``--seconds``; after each op a
checker process (``check.py``) compares its output with the reference
while the clock is stopped.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs each input traced and untraced and reports
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# BLAS / OpenMP pools pinned before numpy loads
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import seedseg, seedseg.cli\n"
    "from seedseg.signals import bundled_signal_names, load_bundled_signal\n"
    "specs = [load_bundled_signal(n) for n in bundled_signal_names()]\n"
    "print(time.perf_counter() - t0)\n"
)


def import_package():
    """Import ``seedseg`` from this checkout's ``src/``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import seedseg
        import seedseg.cli
        import seedseg.select
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import seedseg from {SRC}: {exc}")
    if Path(seedseg.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: seedseg was imported from {seedseg.__file__}, not {SRC}")
    return {"seedseg.cli": seedseg.cli, "seedseg.select": seedseg.select}


def measure_setup() -> float:
    """Seconds from a fresh interpreter's first import to the package and specs loaded."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    """The hardware and software every result was measured on."""
    import numpy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                  if l.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = read(index / "size")
    meminfo = read("/proc/meminfo") or ""
    mem_kb = next((int(l.split()[1]) for l in meminfo.splitlines() if l.startswith("MemTotal")), 0)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "ram_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": THREAD_ENV,
        "not_controlled": "page cache not dropped, CPU frequency not pinned, host shared "
                          "with other tenants; cores not isolated",
    }


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it; the maximum if there are fewer than 11."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Checker:
    """The ``check.py`` process for one run; ``check`` waits for its verdict."""

    def __init__(self, workload: str, seed: int):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "check.py"), workload, str(seed)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def check(self, op: int, summary: dict):
        """None when op ``op``'s output matches the reference, else what differs."""
        self._proc.stdin.write(json.dumps({"op": op, "summary": summary}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"checker process exited with {self._proc.wait()}")
        return json.loads(reply)["error"]

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def run_op(wl, x):
    """One op: (seconds, summary or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(x)
        elapsed = time.perf_counter() - t0
        return elapsed, wl.summarize(out), None
    except Exception:  # the loop must go on; the failure is counted
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)


def run_pair(tracer, wl, x, i: int):
    """Op ``i`` traced and untraced on the same input, back to back, in an
    order that alternates with ``i``: (traced s, untraced s, summary, error)."""
    runs = {}
    for traced in (i % 2 == 0, i % 2 == 1):
        if traced:
            with tracer.op(i):
                runs[traced] = run_op(wl, x)
        else:
            runs[traced] = run_op(wl, x)
    (traced_s, summary, error), (plain_s, plain, plain_error) = runs[True], runs[False]
    error = error or plain_error
    if not error and summary != plain:
        error = "traced and untraced outputs differ"
    return traced_s, plain_s, summary, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_package()
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.NAMES)}")
    wl = workloads.build(args.workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    golden = json.loads((HERE / "golden.json").read_text())[wl.name]
    print("# machine:", json.dumps(machine()))

    attempted = failed = 0

    def fail(what, message):
        nonlocal failed
        failed += 1
        print(f"# FAIL {what}: {message.strip()}", file=sys.stderr)

    checker = Checker(wl.name, args.seed)
    try:
        # Fixed panel: golden outputs and accuracy; also warms every code path.
        mses, hausdorffs = [], []
        for i in range(wl.panel_size):
            attempted += 1
            _, summary, error = run_op(wl, wl.make_input(workloads.PANEL_SEED, i))
            if error:
                fail(f"panel op {i}", error)
                continue
            try:
                wl.check(summary, golden[i])
            except workloads.Mismatch as exc:
                fail(f"panel op {i}", str(exc))
            mse, hd = wl.quality(workloads.PANEL_SEED, i, summary)
            mses.append(mse)
            hausdorffs.append(hd)

        # Closed loop until ops (input generation included) have been busy
        # for --seconds.  The checker runs between ops, off the clock, and
        # so do the set-up samples, spread evenly over the run so that
        # their median covers the same stretch of time as the ops.  A
        # traced run runs each input traced and untraced (one op, checked
        # once), which gives the tracing overhead as per-input ratios.
        tracer = spans.Tracer(modules) if args.trace else None
        latencies, pairs, setup = [], [], []
        busy = 0.0
        i = 0
        while i == 0 or busy < args.seconds:
            t0 = time.perf_counter()
            x = wl.make_input(args.seed, i)
            if tracer is None:
                elapsed, summary, error = run_op(wl, x)
            else:
                elapsed, plain_s, summary, error = run_pair(tracer, wl, x, i)
            busy += time.perf_counter() - t0
            attempted += 1
            if not error:
                latencies.append(elapsed)
                if tracer is not None:
                    pairs.append((elapsed, plain_s))
                error = checker.check(i, summary)
            if error:
                fail(f"op {i}", error)
            i += 1
            due = 0 if tracer else SETUP_SAMPLES * min(busy / args.seconds, 1.0)
            while len(setup) < due:
                setup.append(measure_setup())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        checker.close()

    if not latencies:
        sys.exit("perfbench: no op succeeded")
    print(f"# error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")

    if args.trace:
        traced_ops = list(range(i))
        values = spans.layer_metrics(tracer, wl.layers, traced_ops)
        traced, plain = zip(*pairs)
        values["trace.traced_ops_per_s"] = len(traced) / sum(traced)
        values["trace.untraced_ops_per_s"] = len(plain) / sum(plain)
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(t / u for t, u in pairs) - 1.0
        )
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"spans-{wl.name}-{args.seed}.jsonl"
        with trace_file.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, default=int) + "\n")
        print(f"# {len(tracer.spans)} spans over {len(traced_ops)} traced ops "
              f"-> {trace_file.relative_to(ROOT)}")
    else:
        value, percentile, beyond = tail(latencies)
        print(f"# latency_tail_ms is p{percentile:.4g} of {len(latencies)} op latencies "
              f"({beyond} beyond it)")
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(latencies) / busy,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": value * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "mse_mean": statistics.fmean(mses) if mses else None,
            "hausdorff_mean": statistics.fmean(hausdorffs) if hausdorffs else None,
        }
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if value is None:
            metrics[name]["missing"] = True
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
