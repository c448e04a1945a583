"""Checker process: compares op outputs with ``reference.py``.

    python3 perfbench/check.py WORKLOAD SEED

Reads one JSON line per op, ``{"op": i, "summary": {...}}``, and answers
each with ``{"error": null}`` or ``{"error": "<what differs>"}``.
``run.py`` starts it and sends each op's output as soon as the op returns,
then waits for the answer before the next op.  The reference therefore
never runs while an op is timed, the timed ops are spread over the whole
run, and the reference's memory is not counted in the benchmark
process's peak RSS.
"""

import json
import sys

from run import import_package

import_package()

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.build(name)
    for line in sys.stdin:
        message = json.loads(line)
        try:
            wl.check(message["summary"], wl.expect(seed, message["op"]))
            error = None
        except workloads.Mismatch as exc:
            error = str(exc)
        print(json.dumps({"error": error}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
