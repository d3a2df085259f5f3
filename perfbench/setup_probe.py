"""One set-up measurement in a fresh interpreter; prints seconds.

Run as ``python3 perfbench/setup_probe.py --workload NAME --seed N``.  Times
``import qdomains`` (numpy, scipy and click included) plus building the
workload's fixed objects; the benchmark's own input generation in between is
not counted.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import execute  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmpdir", required=True)
    args = ap.parse_args()
    qd = execute.load_program(ROOT)
    imported = time.perf_counter() - T0
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed)
    t1 = time.perf_counter()
    execute.prepare(qd, args.workload, ops, Path(args.tmpdir))
    built = time.perf_counter() - t1
    print(repr(imported + built))


if __name__ == "__main__":
    main()
