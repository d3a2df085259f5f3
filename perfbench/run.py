"""qdomains benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {kernels,cli-mix,verify-battery,scale-points} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  qdomains is imported from ./src.  The run
  1. measures set-up (import plus fixed objects) in fresh interpreters,
  2. computes reference values in a separate process,
  3. warms up, then times whole passes over the operation list until the
     next pass would overrun --seconds (at least one pass), on the fastest
     CPU it finds (pin_fastest_cpu), and keeps each operation's best latency
     over the passes,
  4. checks every output against its reference.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it times one
untraced and one traced pass and reports per-layer metrics instead.  The last
line of stdout is a JSON object {correct, attempted, failed, metrics}.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import execute  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import KERNEL_SUITES, WORKLOADS, make_ops  # noqa: E402

SETUP_PROBES = 7
PIN_EVERY_S = 0.2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span names whose self time (or call count) it sums
SELF_METRICS = {
    "fock.op_norm.self_s": ("fock.op_norm",),
    "fock.rep_element.self_s": ("fock.rep_element",),
    "fock.rep_generator.self_s": ("fock.rep_generator",),
    "fock.verify_tw_ccr.self_s": ("fock.verify_tw_ccr",),
    "quotient.l1.self_s": ("quotient.l1",),
    "quotient.l2.self_s": ("quotient.l2",),
    "quotient.slice.self_s": ("quotient.slice",),
    "qcombinatorics.sampled_sup.self_s": ("qcombinatorics.sampled_sup",),
    "qcombinatorics.weights.self_s": ("qcombinatorics.weights",),
    "qspace.multiply.self_s": ("qspace.multiply",),
    "qspace.norm.self_s": ("qspace.norm",),
    "qspace.weight_ratio_scan.self_s": ("qspace.weight_ratio_scan",),
    "freeseries.norm.self_s": ("freeseries.norm",),
    "freeseries.multiply.self_s": ("freeseries.multiply",),
    "jsr.partials.self_s": ("jsr.partials",),
    "jsr.extrapolate.self_s": ("jsr.extrapolate",),
    "parsing.parse.self_s": ("parsing.parse",),
    "parsing.format.self_s": ("parsing.format",),
    "cli.command.self_s": ("cli.command",),
}
CALL_METRICS = {
    "fock.op_norm.calls": ("fock.op_norm",),
    "quotient.calls": ("quotient.l1", "quotient.l2"),
    "qcombinatorics.sampled_sup.calls": ("qcombinatorics.sampled_sup",),
    "qcombinatorics.weights.calls": ("qcombinatorics.weights",),
    "qspace.multiply.calls": ("qspace.multiply",),
    "qspace.norm.calls": ("qspace.norm",),
    "jsr.calls": ("jsr.estimate",),
}


def _observe_quotient(counters, args, result) -> None:
    counters["quotient.iterations"] += result.iterations
    counters["quotient.nonconverged"] += not result.converged


def _observe_op_norm(counters, args, result) -> None:
    counters["fock.window_cols"] += int(args[0].window_columns().size)


OBSERVERS = {
    "quotient.l1": _observe_quotient,
    "quotient.l2": _observe_quotient,
    "fock.op_norm": _observe_op_norm,
}


# ---------------------------------------------------------------------------
# helpers


def _child(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout


def _commit() -> str:
    """HEAD of a git checkout, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# The CPUs this process may run on, read once before it pins itself.
CPUS = sorted(os.sched_getaffinity(0))
# Every probe's best _spin time, for the report: the machine's speed in the run.
SPIN_SAMPLES: list[float] = []


def _spin() -> float:
    """Seconds for a fixed loop of interpreter work (about 1 ms)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    return time.perf_counter() - t0


def pin_fastest_cpu() -> int:
    """Move this process to the allowed CPU that runs _spin fastest right now.

    On a shared host each vCPU switches between a fast and a slow state
    (about 1.6x apart, lasting seconds to minutes, each CPU on its own).  A
    run that stays on a slow CPU reads slow throughout; probing every few
    tenths of a second keeps the work on a fast CPU whenever one is.  Child
    processes inherit the choice.
    """
    speeds = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_spin() for _ in range(3))
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    SPIN_SAMPLES.append(speeds[best])
    return best


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with >= 10 samples beyond.

    Below 20 samples that percentile falls under the median, which is no
    tail; the slowest sample (p100) is reported instead.
    """
    s = sorted(latencies)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def run_pass(calls: list, tracer: Tracer | None = None) -> tuple[float, list[float], list]:
    """One closed-loop pass: (wall seconds, per-operation seconds, raw results).

    Between operations, at most every PIN_EVERY_S, the process moves to the
    fastest CPU; that probe falls outside every operation's latency.
    """
    gc.collect()
    lat: list[float] = []
    raw: list = []
    clock = time.perf_counter
    next_pin = 0.0
    with tracer.span(ROOT_SPAN) if tracer is not None else nullcontext():
        start = clock()
        for call in calls:
            if clock() >= next_pin:
                pin_fastest_cpu()
                next_pin = clock() + PIN_EVERY_S
            t0 = clock()
            raw.append(call())
            lat.append(clock() - t0)
        wall = clock() - start
    return wall, lat, raw


class Run:
    """Everything one benchmark invocation measures and checks."""

    def __init__(self, workload: str, seed: int, tmpdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmpdir = tmpdir
        self.qd = execute.load_program(ROOT)
        self.ops = make_ops(workload, seed)
        self.refs = json.loads(_child("reference.py", "--workload", workload, "--seed", str(seed)))
        self.calls = execute.prepare(self.qd, workload, self.ops, tmpdir)
        self.verdicts: list[checks.Verdict] = []

    def check(self, raw: list) -> list[checks.Verdict]:
        outs = execute.outcomes(self.workload, self.ops, raw, self.tmpdir)
        found = []
        for op, out, ref in zip(self.ops, outs, self.refs):
            found += checks.judge(self.workload, op, out, ref)
        self.verdicts += found
        return found

    def timed(self, seconds: float) -> tuple[list[float], list[list[float]]]:
        walls: list[float] = []
        lats: list[list[float]] = []
        begin = time.perf_counter()
        while True:
            wall, lat, raw = run_pass(self.calls)
            walls.append(wall)
            lats.append(lat)
            self.check(raw)
            if time.perf_counter() - begin + wall > seconds:
                return walls, lats


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        pin_fastest_cpu()
        probes.append(float(_child("setup_probe.py", "--workload", run.workload, "--seed", str(run.seed),
                                   "--tmpdir", str(run.tmpdir)).strip()))
    execute.warm_up(run.qd, run.workload, run.calls)
    walls, per_pass = run.timed(seconds)
    # best of the timed passes, per operation: with the CPU speed swinging
    # (see pin_fastest_cpu), the fastest of k runs of one short operation
    # repeats between runs far better than a whole pass or a mean does.
    # wall_s is the pass those best times add up to.
    lats = [min(samples) for samples in zip(*per_pass)]
    value, pct, count = tail(lats)
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": math.fsum(lats),
        "op_p50_ms": statistics.median(lats) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"passes": len(walls), "pass_walls_s": walls, "setup_probes_s": probes,
             "spin_ms": {"min": min(SPIN_SAMPLES) * 1e3, "median": statistics.median(SPIN_SAMPLES) * 1e3},
             "tail_percentile": pct, "latency_samples": count, "pass_latencies_s": per_pass}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    execute.warm_up(run.qd, run.workload, run.calls)
    walls, _ = run.timed(seconds)
    untraced = min(walls)
    tracer = Tracer()
    tracer.install(OBSERVERS)
    for command in run.qd.cli.main.commands.values():
        tracer.patch(command, "callback", "cli.command")
    try:
        traced, _, raw = run_pass(run.calls, tracer)
    finally:
        tracer.uninstall()
    found = run.check(raw)
    tracer.write(spans_path)

    summary = tracer.summary()

    def total(names, field):
        return sum(summary.get(n, {}).get(field, 0) for n in names)

    m: dict[str, tuple[float, str]] = {}
    for suite in KERNEL_SUITES:
        m[f"verify.{suite}_s"] = (total([f"verify.suite:{suite}"], "total_s"), "s")
    for name, spans in SELF_METRICS.items():
        m[name] = (total(spans, "self_s"), "s")
    for name, spans in CALL_METRICS.items():
        m[name] = (total(spans, "calls"), "count")
    c = tracer.counters
    calls = total(("quotient.l1", "quotient.l2"), "calls")
    m["fock.window_cols"] = (c["fock.window_cols"], "count")
    m["quotient.iterations"] = (c["quotient.iterations"], "count")
    m["quotient.nonconverged"] = (c["quotient.nonconverged"], "count")
    m["quotient.converged_ratio"] = ((calls - c["quotient.nonconverged"]) / calls if calls else 0.0, "ratio")
    for layer in ("fock", "quotient"):
        errs = [v.rel_err for v in found if v.layer == layer and v.rel_err is not None]
        m[f"{layer}.max_rel_err"] = (max(errs, default=0.0), "ratio")
    requests = len(run.ops) if run.workload == "cli-mix" else 0
    m["cli.requests"] = (requests, "count")
    m["cli.ok_ratio"] = (sum(v.ok for v in found) / requests if requests else 0.0, "ratio")
    m["trace.overhead_s"] = (traced - untraced, "s")
    notes = {"untraced_wall_s": untraced, "traced_wall_s": traced, "spans": len(tracer.start),
             "spans_file": str(spans_path.relative_to(ROOT)), "span_summary": summary}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = ROOT / ".perfbench_out"
    tmpdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run = Run(args.workload, args.seed, tmpdir)
        if args.trace:
            metrics, notes = per_layer(run, args.seconds, out_dir / f"spans-{tag}.json")
        else:
            metrics, notes = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        raise SystemExit("perfbench: measured metrics differ from those BENCHMARK.json declares")

    failed = [v for v in run.verdicts if not v.ok]
    unexpected = [v for v in failed if v.known is None]
    known = Counter(v.known for v in failed if v.known)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, rec in metrics.items():
        print(f"{name} = {rec['value']:.6g} {rec['unit']}")
    if not args.trace:
        print(f"op_tail_ms is the p{notes['tail_percentile']:.1f} of {notes['latency_samples']} "
              f"operations; each operation's latency is its best of {notes['passes']} timed "
              f"pass(es), and wall_s their sum")
    print(f"ops_attempted = {len(run.verdicts)}  ops_failed = {len(failed)}  unexpected = {len(unexpected)}")
    for name, count in sorted(known.items()):
        print(f"known {name} = {count}: {checks.KNOWN[name]}")
    for v in failed:
        print(f"FAIL [{v.known or 'UNEXPECTED'}] {v.what}: {v.detail}")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "metrics": metrics, "notes": notes,
        "attempted": len(run.verdicts), "failed": len(failed), "known_failures": dict(known),
        "failures": [vars(v) for v in failed],
    }
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(run.verdicts),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
