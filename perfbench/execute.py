"""The measured side: build each workload's fixed objects and run its operations.

Only this module touches qdomains.  Calls go through module attributes
(``qd.verify.run_suite``, ``qd.quotient_norm_l1``, ...) at call time, so the
spans that ``spans.Tracer.install`` puts on those attributes see them.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def load_program(root: Path):
    """Import qdomains from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "qdomains" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qdomains sources under {src}")
    sys.path.insert(0, str(src))
    import qdomains
    import qdomains.cli  # noqa: F401  (cli-mix drives it; the trace wraps its commands)

    if Path(qdomains.__file__).resolve().parent != src / "qdomains":
        raise SystemExit(f"perfbench: qdomains imported from {qdomains.__file__}, not {src}")
    return qdomains


def prepare(qd, workload: str, ops: list[dict], tmpdir: Path) -> list:
    """Zero-argument callables, one per operation, with their inputs prebuilt."""
    if workload == "cli-mix":
        from click.testing import CliRunner

        runner = CliRunner()
        calls = []
        for i, op in enumerate(ops):
            args = op["args"] + ["--json", str(tmpdir / f"{i}.json")]
            calls.append(lambda args=args: runner.invoke(qd.cli.main, args))
        return calls
    focks: dict[tuple, object] = {}
    calls = []
    for op in ops:
        if op["kind"] == "suite":
            calls.append(lambda op=op: qd.verify.run_suite(op["suite"], op["seed"]))
        elif op["kind"] == "suite":
            out.append({"checks": [(c.name, bool(c.passed), float(c.value)) for c in res.checks]})
        elif op["kind"] == "quotient":
            coeffs = {w: complex(*c) for w, c in op["terms"]}
            target = qd.FreeElement(op["n"], coeffs, cap=max(len(w) for w in coeffs))
            q = qd.QParameter(op["q_mod"], op["q_phase"])
            if op["family"] == "l1":
                calls.append(lambda t=target, q=q, op=op: qd.quotient_norm_l1(t, op["rho"], op["tau"], q=q))
            else:
                calls.append(lambda t=target, q=q, op=op: qd.quotient_norm_l2(t, op["rho"], q=q))
        elif op["kind"] == "fock":
            key = (op["n"], op["q"], op["cap"])
            if key not in focks:
                focks[key] = qd.FockTruncation(*key)
            fock = focks[key]
            a = qd.element_for(fock, {k: complex(*c) for k, c in op["terms"]})
            calls.append(lambda a=a, fock=fock, rho=op["rho"]: qd.vaksman_norm(a, rho, fock))
        elif op["kind"] == "jsr":
            q = qd.QParameter(op["q_mod"], op["q_phase"])
            calls.append(
                lambda q=q, op=op: qd.estimate_canonical_jsr(
                    op["family"], op["n"], q, p=2.0, r=1.0, d_max=op["d_max"]
                )
            )
        elif op["kind"] == "sampled":
            calls.append(lambda op=op: qd.sampled_monomial_sup(op["k"], "ball", op["r"], points=op["points"],
                                                              seed=op["seed"]))
        elif op["kind"] == "slice":
            q = qd.QParameter(op["q_mod"], op["q_phase"])
            calls.append(lambda q=q, op=op: qd.slice_rank(qd.build_slice(op["n"], q, op["d"])))
        elif op["kind"] == "ratio-scan":
            calls.append(lambda op=op: qd.weight_ratio_scan(op["q_mod"], op["n"], op["d_max"]))
        else:
            raise ValueError(f"unknown operation kind {op['kind']!r}")
    return calls


def warm_up(qd, workload: str, calls: list) -> None:
    """Load lazy state (first-call paths, Sobol direction numbers) before timing.

    cli-mix and kernels replay their whole operation list.  verify-battery and
    scale-points touch each kernel once at a small size: a full warm-up pass of
    either would double the run time.
    """
    if workload in ("cli-mix", "kernels"):
        for call in calls:
            call()
        return
    q = qd.QParameter(1.0, 0.5)
    lift = qd.canonical_lift((2, 2))
    qd.quotient_norm_l1(lift, 0.9, 2.0, q=q)
    qd.quotient_norm_l2(lift, 0.9, q=q)
    fock = qd.FockTruncation(2, 0.5, 10)
    qd.vaksman_norm(qd.element_for(fock, {(1, 1): 1.0}), 0.9, fock)
    qd.estimate_canonical_jsr("ball", 2, q, p=2.0, r=1.0, d_max=20)
    if workload == "verify-battery":
        qd.sampled_monomial_sup((1, 1), "ball", 1.0, points=1 << 10, seed=7)
        for suite in ("normal-ordering", "fock-ccr", "slice-rank"):
            qd.verify.run_suite(suite, 0)


def _finite_results(report: dict) -> bool:
    """Every reported value finite, except a radius estimate, which is +inf for
    every polynomial (all the requests here are unsaturated polynomials)."""
    values = [r["value"] for r in report.get("results", []) if r["name"] != "radius-estimate"]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def outcomes(workload: str, ops: list[dict], raw: list, tmpdir: Path) -> list[dict]:
    """Plain-data view of each operation's result, for the checks."""
    out = []
    for i, (op, res) in enumerate(zip(ops, raw)):
        if workload == "cli-mix":
            rec = {"exit": res.exit_code, "exception": None, "finite": None, "value": None}
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                rec["exception"] = type(res.exception).__name__
            path = tmpdir / f"{i}.json"
            if res.exit_code == 0 and path.is_file():
                report = json.loads(path.read_text())
                rec["finite"] = _finite_results(report)
                rec["value"] = report["results"][0]["value"] if report.get("results") else None
            out.append(rec)
        elif op["kind"] == "suite":
            out.append({"checks": [(c.name, bool(c.passed), float(c.value)) for c in res.checks]})
        elif op["kind"] == "quotient":
            out.append({"value": res.value, "flags": list(res.flags),
                        "iterations": res.iterations, "converged": res.converged})
        elif op["kind"] in ("fock", "sampled", "slice"):
            out.append({"value": res})
        elif op["kind"] == "ratio-scan":
            out.append({"min": res.min_ratio, "max": res.max_ratio})
        else:
            out.append({
                "value": res.extrapolated,
                "flags": list(res.flags),
                "partials": {d: v / rho for (rho, d), v in res.partials.items() if d <= 5},
            })
    return out
