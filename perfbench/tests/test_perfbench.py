"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import execute  # noqa: E402
import oracles  # noqa: E402
from run import CPUS, OBSERVERS, pin_fastest_cpu, run_pass, tail  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_operation_list(workload):
    assert make_ops(workload, 5) == make_ops(workload, 5)
    assert make_ops(workload, 5) != make_ops(workload, 6)


def test_scale_points_keep_the_known_nonconverging_cases():
    # (5,5) at |q| = 1 and (6,6) at |q| = 2, tau = 5, on every seed
    for seed in (0, 1):
        fibers = {
            (op["q_mod"], tuple(sorted(oracles.letter_counts(w, 2) for w, _ in op["terms"])))
            for op in make_ops("scale-points", seed)
            if op["kind"] == "quotient" and op["tau"] == 5.0 and op["n"] == 2
        }
        assert (1.0, ((5, 5),)) in fibers
        assert (2.0, ((6, 6),)) in fibers


def test_kernels_fix_the_cost_setting_structure():
    def structure(op):
        fixed = {k: v for k, v in op.items() if k not in ("seed", "q_phase", "rho", "terms", "k", "q_mod")}
        if op["kind"] == "quotient":
            fixed["fibers"] = sorted(oracles.letter_counts(w, op["n"]) for w, _ in op["terms"])
            fixed["q_mod"] = op["q_mod"]
        if op["kind"] in ("fock", "jsr"):
            fixed["q_mod"] = op.get("q_mod")
            fixed["rho"] = op.get("rho")
        if op["kind"] == "ratio-scan":
            fixed["below_one"] = op["q_mod"] < 1.0
        if op["kind"] == "sampled":
            fixed["n"] = len(op["k"])
        return fixed

    assert [structure(op) for op in make_ops("kernels", 1)] == [structure(op) for op in make_ops("kernels", 2)]


def test_quotient_oracles_reproduce_the_readme_spots():
    terms = (((1, 2), (1.0, 0.0)),)
    phase = math.pi / 4
    assert oracles.quotient_l1(terms, 2, 1.0, phase, 0.9, None) == pytest.approx(0.81, rel=1e-14)
    assert oracles.quotient_l2(terms, 2, 1.0, phase, 0.9) == pytest.approx(0.81 / math.sqrt(2), rel=1e-14)
    # the reversed word lies in the same coset up to q: |y| = |q|^-1
    rev = (((2, 1), (1.0, 0.0)),)
    assert oracles.quotient_l1(rev, 2, 2.0, 0.3, 1.0, None) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("rho", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("m", (1, 3, 6))
def test_fock_oracle_gives_rho_to_the_m_for_monomials(rho, m):
    value = oracles.fock_dense_norm(1, 0.5, 60, (((m,), (1.0, 0.0)),), rho)
    assert value == pytest.approx(rho ** m, rel=1e-12)
    lower, upper = oracles.fock_sandwich(1, 0.5, 60, (((m,), (1.0, 0.0)),), rho)
    assert lower <= value * (1 + 1e-12) and value <= upper * (1 + 1e-12)


def test_weight_and_jsr_oracles_hand_values():
    assert oracles.ball_weight((1, 1), 1.0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
    assert oracles.polydisk_weight((2, 3), 0.5) == 0.5 ** 6
    # d = 1: n generators of norm 1, so R_1 = n^(1/p)
    assert oracles.jsr_partials("polydisk", 3, 1.0, 2.0, 1)[1] == pytest.approx(math.sqrt(3), rel=1e-14)


def test_sphere_and_weight_ratio_oracles_hand_values():
    # |z1 z2| on the unit sphere peaks at |z1| = |z2| = 1/sqrt(2)
    assert oracles.ball_monomial_sup((1, 1), 1.0) == pytest.approx(0.5, rel=1e-14)
    assert oracles.ball_monomial_sup((0, 3), 0.8) == pytest.approx(0.8 ** 3, rel=1e-14)
    # |q| = 2: polydisk weights are 1; k = (1, 1) has ball weight (1 / [2]_t)^(1/2), t = 1/4
    lo, hi = oracles.weight_ratio_extremes(2, 2, 2.0)
    assert (lo, hi) == (pytest.approx(1 / math.sqrt(1.25), rel=1e-14), pytest.approx(1.0, rel=1e-14))


def test_checks_of_the_kernel_operations():
    (v,) = checks.judge("kernels", {"kind": "sampled", "k": (1, 1), "r": 1.0, "points": 8},
                        {"value": 0.499}, {"closed": 0.5})
    assert v.ok
    for value in (0.49, 0.5 + 1e-6, math.nan):
        (v,) = checks.judge("kernels", {"kind": "sampled", "k": (1, 1), "r": 1.0, "points": 8},
                            {"value": value}, {"closed": 0.5})
        assert not v.ok
    op = {"kind": "slice", "n": 2, "d": 3, "q_mod": 0.5}
    assert checks.judge("kernels", op, {"value": 4}, {"value": 4})[0].ok
    assert not checks.judge("kernels", op, {"value": 5}, {"value": 4})[0].ok
    op = {"kind": "ratio-scan", "n": 2, "d_max": 2, "q_mod": 2.0}
    assert checks.judge("kernels", op, {"min": 0.8, "max": 1.0}, {"min": 0.8, "max": 1.0})[0].ok
    assert not checks.judge("kernels", op, {"min": 0.8, "max": 1.01}, {"min": 0.8, "max": 1.0})[0].ok


def test_pin_fastest_cpu_stays_within_the_allowed_cpus():
    try:
        cpu = pin_fastest_cpu()
        assert cpu in CPUS
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, set(CPUS))


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(64)]
    value, pct, n = tail(lat)
    assert (value, n) == (53.0, 64)
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(100 * 54 / 64)
    # 11 suites: the p9 would be no tail, so the slowest one is reported
    assert tail(lat[:11]) == (10.0, 100.0, 11)


def test_checks_flag_known_and_unknown_failures():
    op = {"kind": "quotient", "family": "l1", "tau": 5.0, "n": 2, "q_mod": 1.0, "terms": (((1, 2), (1.0, 0.0)),)}
    bad = {"value": 3.0, "flags": ["non-convergence"], "iterations": 100000, "converged": False}
    (v,) = checks.judge("scale-points", op, bad, {"value": 1.0})
    assert not v.ok and v.known == "tau5-nonconvergence"
    (v,) = checks.judge("scale-points", dict(op, tau=2.0), dict(bad, flags=[]), {"value": 1.0})
    assert not v.ok and v.known is None
    (v,) = checks.judge("scale-points", op, dict(bad, value=1.0 + 1e-9), {"value": 1.0})
    assert v.ok


@pytest.fixture(scope="module")
def qd():
    return execute.load_program(ROOT)


def test_traced_spans_nest_and_self_times_add_up(qd, tmp_path):
    ops = [op for op in make_ops("cli-mix", 3)][:40]
    cli_calls = execute.prepare(qd, "cli-mix", ops, tmp_path)
    lift = qd.canonical_lift((2, 1))
    fock = qd.FockTruncation(2, 0.5, 8)
    calls = cli_calls + [
        lambda: qd.quotient_norm_l1(lift, 0.9, 2.0, q=qd.QParameter(1.0, 0.2)),
        lambda: qd.vaksman_norm(qd.element_for(fock, {(1, 1): 1.0}), 0.9, fock),
        lambda: qd.verify.run_suite("normal-ordering", 0),
    ]
    original = qd.quotient.quotient_norm_l1
    tracer = Tracer()
    tracer.install(OBSERVERS)
    for command in qd.cli.main.commands.values():
        tracer.patch(command, "callback", "cli.command")
    try:
        wall, _, _ = run_pass(calls, tracer)
    finally:
        tracer.uninstall()
    assert qd.quotient.quotient_norm_l1 is original
    assert qd.quotient_norm_l1 is original

    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == ROOT_SPAN and tracer.parent[0] == -1
    assert {"cli.command", "parsing.parse", "quotient.l1", "fock.op_norm",
            "verify.suite:normal-ordering", "qspace.multiply"} <= set(names)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    own = tracer.self_times()
    assert min(own) >= -1e-9
    root = tracer.end[0] - tracer.start[0]
    assert math.fsum(own) == pytest.approx(root, abs=1e-9)
    assert wall <= root
    assert tracer.counters["quotient.iterations"] > 0
    assert tracer.counters["fock.window_cols"] > 0

    path = tmp_path / "spans.json"
    tracer.write(path)
    assert len(json.loads(path.read_text())["start"]) == len(tracer.start)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
