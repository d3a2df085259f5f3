"""CLI surface: values, JSON reports, CSV layouts, exit codes."""

import gc
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qdomains import cli
from qdomains.cli import main
from qdomains.fock import BASIS_LIMIT
from qdomains.verify import SUITES


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, ok=True):
    result = runner.invoke(main, args)
    if ok:
        assert result.exit_code == 0, result.output
    return result


def test_norm_polydisk_value(runner):
    r = invoke(runner, ["norm", "x1*x2", "--family", "polydisk", "--q-mod", "0.5", "--rho", "0.9"])
    # w((1,1)) = 0.5 at modulus 1/2, times rho^2
    assert "0.405" in r.output


def test_norm_ball_value(runner, tmp_path):
    out = tmp_path / "r.json"
    invoke(
        runner,
        ["norm", "x1*x2 + 0.5*x2^2", "--family", "ball",
         "--q-mod", "0.5", "--rho", "0.9", "--json", str(out)],
    )
    report = json.loads(out.read_text())
    from qdomains.qcombinatorics import ball_weight

    want = ball_weight((1, 1), 0.5) * 0.81 + 0.5 * ball_weight((0, 2), 0.5) * 0.81
    got = report["results"][0]["value"]
    assert got == pytest.approx(want, rel=1e-12)


def test_norm_free_families(runner):
    r = invoke(runner, ["norm", "z1*z2 - z2*z1", "--family", "free-taylor", "--rho", "0.5"])
    assert "0.5" in r.output  # 2 * 0.25


def test_json_report_schema_and_determinism(runner, tmp_path):
    args = ["norm", "x1*x2", "--family", "polydisk", "--q-mod", "0.5", "--rho", "0.9"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    invoke(runner, args + ["--json", str(p1)])
    invoke(runner, args + ["--json", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    # a rewrite of the same path leaves the same bytes as a fresh path
    invoke(runner, args + ["--json", str(p1)])
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert set(report) >= {"command", "params", "results", "provenance"}
    assert report["command"] == "norm"
    assert report["provenance"]["package"] == "qdomains"
    entry = report["results"][0]
    assert set(entry) >= {"name", "value", "flags", "assert"}


# each subcommand's report, as json.loads reads it; the key order is not part
# of the contents
PROVENANCE = {"package": "qdomains", "version": "0.1.0"}
# the rounding of q^(-inv w) q against q^(-inv w - 1) at |q| = 2, phase 1; 0 in exact arithmetic
SLICE_KERNEL = 3.5108334685767e-16
REPORTS = [
    (
        ["norm", "x1*x2 + 0.5*x2^2", "--family", "ball", "--q-mod", "0.5", "--rho", "0.9"],
        {
            "command": "norm",
            "params": {"cap": 16, "expression": "x1*x2 + 0.5*x2^2", "family": "ball",
                       "fock_cap": 16, "n": 2, "q_mod": 0.5, "q_phase": 0.0, "rho": 0.9,
                       "tau": 1.0},
            "provenance": PROVENANCE,
            "results": [{"assert": None, "flags": [], "name": "norm", "value": 0.7672430123549661}],
        },
    ),
    (
        ["multiply", "x2*x1", "x1", "--q-mod", "0.5"],
        {
            "command": "multiply",
            "expression": "4.0*x1^2*x2",
            "params": {"cap": 16, "expr_a": "x2*x1", "expr_b": "x1", "mode": "qspace", "n": 2,
                       "q_mod": 0.5, "q_phase": 0.0},
            "provenance": PROVENANCE,
            "results": [{"assert": None, "flags": [], "name": "terms", "value": 1.0},
                        {"assert": None, "flags": [], "name": "degree", "value": 3.0}],
        },
    ),
    (
        ["quotient-norm", "z1*z2", "--family", "free-ball", "--rho", "0.9"],
        {
            "command": "quotient-norm",
            "params": {"cap": 16, "expression": "z1*z2", "family": "free-ball", "n": 2,
                       "q_mod": 1.0, "q_phase": 0.0, "rho": 0.9, "tau": 1.0},
            "provenance": PROVENANCE,
            "results": [
                {"assert": None, "flags": [], "name": "quotient-norm", "value": 0.5727564927611035},
                {"assert": None, "flags": [], "name": "degree-2", "value": 0.5727564927611035},
            ],
        },
    ),
    (
        ["jsr", "--family", "polydisk", "--q-phase", "0.7853981633974483", "--dmax", "20"],
        {
            "command": "jsr",
            "params": {"dmax": 20, "family": "polydisk", "n": 2, "p": 2.0, "q_mod": 1.0,
                       "q_phase": 0.7853981633974483, "r": 1.0, "tau": 1.0},
            "provenance": PROVENANCE,
            "results": [
                {"assert": None, "detail": "closed-form limit", "flags": [],
                 "name": "jsr-extrapolated", "value": 1.4142135623730951},
                {"assert": None, "flags": [], "name": "jsr-lower", "value": 1.0},
                {"assert": None, "flags": [], "name": "jsr-upper", "value": 1.414213562373095},
            ],
        },
    ),
    (
        ["fock-norm", "x1^3", "--q-mod", "0.5", "--rho", "0.5"],
        {
            "command": "fock-norm",
            "params": {"expression": "x1^3", "fock_cap": 16, "n": 1, "q_mod": 0.5, "rho": 0.5},
            "provenance": PROVENANCE,
            "results": [{"assert": None, "flags": ["lower-bound"], "name": "fock-norm",
                         "value": 0.12499999969440978}],
        },
    ),
    (
        ["radius", "z1 + 2*z1*z2"],
        {
            "command": "radius",
            "params": {"cap": 16, "expression": "z1 + 2*z1*z2", "n": 2},
            "provenance": PROVENANCE,
            "results": [
                {"assert": None, "flags": [], "name": "partial-d=1", "value": 1.0},
                {"assert": None, "flags": [], "name": "partial-d=2", "value": 1.4142135623730951},
                {"assert": None, "flags": [], "name": "radius-estimate", "value": "inf"},
            ],
        },
    ),
    (
        ["verify", "slice-rank"],
        {
            "command": "verify",
            "params": {"suites": ["slice-rank"]},
            "provenance": PROVENANCE,
            "results": [
                {"assert": {"op": "==", "pass": True, "target": 0.0},
                 "detail": "per-fiber rank vs n^d - C(d+n-1, n-1) over 42 (n, d, q) cases, "
                           "n <= 3, d <= 6, |q| in {0.5, 2}",
                 "flags": [], "name": "slice-rank:slice-rank-identity", "value": 0.0},
                {"assert": {"op": "<=", "pass": True, "target": 1e-12},
                 "detail": "|sum_w q^(-inv w) M[w, c]| / max_w |q^(-inv w) M[w, c]| on every "
                           "column c over 42 (n, d, q) cases, n <= 3, d <= 6, |q| in {0.5, 2}",
                 "flags": [], "name": "slice-rank:slice-fiber-kernel", "value": SLICE_KERNEL},
            ],
        },
    ),
]


@pytest.mark.parametrize("args, want", REPORTS, ids=[args[0] for args, _ in REPORTS])
def test_report_contents(runner, tmp_path, args, want):
    out = tmp_path / "r.json"
    invoke(runner, args + ["--json", str(out)])
    text = out.read_text()
    assert json.loads(text) == want
    # one line of JSON with sorted keys
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(want, sort_keys=True) + "\n"


def test_multiply_qspace(runner):
    r = invoke(runner, ["multiply", "x2*x1", "x1", "--q-mod", "0.5"])
    assert "4.0*x1^2*x2" in r.output


@pytest.mark.parametrize(
    "args, exit_code, output",
    [
        (["multiply", "x2^3", "x1^3", "--q-mod", "1e-120"], 1,
         "Error: 1e-120**-9 leaves the double range"),
        # the pair past the cap is dropped before its power is formed
        (["multiply", "x2^3", "x1^3", "--q-mod", "1e-120", "--cap", "5"], 0,
         "0  [saturated, lower-bound]"),
        (["multiply", "1e300*x1", "1e300*x2"], 1,
         "Error: coefficient overflow: a result leaves the double range"),
    ],
    ids=["power", "past-cap", "coefficient"],
)
def test_multiply_at_the_double_range(runner, args, exit_code, output):
    r = invoke(runner, args, ok=False)
    assert (r.exit_code, r.output.strip()) == (exit_code, output)


def test_multiply_free_mode(runner, tmp_path):
    out = tmp_path / "m.json"
    invoke(runner, ["multiply", "z1", "z2*z1", "--mode", "free", "--json", str(out)])
    report = json.loads(out.read_text())
    assert report["expression"] == "z1*z2*z1"


def test_quotient_norm_spot(runner, tmp_path):
    out = tmp_path / "q.json"
    invoke(
        runner,
        ["quotient-norm", "z1*z2", "--family", "free-ball", "--rho", "0.9", "--json", str(out)],
    )
    report = json.loads(out.read_text())
    by_name = {e["name"]: e for e in report["results"]}
    assert by_name["quotient-norm"]["value"] == pytest.approx(0.81 / math.sqrt(2.0), rel=1e-7)
    assert "degree-2" in by_name
    # the closed form runs no solver, so no solver diagnostics are reported
    assert "iterations" not in by_name and "splitting-gap" not in by_name
    assert "method" not in report["params"]


def test_quotient_norm_block_weights(runner, tmp_path):
    out = tmp_path / "q2.json"
    invoke(
        runner,
        ["quotient-norm", "z1*z2", "--family", "free-polydisk",
         "--rho", "0.9", "--tau", "2.0", "--json", str(out)],
    )
    report = json.loads(out.read_text())
    by_name = {e["name"]: e for e in report["results"]}
    assert by_name["quotient-norm"]["value"] == pytest.approx(4.0 * 0.81, rel=1e-7)


def test_quotient_norm_at_extreme_scales(runner, tmp_path):
    # x1*x2 at |q| = 1e-320 (ball) and x2*x1*x2*x1 at |q| = 1e-200: the coset
    # norms are |q| / sqrt(1 + |q|^2) and |q|^-3 |q|^4, both representable
    for args, want in (
        (["x1*x2", "--family", "free-ball", "--q-mod", "1e-320"], 1e-320),
        (["x2*x1*x2*x1", "--q-mod", "1e-200"], 1e-200),
    ):
        out = tmp_path / "extreme.json"
        invoke(runner, ["quotient-norm", *args, "--json", str(out)])
        value = json.loads(out.read_text())["results"][0]["value"]
        assert value == pytest.approx(want, rel=1e-3 if want < 1e-300 else 1e-12, abs=0)
    # rho^2 tau^2 = 1e800 leaves double range: a clean error, no traceback
    r = invoke(runner, ["quotient-norm", "x1*x2", "--family", "free-polydisk",
                        "--tau", "1e200", "--rho", "1e200"], ok=False)
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert "Error:" in r.output and "Traceback" not in r.output


def test_jsr_csv_and_json(runner, tmp_path):
    out, csv = tmp_path / "j.json", tmp_path / "j.csv"
    invoke(
        runner,
        ["jsr", "--family", "ball", "--q-phase", str(math.pi / 4), "--dmax", "60",
         "--json", str(out), "--csv", str(csv)],
    )
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "d,R_d"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 61))
    # p = 2 ball partials at |q| = 1: (d + 1)^(1/(2d))
    assert float(lines[-1].split(",")[1]) == pytest.approx(61.0 ** (1.0 / 120), rel=1e-12)
    report = json.loads(out.read_text())
    assert "grid" not in report["params"]
    results = report["results"]
    assert [e["name"] for e in results] == ["jsr-extrapolated", "jsr-lower", "jsr-upper"]
    est, lower, upper = (e["value"] for e in results)
    assert est == lower == 1.0
    assert upper == pytest.approx(61.0 ** (1.0 / 120), rel=1e-12)
    assert results[0]["detail"] == "closed-form limit"
    assert all(e["flags"] == [] for e in results)


def test_jsr_reads_the_limit_before_the_partials_cross_over(runner):
    # the partials cross over near d ~ 1/(1 - |q|) and are still above 1.5
    # at d = 200; the limit off |q| = 1 is r
    r = invoke(runner, ["jsr", "--family", "polydisk", "--n", "3", "--q-mod", "0.9", "--p", "1"])
    assert r.output == "jsr[polydisk] = 1.0\n"


@pytest.mark.parametrize("dmax", ["1", "5"])
def test_jsr_short_partial_sequences_give_the_limit(runner, dmax):
    r = invoke(runner, ["jsr", "--dmax", dmax])
    assert printed_value(r) == math.sqrt(2.0)


def test_jsr_reads_the_same_value_at_inverse_moduli(runner):
    small, large = (
        invoke(runner, ["jsr", "--family", "ball", "--q-mod", q_mod]).output
        for q_mod in ("1e-150", "1e150")
    )
    assert small == large and small.startswith("jsr[ball] = ")


def test_jsr_refuses_bad_input_cleanly(runner):
    r = invoke(runner, ["jsr", "--family", "ball", "--dmax", "100000"], ok=False)
    assert_clean_error(r)
    assert "exceeds" in r.output
    assert_clean_error(invoke(runner, ["jsr", "--q-mod", "0"], ok=False))
    # the free families have the same degree limit
    r = invoke(runner, ["jsr", "--family", "free-taylor", "--dmax", "2001"], ok=False)
    assert_clean_error(r)
    assert "d_max = 2001 exceeds 2000" in r.output
    r = invoke(runner, ["jsr", "--r", "inf"], ok=False)
    assert_clean_error(r)
    assert "r must be positive and finite" in r.output
    assert invoke(runner, ["jsr", "--grid", "12"], ok=False).exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["norm", "z1", "--family", "free-taylor", "--q-mod", "nan"], "modulus must be positive"),
        (["norm", "z1", "--family", "free-ball", "--q-mod", "-3"], "modulus must be positive"),
        (["jsr", "--family", "free-taylor", "--q-mod", "0"], "modulus must be positive"),
        (["jsr", "--family", "free-polydisk", "--q-phase", "inf"], "phase must be finite"),
        (["multiply", "z1", "z2", "--mode", "free", "--q-mod", "nan"], "modulus must be positive"),
    ],
    ids=["norm-taylor-nan", "norm-ball-negative", "jsr-taylor-zero", "jsr-polydisk-phase-inf",
         "multiply-free-nan"],
)
def test_malformed_q_is_refused_where_the_family_ignores_q(runner, args, message):
    r = invoke(runner, args, ok=False)
    assert_clean_error(r)
    assert message in r.output


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "z1", "--family", "free-ball", "--q-mod", "1e-320"],
        ["norm", "z1", "--family", "free-taylor", "--q-mod", "2", "--q-phase", "1"],
        ["jsr", "--family", "free-polydisk", "--q-mod", "1e-300", "--dmax", "20"],
        ["multiply", "z1", "z2", "--mode", "free", "--q-mod", "0.5"],
    ],
)
def test_valid_q_is_accepted_where_the_family_ignores_q(runner, args):
    invoke(runner, args)


def test_fock_norm_power(runner, tmp_path):
    out = tmp_path / "f.json"
    invoke(runner, ["fock-norm", "x1^3", "--rho", "0.5", "--json", str(out)])
    report = json.loads(out.read_text())
    entry = report["results"][0]
    assert entry["value"] == pytest.approx(0.125, abs=1e-4)
    assert "lower-bound" in entry["flags"]


def test_radius_report(runner, tmp_path):
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    invoke(
        runner,
        ["radius", "z1 + 2*z1*z2", "--json", str(out), "--csv", str(csv)],
    )
    report = json.loads(out.read_text())
    by_name = {e["name"]: e for e in report["results"]}
    assert by_name["partial-d=1"]["value"] == pytest.approx(1.0)
    assert by_name["partial-d=2"]["value"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # honest polynomial: infinite radius survives the JSON round trip as repr
    assert by_name["radius-estimate"]["value"] == "inf"
    assert csv.read_text().splitlines()[0] == "d,partial"


def test_rewrite_of_a_longer_report_leaves_only_the_new_bytes(runner, tmp_path):
    args = ["radius", "z1 + 2*z1*z2"]
    fresh, used = tmp_path / "fresh.json", tmp_path / "used.json"
    used.write_bytes(b"x" * 20_000)
    invoke(runner, args + ["--json", str(fresh)])
    invoke(runner, args + ["--json", str(used)])
    assert used.read_bytes() == fresh.read_bytes()


def test_rewrite_of_a_longer_csv_leaves_only_the_new_rows(runner, tmp_path):
    csv = tmp_path / "j.csv"
    invoke(runner, ["jsr", "--dmax", "200", "--csv", str(csv)])
    invoke(runner, ["jsr", "--dmax", "50", "--csv", str(csv)])
    text = csv.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "d,R_d"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 51))


def test_report_to_a_pipe_is_written_as_a_stream(runner):
    r, w = os.pipe()
    with os.fdopen(r, "rb") as pipe:
        try:
            invoke(runner, ["norm", "x1*x2", "--json", f"/dev/fd/{w}"])
        finally:
            os.close(w)
        report = json.loads(pipe.read())
    assert report["command"] == "norm"


def test_rewrite_of_an_existing_report_never_truncates_on_open(runner, tmp_path, monkeypatch):
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    args = ["radius", "z1 + 2*z1*z2", "--json", str(out), "--csv", str(csv)]
    invoke(runner, args)
    flags, real_open = [], os.open

    def recording_open(path, flag, *rest):
        flags.append(flag)
        return real_open(path, flag, *rest)

    monkeypatch.setattr(cli.os, "open", recording_open)
    invoke(runner, args)
    assert len(flags) == 2
    assert not any(flag & os.O_TRUNC for flag in flags)


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "x1", "--json", "{dir}"],
        ["norm", "x1", "--json", "{dir}/missing/x.json"],
        ["jsr", "--dmax", "20", "--csv", "{dir}"],
        ["radius", "z1", "--csv", "{dir}/missing/r.csv"],
    ],
    ids=["json-directory", "json-missing-parent", "csv-directory", "csv-missing-parent"],
)
def test_unwritable_report_path_is_a_clean_error(runner, tmp_path, args):
    args = [a.format(dir=tmp_path) for a in args]
    r = invoke(runner, args, ok=False)
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and r.output.rstrip().endswith(errors[0])
    assert args[-1] in errors[0]


def test_verify_list_names(runner):
    r = invoke(runner, ["verify", "--list"])
    names = r.output.split()
    assert names == list(SUITES)
    assert "jsr-separation" in names and "fock-ccr" in names


def test_verify_passing_suite_exit_zero(runner):
    r = invoke(runner, ["verify", "slice-rank"])
    assert "[PASS]" in r.output
    assert r.output.strip().endswith("checks passed")


def test_verify_failing_suite_exit_one(runner):
    # the block-weighted quotient family is genuinely tau-dependent, so the
    # tau-independence check in this suite fails by design
    r = invoke(runner, ["verify", "quotient-polydisk"], ok=False)
    assert r.exit_code == 1
    assert "[FAIL] quotient-polydisk:quotient-rho-tau-independence" in r.output


def test_verify_reports_suites_in_the_named_order(runner, tmp_path):
    out = tmp_path / "v.json"
    invoke(runner, ["verify", "slice-rank", "quotient-ball", "--json", str(out)])
    report = json.loads(out.read_text())
    assert [e["name"] for e in report["results"]] == [
        "slice-rank:slice-rank-identity",
        "slice-rank:slice-fiber-kernel",
        "quotient-ball:quotient-ball-certificate",
        "quotient-ball:quotient-ball-spot",
    ]
    assert report["params"]["suites"] == ["slice-rank", "quotient-ball"]


def test_verify_json_is_byte_identical_across_runs(runner, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        invoke(runner, ["verify", "slice-rank", "normal-ordering", "--json", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_takes_no_seed(runner):
    # no suite draws random numbers, so there is no seed to set
    assert "--seed" not in invoke(runner, ["verify", "--help"]).output


def test_verify_unknown_suite_is_an_error(runner):
    r = invoke(runner, ["verify", "nonsense"], ok=False)
    assert r.exit_code != 0
    assert "unknown suite" in r.output


def test_parse_errors_become_clean_cli_errors(runner):
    r = invoke(runner, ["norm", "x9"], ok=False)
    assert r.exit_code == 1
    assert "outside" in r.output
    r = invoke(runner, ["fock-norm", "x1", "--q-mod", "2.0"], ok=False)
    assert r.exit_code == 1


def assert_clean_error(r):
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    lines = r.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), r.output


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "1e999*x1"],
        ["multiply", "x2*x1", "x2*x1", "--q-mod", "1e-200"],
        ["norm", "x2*x1*x2*x1", "--q-mod", "1e-200"],
        ["norm", "x1^10", "--rho", "1e100"],
        ["jsr", "--family", "ball", "--n", "2", "--q-mod", "1e-300"],
        ["jsr", "--family", "polydisk", "--n", "2", "--q-mod", "1e-300"],
        ["norm", "z1^10", "--family", "free-taylor", "--rho", "1e100"],
        ["norm", "z1^10", "--family", "free-ball", "--rho", "1e100"],
        ["norm", "z1^10", "--family", "free-polydisk", "--rho", "1e100"],
        ["norm", "z1*z2", "--family", "free-polydisk", "--tau", "1e200"],
        ["norm", "z1", "--family", "free-polydisk", "--tau", "nan"],
        ["norm", "z1", "--family", "free-polydisk", "--tau", "inf"],
        ["norm", "x1", "--family", "polydisk", "--tau", "nan"],
        ["quotient-norm", "z1", "--family", "free-polydisk", "--tau", "inf"],
        ["jsr", "--family", "free-polydisk", "--tau", "nan"],
        ["jsr", "--family", "free-polydisk", "--tau", "inf"],
        ["jsr", "--family", "polydisk", "--tau", "nan"],
        ["jsr", "--p", "nan"],
        ["jsr", "--p", "-inf"],
        ["jsr", "--family", "free-taylor", "--p", "nan"],
        ["jsr", "--family", "free-polydisk", "--tau", "1e200", "--r", "1e200"],
        ["norm", "1e308*x1 + 1e308*x2", "--family", "polydisk"],
        ["norm", "1e308*x1 + 1e308*x2", "--family", "ball"],
        # a coefficient whose modulus is past double range, its parts not
        ["norm", "1.5e308*z1 + 1.5e308i*z1", "--family", "free-ball"],
        ["quotient-norm", "1.5e308*z1 + 1.5e308i*z1"],
        ["fock-norm", "1.5e308*x1 + 1.5e308i*x1"],
        ["fock-norm", "x1^2", "--rho", "1e200"],
        # every entry is a double, the window norm is not
        ["fock-norm", "1e308*x1 + 1e308*x1^2", "--n", "1"],
        ["radius", "1.5e308*z1 + 1.5e308i*z1"],
    ],
)
def test_values_outside_double_range_are_clean_errors(runner, args):
    assert_clean_error(invoke(runner, args, ok=False))


@pytest.mark.parametrize("exponent", ["1000000000000", "99999999999999999999"])
@pytest.mark.parametrize("mode", ["qspace", "free"])
def test_huge_exponent_is_a_clean_degree_error(runner, exponent, mode):
    r = invoke(runner, ["multiply", f"x1^{exponent}", "x1", "--mode", mode, "--cap", "8"], ok=False)
    assert_clean_error(r)
    assert f"term degree {exponent} exceeds cap 8" in r.output


@pytest.mark.parametrize(
    "expression, message",
    [
        ("x1^" + "9" * 5000, "term degree above 10^100 exceeds cap 16"),
        ("x" + "1" * 5000, "outside 1..2"),
    ],
    ids=["exponent", "index"],
)
def test_digit_runs_past_the_int_limit_are_clean_parse_errors(runner, expression, message):
    r = invoke(runner, ["norm", expression], ok=False)
    assert_clean_error(r)
    assert message in r.output and "int_max_str_digits" not in r.output


def test_long_variable_index_error_is_one_short_line(runner):
    r = invoke(runner, ["norm", "1 + x" + "1" * 5000], ok=False)
    assert_clean_error(r)
    line = r.output.strip()
    assert len(line) < 120 and line.endswith("(5000-digit index) outside 1..2 (at position 4)")


def test_leading_zeros_of_an_exponent_are_dropped(runner):
    r = invoke(runner, ["multiply", "x1^" + "0" * 4400 + "2", "1"])
    assert r.output.strip() == "x1^2"


def test_fock_basis_over_the_limit_is_a_clean_error(runner):
    # one element over the limit: without the check this builds a basis of
    # 100,001 elements and a norm on it, not the machine-filling basis of,
    # say, --n 4 --fock-cap 1000
    r = invoke(runner, ["fock-norm", "x1", "--n", "1", "--fock-cap", str(BASIS_LIMIT)], ok=False)
    assert_clean_error(r)
    assert f"{BASIS_LIMIT + 1} basis elements" in r.output


def test_fock_norm_names_a_malformed_expression_before_building_the_basis(runner):
    # the truncation at n = 4, cap 40 would hold 135,751 elements, over the limit
    r = invoke(runner, ["fock-norm", "x1 $", "--n", "4", "--fock-cap", "40"], ok=False)
    assert_clean_error(r)
    assert "unexpected character '$'" in r.output


@pytest.mark.parametrize("p", ["1e306", "1e308"])
@pytest.mark.parametrize(
    "family, args, want",
    [
        ("polydisk", [], 1.0),
        ("polydisk", ["--q-mod", "0.5"], 1.0),
        ("ball", [], 1.0),
        ("ball", ["--q-mod", "2.0", "--n", "3"], 1.0),
        ("free-taylor", [], 1.0),
        ("free-ball", [], 1.0),
        ("free-polydisk", [], 1.0),
        ("free-polydisk", ["--tau", "2"], 2.0),
        ("free-polydisk", ["--tau", "10", "--n", "3"], 10.0),
    ],
)
def test_jsr_at_huge_p_prints_the_limit(runner, tmp_path, family, args, want, p):
    # p times a log table or a degree leaves double range here; a RuntimeWarning
    # from numpy is an error under pytest
    out = tmp_path / "j.json"
    r = invoke(runner, ["jsr", "--family", family, "--p", p, *args, "--json", str(out)])
    assert r.output == f"jsr[{family}] = {want!r}\n"
    est, lower, upper = (e["value"] for e in json.loads(out.read_text())["results"])
    assert lower <= est <= upper


@pytest.mark.parametrize("family", ["polydisk", "ball"])
@pytest.mark.parametrize("q_mod", ["1e-300", "1e200"])
def test_jsr_at_extreme_modulus_names_the_double_range(runner, family, q_mod):
    # the inversion-sum base |q|^-2 overflows at 1e-300 and underflows to 0 at 1e200
    r = invoke(runner, ["jsr", "--family", family, "--q-mod", q_mod], ok=False)
    assert_clean_error(r)
    assert f"Error: {float(q_mod)!r}**-2.0 leaves the double range" in r.output


@pytest.mark.parametrize(
    "args, want",
    [
        # each term is formed from its logs: 1e300 * (1e-200)^2, and a
        # coefficient whose square is no double
        (["norm", "1e300*z1*z2", "--family", "free-taylor", "--rho", "1e-200"], 1e-100),
        (["norm", "1e300*z1*z2", "--family", "free-ball"], 1e300),
    ],
)
def test_free_norms_keep_extreme_values(runner, tmp_path, args, want):
    out = tmp_path / "r.json"
    invoke(runner, args + ["--json", str(out)])
    value = json.loads(out.read_text())["results"][0]["value"]
    assert value == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "1e300*z1*z2", "--family", "free-taylor"],
        ["norm", "1e300*x1*x2"],
        ["quotient-norm", "1e300*z1*z2"],
    ],
)
def test_single_large_terms_print_exactly(runner, args):
    # a term's modulus enters the sum with all its digits
    assert invoke(runner, args).output.rstrip().endswith(" = 1e+300")


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "x1", "--family", "polydisk", "--tau", "7"],
        ["norm", "x1", "--family", "ball", "--tau", "7"],
        ["norm", "x1", "--family", "vaksman", "--q-mod", "0.5", "--tau", "7"],
        ["jsr", "--family", "polydisk", "--tau", "5"],
        ["jsr", "--family", "ball", "--tau", "5"],
        ["jsr", "--family", "free-taylor", "--tau", "5"],
        ["jsr", "--family", "free-ball", "--tau", "5"],
        ["quotient-norm", "z1*z2", "--family", "free-taylor", "--tau", "5"],
        ["quotient-norm", "z1*z2", "--family", "free-ball", "--tau", "5"],
    ],
)
def test_tau_is_refused_where_no_block_weight_reads_it(runner, args):
    r = invoke(runner, args, ok=False)
    assert_clean_error(r)
    # the family is named as it was typed, free-taylor and not free_taylor
    family = args[args.index("--family") + 1]
    assert f"the {family} family has no block weight" in r.output


def test_radius_of_huge_coefficients(runner, tmp_path):
    out = tmp_path / "r.json"
    invoke(runner, ["radius", "z1 + 1e308*z1*z2", "--json", str(out)])
    values = {e["name"]: e["value"] for e in json.loads(out.read_text())["results"]}
    assert values["partial-d=2"] == pytest.approx(1e154, rel=1e-14, abs=0)
    # the modulus of this coefficient is past double range, its parts are not
    invoke(runner, ["radius", "1.5e308*z1*z2 + 1.5e308i*z1*z2", "--json", str(out)])
    values = {e["name"]: e["value"] for e in json.loads(out.read_text())["results"]}
    assert values["partial-d=2"] == pytest.approx(1.4564753151219702e154, rel=1e-14, abs=0)


RADIUS_WORDS = ("z1", "z2", "z1*z2", "z2*z1", "z1*z2*z1")
LOG_MODULI = st.floats(min_value=math.log(1e-300), max_value=math.log(1.7e308))


@settings(max_examples=80, deadline=None)
@given(
    terms=st.lists(
        st.tuples(LOG_MODULI, LOG_MODULI, st.sampled_from(RADIUS_WORDS)), min_size=1, max_size=4
    )
)
def test_radius_gives_a_finite_value_or_a_clean_error(terms):
    # complex coefficients whose parts are each in range, their moduli not always
    expression = " + ".join(
        f"({math.exp(log_re)!r} + {math.exp(log_im)!r}i)*{word}" for log_re, log_im, word in terms
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        r = CliRunner().invoke(main, ["radius", expression, "--json", str(out)])
        assert "Traceback" not in r.output
        if r.exit_code == 0:
            report = json.loads(out.read_text())
            values = [e["value"] for e in report["results"] if e["name"].startswith("partial-d=")]
            assert values and all(isinstance(v, float) and math.isfinite(v) for v in values), values
        else:
            assert_clean_error(r)


def test_repeated_in_process_runs_release_their_streams(runner):
    def captured_streams():
        gc.collect()
        return sum(type(o).__name__ == "_NamedTextIOWrapper" for o in gc.get_objects())

    invoke(runner, ["norm", "x1", "--q-mod", "0.5"])
    invoke(runner, ["verify", "--list"])
    before = captured_streams()
    for _ in range(20):
        invoke(runner, ["norm", "x1", "--q-mod", "0.5"])
        invoke(runner, ["verify", "--list"])
    assert captured_streams() <= before


def test_fock_norm_without_arpack_convergence_exits_one(runner, monkeypatch):
    import scipy.sparse.linalg

    import qdomains.fock

    def failing_eigsh(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(qdomains.fock, "_DENSE_MAX_COLS", 0)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    r = invoke(runner, ["fock-norm", "x1 + x2", "--n", "2", "--fock-cap", "8"], ok=False)
    assert r.exit_code == 1
    assert "ARPACK" in r.output
    assert not isinstance(r.exception, scipy.sparse.linalg.ArpackNoConvergence)


def printed_value(r):
    # "name[family] = value  [flags]"
    return float(r.output.strip().splitlines()[-1].split(" = ")[1].split()[0])


def test_fock_norm_with_a_tight_spectral_top_converges(runner):
    # one wide window component whose top Gram eigenvalues lie close together:
    # ARPACK's default Lanczos basis does not converge on it
    args = ["fock-norm", "x1 + 0.5*x2 + 0.3*x1*x2", "--n", "3", "--q-mod", "0.7", "--rho", "0.9"]
    value = printed_value(invoke(runner, [*args, "--fock-cap", "60"]))
    assert math.isfinite(value)
    assert value >= 1.0833618529560  # the cap-40 value; a wider window cannot lower it


@pytest.mark.parametrize(
    "expression, want", [("x1", 1.0), ("x2", 1.0), ("x1*x2", 1e-200)]
)
def test_ball_norm_at_extreme_modulus(runner, expression, want):
    q_mod = "1e-320" if want == 1.0 else "1e-200"
    r = invoke(runner, ["norm", expression, "--family", "ball", "--q-mod", q_mod])
    assert printed_value(r) == pytest.approx(want, rel=1e-13, abs=0)


EXTREME_RUNS = (
    ["norm", "x1*x2 + 0.5*x2^2", "--family", "polydisk"],
    ["norm", "x2*x1 + x1^3*x2^2", "--family", "ball"],
    ["norm", "x3*x1*x2 - 2*x2", "--family", "ball", "--n", "3"],
    ["quotient-norm", "z2*z1 + z1*z2*z1", "--family", "free-ball"],
    ["quotient-norm", "z2*z1 + z1*z2*z1", "--family", "free-taylor"],
    ["quotient-norm", "z2*z1 - 2*z1*z2*z1", "--family", "free-polydisk", "--tau", "2"],
    ["multiply", "x2*x1 + x1", "x1*x2 - 0.5*x2^2"],
    ["jsr", "--family", "ball", "--dmax", "20"],
)


def reported_values(json_path):
    """Every result value of a run, from its JSON report; multiply prints an
    expression, so its coefficients are checked in the reported expression."""
    report = json.loads(json_path.read_text())
    if report["command"] == "multiply":
        assert "inf" not in report["expression"] and "nan" not in report["expression"]
    return [e["value"] for e in report["results"]]


@settings(max_examples=80, deadline=None)
@given(
    args=st.sampled_from(EXTREME_RUNS),
    log_mod=st.floats(min_value=math.log(1e-300), max_value=math.log(1e300)),
)
def test_extreme_moduli_give_a_value_or_a_clean_error(args, log_mod):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r.json"
        r = CliRunner().invoke(main, [*args, "--q-mod", repr(math.exp(log_mod)), "--json", str(out)])
        assert "Traceback" not in r.output
        if r.exit_code == 0:
            values = reported_values(out)
            assert values and all(isinstance(v, float) and math.isfinite(v) for v in values), values
        else:
            assert_clean_error(r)


FOCK_RUNS = (
    ["fock-norm", "x1^2*x2 + 0.5*x2", "--n", "2", "--fock-cap", "12"],
    ["fock-norm", "x1^3 - 2*x1", "--rho", "0.5"],
    ["norm", "x1*x2 + x2^3 + 0.25", "--family", "vaksman", "--fock-cap", "10"],
    # a subnormal largest window entry, whose reciprocal is no double
    ["fock-norm", "x1", "--rho", "1e-320"],
    ["norm", "x1", "--family", "vaksman", "--rho", "1e-320"],
)


@pytest.mark.parametrize(
    "args",
    [
        ["fock-norm", "x1", "--rho", "1e-320"],
        ["norm", "x1", "--family", "vaksman", "--q-mod", "0.5", "--rho", "1e-320"],
    ],
)
def test_fock_norms_of_a_subnormal_window_print_its_value(runner, args):
    # the window norm of x1 is 1 - 1e-10 at cap 16: rho rounds it to the polydisk value
    want = printed_value(invoke(runner, ["norm", "x1", "--rho", "1e-320"]))
    assert want == 1e-320
    assert printed_value(invoke(runner, args)) == want


@settings(max_examples=40, deadline=None)
@given(
    args=st.sampled_from(FOCK_RUNS),
    log_mod=st.floats(min_value=math.log(1e-300), max_value=-1e-15),
)
def test_fock_norms_are_finite_at_every_q_below_one(args, log_mod):
    # normal-ordered elements carry no power of 1/q, and every Fock matrix
    # entry is at most |c_k|: there is always a value to report
    r = CliRunner().invoke(main, [*args, "--q-mod", repr(math.exp(log_mod))])
    assert r.exit_code == 0, r.output
    assert math.isfinite(printed_value(r))
