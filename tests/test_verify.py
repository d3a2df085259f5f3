"""Verification-suite plumbing: check records, suite registry."""

import pytest

from qdomains.verify import SUITES, Check, SuiteResult, run_suite

EXPECTED_SUITES = [
    "normal-ordering",
    "submultiplicativity",
    "reversal",
    "quotient-polydisk",
    "quotient-ball",
    "jsr-separation",
    "weight-equivalence",
    "fock-ccr",
    "vaksman",
    "stirling",
    "slice-rank",
]


def test_registry_is_the_published_list():
    assert list(SUITES) == EXPECTED_SUITES


def test_check_record_shape():
    c = Check(name="demo", passed=True, value=0.5, op="<=", target=1.0)
    d = c.assert_dict()
    assert d == {"op": "<=", "target": 1.0, "pass": True}
    assert "<=" in c.describe()
    w = Check(name="win", passed=True, value=1.41, op="in", target=(1.40, 1.43))
    assert w.assert_dict()["target"] == [1.40, 1.43]  # JSON-friendly


def test_run_suite_slice_rank_passes():
    res = run_suite("slice-rank")
    assert isinstance(res, SuiteResult)
    assert res.passed
    assert res.elapsed > 0.0
    assert all(isinstance(c, Check) for c in res.checks)
    assert res.checks[0].name


def test_run_suite_is_seed_deterministic():
    a = run_suite("reversal", seed=3)
    b = run_suite("reversal", seed=3)
    assert [c.value for c in a.checks] == [c.value for c in b.checks]


def test_normal_ordering_checks_every_monomial_pair():
    # the case set: every (k, m) with |k| + |m| <= 6 for n = 1, 2, 3 at three q
    (check,) = run_suite("normal-ordering").checks
    assert check.detail.startswith("3486 monomial pairs")
    assert (check.op, check.target) == ("<=", 1e-12)
    assert check.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        run_suite("fock-ccr", seed=-1)


def test_quotient_polydisk_suite_has_the_honest_failure():
    res = run_suite("quotient-polydisk")
    by_name = {c.name: c for c in res.checks}
    # tau really scales the block-weighted quotient, so independence fails
    assert not by_name["quotient-rho-tau-independence"].passed
    assert by_name["quotient-rho-tau-block-law"].passed
    assert by_name["quotient-taylor-certificate"].passed
    assert not res.passed
