"""Verification-suite plumbing: check records, suite registry."""

import pytest

from qdomains import verify
from qdomains.qspace import _rewrite_word
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


def test_normal_ordering_fails_on_one_wrong_exponent(monkeypatch):
    exponent = verify.normal_order_exponent

    def spoiled(k, m):
        e = exponent(k, m)
        if len(k) == 3:  # one pair of the 3486, at n = 3: q**(e + 1) in place of q**e
            e[len(e) // 2] += 1
        return e

    monkeypatch.setattr(verify, "normal_order_exponent", spoiled)
    (check,) = run_suite("normal-ordering").checks
    assert not check.passed


def test_normal_ordering_fails_on_one_wrong_key(monkeypatch):
    rewrite = verify._rewrite_word

    def spoiled(word, n):
        swaps, key = rewrite(word, n)
        if word == (1, 2, 3):  # one word of the n = 3 pairs, read as x1^2 x2 x3
            key = (2, 1, 1)
        return swaps, key

    monkeypatch.setattr(verify, "_rewrite_word", spoiled)
    (check,) = run_suite("normal-ordering").checks
    assert not check.passed


def test_normal_ordering_runs_the_rewriting_oracle(monkeypatch):
    # the oracle's coefficient after 3 swaps, off by 1e-9 relative, must fail the 1e-12 bound
    oracle = verify.normal_order_word

    def spoiled(word, q, n):
        coeff, key = oracle(word, q, n)
        if _rewrite_word(word, n)[0] == 3:
            coeff *= 1 + 1e-9
        return coeff, key

    monkeypatch.setattr(verify, "normal_order_word", spoiled)
    (check,) = run_suite("normal-ordering").checks
    assert not check.passed
    assert 1e-12 < check.value < 1e-7  # the coefficient, not an integer mismatch (inf)


def test_normal_ordering_rewrites_each_word_once(monkeypatch):
    # once per distinct (n, word), not once per q: 7 + 98 + 546 words
    calls = []
    rewrite = verify._rewrite_word

    def counting(word, n):
        calls.append((n, word))
        return rewrite(word, n)

    monkeypatch.setattr(verify, "_rewrite_word", counting)
    (check,) = run_suite("normal-ordering").checks
    assert check.passed
    assert len(calls) == len(set(calls)) == 651


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
