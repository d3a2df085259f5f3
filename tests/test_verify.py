"""Verification-suite plumbing: check records, suite registry."""

import math

import numpy as np
import pytest

from qdomains import qspace, verify
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


def test_pair_suites_do_not_read_the_seed():
    for name in ("submultiplicativity", "reversal"):
        assert run_suite(name, seed=0).checks == run_suite(name, seed=3).checks


@pytest.mark.parametrize(
    "suite, counts",
    [
        (
            "submultiplicativity",
            {
                "submultiplicative-polydisk": "397290 monomial pairs",
                "submultiplicative-ball": "397290 monomial pairs",
                "submultiplicative-free_polydisk": "11205 word pairs",
                "submultiplicative-free_taylor": "11205 word pairs",
                "submultiplicative-free_ball": "1419 letter-count fiber pairs",
            },
        ),
        (
            "reversal",
            {
                "reversal-isometry": "5205 monomial weights",
                "reversal-multiplicative": "33254 monomial pairs",
            },
        ),
    ],
)
def test_pair_suites_check_every_pair(suite, counts):
    # the pair sets: |k|+|m| <= 16 at n = 2, 3 and five moduli; words |u|+|v| <= 8 at n = 2 and
    # <= 6 at n = 3, and their letter-count fibers; for the reversal |k|+|m| <= 12 at n = 2, 3
    # and <= 8 at n = 4
    checks = run_suite(suite).checks
    assert {c.name: c.detail.split(",")[0] for c in checks} == counts
    targets = {"submultiplicativity": 1e-9, "reversal": 1e-12}[suite]
    assert all((c.op, c.target, c.passed) == ("<=", targets, True) for c in checks)


def test_submultiplicativity_fails_on_a_ball_weight_off_by_0_3_percent(monkeypatch):
    law_of = verify.weight_law

    def spoiled(q_mod, d_max, ball=True):
        law = law_of(q_mod, d_max, ball)

        def scaled(k, j=0):
            log_w, factor = law(k, j)
            if len(k) == 2:  # the ball weight of k = (2, 0), times 1.003
                factor = factor + np.where((k[0] == 2) & (k[1] == 0), math.log(1.003), 0.0)
            return log_w, factor

        return scaled

    monkeypatch.setattr(verify, "weight_law", spoiled)
    checks = {c.name: c for c in run_suite("submultiplicativity").checks}
    assert not checks["submultiplicative-ball"].passed
    assert checks["submultiplicative-polydisk"].passed


def test_reversal_fails_on_one_wrong_exponent(monkeypatch):
    exponent = verify.normal_order_exponent

    def spoiled(k, m):
        e = exponent(k, m)
        if len(k) == 3:  # one pair at n = 3: e + 1 in place of e, forward and reversed alike
            e[len(e) // 2] += 1
        return e

    monkeypatch.setattr(verify, "normal_order_exponent", spoiled)
    checks = {c.name: c for c in run_suite("reversal").checks}
    assert not checks["reversal-multiplicative"].passed
    assert checks["reversal-isometry"].passed


def _closed_product(result):
    """The normal-ordering suite's closed-product check."""
    (check,) = [c for c in result.checks if c.name == "closed-product-matches-rewriting"]
    return check


def test_normal_ordering_checks_every_monomial_pair():
    # the case set: every (k, m) with |k| + |m| <= 6 for n = 1, 2, 3 at three q
    result = run_suite("normal-ordering")
    assert [c.name for c in result.checks] == [
        "closed-product-matches-rewriting",
        "multiply-matches-rewriting",
    ]
    check = _closed_product(result)
    assert check.detail.startswith("3486 monomial pairs")
    assert all((c.op, c.target, c.passed) == ("<=", 1e-12, True) for c in result.checks)


def test_normal_ordering_fails_on_a_multiply_with_swapped_exponent_arguments(monkeypatch):
    # x^k x^m read as q**e(m, k): another consistent algebra, seen only by multiply's own check
    exponent = qspace.normal_order_exponent
    monkeypatch.setattr(qspace, "normal_order_exponent", lambda k, m: exponent(m, k))
    result = run_suite("normal-ordering")
    checks = {c.name: c for c in result.checks}
    assert not result.passed
    assert not checks["multiply-matches-rewriting"].passed
    assert checks["closed-product-matches-rewriting"].passed


def test_normal_ordering_fails_on_one_wrong_exponent(monkeypatch):
    exponent = verify.normal_order_exponent

    def spoiled(k, m):
        e = exponent(k, m)
        if len(k) == 3:  # one pair of the 3486, at n = 3: q**(e + 1) in place of q**e
            e[len(e) // 2] += 1
        return e

    monkeypatch.setattr(verify, "normal_order_exponent", spoiled)
    assert not _closed_product(run_suite("normal-ordering")).passed


def test_normal_ordering_fails_on_one_wrong_key(monkeypatch):
    rewrite = verify._rewrite_word

    def spoiled(word, n):
        swaps, key = rewrite(word, n)
        if word == (1, 2, 3):  # one word of the n = 3 pairs, read as x1^2 x2 x3
            key = (2, 1, 1)
        return swaps, key

    monkeypatch.setattr(verify, "_rewrite_word", spoiled)
    assert not _closed_product(run_suite("normal-ordering")).passed


def test_normal_ordering_runs_the_rewriting_oracle(monkeypatch):
    # the oracle's coefficient after 3 swaps, off by 1e-9 relative, must fail the 1e-12 bound
    oracle = verify.normal_order_word

    def spoiled(word, q, n):
        coeff, key = oracle(word, q, n)
        if _rewrite_word(word, n)[0] == 3:
            coeff *= 1 + 1e-9
        return coeff, key

    monkeypatch.setattr(verify, "normal_order_word", spoiled)
    check = _closed_product(run_suite("normal-ordering"))
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
    assert run_suite("normal-ordering").passed
    assert len(calls) == len(set(calls)) == 651


def test_stirling_reads_the_suprema_off_the_exact_grid():
    # 220 (k, r) cases: every k with 1 <= |k| <= 6 at n = 2, 3 and r in {0.8, 1}
    checks = {c.name: c for c in run_suite("stirling").checks}
    gap, side = checks["ball-sup-grid-gap"], checks["ball-sup-grid-onesided"]
    assert "(61 points at n = 2, 1891 points at n = 3), 220 monomials" in gap.detail
    for check in (gap, side):
        assert (check.op, check.target, check.passed) == ("<=", 1e-12, True)


@pytest.mark.parametrize("factor, failing", [(1 + 1e-9, "gap"), (1 - 1e-9, "onesided")])
def test_stirling_fails_on_a_sphere_supremum_off_by_1e_9(monkeypatch, factor, failing):
    closed = verify.monomial_sup
    monkeypatch.setattr(verify, "monomial_sup", lambda k, domain, r: factor * closed(k, domain, r))
    result = run_suite("stirling")
    checks = {c.name: c for c in result.checks}
    assert not result.passed
    assert not checks[f"ball-sup-grid-{failing}"].passed
    assert checks[f"ball-sup-grid-{failing}"].value == pytest.approx(1e-9, rel=1e-3)


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
