"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline.
Each criterion reuses the matching verification suite (seed 0) through a
session cache, so the whole gate costs one battery run.

Criterion 4b is EXPECTED TO FAIL: the block-weighted quotient seminorm is
genuinely tau-dependent (it scales as tau^blocks), so the tau-independence
assertion cannot hold.  The failure is kept red on purpose; the law that
does hold is pinned by criterion 4a/4c and the quotient test module.
"""

import math

import pytest

from qdomains.verify import run_suite

BOUNDS = {
    # wall-clock seconds per criterion, generous sandbox margins
    "normal-ordering": 10.0,
    "submultiplicativity": 5.0,
    "reversal": 5.0,
    "quotient": 300.0,
    "jsr-separation": 120.0,
    "weight-equivalence": 20.0,
    "fock": 120.0,
    "stirling": 5.0,
}

_cache: dict[str, object] = {}


@pytest.fixture(scope="session")
def suite():
    def get(name):
        if name not in _cache:
            _cache[name] = run_suite(name, seed=0)
        return _cache[name]

    return get


def announce(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {tag}: {detail}")


def checks_by_name(result):
    return {c.name: c for c in result.checks}


def test_criterion_01_normal_ordering_oracle(suite):
    res = suite("normal-ordering")
    c = checks_by_name(res)["closed-product-matches-rewriting"]
    assert c.op == "<=" and c.target == 1e-12
    announce(
        "1 normal ordering",
        c.passed and res.elapsed < BOUNDS["normal-ordering"],
        f"worst deviation {c.value:.3g} (bound 1e-12), {res.elapsed:.2f}s",
    )
    assert c.passed
    assert res.elapsed < BOUNDS["normal-ordering"]


def test_criterion_02_submultiplicativity(suite):
    res = suite("submultiplicativity")
    cs = checks_by_name(res)
    families = ["polydisk", "ball", "free_polydisk", "free_taylor", "free_ball"]
    worst = max(cs[f"submultiplicative-{f}"].value for f in families)
    ok = all(cs[f"submultiplicative-{f}"].passed for f in families)
    for f in families:
        assert cs[f"submultiplicative-{f}"].target == 1e-9
    announce(
        "2 submultiplicativity on every monomial, word and fiber pair",
        ok and res.elapsed < BOUNDS["submultiplicativity"],
        f"worst excess {worst:.3g} over {len(families)} families, {res.elapsed:.2f}s",
    )
    assert ok
    assert res.elapsed < BOUNDS["submultiplicativity"]


def test_criterion_03_reversal_isomorphism(suite):
    res = suite("reversal")
    cs = checks_by_name(res)
    iso, hom = cs["reversal-isometry"], cs["reversal-multiplicative"]
    assert iso.target == 1e-12 and hom.target == 1e-12
    ok = iso.passed and hom.passed
    announce(
        "3 reversal isometry + homomorphism",
        ok and res.elapsed < BOUNDS["reversal"],
        f"isometry {iso.value:.3g}, product {hom.value:.3g}, {res.elapsed:.2f}s",
    )
    assert ok
    assert res.elapsed < BOUNDS["reversal"]


def test_criterion_04a_taylor_quotient_closed_form(suite):
    res = suite("quotient-polydisk")
    cs = checks_by_name(res)
    cert, spot = cs["quotient-taylor-certificate"], cs["quotient-polydisk-spot"]
    assert cert.target == 1e-6 and spot.target == 1e-6
    ok = cert.passed and spot.passed
    announce(
        "4a taylor quotient = w_q(k) rho^|k|",
        ok,
        f"certificate gap {cert.value:.3g}, unit-modulus spot gap {spot.value:.3g}",
    )
    assert ok
    assert res.elapsed < BOUNDS["quotient"]


def test_criterion_04b_tau_independence_EXPECTED_RED(suite):
    # honest failure: quotients of the block-weighted family scale with tau
    res = suite("quotient-polydisk")
    c = checks_by_name(res)["quotient-rho-tau-independence"]
    law = checks_by_name(res)["quotient-rho-tau-block-law"]
    announce(
        "4b tau-independence of (rho,tau) quotients",
        c.passed,
        f"max deviation {c.value:.6g} across tau in {{1,2,5}} "
        f"(tau^blocks * w_q * rho^d law verified to {law.value:.3g})",
    )
    assert law.passed  # the measured law itself is solid
    assert c.passed, (
        "tau-independence fails quantitatively: a 3-block monomial at tau=5 "
        "deviates by 5^3 - 1 = 124; see the quotient test module for the law"
    )


def test_criterion_04c_ball_quotient_closed_form(suite):
    res = suite("quotient-ball")
    cs = checks_by_name(res)
    cert, spot = cs["quotient-ball-certificate"], cs["quotient-ball-spot"]
    assert cert.target == 1e-6 and spot.target == 1e-6
    ok = cert.passed and spot.passed
    announce(
        "4c ball quotient = ball_weight(k) rho^|k|",
        ok,
        f"certificate gap {cert.value:.3g}, rho^2/sqrt(2) spot gap {spot.value:.3g}",
    )
    assert ok
    assert res.elapsed < BOUNDS["quotient"]


def test_criterion_05_jsr_windows(suite):
    res = suite("jsr-separation")
    cs = checks_by_name(res)
    p2 = cs["jsr-polydisk-n2"]
    b2 = cs["jsr-ball-n2"]
    p3 = cs["jsr-polydisk-n3"]
    bracket = cs["jsr-limit-in-bracket"]
    assert p2.target == (1.40, 1.43)
    assert b2.target == (0.99, 1.01)
    assert p3.target == (1.70, 1.77)
    assert bracket.op == "<=" and bracket.target == 0.0
    ok = p2.passed and b2.passed and p3.passed and bracket.passed
    announce(
        "5 jsr windows (closed-form limits, bracketed by the partials at d <= 200)",
        ok and res.elapsed < BOUNDS["jsr-separation"],
        f"polydisk n2 {p2.value:.5f}, ball n2 {b2.value:.5f}, "
        f"polydisk n3 {p3.value:.5f}, bracket excess {bracket.value:.2g}, {res.elapsed:.2f}s",
    )
    assert ok
    # the exact limits sqrt(n) and 1 at |q| = 1, p = 2
    for check, want in ((p2, math.sqrt(2.0)), (b2, 1.0), (p3, math.sqrt(3.0))):
        assert check.value == pytest.approx(want, rel=1e-15, abs=0)
    assert res.elapsed < BOUNDS["jsr-separation"]


def test_criterion_06_family_separation(suite):
    res = suite("jsr-separation")
    c = checks_by_name(res)["jsr-family-separation"]
    assert c.op == ">=" and c.target == 1.35
    announce(
        "6 polydisk/ball jsr ratio",
        c.passed,
        f"ratio {c.value:.5f} >= 1.35",
    )
    assert c.passed


def test_criterion_07_weight_equivalence_window(suite):
    res = suite("weight-equivalence")
    cs = checks_by_name(res)
    ok = all(c.passed for c in cs.values())
    lo2, lo3 = cs["weight-ratio-lower-q2"], cs["weight-ratio-lower-q3"]
    announce(
        "7 weight ratio pinched by the euler product",
        ok and res.elapsed < BOUNDS["weight-equivalence"],
        f"min ratios {lo2.value:.6f} (|q|=2), {lo3.value:.6f} (|q|=3), "
        f"uppers <= 1 + 1e-6, {res.elapsed:.2f}s",
    )
    assert ok
    assert res.elapsed < BOUNDS["weight-equivalence"]


def test_criterion_08_fock_representation(suite):
    ccr = suite("fock-ccr")
    vak = suite("vaksman")
    c1 = checks_by_name(ccr)["fock-ccr-window"]
    c2 = checks_by_name(ccr)["fock-ccr-boundary-artifact"]
    v1 = checks_by_name(vak)["fock-generator-norm-limit"]
    v2 = checks_by_name(vak)["vaksman-monomial-values"]
    v3 = checks_by_name(vak)["vaksman-domination-constants"]
    assert c1.target == 1e-12 and v1.target == 1e-4 and v2.target == 1e-4
    assert (v3.op, v3.target) == ("<=", 1.0)
    ok = all(c.passed for c in (c1, c2, v1, v2, v3))
    elapsed = ccr.elapsed + vak.elapsed
    announce(
        "8 fock: ccr window, norms, domination",
        ok and elapsed < BOUNDS["fock"],
        f"ccr residual {c1.value:.3g}, boundary artifact {c2.value:.3g}, "
        f"generator norm gap {v1.value:.3g}, monomial gap {v2.value:.3g}, "
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < BOUNDS["fock"]


def test_criterion_09_monomial_suprema(suite):
    res = suite("stirling")
    cs = checks_by_name(res)
    gap = cs["ball-sup-grid-gap"]
    side = cs["ball-sup-grid-onesided"]
    spot = cs["stirling-spot-deg2"]
    tail = cs["stirling-ratio-deg200"]
    assert gap.target == side.target == 1e-12 and tail.target == 0.05
    ok = all(c.passed for c in (gap, side, spot, tail))
    announce(
        "9 grid suprema and stirling drift",
        ok and res.elapsed < BOUNDS["stirling"],
        f"grid gap {gap.value:.2g} <= 1e-12, overshoot {side.value:.2g}, "
        f"deg-200 ratio drift {tail.value:.4f} <= 0.05, {res.elapsed:.2f}s",
    )
    assert ok
    assert res.elapsed < BOUNDS["stirling"]


def test_criterion_10_slice_rank_identity(suite):
    res = suite("slice-rank")
    c = checks_by_name(res)["slice-rank-identity"]
    kernel = checks_by_name(res)["slice-fiber-kernel"]
    assert c.op == "==" and "over 42 (n, d, q) cases, n <= 3, d <= 6" in c.detail
    assert (kernel.op, kernel.target) == ("<=", 1e-12)
    ok = c.passed and kernel.passed
    announce(
        "10 ideal slice ranks (exhaustive, n <= 3, d <= 6)",
        ok,
        f"{int(c.value)} rank mismatches over 42 slices, fiber kernel residual {kernel.value:.2g}",
    )
    assert ok
