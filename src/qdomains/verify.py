"""Numerical check suites tying the implemented objects to their claimed laws.

Each suite is a generator of :class:`Check` records; ``run_suite`` drains
it and the CLI ``verify`` subcommand and the acceptance tests share the
results.  Suites are deterministic for a fixed seed.

A failing check is reported, never silenced: one of the rho-tau quotient
checks measures a deviation that is structurally there (the computed
quotients follow a tau^blocks law, see the check detail), and it is kept
failing on purpose as a record of the measured behavior.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .fock import (
    FockTruncation,
    element_for,
    op_norm,
    rep_generator,
    vaksman_norm,
    verify_tw_ccr,
)
from .freeseries import (
    FreeElement,
    free_ball_norm,
    free_polydisk_norm,
    taylor_norm,
)
from .jsr import estimate_canonical_jsr
from .qcombinatorics import (
    MultiIndex,
    _canonical_word,
    ball_weight,
    compositions_up_to,
    degree,
    monomial_sup,
    multi_indices_of_degree,
    multi_indices_up_to,
    s_stat,
    sampled_monomial_sup,
    stirling_ratio,
    w_q,
)
from .qspace import (
    QElement,
    QParameter,
    ball_norm,
    multiply,
    normal_order_exponent,
    normal_order_word,
    polydisk_norm,
    reversal_iso,
    weight_ratio_scan,
)
from .quotient import (
    build_slice,
    canonical_lift,
    quotient_norm_l1,
    quotient_norm_l2,
    slice_rank,
    theoretical_slice_rank,
)


@dataclass(frozen=True)
class Check:
    """One verified quantity: observed value against the stated bound."""

    name: str
    passed: bool
    value: float
    op: str  # "<=", ">=", "in", "==", "finite"
    target: float | tuple[float, float] | None
    detail: str = ""

    def describe(self) -> str:
        if self.op == "in":
            lo, hi = self.target  # type: ignore[misc]
            return f"in [{lo:g}, {hi:g}]"
        if self.op == "finite":
            return "finite"
        return f"{self.op} {self.target:g}"

    def assert_dict(self) -> dict:
        target = list(self.target) if isinstance(self.target, tuple) else self.target
        return {"op": self.op, "target": target, "pass": self.passed}


def _le(name: str, value: float, bound: float, detail: str = "") -> Check:
    return Check(name, bool(value <= bound), float(value), "<=", bound, detail=detail)


def _ge(name: str, value: float, bound: float, detail: str = "") -> Check:
    return Check(name, bool(value >= bound), float(value), ">=", bound, detail=detail)


def _window(name: str, value: float, lo: float, hi: float, detail: str = "") -> Check:
    return Check(
        name, bool(lo <= value <= hi), float(value), "in", (lo, hi), detail=detail
    )


def _finite(name: str, value: float, detail: str = "") -> Check:
    return Check(
        name, bool(math.isfinite(value)), float(value), "finite", None, detail=detail
    )


# ---------------------------------------------------------------------------
# random element helpers


def _random_qelement(
    rng: np.random.Generator, support: list[MultiIndex], q: QParameter, cap: int, terms: int
) -> QElement:
    idx = rng.choice(len(support), size=min(terms, len(support)), replace=False)
    coeffs = {
        support[i]: complex(rng.standard_normal(), rng.standard_normal()) for i in idx
    }
    return QElement(len(support[0]), q, coeffs, cap=cap)


def _random_free(
    rng: np.random.Generator, n: int, cap: int, max_deg: int, terms: int
) -> FreeElement:
    coeffs: dict[tuple[int, ...], complex] = {}
    for _ in range(terms):
        d = int(rng.integers(0, max_deg + 1))
        w = tuple(int(a) for a in rng.integers(1, n + 1, size=d))
        coeffs[w] = coeffs.get(w, 0j) + complex(
            rng.standard_normal(), rng.standard_normal()
        )
    return FreeElement(n, coeffs, cap=cap)


# ---------------------------------------------------------------------------
# suites


def _suite_normal_ordering(rng: np.random.Generator) -> Iterator[Check]:
    """Closed-form monomial products against the brute rewriting procedure.

    :func:`normal_order_exponent`, the exponent :func:`multiply` uses, runs
    once per n on the index columns of every pair of monomials up to
    degree 6; at each q each pair's key and power must match the rewriting
    of the concatenated words, taken once per word.
    """
    qs = [QParameter(0.5, 0.0), QParameter(1.0, math.pi / 3), QParameter(2.0, 1.0)]
    tables = {}
    for n in (1, 2, 3):
        K = compositions_up_to(n, 6)
        deg = K.sum(1)
        rows, cols = (deg[:, None] + deg <= 6).nonzero()
        exponents = normal_order_exponent(K.T[:, rows], K.T[:, cols]).tolist()
        table = list(zip(rows.tolist(), cols.tolist(), (K[rows] + K[cols]).tolist(), exponents))
        tables[n] = [_canonical_word(k) for k in K.tolist()], table, set(exponents)
    worst = 0.0
    pairs = 0
    for q in qs:
        for n, (words, table, exponents) in tables.items():
            powers = {e: q.power(e) for e in exponents}
            rewritten: dict[tuple[int, ...], tuple[complex, MultiIndex]] = {}
            for i, j, key, e in table:
                word = words[i] + words[j]
                if word not in rewritten:
                    rewritten[word] = normal_order_word(word, q, n)
                coeff, expected = rewritten[word]
                worst = max(worst, abs(powers[e] - coeff) if tuple(key) == expected else math.inf)
            pairs += len(table)
    yield _le(
        "closed-product-matches-rewriting",
        worst,
        1e-12,
        f"{pairs} monomial pairs, n <= 3, |k|+|m| <= 6, 3 parameter values",
    )


def _suite_submultiplicativity(rng: np.random.Generator) -> Iterator[Check]:
    qs = [QParameter(0.5, 0.0), QParameter(1.0, math.pi / 4), QParameter(2.0, 1.0)]
    trials = 1000
    norms: dict[str, Callable[[QElement | FreeElement, float], float]] = {
        "polydisk": polydisk_norm,
        "ball": ball_norm,
        "free_polydisk": lambda a, rho: free_polydisk_norm(a, rho, 1.5),
        "free_taylor": taylor_norm,
        "free_ball": free_ball_norm,
    }
    support = list(multi_indices_up_to(2, 4))
    for family, norm in norms.items():
        worst = -math.inf
        for t in range(trials):
            q = qs[t % len(qs)]
            rho = 0.7 if t % 2 else 1.3
            if family.startswith("free"):
                a, b = (_random_free(rng, 2, cap=8, max_deg=4, terms=5) for _ in range(2))
            else:
                a, b = (_random_qelement(rng, support, q, cap=8, terms=5) for _ in range(2))
            na, nb = norm(a, rho), norm(b, rho)
            if na * nb == 0.0:
                continue
            worst = max(worst, (norm(a * b, rho) - na * nb) / (na * nb))
        yield _le(
            f"submultiplicative-{family}",
            worst,
            1e-9,
            f"worst relative excess of |ab| over |a||b|, {trials} pairs, n=2"
            + (", tau=1.5" if family == "free_polydisk" else ""),
        )


def _suite_reversal(rng: np.random.Generator) -> Iterator[Check]:
    qs = [
        QParameter(0.5, 0.0),
        QParameter(1.0, math.pi / 4),
        QParameter(2.0, 1.3),
        QParameter(0.8, 2.0),
        QParameter(1.6, 0.5),
    ]
    supports = {n: list(multi_indices_up_to(n, 4)) for n in (2, 3)}
    worst_norm = 0.0
    for t in range(500):
        q = qs[t % len(qs)]
        a = _random_qelement(rng, supports[2 + t % 2], q, cap=8, terms=5)
        b = reversal_iso(a)
        for norm in (polydisk_norm, ball_norm):
            na, nb = norm(a, 0.9), norm(b, 0.9)
            worst_norm = max(worst_norm, abs(na - nb) / max(na, 1.0))
    yield _le(
        "reversal-isometry",
        worst_norm,
        1e-12,
        "both families, 500 elements, moduli {0.5, 0.8, 1, 1.6, 2}",
    )
    worst_hom = 0.0
    for t in range(200):
        q = qs[t % len(qs)]
        support = supports[2 + t % 2]
        a = _random_qelement(rng, support, q, cap=8, terms=5)
        b = _random_qelement(rng, support, q, cap=8, terms=5)
        lhs = reversal_iso(multiply(a, b))
        rhs = multiply(reversal_iso(a), reversal_iso(b))
        diff = lhs - rhs
        scale = max(max((abs(c) for c in lhs.coefficients.values()), default=0.0), 1.0)
        err = max((abs(c) for c in diff.coefficients.values()), default=0.0)
        worst_hom = max(worst_hom, err / scale)
    yield _le("reversal-multiplicative", worst_hom, 1e-12, "200 product pairs")


_QUOTIENT_QS = (
    QParameter(0.5, 0.0),
    QParameter(1.0, math.pi / 4),
    QParameter(2.0, 0.7),
)


def _quotient_cases(n_values=(2, 3), d_max=5):
    for q in _QUOTIENT_QS:
        for n in n_values:
            for k in multi_indices_up_to(n, d_max):
                for rho in (0.3, 0.9):
                    yield q, k, rho


def _suite_quotient_polydisk(rng: np.random.Generator) -> Iterator[Check]:
    # tau = 1 is the plain coefficient quotient: one pass gives all three laws
    worst_taylor = 0.0
    worst_invariance = 0.0
    worst_block_law = 0.0
    cases = 0
    for q, k, rho in _quotient_cases():
        lift = canonical_lift(k)
        expect = w_q(k, q.modulus) * rho ** degree(k)
        blocks = s_stat(_canonical_word(k)) + 1
        for tau in (1.0, 2.0, 5.0):
            rt = quotient_norm_l1(lift, rho, tau, q=q)
            law = tau ** blocks * expect
            worst_block_law = max(worst_block_law, abs(rt.value - law) / law)
            deviation = abs(rt.value - expect) / expect
            if tau > 1.0:
                worst_invariance = max(worst_invariance, deviation)
            else:
                worst_taylor = max(worst_taylor, deviation)
        cases += 1
    yield _le(
        "quotient-taylor-certificate",
        worst_taylor,
        1e-6,
        f"coefficient-norm quotient vs w(k) rho^|k|, {cases} monomial cases",
    )
    spot_q = QParameter(1.0, math.pi / 4)
    spot = quotient_norm_l1(canonical_lift((1, 1)), 0.9, q=spot_q).value
    yield _le(
        "quotient-polydisk-spot",
        abs(spot - 0.81) / 0.81,
        1e-6,
        "x1*x2 at |q|=1, rho=0.9: quotient rho^2",
    )
    yield _le(
        "quotient-rho-tau-independence",
        worst_invariance,
        1e-6,
        "deviation of the (rho, tau) quotient from the tau=1 value over "
        "tau in {2, 5}; the measured quotients carry a tau^blocks(k) factor "
        "(see quotient-rho-tau-block-law), so this stays far from zero",
    )
    yield _le(
        "quotient-rho-tau-block-law",
        worst_block_law,
        1e-6,
        "measured (rho, tau) quotient vs tau^blocks(k) w(k) rho^|k|, tau in {1, 2, 5}",
    )


def _suite_quotient_ball(rng: np.random.Generator) -> Iterator[Check]:
    worst = 0.0
    cases = 0
    for q, k, rho in _quotient_cases():
        expect = ball_weight(k, q.modulus) * rho ** degree(k)
        res = quotient_norm_l2(canonical_lift(k), rho, q=q)
        worst = max(worst, abs(res.value - expect) / expect)
        cases += 1
    yield _le(
        "quotient-ball-certificate",
        worst,
        1e-6,
        f"fiber-l2 quotient vs ball_weight(k) rho^|k|, {cases} monomial cases",
    )
    spot_q = QParameter(1.0, math.pi / 4)
    spot = quotient_norm_l2(canonical_lift((1, 1)), 0.9, q=spot_q).value
    target = 0.81 / math.sqrt(2.0)
    yield _le(
        "quotient-ball-spot",
        abs(spot - target) / target,
        1e-6,
        "x1*x2 at |q|=1, rho=0.9: quotient rho^2/sqrt(2)",
    )


def _suite_jsr_separation(rng: np.random.Generator) -> Iterator[Check]:
    q = QParameter(1.0, math.pi / 4)
    detail = "|q|=1 (phase pi/4), p=2, r=1, closed-form limit"
    poly2 = estimate_canonical_jsr("polydisk", 2, q, p=2.0, r=1.0, d_max=200)
    yield _window("jsr-polydisk-n2", poly2.extrapolated, 1.40, 1.43, detail)
    ball2 = estimate_canonical_jsr("ball", 2, q, p=2.0, r=1.0, d_max=200)
    yield _window("jsr-ball-n2", ball2.extrapolated, 0.99, 1.01, detail)
    yield _ge(
        "jsr-family-separation",
        poly2.extrapolated / ball2.extrapolated,
        1.35,
        "polydisk/ball estimate ratio at n=2; distinguishes the completions",
    )
    poly3 = estimate_canonical_jsr("polydisk", 3, q, p=2.0, r=1.0, d_max=200)
    yield _window("jsr-polydisk-n3", poly3.extrapolated, 1.70, 1.77, detail)
    # the isomorphism half: off |q| = 1 both families have joint spectral radius r
    off_unit = [
        estimate_canonical_jsr(family, 2, QParameter(q_mod, 0.3), p, 1.0, d_max=200)
        for family in ("polydisk", "ball")
        for q_mod in (0.5, 2.0)
        for p in (1.0, 2.0)
    ]
    gap = max(abs(e.extrapolated - 1.0) for e in off_unit)
    yield _le(
        "jsr-family-coincidence",
        gap,
        1e-3,
        "max |estimate - 1| over both families, |q| in {0.5, 2}, p in {1, 2}, n=2",
    )
    # the partials come from the convolution power, not from the closed forms
    estimates = [poly2, ball2, poly3, *off_unit]
    excess = max(
        max(e.lower - e.extrapolated, e.extrapolated - (1 + 1e-12) * e.upper) for e in estimates
    )
    yield _le(
        "jsr-limit-in-bracket",
        excess,
        0.0,
        f"max(r - L, L - (1 + 1e-12) min_d R_d) over {len(estimates)} estimates, d <= 200",
    )


def _euler_product(t: float) -> float:
    """prod_{m>=1} (1 - t^m) for 0 < t < 1, to machine precision."""
    out = 1.0
    m = 1
    while True:
        term = t ** m
        if term < 1e-18:
            return out
        out *= 1.0 - term
        m += 1


def _suite_weight_equivalence(rng: np.random.Generator) -> Iterator[Check]:
    for q_mod in (2.0, 3.0):
        phi = _euler_product(min(q_mod, 1.0 / q_mod) ** 2)
        lo, hi = math.inf, -math.inf
        for n in (1, 2, 3):
            scan = weight_ratio_scan(q_mod, n, 50)
            lo = min(lo, scan.min_ratio)
            hi = max(hi, scan.max_ratio)
        detail = f"ball_weight/w over |k| <= 50, n <= 3; Euler product = {phi:.9f}"
        yield _ge(f"weight-ratio-lower-q{q_mod:g}", lo, phi - 1e-6, detail)
        yield _le(f"weight-ratio-upper-q{q_mod:g}", hi, 1.0 + 1e-6, detail)


def _suite_fock_ccr(rng: np.random.Generator) -> Iterator[Check]:
    worst_window = 0.0
    min_boundary = math.inf
    for n in (1, 2):
        for cap in (6, 12):
            for qv in (0.3, 0.5, 0.8):
                window, everywhere = verify_tw_ccr(FockTruncation(n, qv, cap))
                worst_window = max(worst_window, window)
                min_boundary = min(min_boundary, everywhere)
    yield _le(
        "fock-ccr-window",
        worst_window,
        1e-12,
        "twisted relations on validity windows, n <= 2, K <= 12, 3 q values",
    )
    yield _ge(
        "fock-ccr-boundary-artifact",
        min_boundary,
        1e-6,
        "the same relations must visibly fail on the truncation boundary",
    )


def _suite_vaksman(rng: np.random.Generator) -> Iterator[Check]:
    fock60 = FockTruncation(1, 0.5, 60)
    gnorm = op_norm(rep_generator(1, fock60))
    yield _le(
        "fock-generator-norm-limit",
        abs(gnorm - 1.0),
        1e-4,
        f"| ||pi(x)|| - 1 | at n=1, K=60, q=0.5 (value {gnorm:.8f})",
    )
    worst_v = 0.0
    for rho in (0.5, 1.0, 2.0):
        for m in range(1, 7):
            a = element_for(fock60, {(m,): 1.0})
            v = vaksman_norm(a, rho, fock60)
            worst_v = max(worst_v, abs(v - rho ** m) / max(1.0, rho ** m))
    yield _le(
        "vaksman-monomial-values",
        worst_v,
        1e-4,
        "sup-style norm of x^m vs rho^m, m <= 6, rho in {0.5, 1, 2}, n=1",
    )
    fock2 = FockTruncation(2, 0.5, 12)
    c_upper = 0.0
    c_lower = 0.0
    for rho_small, rho_big in ((0.3, 0.5), (0.5, 0.9)):
        for k in multi_indices_up_to(2, 4):
            a = element_for(fock2, {k: 1.0})
            v_small = vaksman_norm(a, rho_small, fock2)
            p_big = polydisk_norm(a, rho_big)
            c_upper = max(c_upper, v_small / p_big)
            p_small = polydisk_norm(a, rho_small)
            v_big = vaksman_norm(a, rho_big, fock2)
            c_lower = max(c_lower, p_small / v_big)
    yield _finite(
        "vaksman-domination-constants",
        max(c_upper, c_lower),
        f"two-sided monomial ratios on the (rho', rho) grid, n=2: "
        f"sup/coeff = {c_upper:.6g}, coeff/sup = {c_lower:.6g}",
    )


def _suite_stirling(rng: np.random.Generator) -> Iterator[Check]:
    worst_low = 0.0
    worst_high = 0.0
    count = 0
    for n in (2, 3):
        for r in (0.8, 1.0):
            for k in multi_indices_up_to(n, 6):
                if degree(k) == 0:
                    continue
                closed = monomial_sup(k, "ball", r)
                samp = sampled_monomial_sup(k, "ball", r, points=1 << 18, seed=7)
                worst_low = max(worst_low, (closed - samp) / closed)
                worst_high = max(worst_high, (samp - closed) / closed)
                count += 1
    yield _le(
        "ball-sup-sampled-gap",
        worst_low,
        0.01,
        f"closed sphere supremum vs 2^18-point Sobol estimate, {count} monomials",
    )
    yield _le(
        "ball-sup-sampled-onesided",
        worst_high,
        1e-9,
        "the sampled value may never exceed the closed supremum",
    )
    yield _window(
        "stirling-spot-deg2",
        stirling_ratio((1, 1)),
        2.0 ** 0.25 - 1e-12,
        2.0 ** 0.25 + 1e-12,
        "k=(1,1): ratio 2^(1/4)",
    )
    worst_s = 0.0
    for k in multi_indices_of_degree(2, 200):
        worst_s = max(worst_s, abs(stirling_ratio(k) - 1.0))
    for a in range(0, 201, 10):
        for b in range(0, 201 - a, 10):
            worst_s = max(worst_s, abs(stirling_ratio((a, b, 200 - a - b)) - 1.0))
    yield _le(
        "stirling-ratio-deg200",
        worst_s,
        0.05,
        "all n=2 and stride-10 n=3 compositions of 200",
    )


def _suite_slice_rank(rng: np.random.Generator) -> Iterator[Check]:
    mismatches = 0
    total = 0
    for q in (QParameter(0.5, 0.0), QParameter(2.0, 1.0)):
        for n in (1, 2, 3):
            for d in range(0, 7):
                if q.modulus != 0.5 and d > 4:
                    continue  # second parameter: spot checks only
                if slice_rank(build_slice(n, q, d)) != theoretical_slice_rank(n, d):
                    mismatches += 1
                total += 1
    yield Check(
        "slice-rank-identity",
        mismatches == 0,
        float(mismatches),
        "==",
        0.0,
        detail=f"rank vs n^d - C(d+n-1, n-1) over {total} (n, d, q) cases",
    )


SUITES: dict[str, Callable[[np.random.Generator], Iterator[Check]]] = {
    "normal-ordering": _suite_normal_ordering,
    "submultiplicativity": _suite_submultiplicativity,
    "reversal": _suite_reversal,
    "quotient-polydisk": _suite_quotient_polydisk,
    "quotient-ball": _suite_quotient_ball,
    "jsr-separation": _suite_jsr_separation,
    "weight-equivalence": _suite_weight_equivalence,
    "fock-ccr": _suite_fock_ccr,
    "vaksman": _suite_vaksman,
    "stirling": _suite_stirling,
    "slice-rank": _suite_slice_rank,
}


@dataclass
class SuiteResult:
    suite: str
    seed: int
    checks: list[Check]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    """Drain one suite, timed into ``elapsed``."""
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    start = time.monotonic()
    checks = list(fn(np.random.default_rng(seed)))
    return SuiteResult(name, seed, checks, time.monotonic() - start)
