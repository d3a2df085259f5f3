"""Numerical check suites tying the implemented objects to their claimed laws.

Each suite is a generator of :class:`Check` records; ``run_suite`` drains
it and the CLI ``verify`` subcommand and the acceptance tests share the
results.  No suite samples or takes a seed: the submultiplicativity and
reversal suites cover every monomial, word or fiber pair up to a degree,
and the stirling suite reads the sphere suprema off an exact simplex grid,
so the battery loads no scipy.

A failing check is reported, never silenced: one of the rho-tau quotient
checks measures a deviation that is structurally there (the computed
quotients follow a tau^blocks law, see the check detail), and it is kept
failing on purpose as a record of the measured behavior.
"""

from __future__ import annotations

import itertools
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
    concat_multiply,
    free_ball_norm,
    free_polydisk_norm,
    taylor_norm,
)
from .jsr import estimate_canonical_jsr
from .qcombinatorics import (
    _canonical_word,
    ball_weight,
    composition_array,
    compositions_up_to,
    cross_degree_sum,
    degree,
    monomial_sup,
    multi_indices_of_degree,
    multi_indices_up_to,
    p_proj,
    s_stat,
    stirling_ratio,
    w_q,
    weight_law,
    words_of_degree,
)
from .qspace import (
    QElement,
    QParameter,
    _rewrite_word,
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
# suites

_MODULI = (1e-3, 0.5, 1.0, 2.0, 1e3)  # closed under |q| -> 1/|q|


def _pairs_up_to(K: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row numbers (i, j) of every pair of rows of K with |K[i]| + |K[j]| <= d."""
    deg = K.sum(1)
    return (deg[:, None] + deg <= d).nonzero()


def _gap(a: QElement, expect: dict) -> float:
    """Worst relative deviation of a's coefficients from ``expect``; inf if the keys differ."""
    if a.coefficients.keys() != expect.keys():
        return math.inf
    return max(abs(c / expect[k] - 1.0) for k, c in a.coefficients.items())


def _suite_normal_ordering() -> Iterator[Check]:
    """Closed-form monomial products against the brute rewriting procedure.

    :func:`normal_order_exponent`, the exponent :func:`multiply` uses, runs
    once per n on the index columns of every pair of monomials up to
    degree 6.  Each pair's concatenated word is rewritten once, by
    :func:`_rewrite_word`, which does not depend on q; the pair's exponent
    must equal minus the word's swap count, and its key the word's key, as
    integers, or the check reads ``inf``.  At each q, q^(-s) is compared
    with the coefficient :func:`normal_order_word` gives one word of each
    swap count s, and :func:`multiply` on sum x_i times sum j x_j at n = 3,
    where pair order matters, with j q^(-s) summed over the words x_i x_j.
    """
    qs = [QParameter(0.5, 0.0), QParameter(1.0, math.pi / 3), QParameter(2.0, 1.0)]
    worst = 0.0
    pairs = 0
    by_swaps: dict[int, tuple[tuple[int, ...], int]] = {}  # swap count -> (word, n)
    for n in (1, 2, 3):
        K = compositions_up_to(n, 6)
        rows, cols = _pairs_up_to(K, 6)
        words = [_canonical_word(k) for k in K.tolist()]
        pair_words = [words[i] + words[j] for i, j in zip(rows.tolist(), cols.tolist())]
        rewritten = {word: _rewrite_word(word, n) for word in dict.fromkeys(pair_words)}
        swaps, keys = zip(*map(rewritten.__getitem__, pair_words))
        exponents = normal_order_exponent(K.T[:, rows], K.T[:, cols])
        if (K[rows] + K[cols] != keys).any() or (exponents != -np.array(swaps)).any():
            worst = math.inf
        for word, (s, _) in rewritten.items():
            by_swaps.setdefault(s, (word, n))
        pairs += len(swaps) * len(qs)
    x = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    worst_product = 0.0
    for q in qs:
        for s, (word, n) in by_swaps.items():
            worst = max(worst, abs(q.power(-s) - normal_order_word(word, q, n)[0]))
        expect: dict = {}
        for i, j in itertools.product((1, 2, 3), repeat=2):
            s, key = rewritten[i, j]  # the n = 3 words; x_i x_j has coefficient j
            expect[key] = expect.get(key, 0) + j * q.power(-s)
        a = QElement(3, q, dict.fromkeys(x, 1), cap=2)
        b = QElement(3, q, dict(zip(x, (1, 2, 3))), cap=2)
        worst_product = max(worst_product, _gap(multiply(a, b), expect))
    yield _le(
        "closed-product-matches-rewriting",
        worst,
        1e-12,
        f"{pairs} monomial pairs, n <= 3, |k|+|m| <= 6, 3 parameter values",
    )
    yield _le(
        "multiply-matches-rewriting",
        worst_product,
        1e-12,
        "multiply(sum x_i, sum i x_i) vs the rewritten words' coefficients, n = 3, "
        "3 parameter values",
    )


def _suite_submultiplicativity() -> Iterator[Check]:
    """Every norm against the weighted-l1 criterion, on every pair of basis elements.

    sum |c_k| W(k) rho^|k| is submultiplicative iff |q|^e(k,m) W(k+m) <= W(k) W(m)
    for all monomials (words, e = 0) k, m: rho^|k| cancels and a cap only drops
    terms (Dales, Banach Algebras and Automatic Continuity, 2000, 4.6).  A value
    is the worst relative excess over all pairs up to a degree, from
    :func:`weight_law` with e(k,m) as its integer power or from integer block
    counts, or the library norm's deviation from that table on the sum of all
    basis elements up to half the degree.  free_ball is l2 on letter-count
    fibers, and concatenation is injective on a pair of fibers.
    """
    rho, tau = 0.9, 1.5
    worst = dict.fromkeys(["polydisk", "ball", "free_polydisk", "free_taylor", "free_ball"], 0.0)
    pairs = word_pairs = fiber_pairs = 0
    for n in (2, 3):
        K = compositions_up_to(n, 16)
        deg = K.sum(1)
        rows, cols = _pairs_up_to(K, 16)
        e = normal_order_exponent(K.T[:, rows], K.T[:, cols])
        pairs += len(rows) * len(_MODULI)
        for q_mod in _MODULI:
            law = weight_law(q_mod, 16)
            (log_w, factor), (log_w_km, factor_km) = law(K.T), law(K.T[:, rows] + K.T[:, cols], e)
            q = QParameter(q_mod, 0.7)
            a = QElement(n, q, dict.fromkeys(multi_indices_up_to(n, 8), 1), cap=8)
            for family, norm in (("polydisk", polydisk_norm), ("ball", ball_norm)):
                if family == "ball":
                    log_w, log_w_km = log_w + factor, log_w_km + factor_km
                excess = np.expm1(log_w_km - (log_w[rows] + log_w[cols])).max()
                table = np.exp(log_w + deg * math.log(rho))[deg <= 8].sum()
                worst[family] = max(worst[family], excess, abs(norm(a, rho) / table - 1.0))
    word_excess = -1  # the largest blocks(uv) - blocks(u) - blocks(v)
    for n, length in ((2, 8), (3, 6)):
        words = [list(words_of_degree(n, d)) for d in range(length + 1)]
        blocks = [np.array([s_stat(w) + 1 for w in ws]) for ws in words]
        for d_u in range(length + 1):
            for d_v in range(length + 1 - d_u):
                # in lexicographic order, u v is word number i n^|v| + j of its length
                uv = blocks[d_u + d_v].reshape(n ** d_u, n ** d_v)
                word_excess = max(word_excess, (uv - blocks[d_u][:, None] - blocks[d_v]).max())
                word_pairs += uv.size
        half = [w for ws in words[: length // 2 + 1] for w in ws]
        a = FreeElement(n, dict.fromkeys(half, 1), cap=length)
        for family, t, value in (
            ("free_polydisk", tau, free_polydisk_norm(a, rho, tau)),
            ("free_taylor", 1.0, taylor_norm(a, rho)),
        ):
            table = sum(t ** (s_stat(w) + 1) * rho ** len(w) for w in half)
            worst[family] = max(worst[family], t ** word_excess - 1.0, abs(value / table - 1.0))
        by_fiber: dict[tuple[int, ...], dict] = {}
        for w in (w for ws in words for w in ws):
            by_fiber.setdefault(p_proj(w, n), {})[w] = 1
        fibers = {k: FreeElement(n, ws, cap=length) for k, ws in by_fiber.items()}
        norms = {k: free_ball_norm(f, rho) for k, f in fibers.items()}
        for k, f in fibers.items():
            table = math.sqrt(len(f.coefficients)) * rho ** sum(k)  # l2 on the fiber
            worst["free_ball"] = max(worst["free_ball"], abs(norms[k] / table - 1.0))
            for m, g in fibers.items():
                if sum(k) + sum(m) <= length:
                    fg = concat_multiply(f, g)
                    gap = abs(free_ball_norm(fg, rho) / (norms[k] * norms[m]) - 1.0)
                    if len(fg.coefficients) != len(f.coefficients) * len(g.coefficients):
                        gap = math.inf  # two word pairs concatenated to one word
                    worst["free_ball"] = max(worst["free_ball"], gap)
                    fiber_pairs += 1
    q_set = (
        f"{pairs} monomial pairs, |k|+|m| <= 16, n = 2, 3, |q| in {{1e-3, 0.5, 1, 2, 1e3}}; "
        "library norm of the sum of all x^k, |k| <= 8"
    )
    w_set = f"{word_pairs} word pairs, |u|+|v| <= 8 at n = 2, <= 6 at n = 3"
    w_norm = "; library norm of the sum of all words up to half that length"
    f_set = (
        f"{fiber_pairs} letter-count fiber pairs, |k|+|m| <= 8 at n = 2, <= 6 at n = 3; library "
        "norms of the fibers' word sums and of their products, one term per word pair"
    )
    details = (q_set, q_set, f"{w_set}, tau = {tau:g}{w_norm}", w_set + w_norm, f_set)
    for (family, value), detail in zip(worst.items(), details):
        yield _le(f"submultiplicative-{family}", value, 1e-9, detail)


def _suite_reversal() -> Iterator[Check]:
    """The reversal x^k -> q^cross(k) x^(rev k) onto the algebra at 1/q, on every monomial pair.

    Multiplicativity is the integer identity e(k,m) + cross(k+m) = cross(k) +
    cross(m) - e(rev k, rev m), a mismatch reading ``inf``; isometry is
    |q|^cross(k) W_(1/|q|)(rev k) = W_|q|(k), from :func:`weight_law` at |q|
    and 1/|q| with cross(k) as its integer power.  On the sum A of all x^k up
    to half the degree, :func:`reversal_iso` must give that closed form and
    keep both norms at each |q|, and reversal_iso(A A) must be its image squared.
    """
    worst_iso = worst_hom = 0.0
    pairs = indices = 0
    for n, d in ((2, 12), (3, 12), (4, 8)):
        K = compositions_up_to(n, d)
        KT, RT = K.T, K.T[::-1]
        rows, cols = _pairs_up_to(K, d)
        cross = cross_degree_sum(KT)
        e, e_rev = (normal_order_exponent(T[:, rows], T[:, cols]) for T in (KT, RT))
        cross_km = cross_degree_sum(KT[:, rows] + KT[:, cols])
        if (e + cross_km != cross[rows] + cross[cols] - e_rev).any():
            worst_hom = math.inf
        pairs += len(rows)
        indices += len(K) * len(_MODULI)
        for q_mod in _MODULI:
            log_w, factor = weight_law(q_mod, d)(KT)
            log_w_rev, factor_rev = weight_law(1.0 / q_mod, d)(RT, -cross)
            for gap in (log_w_rev - log_w, (log_w_rev + factor_rev) - (log_w + factor)):
                worst_iso = max(worst_iso, np.abs(np.expm1(gap)).max())
            q = QParameter(q_mod, 1.3)
            a = QElement(n, q, dict.fromkeys(multi_indices_up_to(n, d // 2), 1), cap=d)
            image = reversal_iso(a)
            closed = {k[::-1]: q.power(cross_degree_sum(k)) for k in a.coefficients}
            worst_iso = max(worst_iso, _gap(image, closed))
            for norm in (polydisk_norm, ball_norm):
                worst_iso = max(worst_iso, abs(norm(image, 0.9) / norm(a, 0.9) - 1.0))
            if q_mod == 0.5 and n < 4:  # the products are most of the suite's time
                square = multiply(image, image).coefficients
                worst_hom = max(worst_hom, _gap(reversal_iso(multiply(a, a)), square))
    yield _le(
        "reversal-isometry",
        worst_iso,
        1e-12,
        f"{indices} monomial weights, |k| <= 12 at n = 2, 3 and <= 8 at n = 4, both families, "
        "|q| in {1e-3, 0.5, 1, 2, 1e3}; reversal_iso and both norms on A",
    )
    yield _le(
        "reversal-multiplicative",
        worst_hom,
        1e-12,
        f"{pairs} monomial pairs, |k|+|m| <= 12 at n = 2, 3 and <= 8 at n = 4, as integers; "
        "reversal_iso(A A) vs reversal_iso(A)^2 at n = 2, 3, q = 0.5 e^(1.3i)",
    )


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


def _suite_quotient_polydisk() -> Iterator[Check]:
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


def _suite_quotient_ball() -> Iterator[Check]:
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


def _suite_jsr_separation() -> Iterator[Check]:
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


def _suite_weight_equivalence() -> Iterator[Check]:
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


def _suite_fock_ccr() -> Iterator[Check]:
    windows, boundaries = zip(*(
        verify_tw_ccr(FockTruncation(n, qv, cap))
        for n in (1, 2) for cap in (6, 12) for qv in (0.3, 0.5, 0.8)
    ))
    yield _le(
        "fock-ccr-window",
        max(windows),
        1e-12,
        "twisted relations on validity windows, n <= 2, K <= 12, 3 q values",
    )
    yield _ge(
        "fock-ccr-boundary-artifact",
        min(boundaries),
        1e-6,
        "the same relations must visibly fail on the truncation boundary",
    )


def _suite_vaksman() -> Iterator[Check]:
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


def _suite_stirling() -> Iterator[Check]:
    """The ball's monomial suprema on an exact grid, and the q = 1 ball weight's drift from them."""
    worst_low = worst_high = 0.0
    count = 0
    sizes = []
    for n in (2, 3):
        # sup |z^k| is attained at the squared moduli k/|k| (weighted AM-GM), a point of this
        # grid for every |k| <= 6, as 60 = lcm(1..6)
        U = composition_array(n, 60) / 60.0
        K = compositions_up_to(n, 6)[1:]  # k = 0 dropped
        unit_sup = (U[:, None, :] ** (0.5 * K)).prod(axis=2).max(axis=0)
        sizes.append(f"{len(U)} points at n = {n}")
        for r in (0.8, 1.0):
            closed = np.array([monomial_sup(k, "ball", r) for k in K.tolist()])
            excess = (unit_sup * r ** K.sum(axis=1) - closed) / closed
            worst_low, worst_high = max(worst_low, -excess.min()), max(worst_high, excess.max())
            count += len(K)
    yield _le(
        "ball-sup-grid-gap",
        worst_low,
        1e-12,
        f"closed sphere supremum vs its maximum on the 1/60 simplex grid of squared moduli "
        f"({', '.join(sizes)}), {count} monomials, |k| <= 6",
    )
    yield _le(
        "ball-sup-grid-onesided",
        worst_high,
        1e-12,
        "no grid point may exceed the closed supremum",
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


def _suite_slice_rank() -> Iterator[Check]:
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


SUITES: dict[str, Callable[[], Iterator[Check]]] = {
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
    # no suite reads the seed; it stays for callers that pass one (ROADMAP item 1)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    start = time.monotonic()
    checks = list(fn())
    return SuiteResult(checks, time.monotonic() - start)
