"""Joint spectral radius partials, closed-form limits, certified brackets, radius scaling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qdomains.jsr import (
    CONVOLUTION_DEGREE_LIMIT,
    ENUMERATION_LIMIT,
    canonical_partials,
    estimate_canonical_jsr,
    jsr_extrapolate,
    jsr_partials,
)
from qdomains.qcombinatorics import composition_array
from qdomains.qspace import QElement, QParameter, ball_norm, polydisk_norm

Q_UNIT = QParameter(1.0, math.pi / 4)
Q_HALF = QParameter(0.5, 0.0)
Q_TWO = QParameter(2.0, 0.3)


def unit_polydisk_norm(a):
    return polydisk_norm(a, 1.0)


def canonical_tuple(n, q, cap):
    return tuple(QElement.generator(n, q, i + 1, cap=cap) for i in range(n))


def log_q_factorial_table(d_max, t):
    """Oracle table c with c[m] = log [m]_t! for m = 0..d_max (c[0] = 0), any t > 0."""
    j = np.arange(1, d_max + 1, dtype=float)
    if t == 1.0:
        terms = np.log(j)
    else:
        # log [j]_t from [j]_t = t^(j-1) [j]_(1/t) and [j]_s = (1 - s^j) / (1 - s)
        # at s = min(t, 1/t), with 1 - s^j = -expm1(j log s)
        log_t = math.log(t)
        log_s = -abs(log_t)
        terms = (
            (j - 1.0) * max(log_t, 0.0)
            + np.log(-np.expm1(j * log_s))
            - math.log(-math.expm1(log_s))
        )
    return np.concatenate(([0.0], np.cumsum(terms)))


def fiber_partials(family, n, q, p, d_max, rho=1.0):
    """Oracle: enumerate every letter-count fiber k of each degree d.

    A fiber contributes the q-multinomial [d]_u! / prod [k_i]_u!, u = |q|^-p
    (the sum of |q|^(-p inv) over its words), times the p-th power of its
    weight; for p = inf the fiber sup of |q|^(-inv) sits at inv = 0 or cross.
    """
    mod = q.modulus
    log_mod = math.log(mod)
    finite_p = math.isfinite(p)
    if finite_p:
        u_table = log_q_factorial_table(d_max, mod ** -p)
    t_table = log_q_factorial_table(d_max, mod ** -2)
    out = []
    for d in range(1, d_max + 1):
        K = composition_array(n, d)
        cross = (d * d - np.sum(K * K, axis=1)) // 2
        if family == "polydisk":
            logw = cross * log_mod if mod < 1.0 else np.zeros(len(K))
        else:
            logw = 0.5 * (np.sum(t_table[K], axis=1) - t_table[d])
        if finite_p:
            log_mult = u_table[d] - np.sum(u_table[K], axis=1)
            out.append((d, rho * math.exp(float(logsumexp(log_mult + p * logw)) / (p * d))))
        else:
            top = logw + np.maximum(0.0, -cross * log_mod)
            out.append((d, rho * math.exp(float(np.max(top)) / d)))
    return out


def assert_partials_match(got, want, rel):
    assert [d for d, _ in got] == [d for d, _ in want]
    for (_, v), (_, w) in zip(got, want):
        assert v == pytest.approx(w, rel=rel, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["polydisk", "ball"]),
    n=st.integers(min_value=1, max_value=4),
    p=st.sampled_from([1.0, 2.0, 3.5, math.inf]),
    log_mod=st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
    phase=st.floats(min_value=0.0, max_value=6.0),
    d_max=st.integers(min_value=1, max_value=60),
)
def test_convolution_partials_match_fiber_enumeration(family, n, p, log_mod, phase, d_max):
    q = QParameter(math.exp(log_mod), phase)
    assert_partials_match(
        canonical_partials(family, n, q, p, d_max, rho=0.8),
        fiber_partials(family, n, q, p, d_max, rho=0.8),
        rel=1e-12,
    )


@pytest.mark.parametrize("family", ["polydisk", "ball"])
def test_convolution_partials_match_fiber_enumeration_at_degree_200(family):
    q = QParameter(0.5, 1.1)
    assert_partials_match(
        canonical_partials(family, 3, q, 2.0, 200),
        fiber_partials(family, 3, q, 2.0, 200),
        rel=1e-12,
    )


@pytest.mark.parametrize("family", ["polydisk", "ball"])
def test_partials_outside_double_range_raise(family):
    # |q|^-2 = 1e600 is not a double
    with pytest.raises(ValueError, match="double range"):
        canonical_partials(family, 2, QParameter(1e-300), 2.0, 10)


def test_polydisk_partials_unit_modulus_are_constant():
    # all weights are 1, so R_d = (n^d)^(1/(p d)) = n^(1/p)
    for n in (2, 3):
        for p in (1.0, 2.0, 4.0):
            seq = canonical_partials("polydisk", n, Q_UNIT, p, 20)
            assert [d for d, _ in seq] == list(range(1, 21))
            for _, v in seq:
                assert v == pytest.approx(n ** (1.0 / p), rel=1e-12)


def test_ball_partials_unit_modulus_closed_form():
    # p=2 collapses to the count of degree-d indices, (d+n-1 choose n-1), for
    # every |q|: the q-multinomial sum of a fiber cancels its squared weight
    for q in (Q_UNIT, Q_HALF, Q_TWO):
        seq = canonical_partials("ball", 2, q, 2.0, 24)
        for d, v in seq:
            assert v == pytest.approx((d + 1.0) ** (1.0 / (2 * d)), rel=1e-12)
        seq3 = canonical_partials("ball", 3, q, 2.0, 12)
        for d, v in seq3:
            count = math.comb(d + 2, 2)
            assert v == pytest.approx(count ** (1.0 / (2 * d)), rel=1e-12)


def mp_partials(family, q_mod, p, d_max):
    """Oracle: R_d at n = 2 from the fiber sums in 60-digit arithmetic.

    Fiber (k1, k2) contributes [d]_u! / ([k1]_u! [k2]_u!), u = |q|^-p, times
    the p-th power of its weight: |q|^(k1 k2) (1 for |q| >= 1) for the
    polydisk, ([k1]_t! [k2]_t! / [d]_t!)^(1/2), t = |q|^-2, for the ball.
    """
    with mpmath.workdps(60):
        mod, p = mpmath.mpf(q_mod), mpmath.mpf(p)

        def factorials(x):
            out = [mpmath.mpf(1)]
            for j in range(1, d_max + 1):
                out.append(out[-1] * (1 - x ** j) / (1 - x))
            return out

        fu, ft = factorials(mod ** -p), factorials(mod ** -2)
        out = []
        for d in range(1, d_max + 1):
            total = mpmath.mpf(0)
            for k1 in range(d + 1):
                k2 = d - k1
                if family == "polydisk":
                    weight = mod ** (k1 * k2) if mod < 1 else mpmath.mpf(1)
                else:
                    weight = mpmath.sqrt(ft[k1] * ft[k2] / ft[d])
                total += fu[d] / (fu[k1] * fu[k2]) * weight ** p
            out.append((d, float(total ** (1 / (p * d)))))
        return out


@pytest.mark.parametrize("family", ["polydisk", "ball"])
@pytest.mark.parametrize("q_mod", [1.0 + 1e-10, 1.0 - 1e-8, 1.0 - 1e-12])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_partials_near_unit_modulus_match_mpmath(family, q_mod, p):
    # each factor [j]_x is a ratio of expm1 values, so the partials keep
    # their digits however close |q| is to 1
    assert_partials_match(
        canonical_partials(family, 2, QParameter(q_mod, 0.4), p, 60),
        mp_partials(family, q_mod, p, 60),
        rel=5e-15,
    )


@pytest.mark.parametrize("family", ["polydisk", "ball"])
@pytest.mark.parametrize("q_mod", [0.5, 0.9, 1e-20, 1e-150])
def test_partials_are_reversal_symmetric(family, q_mod):
    # reversal_iso maps the algebra at q isometrically onto the one at 1/q,
    # and the canonical tuple onto itself reversed; no digits may be lost on
    # either side, however small |q| is
    for n in (2, 3):
        for p in (1.0, 2.0, math.inf):
            assert_partials_match(
                canonical_partials(family, n, QParameter(q_mod, 0.3), p, 200),
                canonical_partials(family, n, QParameter(1.0 / q_mod, -0.3), p, 200),
                rel=1e-13,
            )


def test_oversized_degree_is_refused():
    # refused before any table is built, for every family: the convolution
    # would need (d_max + 1)^2 arrays, and the free families one entry per degree
    for family in ("polydisk", "ball", "free_taylor", "free_ball", "free_polydisk"):
        q = Q_HALF if family in ("polydisk", "ball") else None
        with pytest.raises(ValueError, match=f"exceeds {CONVOLUTION_DEGREE_LIMIT}"):
            canonical_partials(family, 2, q, 2.0, CONVOLUTION_DEGREE_LIMIT + 1)
    seq = canonical_partials("free_taylor", 2, None, 2.0, CONVOLUTION_DEGREE_LIMIT)
    assert len(seq) == CONVOLUTION_DEGREE_LIMIT


@pytest.mark.parametrize("q", [Q_HALF, Q_UNIT, Q_TWO])
def test_sup_partials_equal_rho_for_polydisk(q):
    # p = inf: the fiber maximum always cancels the weight exactly
    seq = canonical_partials("polydisk", 2, q, math.inf, 15, rho=0.7)
    for _, v in seq:
        assert v == pytest.approx(0.7, rel=1e-12)


@pytest.mark.parametrize("family", ["polydisk", "ball"])
@pytest.mark.parametrize("q", [Q_HALF, Q_TWO])
def test_enumeration_agrees_with_collapse(family, q):
    # the n^d brute force and the fiber-collapsed sums are the same numbers
    norm = {"polydisk": polydisk_norm, "ball": ball_norm}[family]
    gens = canonical_tuple(2, q, cap=6)
    brute, flags = jsr_partials(gens, 2.0, lambda a: norm(a, 0.9), 5)
    assert "general-tuple-enumeration" in flags
    collapsed = canonical_partials(family, 2, q, 2.0, 5, rho=0.9)
    assert len(brute) == len(collapsed) == 5
    for (d1, v1), (d2, v2) in zip(brute, collapsed):
        assert d1 == d2
        assert v1 == pytest.approx(v2, rel=1e-10)


def test_general_tuple_is_flagged_and_guarded():
    q = Q_HALF
    g1 = QElement(2, q, {(1, 0): 0.5, (0, 1): 0.5}, cap=4)
    g2 = QElement.generator(2, q, 2, cap=4)
    partials, flags = jsr_partials((g1, g2), 2.0, unit_polydisk_norm, 3)
    assert "general-tuple-enumeration" in flags
    assert len(partials) == 3
    with pytest.raises(ValueError):
        jsr_partials((g1, g2), 2.0, unit_polydisk_norm, 40)
    assert 2 ** 40 > ENUMERATION_LIMIT


def test_saturation_stops_enumeration():
    q = Q_HALF
    g1 = QElement(2, q, {(1, 0): 0.5, (0, 1): 0.5}, cap=2)
    g2 = QElement.generator(2, q, 2, cap=2)
    partials, flags = jsr_partials((g1, g2), 2.0, unit_polydisk_norm, 6)
    assert any(f.startswith("saturated-at-d=") for f in flags)
    assert len(partials) < 6


def test_partials_scale_linearly_in_rho():
    for family in ("polydisk", "ball"):
        base = canonical_partials(family, 2, Q_TWO, 2.0, 10, rho=1.0)
        scaled = canonical_partials(family, 2, Q_TWO, 2.0, 10, rho=0.3)
        for (_, v1), (_, v0) in zip(scaled, base):
            assert v1 == pytest.approx(0.3 * v0, rel=1e-12)


def test_free_taylor_partials_constant():
    seq = canonical_partials("free_taylor", 2, None, 2.0, 16, rho=0.5)
    for _, v in seq:
        assert v == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-12)


def test_free_polydisk_partials_closed_form():
    n, p, tau, rho = 2, 2.0, 1.5, 0.8
    seq = canonical_partials("free_polydisk", n, None, p, 10, rho=rho, tau=tau)
    for d, v in seq:
        # block refinement: first letter carries tau^p, each later letter
        # either extends its block (1) or opens a new one ((n-1) tau^p)
        total = n * tau ** p * (1.0 + (n - 1) * tau ** p) ** (d - 1)
        assert v == pytest.approx(rho * total ** (1.0 / (p * d)), rel=1e-10)


def test_free_ball_partials_match_brute_sum():
    # fiberwise l2 of single words: same n^d count as taylor at p=2
    seq = canonical_partials("free_ball", 3, None, 2.0, 8, rho=1.0)
    for _, v in seq:
        assert v == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_extrapolate_recovers_constant_sequences():
    seq = [(d, 2.0) for d in range(1, 30)]
    est = jsr_extrapolate(seq, 1.5)
    assert est.extrapolated == 2.0
    assert (est.lower, est.upper) == (1.5, 2.0)
    assert est.flags == []
    assert est.partials[(1.5, 7)] == 2.0


def test_extrapolate_brackets_oscillating_partials():
    # the bracket's upper end is the minimum, whatever the sequence's shape
    seq = [(d, 2.0 + 0.5 * (-1) ** d) for d in range(1, 30)]
    est = jsr_extrapolate(seq, 1.0)
    assert est.flags == []
    assert (est.lower, est.extrapolated, est.upper) == (1.0, 1.5, 1.5)


def test_extrapolate_takes_short_sequences():
    for d_max in (1, 4):
        est = jsr_extrapolate([(d, 1.0 + 1.0 / d) for d in range(1, d_max + 1)], 1.0)
        assert (est.lower, est.extrapolated, est.upper) == (1.0, 1.0 + 1.0 / d_max, 1.0 + 1.0 / d_max)


@pytest.mark.parametrize(
    "seq, want",
    [
        # the partials cross over near d ~ 1/(1 - |q|) and have not reached
        # their limit 1 by d = 200
        (canonical_partials("polydisk", 3, QParameter(0.9), 1.0, 200), None),
        # partials that fall steeply: the minimum is the last one
        ([(d, 1.5 + 40.0 / d ** 3) for d in range(1, 40)], 1.5 + 40.0 / 39 ** 3),
    ],
    ids=["polydisk-crossover", "steep"],
)
def test_extrapolate_reads_the_upper_end_of_the_bracket(seq, want):
    est = jsr_extrapolate(seq, 1.0)
    assert est.extrapolated == est.upper == min(v for _, v in seq)
    assert want is None or est.upper == pytest.approx(want, rel=1e-15, abs=0)
    assert est.lower == 1.0 < est.upper


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["polydisk", "ball"]),
    n=st.integers(min_value=1, max_value=3),
    p=st.sampled_from([1.0, 2.0, 3.5, math.inf]),
    log_mod=st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
    r=st.floats(min_value=0.1, max_value=3.0),
)
def test_estimate_lies_in_its_certified_bracket(family, n, p, log_mod, r):
    q = QParameter(math.exp(log_mod), 0.2)
    est = estimate_canonical_jsr(family, n, q, p, r, d_max=60)
    assert est.lower == r
    assert est.upper == pytest.approx(min(est.partials.values()), rel=1e-15, abs=0)
    # the closed form against the partials of the convolution power
    assert est.lower <= est.extrapolated <= est.upper * (1 + 1e-12)
    if q.modulus != 1.0:
        assert est.extrapolated == r
    assert set(est.partials) == {(r, d) for d in range(1, 61)}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_polydisk_estimate_unit_modulus_is_exact(n, p):
    # every word has norm 1, so R_d = n^(1/p) at every degree
    est = estimate_canonical_jsr("polydisk", n, Q_UNIT, p, 1.0, d_max=200)
    assert est.extrapolated == pytest.approx(n ** (1.0 / p), rel=1e-15, abs=0)
    assert est.upper == pytest.approx(n ** (1.0 / p), rel=1e-12)
    assert est.flags == []


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_ball_estimate_unit_modulus_closed_form(n, p):
    want = max(1.0, n ** (1.0 / p - 0.5))
    est = estimate_canonical_jsr("ball", n, Q_UNIT, p, 1.0, d_max=200)
    assert est.lower <= want <= est.upper
    assert est.extrapolated == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("family", ["polydisk", "ball"])
@pytest.mark.parametrize("q", [Q_HALF, Q_TWO])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_families_coincide_off_unit_modulus(family, q, p):
    # the isomorphism half of the dichotomy: both radii are r = 1
    est = estimate_canonical_jsr(family, 2, q, p, 1.0, d_max=200)
    assert est.lower <= 1.0 <= est.upper
    assert est.extrapolated == pytest.approx(1.0, rel=1e-15, abs=0)


def test_estimate_unit_ball_value():
    est = estimate_canonical_jsr("ball", 2, Q_UNIT, 2.0, 1.0, d_max=120)
    # (d+1)^(1/(2d)) -> 1
    assert est.extrapolated == pytest.approx(1.0, rel=1e-15, abs=0)
    assert est.lower == 1.0 and est.upper == pytest.approx(121.0 ** (1.0 / 240), rel=1e-12)


@pytest.mark.parametrize(
    "family, n, p, tau, want",
    [
        ("free_taylor", 3, 1.0, 1.0, 3.0),
        ("free_ball", 2, 2.0, 1.0, math.sqrt(2.0)),
        ("free_ball", 4, math.inf, 1.0, 1.0),
        ("free_polydisk", 3, 2.0, 1.5, math.sqrt(1.0 + 2 * 1.5 ** 2)),
        ("free_polydisk", 2, math.inf, 3.0, 3.0),
        ("free_polydisk", 1, math.inf, 3.0, 1.0),
        ("free_polydisk", 1, 2.0, 3.0, 1.0),
        # (1 + 2^2000)^(1/2000) = 2 to double precision; 2^2000 is not a double
        ("free_polydisk", 2, 2000.0, 2.0, 2.0),
    ],
)
def test_free_family_limits(family, n, p, tau, want):
    est = estimate_canonical_jsr(family, n, None, p, 0.5, d_max=200, tau=tau)
    assert est.extrapolated == pytest.approx(0.5 * want, rel=1e-15, abs=0)
    assert est.lower <= est.extrapolated <= est.upper * (1 + 1e-12)


def test_estimate_divergent_on_infinite_radius():
    # the family is unbounded on an infinite radius: no number to report
    for r in (math.inf, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            estimate_canonical_jsr("polydisk", 2, Q_UNIT, 2.0, r)


def test_family_and_argument_validation():
    with pytest.raises(ValueError):
        canonical_partials("cube", 2, Q_UNIT, 2.0, 5)
    for family in ("polydisk", "free_taylor", "free_ball", "free_polydisk"):
        for p in (2.0, math.inf):
            with pytest.raises(ValueError, match="n must be >= 1"):
                canonical_partials(family, 0, Q_UNIT, p, 5)
    with pytest.raises(ValueError):
        jsr_partials((), 2.0, unit_polydisk_norm, 5)
    # p >= 1 fails for nan, so neither a nan nor a negative p runs as p = inf
    for p in (0.5, math.nan, -math.inf):
        for family in ("polydisk", "ball", "free_taylor", "free_polydisk"):
            with pytest.raises(ValueError, match="p must be >= 1"):
                canonical_partials(family, 2, Q_UNIT, p, 5)
        with pytest.raises(ValueError, match="p must be >= 1"):
            jsr_partials(canonical_tuple(2, Q_UNIT, 4), p, unit_polydisk_norm, 3)


@pytest.mark.parametrize("family", ["polydisk", "ball", "free_taylor", "free_ball"])
@pytest.mark.parametrize("tau", [5.0, 0.5, math.nan])
def test_families_without_block_weights_refuse_tau(family, tau):
    # only free_polydisk reads tau; elsewhere a tau other than 1 is an error
    with pytest.raises(ValueError, match="has no block weight"):
        canonical_partials(family, 2, Q_HALF, 2.0, 10, tau=tau)
    assert canonical_partials(family, 2, Q_HALF, 2.0, 10, tau=1.0)
