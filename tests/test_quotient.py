"""Quotient seminorms on free-algebra slices of the commutation ideal."""

import cmath
import math
from itertools import groupby, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qdomains.qcombinatorics import (
    ball_weight,
    cross_degree_sum,
    degree,
    inv_count,
    multi_indices_up_to,
    s_stat,
    w_q,
)
from qdomains.freeseries import FreeElement
from qdomains.qspace import QElement, QParameter, ball_norm, polydisk_norm
from qdomains.quotient import (
    IdealSlice,
    QuotientResult,
    build_slice,
    canonical_lift,
    quotient_norm_l1,
    quotient_norm_l2,
    slice_matrix,
    slice_rank,
    theoretical_slice_rank,
)
from test_qcombinatorics import fiber_words

QS = (QParameter(0.5, 0.0), QParameter(1.0, math.pi / 4), QParameter(2.0, 0.7))


def blocks(k):
    # maximal constant runs of the nondecreasing word = nonzero entries
    return sum(1 for c in k if c > 0)


def test_slice_rank_matches_kernel_count():
    for q in (QS[0], QS[2]):
        for n in (1, 2, 3):
            for d in range(0, 5):
                s = build_slice(n, q, d)
                assert slice_rank(s) == theoretical_slice_rank(n, d)


@pytest.mark.parametrize(
    "n, d, message", [(0, 2, "n must be >= 1"), (2, -1, "degree must be >= 0")], ids=["n", "d"]
)
def test_slice_inputs_are_checked(n, d, message):
    with pytest.raises(ValueError, match=message):
        build_slice(n, QS[0], d)
    with pytest.raises(ValueError, match=message):
        theoretical_slice_rank(n, d)


def free_element_slice(n, q, d):
    """Oracle: one free element per vector z_b (z_i z_j - q z_j z_i) z_c, copied into a matrix.

    The rows are the sorted degree-d words, the columns the vectors in build order.
    """
    gens = []
    for a in range(max(d - 1, 0)):
        for b in product(range(1, n + 1), repeat=a):
            for c in product(range(1, n + 1), repeat=d - 2 - a):
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        gens.append(FreeElement(n, {b + (i, j) + c: 1.0, b + (j, i) + c: -q.value}, cap=d))
    words = sorted(product(range(1, n + 1), repeat=d))
    index = {w: r for r, w in enumerate(words)}
    mat = np.zeros((len(words), len(gens)), dtype=complex)
    for col, g in enumerate(gens):
        for w, c in g.coefficients.items():
            mat[index[w], col] = c
    return words, mat


@pytest.mark.parametrize("q", [QParameter(0.5, 0.0), QParameter(2.0, 0.7)], ids=["q0.5", "q2-phase"])
def test_slice_matches_free_element_oracle(q):
    for n in range(1, 5):
        for d in range(0, 6):
            s = build_slice(n, q, d)
            words, mat = free_element_slice(n, q, d)
            assert s.words == words
            assert s.matrix.shape == mat.shape
            assert np.array_equal(s.matrix, mat)


def test_slice_matrix_rows_are_relation_multiples():
    q = QS[0]
    s = build_slice(2, q, 3)
    words, mat = slice_matrix(s)
    assert mat.shape[0] == len(words)
    assert mat.shape[1] >= theoretical_slice_rank(2, 3)
    # every column must project to zero in the quotient: coefficients on a
    # fiber satisfy sum_w c_w q^{-inv(w)} = 0
    for row in mat.T:
        acc = {}
        for w, c in zip(words, row):
            if c == 0:
                continue
            k = tuple(sorted(w))
            acc[k] = acc.get(k, 0j) + c * q.power(-inv_count(w))
        assert all(abs(v) < 1e-12 for v in acc.values())


def test_canonical_lift_word():
    lift = canonical_lift((2, 0, 1))
    assert list(lift.coefficients) == [(1, 1, 3)]
    assert lift.n == 3


def _dual_l1_value(k, q, weight_fn):
    # rank-1 LP: optimum sits on a single word of the fiber
    best = math.inf
    for w in fiber_words(k):
        g = abs(q.power(-inv_count(w)))
        best = min(best, weight_fn(w) / g)
    return best


@pytest.mark.parametrize("q", QS)
def test_taylor_quotient_closed_form(q):
    rho = 0.7
    for k in multi_indices_up_to(2, 4):
        if degree(k) == 0:
            continue
        res = quotient_norm_l1(canonical_lift(k), rho, q=q)
        want = w_q(k, q.modulus) * rho ** degree(k)
        assert res.value == pytest.approx(want, rel=1e-12)
        # vertex enumeration of the same LP
        brute = _dual_l1_value(k, q, lambda w: rho ** len(w))
        assert res.value == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("tau", [1.0, 2.0, 5.0])
def test_block_weighted_quotient_law(q, tau):
    # tau rides along as tau^(number of blocks); it does NOT cancel
    rho = 0.9
    for k in [(1, 1), (2, 1), (1, 1, 1), (3, 0, 2)]:
        res = quotient_norm_l1(canonical_lift(k), rho, tau=tau, q=q)
        want = tau ** blocks(k) * w_q(k, q.modulus) * rho ** degree(k)
        assert res.value == pytest.approx(want, rel=1e-12)
        brute = _dual_l1_value(
            k, q, lambda w: rho ** len(w) * tau ** (s_stat(w) + 1)
        )
        assert res.value == pytest.approx(brute, rel=1e-12)


def test_tau_dependence_is_real():
    # a two-block monomial scales by tau^2 between tau=1 and tau=2
    q = QS[1]
    r1 = quotient_norm_l1(canonical_lift((1, 1)), 1.0, tau=1.0, q=q)
    r2 = quotient_norm_l1(canonical_lift((1, 1)), 1.0, tau=2.0, q=q)
    assert r2.value == pytest.approx(4.0 * r1.value, rel=1e-12)


@pytest.mark.parametrize("q", QS)
def test_ball_quotient_closed_form(q):
    rho = 0.9
    for k in multi_indices_up_to(2, 4):
        if degree(k) == 0:
            continue
        res = quotient_norm_l2(canonical_lift(k), rho, q=q)
        want = ball_weight(k, q.modulus) * rho ** degree(k)
        assert res.value == pytest.approx(want, rel=1e-12)
        # least-norm solution of the rank-1 constraint, by direct summation
        g2 = math.fsum(abs(q.power(-inv_count(w))) ** 2 for w in fiber_words(k))
        assert res.value == pytest.approx(rho ** degree(k) / math.sqrt(g2), rel=1e-12)


def test_quotient_spots_unit_modulus():
    q = QParameter(1.0, math.pi / 4)
    rho = 0.9
    lift = canonical_lift((1, 1))
    assert quotient_norm_l1(lift, rho, q=q).value == pytest.approx(0.81, rel=1e-12)
    assert quotient_norm_l2(lift, rho, q=q).value == pytest.approx(
        0.81 / math.sqrt(2.0), rel=1e-12
    )


def _random_target(rng, n, complex_coeffs):
    # up to three random words of degree <= 5, each with up to three random
    # rearrangements, so that terms share letter-count fibers
    words = set()
    for _ in range(int(rng.integers(1, 4))):
        word = rng.integers(1, n + 1, size=int(rng.integers(0, 6)))
        for _ in range(int(rng.integers(1, 4))):
            words.add(tuple(int(a) for a in rng.permutation(word)))
    words = sorted(words)
    coeffs = rng.standard_normal((len(words), 2))
    return FreeElement(
        n,
        {w: complex(re, im if complex_coeffs else 0.0) for w, (re, im) in zip(words, coeffs)},
        cap=5,
    )


def _lp_quotient_l1(target, q, rho, tau):
    # min sum_w weight_w |c_w| over c = t + M a on each whole degree slice,
    # as an LP in (a, s) with -s <= c <= s; q and t real
    total = 0.0
    for d in sorted({len(w) for w in target.coefficients}):
        words, mat = slice_matrix(build_slice(target.n, q, d))
        mat = mat.real
        t = np.array([target.coefficients.get(w, 0j).real for w in words])
        weights = np.array(
            [rho ** d * (1.0 if tau is None else tau ** (s_stat(w) + 1)) for w in words]
        )
        nw, na = mat.shape
        eye = np.eye(nw)
        res = linprog(
            np.concatenate([np.zeros(na), weights]),
            A_ub=np.block([[mat, -eye], [-mat, -eye]]),
            b_ub=np.concatenate([-t, t]),
            bounds=[(None, None)] * na + [(0, None)] * nw,
            method="highs",
        )
        assert res.status == 0
        total += res.fun
    return total


def _projection_quotient_l2(target, q, rho):
    # the slice is a direct sum over fibers, so the fiberwise-l2 optimum is
    # the projection of t onto the orthogonal complement of span(M)
    total = 0.0
    for d in sorted({len(w) for w in target.coefficients}):
        words, mat = slice_matrix(build_slice(target.n, q, d))
        t = np.array([target.coefficients.get(w, 0j) for w in words])
        if mat.shape[1]:
            u, sv, _ = np.linalg.svd(mat, full_matrices=False)
            u = u[:, : int(np.sum(sv > sv[0] * 1e-12))]
            t = t - u @ (u.conj().T @ t)
        fibers = {}
        for w, c in zip(words, t):
            fibers.setdefault(tuple(sorted(w)), []).append(c)
        total += rho ** d * math.fsum(np.linalg.norm(cs) for cs in fibers.values())
    return total


def test_l1_quotient_matches_whole_slice_lp():
    rng = np.random.default_rng(4)
    real_qs = (QParameter(0.5, 0.0), QParameter(0.7, math.pi), QParameter(2.0, 0.0))
    for case in range(40):
        q = real_qs[case % 3]
        tau = (None, 2.0, 5.0)[(case // 3) % 3]
        n = 2 + case % 2
        rho = float(rng.uniform(0.5, 1.5))
        target = _random_target(rng, n, complex_coeffs=False)
        want = _lp_quotient_l1(target, q, rho, tau)
        assert quotient_norm_l1(target, rho, tau, q=q).value == pytest.approx(want, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=3),
    log_mod=st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
    phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    rho=st.floats(min_value=0.3, max_value=1.5),
)
def test_tau_one_is_the_plain_coefficient_quotient(seed, n, log_mod, phase, rho):
    # log tau = 0 adds nothing to any term: the quotient-polydisk suite reads
    # its Taylor certificate off the tau = 1 runs
    target = _random_target(np.random.default_rng(seed), n, complex_coeffs=True)
    q = QParameter(math.exp(log_mod), phase)
    plain = quotient_norm_l1(target, rho, q=q)
    at_one = quotient_norm_l1(target, rho, 1.0, q=q)
    assert at_one.value == plain.value
    assert at_one.per_degree == plain.per_degree


def test_l2_quotient_matches_whole_slice_projection():
    rng = np.random.default_rng(5)
    for case in range(30):
        q = QS[case % 3]
        n = 2 + case % 2
        rho = float(rng.uniform(0.5, 1.5))
        target = _random_target(rng, n, complex_coeffs=True)
        want = _projection_quotient_l2(target, q, rho)
        assert quotient_norm_l2(target, rho, q=q).value == pytest.approx(want, rel=1e-12)


def test_extreme_modulus_keeps_the_value():
    # x2 x1 = q^-1 x1 x2 in the quotient: |q|^-1 w((1,1)) = 1 below |q| = 1,
    # |q|^-1 above; ||g||_2 overflows at |q| = 1e-200 if formed directly
    rev = FreeElement(2, {(2, 1): 1.0}, cap=2)
    for q_mod, want in ((1e-200, 1.0), (1e100, 1e-100)):
        q = QParameter(q_mod, 0.0)
        assert quotient_norm_l1(rev, 1.0, q=q).value == pytest.approx(want, rel=1e-12, abs=0)
        assert quotient_norm_l2(rev, 1.0, q=q).value == pytest.approx(want, rel=1e-12, abs=0)


def mp_sorted_word_l2_quotient(k, q_mod, rho):
    """Oracle: rho^|k| (sum of |q|^(-2 inv(w)) over the fiber of k)^(-1/2), in 50 digits.

    The l2 coset norm of the sorted word, whose image y_k is 1.
    """
    with mpmath.workdps(50):
        u = mpmath.mpf(q_mod) ** -2
        g2 = mpmath.fsum(u ** inv_count(w) for w in fiber_words(k))
        return float(mpmath.mpf(rho) ** degree(k) / mpmath.sqrt(g2))


@pytest.mark.parametrize("q_mod", [1 + 1e-10, 1 - 1e-8])
@pytest.mark.parametrize("k", [(3, 2), (5, 5)])
def test_l2_quotient_near_unit_modulus_matches_mpmath(k, q_mod):
    got = quotient_norm_l2(canonical_lift(k), 0.9, q=QParameter(q_mod, 0.0)).value
    assert got == pytest.approx(mp_sorted_word_l2_quotient(k, q_mod, 0.9), rel=1e-12)


def test_out_of_range_values_raise():
    q = QS[1]
    lift = canonical_lift((1, 1))
    with pytest.raises(ValueError):
        quotient_norm_l1(lift, 1e200, tau=1e200, q=q)
    with pytest.raises(ValueError):
        quotient_norm_l2(canonical_lift((400, 0)), 10.0, q=q)
    with pytest.raises(ValueError):
        quotient_norm_l1(FreeElement(2, {(1, 2): math.nan}, cap=2), 1.0, q=q)


def test_quotient_of_zero_and_scalar():
    q = QS[0]
    zero = FreeElement.zero(2, cap=3)
    assert quotient_norm_l1(zero, 0.5, q=q).value == 0.0
    one = FreeElement.unit(2, cap=3)
    # degree 0 has no relations: the quotient norm is the plain norm
    assert quotient_norm_l1(one, 0.5, q=q).value == pytest.approx(1.0)
    assert quotient_norm_l2(one, 0.5, q=q).value == pytest.approx(1.0)


def test_quotient_dominated_by_unquotiented_norm():
    q = QParameter(2.0, 0.7)
    rng = np.random.default_rng(9)
    words = [(1,), (2,), (1, 2), (2, 1), (1, 1, 2)]
    coeffs = {w: complex(*rng.standard_normal(2)) for w in words}
    a = FreeElement(2, coeffs, cap=4)
    from qdomains.freeseries import free_ball_norm, taylor_norm

    assert quotient_norm_l1(a, 0.6, q=q).value <= taylor_norm(a, 0.6) + 1e-9
    assert quotient_norm_l2(a, 0.6, q=q).value <= free_ball_norm(a, 0.6) + 1e-9


def test_invariance_within_a_fiber():
    # representatives of the same residue class share the quotient norm
    q = QParameter(0.5, 0.0)
    lift = canonical_lift((1, 1))
    other = FreeElement(2, {(2, 1): q.power(1)}, cap=2)  # q z2 z1 ~ z1 z2
    r1 = quotient_norm_l1(lift, 0.7, q=q)
    r2 = quotient_norm_l1(other, 0.7, q=q)
    assert r1.value == pytest.approx(r2.value, rel=1e-12)


def test_result_metadata():
    q = QS[0]
    res = quotient_norm_l1(canonical_lift((2, 1)), 0.5, q=q)
    assert isinstance(res, QuotientResult)
    assert res.iterations == 0 and res.converged and res.flags == []
    assert set(res.per_degree) == {3}
    with pytest.raises(ValueError):
        quotient_norm_l1(canonical_lift((1, 1)), -0.5, q=q)
    with pytest.raises(ValueError):
        quotient_norm_l1(canonical_lift((1, 1)), 0.5, tau=0.2, q=q)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=3),
    log_mod=st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    rho=st.floats(min_value=0.3, max_value=1.5),
)
def test_coefficient_norms_are_quotient_norms_of_the_sorted_lift(data, n, log_mod, phase, rho):
    # sum_k c_k x^k and its lift sum_k c_k (sorted word of k) have the same
    # norm: the coefficient norms are the quotient norms of the free ones
    q = QParameter(math.exp(log_mod), phase)
    coefficient = st.builds(
        cmath.rect, st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.0, max_value=6.3)
    )
    terms = data.draw(
        st.dictionaries(st.sampled_from(list(multi_indices_up_to(n, 6))), coefficient, min_size=1, max_size=8)
    )
    a = QElement(n, q, terms, cap=6)
    lift = FreeElement.zero(n, cap=6)
    for k, c in terms.items():
        lift = lift + canonical_lift(k, cap=6).scaled(c)
    l1, l2 = quotient_norm_l1(lift, rho, q=q).value, quotient_norm_l2(lift, rho, q=q).value
    assert polydisk_norm(a, rho) == pytest.approx(l1, rel=1e-13, abs=0)
    assert ball_norm(a, rho) == pytest.approx(l2, rel=1e-13, abs=0)


MP_TARGETS = (
    # several words in each fiber, complex coefficients, nothing cancels
    FreeElement(
        2,
        {(1, 2): 1 + 2j, (2, 1): -0.5j, (1, 1, 2): 3.0, (1, 2, 1): 1 - 1j, (2, 1, 1): 0.25,
         (2, 2): 2j, (2, 1, 2, 1): -1.5 + 0.5j, (1, 2, 2, 1): 0.75j, (1,): 0.5},
        cap=4,
    ),
    FreeElement(
        3,
        {(1, 2, 3): 1.0, (3, 2, 1): 2 - 1j, (2, 1, 3): 0.5j, (1, 3): -1 + 1j, (3, 1): 2.0,
         (3, 3, 1, 2): 1j},
        cap=4,
    ),
)


def mp_quotient(target, q, rho, kind, tau=None):
    """Oracle: sum over fibers of |y_k| min_w (weight_w / |q|^(-inv w)), in 50 digits.

    y_k = sum_w t_w q^(-inv w) over the target's words of letter counts k; the
    minimum runs over every rearrangement w of k, with weight rho^d (times
    tau^blocks(w) for tau) for l1, and for l2 the least-norm value
    rho^d / ||(|q|^(-inv w))_w||_2 replaces it.
    """
    with mpmath.workdps(50):
        mod, rho = mpmath.mpf(q.modulus), mpmath.mpf(rho)
        qv = mod * mpmath.expj(mpmath.mpf(q.phase))

        def inv(w):
            return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

        images = {}
        for w, c in target.coefficients.items():
            k = tuple(w.count(i) for i in range(1, target.n + 1))
            images[k] = images.get(k, 0) + mpmath.mpc(c) * qv ** -inv(w)
        total = 0
        for k, y in images.items():
            d = sum(k)
            words = fiber_words(k)
            if kind == "l2":
                factor = rho ** d / mpmath.sqrt(mpmath.fsum(mod ** (-2 * inv(w)) for w in words))
            else:
                factor = min(
                    rho ** d * (mpmath.mpf(tau) ** len(list(groupby(w))) if tau else 1) * mod ** inv(w)
                    for w in words
                )
            total += abs(y) * factor
        return float(total)


@pytest.mark.parametrize("q_mod", [1e-200, 1e-20, 0.5, 1.0, 2.0, 1e100])
@pytest.mark.parametrize("target", MP_TARGETS, ids=["n2", "n3"])
def test_quotient_norms_match_mpmath(target, q_mod):
    # at 1e-200 the images y_k are past double range (|q|^-4 = 1e800) but
    # the norms are not: the law's |q|^cross(k) brings them back, and adding
    # its exponent to -inv(w) as integers keeps the digits of the fiber sum
    q = QParameter(q_mod, 0.9)
    for rho in (0.6, 1.3):
        for tau in (None, 2.0):
            got = quotient_norm_l1(target, rho, tau, q=q).value
            assert got == pytest.approx(mp_quotient(target, q, rho, "l1", tau), rel=2e-15, abs=0)
        got = quotient_norm_l2(target, rho, q=q).value
        assert got == pytest.approx(mp_quotient(target, q, rho, "l2"), rel=2e-15, abs=0)
