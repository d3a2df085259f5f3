"""Word statistics, q-integers, weight families, monomial suprema."""

import math
from itertools import permutations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from qdomains import qcombinatorics
from qdomains.qcombinatorics import (
    as_multi_index,
    as_word,
    ball_weight,
    checked_power,
    composition_array,
    cross_degree_sum,
    degree,
    inv_count,
    log_ball_weight,
    log_convolution_power,
    log_pochhammer_table,
    log_q_factorial_table,
    log_w_q,
    monomial_sup,
    multi_indices_of_degree,
    multi_indices_up_to,
    p_proj,
    s_stat,
    sampled_monomial_sup,
    stirling_ratio,
    sum_of_terms,
    w_q,
    words_of_degree,
)


def q_int(m, t):
    """Oracle: the q-integer [m]_t = 1 + t + ... + t^(m-1), summed exactly rounded."""
    if t == 1.0:
        return float(m)
    return math.fsum(t ** j for j in range(m))


def log_q_int(m, t):
    """Oracle: log [m]_t one q-integer at a time, from (1 - t^m) / (1 - t)."""
    if m == 0:
        return -math.inf
    if t == 1.0:
        return math.log(m)
    if t < 1.0:
        return math.log1p(-t ** m) - math.log1p(-t)
    # t > 1: [m]_t = t^(m-1) (1 - t^-m) / (1 - 1/t)
    return (m - 1) * math.log(t) + math.log1p(-t ** -m) - math.log1p(-1.0 / t)


def fiber_words(k):
    """Oracle: all distinct rearrangements of the sorted word with letter counts k."""
    counts = list(as_multi_index(k))
    d = degree(counts)
    word = []

    def rec():
        if len(word) == d:
            yield tuple(word)
            return
        for a in range(len(counts)):
            if counts[a] > 0:
                counts[a] -= 1
                word.append(a + 1)
                yield from rec()
                word.pop()
                counts[a] += 1

    return rec()


def log_q_factorial(k, t):
    """Oracle: log of the coordinatewise q-factorial prod_i [k_i]_t!, k an int or a tuple."""
    kk = (k,) if isinstance(k, int) else tuple(k)
    return math.fsum(log_q_int(j, t) for e in kk for j in range(1, e + 1))


def kernel_log_q_factorial(m, t):
    """log [m]_t! read off log_pochhammer_table at |q| = t^(-1/2).

    With s = min(t, 1/t): [m]_s! = (s; s)_m / (1 - s)^m, and
    [m]_(1/s)! = s^(-m(m-1)/2) [m]_s!; at t = 1 the table holds log m!.
    """
    table = log_pochhammer_table(m, t ** -0.5)
    if t == 1.0:
        return table[m]
    s = min(t, 1.0 / t)
    out = table[m] - m * math.log1p(-s)
    return out + m * (m - 1) / 2 * math.log(t) if t > 1.0 else out


def brute_inversions(word):
    # O(len^2) definition, independent of the merge-style counter
    return sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
    )


words_st = st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=12).map(tuple)


@given(words_st)
def test_inv_count_matches_brute(word):
    assert inv_count(word) == brute_inversions(word)


@given(words_st)
def test_s_stat_counts_adjacent_changes(word):
    if len(word) <= 1:
        assert s_stat(word) == len(word) - 1
    else:
        changes = sum(1 for a, b in zip(word, word[1:]) if a != b)
        assert s_stat(word) == changes
        assert 0 <= s_stat(word) <= len(word) - 1


@given(words_st)
def test_p_proj_is_letter_histogram(word):
    k = p_proj(word, 4)
    assert len(k) == 4
    assert sum(k) == len(word)
    for i in range(4):
        assert k[i] == word.count(i + 1)


def test_cross_degree_sum_is_max_fiber_inversions():
    # decreasing rearrangement maximises inversions over the fiber
    for k in [(0, 0), (2, 1), (1, 1, 1), (3, 0, 2), (2, 2, 1)]:
        d = degree(k)
        expect = (d * d - sum(c * c for c in k)) // 2
        assert cross_degree_sum(k) == expect
        if d <= 6:
            assert expect == max(inv_count(w) for w in fiber_words(k))


def test_as_multi_index_and_as_word_round_trip():
    k = as_multi_index([2, 0, 1])
    assert k == (2, 0, 1)
    assert as_multi_index((1, 2), 2) == (1, 2)
    w = as_word([1, 3, 1], 3)
    assert w == (1, 3, 1)
    with pytest.raises(ValueError):
        as_multi_index((1, 2), 4)
    with pytest.raises(ValueError):
        as_word([0, 1], 2)
    with pytest.raises(ValueError):
        as_word([3], 2)
    with pytest.raises(ValueError):
        as_multi_index([1, -1])


def test_q_int_spots():
    assert q_int(0, 0.5) == 0.0
    assert q_int(1, 0.37) == 1.0
    assert q_int(3, 2.0) == 7.0          # 1 + 2 + 4
    assert q_int(4, 1.0) == 4.0
    assert abs(q_int(3, 0.5) - 1.75) < 1e-15


def test_q_factorial_integer_spots():
    assert math.prod(q_int(j, 2.0) for j in range(1, 4)) == 21.0   # 1 * 3 * 7
    assert math.exp(kernel_log_q_factorial(3, 2.0)) == pytest.approx(21.0, rel=1e-14)
    assert kernel_log_q_factorial(0, 0.3) == 0.0
    # [2]_{1/4} = 1.25, and (2,2) takes the product of both coordinate factorials
    assert q_int(2, 0.25) ** 2 == 1.5625
    assert math.exp(2 * kernel_log_q_factorial(2, 0.25)) == pytest.approx(1.5625, rel=1e-14)
    # at |q| = 1 the table holds log m!
    assert np.exp(log_pochhammer_table(5, 1.0)) == pytest.approx([1, 1, 2, 6, 24, 120], rel=1e-14)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.9, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_log_q_int_consistent_with_linear(m, t):
    assert math.exp(log_q_int(m, t)) == pytest.approx(q_int(m, t), rel=1e-12)
    kernel = kernel_log_q_factorial(m, t) - kernel_log_q_factorial(m - 1, t)
    assert math.exp(kernel) == pytest.approx(q_int(m, t), rel=1e-12)


@pytest.mark.parametrize("t", [0.3, 0.8])
def test_log_q_factorial_across_degree_switch(t):
    # at degrees in the hundreds the table must still match the term-by-term sum
    for m in [140, 150, 151, 170]:
        direct = math.fsum(math.log(q_int(j, t)) for j in range(1, m + 1))
        assert log_q_factorial(m, t) == pytest.approx(direct, rel=1e-12, abs=1e-10)
        assert kernel_log_q_factorial(m, t) == pytest.approx(direct, rel=1e-12, abs=1e-10)
        assert log_q_factorial_table(m, t)[m] == pytest.approx(direct, rel=1e-12, abs=1e-10)


def test_w_q_exponent_and_trivial_regime():
    assert w_q((3, 1, 2), 1.0) == 1.0
    assert w_q((3, 1, 2), 2.5) == 1.0
    k = (3, 1, 2)
    assert w_q(k, 0.5) == pytest.approx(0.5 ** cross_degree_sum(k), rel=1e-14)
    assert math.exp(log_w_q(k, 0.25)) == pytest.approx(w_q(k, 0.25), rel=1e-13)


def test_ball_weight_spot_and_multinomial_identity():
    # modulus 2 gives t = 1/4: ([1]![1]!/[2]!)^(1/2) = (1/1.25)^(1/2)
    assert ball_weight((1, 1), 2.0) == pytest.approx(0.8944271909999159, rel=1e-14)
    assert ball_weight((0, 0), 0.7) == 1.0
    for k in [(2, 1), (1, 1, 1), (3, 2)]:
        for mod in (0.5, 2.0, 3.0):
            t = mod ** -2
            log_multinomial = log_q_factorial(degree(k), t) - log_q_factorial(k, t)
            assert log_ball_weight(k, mod) == pytest.approx(
                -0.5 * log_multinomial, rel=1e-12, abs=1e-14
            )
            # the inversion generating function sums t^inv over the fiber
            inversions = math.fsum(t ** inv_count(w) for w in fiber_words(k))
            assert log_ball_weight(k, mod) == pytest.approx(
                -0.5 * math.log(inversions), rel=1e-12, abs=1e-14
            )


def mp_ball_weight(k, q_mod):
    """Oracle: ([k]_t! / [|k|]_t!)^(1/2), t = |q|^-2, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        t = mpmath.mpf(q_mod) ** -2

        def fact(m):
            return mpmath.fprod((1 - t ** j) / (1 - t) for j in range(1, m + 1))

        return float(mpmath.sqrt(mpmath.fprod(fact(e) for e in k) / fact(sum(k))))


@pytest.mark.parametrize("q_mod", [1 + 1e-14, 1 - 1e-13, 1 + 1e-10, 1 - 1e-8, 1 + 1e-7])
@pytest.mark.parametrize("k", [(1, 1), (3, 2), (5, 5, 4), (10, 3), (20, 20)])
def test_ball_weight_near_unit_modulus_matches_mpmath(k, q_mod):
    assert ball_weight(k, q_mod) == pytest.approx(mp_ball_weight(k, q_mod), rel=1e-12)


def test_ball_weight_at_extreme_moduli():
    # w_q(k) carries the whole weight once s = min(|q|, 1/|q|)^2 underflows
    assert ball_weight((1, 0), 1e-320) == 1.0
    assert ball_weight((1, 1), 1e-200) == pytest.approx(1e-200, rel=1e-13)
    assert ball_weight((2, 3), 1e300) == 1.0
    assert ball_weight((1, 1), 1e-100) == pytest.approx(mp_ball_weight((1, 1), 1e-100), rel=1e-13)


def test_ball_weight_inversion_symmetry():
    # swapping modulus for its inverse trades ball_weight against the polydisk weight
    for k in [(2, 1), (1, 3, 2), (4, 0, 1)]:
        for mod in (0.5, 2.0):
            lhs = ball_weight(k, 1.0 / mod)
            rhs = ball_weight(k, mod) * mod ** (-cross_degree_sum(k))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monomial_sup_closed_forms():
    assert monomial_sup((2, 1), "polydisk", 0.5) == pytest.approx(0.125, rel=1e-15)
    assert monomial_sup((1, 1), "ball", 1.0) == pytest.approx(0.5, rel=1e-15)
    # zero coordinates contribute 0^0 = 1 factors
    assert monomial_sup((0, 3), "ball", 1.0) == pytest.approx(1.0, rel=1e-15)
    assert monomial_sup((0, 0), "ball", 0.3) == 1.0
    with pytest.raises(ValueError):
        monomial_sup((1,), "cube", 1.0)


def test_sampled_sup_brackets_ball_closed_form():
    rng_points = 1 << 16
    for k in [(1, 1), (2, 1), (3, 2, 1)]:
        for r in (0.8, 1.0):
            exact = monomial_sup(k, "ball", r)
            est = sampled_monomial_sup(k, "ball", r, points=rng_points, seed=11)
            assert est <= exact * (1 + 1e-9)
            assert est >= exact * 0.99


def test_sampled_sup_polydisk_one_sided():
    for k in [(1, 1), (2, 0, 1)]:
        exact = monomial_sup(k, "polydisk", 0.9)
        est = sampled_monomial_sup(k, "polydisk", 0.9, points=1 << 14, seed=3)
        assert est <= exact * (1 + 1e-9)
        assert est > 0.0


def fresh_sampled_sup(k, domain, r, m, seed):
    """Oracle: draw the Sobol points anew and scale them to radius r first."""
    n = len(k)
    ke = np.asarray(k, dtype=float)
    if domain == "ball":
        s = qmc.Sobol(d=n - 1, scramble=True, seed=seed).random_base2(m)
        s.sort(axis=1)
        pad = np.concatenate([np.zeros((len(s), 1)), s, np.ones((len(s), 1))], axis=1)
        u, ke = np.diff(pad, axis=1) * (r * r), 0.5 * ke
    else:
        u = qmc.Sobol(d=n, scramble=True, seed=seed).random_base2(m) * r
    return float(np.max(np.prod(u ** ke, axis=1)))


def test_sampled_sup_matches_a_fresh_sample():
    for domain in ("ball", "polydisk"):
        for k in [(1, 1), (2, 1), (3, 0, 2), (1, 2, 3)]:
            for r in (0.8, 1.0):
                got = sampled_monomial_sup(k, domain, r, points=1 << 12, seed=5)
                assert got == pytest.approx(fresh_sampled_sup(k, domain, r, 12, 5), rel=1e-13)


def test_sample_cache_is_read_only_and_keyed():
    sample = qcombinatorics._log_sample("ball", 3, 10, 7)
    assert qcombinatorics._log_sample("ball", 3, 10, 7) is sample
    assert sample.shape == (1 << 10, 3)
    assert not sample.flags.writeable
    with pytest.raises(ValueError):
        sample[0, 0] = 0.0
    first = [sampled_monomial_sup(k, "ball", 0.9, points=1 << 10, seed=7) for k in [(1, 2, 0), (2, 2, 2)]]
    again = [sampled_monomial_sup(k, "ball", 0.9, points=1 << 10, seed=7) for k in [(1, 2, 0), (2, 2, 2)]]
    assert first == again
    for other in (("ball", 3, 10, 8), ("ball", 2, 10, 7), ("polydisk", 3, 10, 7)):
        o = qcombinatorics._log_sample(*other)
        assert o.shape != sample.shape or not np.array_equal(o, sample)
    assert sampled_monomial_sup((1, 2, 0), "ball", 0.9, points=1 << 10, seed=8) != first[0]
    assert sampled_monomial_sup((1, 2, 0), "polydisk", 0.9, points=1 << 10, seed=7) != first[0]
    with pytest.raises(ValueError):
        sampled_monomial_sup((1, 1), "cube", 1.0)


@pytest.mark.parametrize("maxplus", [False, True])
def test_log_convolution_power_matches_fiber_sums(maxplus):
    g = np.random.default_rng(3).normal(size=9) * 5.0
    for n in (1, 2, 3, 4):
        got = log_convolution_power(g, n, maxplus=maxplus)
        for d in range(len(g)):
            vals = np.sum(g[composition_array(n, d)], axis=1)
            want = np.max(vals) if maxplus else math.log(math.fsum(np.exp(vals)))
            assert got[d] == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_checked_power_raises_outside_double_range():
    assert checked_power(2.0, -3) == 0.125
    assert checked_power(1e-300, 1) == 1e-300
    with pytest.raises(ValueError, match="double range"):
        checked_power(1e-300, -2)
    with pytest.raises(ValueError, match="double range"):
        checked_power(1e200, 3.5)


LOG_1E300 = math.log(1e300)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-LOG_1E300, max_value=LOG_1E300),
            st.floats(min_value=-700.0, max_value=700.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_sum_of_terms_matches_a_fifty_digit_sum(logs):
    # m log-uniform in [1e-300, 1e300], w in [-700, 700], products in range
    pairs = [(math.exp(log_m), w) for log_m, w in logs if abs(log_m + w) <= LOG_1E300]
    with mpmath.workdps(50):
        want = mpmath.fsum(mpmath.mpf(m) * mpmath.exp(mpmath.mpf(w)) for m, w in pairs)
        got = sum_of_terms(pairs)
        tol = 2 * math.ulp(1.0) * max([1.0] + [abs(w) for _, w in pairs])
        assert abs(got - want) <= tol * want


def test_sum_of_terms_keeps_digits_and_range():
    assert sum_of_terms([]) == 0.0
    assert sum_of_terms([(1e300, 0.0)]) == 1e300
    assert sum_of_terms([(0.0, 3.0), (5e-324, 0.0)]) == 5e-324
    assert sum_of_terms(iter([(1e300, -math.log(1e300)), (1.0, 0.0)])) == pytest.approx(2.0, rel=1e-15)
    # a term, a modulus or the sum out of double range: ValueError, never OverflowError
    for pairs in (
        [(1e300, 50.0)],
        [(1.0, 710.0)],
        [(1.0, math.inf)],
        [(math.inf, 0.0)],
        [(1e308, 0.0), (1e308, 0.0)],
        [(1.7e308, 0.0), (1.7e308, -1e-9)],
    ):
        with pytest.raises(ValueError, match="norm leaves the double range"):
            sum_of_terms(pairs)
    with pytest.raises(ValueError, match="norm leaves the double range"):
        sum_of_terms((abs(c), 0.0) for c in [complex(1.7e308, 1.7e308)])


def test_stirling_ratio_spots():
    assert stirling_ratio((1, 1)) == pytest.approx(2 ** 0.25, rel=1e-14)
    assert stirling_ratio((5, 0)) == 1.0
    with pytest.raises(ValueError):
        stirling_ratio((0, 0))
    # slow drift to 1: still above 1 but within 0.8% at total degree 200
    assert stirling_ratio((100, 100)) == pytest.approx(1.007216413796085, rel=1e-12)
    assert 1.0 <= stirling_ratio((100, 100)) <= 1.05


def test_stirling_ratio_monotone_toward_one():
    vals = [stirling_ratio((m, m)) for m in (1, 5, 25, 100)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.01


def test_multi_index_enumeration_counts():
    for n in (1, 2, 3):
        for d in range(0, 6):
            ks = list(multi_indices_of_degree(n, d))
            assert len(ks) == math.comb(d + n - 1, n - 1)
            assert len(set(ks)) == len(ks)
            assert all(sum(k) == d and len(k) == n for k in ks)
    assert len(list(multi_indices_up_to(2, 4))) == sum(d + 1 for d in range(5))


def test_composition_array_matches_iterator():
    for n in (1, 2, 3):
        for d in range(0, 7):
            arr = composition_array(n, d)
            ks = np.array(list(multi_indices_of_degree(n, d)), dtype=np.int64).reshape(-1, n)
            assert arr.shape == ks.shape
            assert np.array_equal(arr, ks)


def test_words_and_fibers():
    assert len(list(words_of_degree(2, 5))) == 32
    k = (2, 1, 1)
    fiber = list(fiber_words(k))
    d = degree(k)
    assert len(fiber) == math.factorial(d) // math.prod(math.factorial(c) for c in k)
    assert len(set(fiber)) == len(fiber)
    assert all(p_proj(w, 3) == k for w in fiber)
    # fiber of the zero index is the empty word alone
    assert list(fiber_words((0, 0))) == [()]


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(tuple))
def test_fiber_inversion_range(k):
    if degree(k) > 6:
        return
    invs = sorted(inv_count(w) for w in fiber_words(k))
    assert invs[0] == 0
    assert invs[-1] == cross_degree_sum(k)
