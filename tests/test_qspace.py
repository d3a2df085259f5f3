"""Truncated q-commuting arithmetic, reversal, coefficient seminorms."""

import cmath
import math
from itertools import product
from typing import Callable, NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdomains.qcombinatorics import (
    cross_degree_sum,
    degree,
    inv_count,
    log_w_q,
    multi_indices_up_to,
    p_proj,
    words_of_degree,
)
from test_qcombinatorics import log_q_factorial
from qdomains.freeseries import FreeElement, concat_multiply, free_polydisk_norm
from qdomains.jsr import canonical_partials
from qdomains.quotient import quotient_norm_l1
from qdomains.qspace import (
    IncompatibilityError,
    QElement,
    QParameter,
    _rewrite_word,
    ball_norm,
    multiply,
    normal_order_exponent,
    normal_order_word,
    polydisk_norm,
    reversal_iso,
    scale_auto,
    weight_ratio_scan,
)

Q_HALF = QParameter(0.5, 0.0)
Q_UNIT = QParameter(1.0, math.pi / 3)
Q_BIG = QParameter(2.0, 0.7)


def test_qparameter_basics():
    q = QParameter(2.0, 1.0)
    assert q.value == pytest.approx(2.0 * cmath.exp(1j), rel=1e-15, abs=0)
    assert q.power(3) == pytest.approx(8.0 * cmath.exp(3j), rel=1e-14, abs=0)
    assert q.power(0) == pytest.approx(1.0 + 0j, abs=1e-15)
    inv = q.inverse()
    assert inv.modulus == pytest.approx(0.5, rel=1e-15, abs=0)
    assert inv.power(1) * q.power(1) == pytest.approx(1.0 + 0j, rel=1e-14, abs=0)
    r = QParameter(abs(q.value), cmath.phase(q.value))
    assert r.modulus == pytest.approx(q.modulus, rel=1e-12)
    assert cmath.exp(1j * r.phase) == pytest.approx(cmath.exp(1j * q.phase), rel=1e-12)
    with pytest.raises(ValueError):
        QParameter(-1.0, 0.0)
    with pytest.raises(ValueError):
        QParameter(0.0, 0.0)


def restart_scan_normal_order_word(word, q, n):
    """Oracle: swap the first adjacent descent and scan again from the start."""
    letters = list(word)
    coeff = 1.0 + 0.0j
    q_inv = q.power(-1)
    while True:
        for s in range(len(letters) - 1):
            if letters[s] > letters[s + 1]:
                letters[s], letters[s + 1] = letters[s + 1], letters[s]
                coeff *= q_inv
                break
        else:
            break
    return coeff, p_proj(tuple(letters), n)


def test_rewriting_oracle_is_inversion_count():
    # every adjacent descent swap costs one factor of 1/q
    for q in (Q_HALF, Q_UNIT, Q_BIG):
        for n in (2, 3):
            for d in range(0, 5):
                for w in words_of_degree(n, d):
                    coeff, k = normal_order_word(w, q, n)
                    assert sum(k) == d
                    assert coeff == pytest.approx(q.power(-inv_count(w)), rel=1e-12)


def test_insertion_pass_makes_the_restart_scan_swaps():
    # the normal-ordering suite's three parameters, every word of length <= 7
    for q in (QParameter(0.5, 0.0), QParameter(1.0, math.pi / 3), QParameter(2.0, 1.0)):
        for n in (1, 2, 3):
            for d in range(8):
                for w in words_of_degree(n, d):
                    assert normal_order_word(w, q, n) == restart_scan_normal_order_word(w, q, n)


def test_rewriting_swaps_are_the_inversion_count():
    # every word of length <= 7, n <= 3: the q-free part of the oracle
    for n in (1, 2, 3):
        for d in range(8):
            for w in words_of_degree(n, d):
                swaps, key = _rewrite_word(w, n)
                assert swaps == inv_count(w)
                assert key == p_proj(tuple(sorted(w)), n)


def test_closed_form_product_matches_oracle():
    # x^k x^m concatenated as sorted words and reordered from scratch
    for q in (Q_HALF, Q_UNIT, Q_BIG):
        for k in multi_indices_up_to(3, 3):
            for m in multi_indices_up_to(3, 3):
                word = tuple(
                    i + 1 for i, c in enumerate(k) for _ in range(c)
                ) + tuple(i + 1 for i, c in enumerate(m) for _ in range(c))
                coeff, total = normal_order_word(word, q, 3)
                e = normal_order_exponent(k, m)
                assert total == tuple(a + b for a, b in zip(k, m))
                assert coeff == pytest.approx(q.power(e), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    cap=st.integers(min_value=0, max_value=8),
    sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_normal_order_exponent_on_index_columns_matches_tuples(n, cap, sizes, seed):
    # the array form the normal-ordering suite runs, against the tuple form multiply runs
    rng = np.random.default_rng(seed)
    K, M = (
        [tuple(int(e) for e in rng.multinomial(int(rng.integers(0, cap + 1)), [1 / n] * n))
         for _ in range(size)]
        for size in sizes
    )
    pairs = [(i, j) for i, k in enumerate(K) for j, m in enumerate(M) if degree(k) + degree(m) <= cap]
    rows, cols = np.array(pairs, np.int64).reshape(-1, 2).T
    KA, MA = (np.array(X, np.int64).reshape(-1, n) for X in (K, M))
    got = normal_order_exponent(KA.T[:, rows], MA.T[:, cols])
    assert got.dtype == np.int64
    assert got.tolist() == [normal_order_exponent(K[i], M[j]) for i, j in pairs]


def test_multiply_spot():
    # x2 x1 = q^{-1} x1 x2, so at q = 1/2 the reordered coefficient is 2
    x1 = QElement(2, Q_HALF, {(1, 0): 1.0}, cap=8)
    x2 = QElement(2, Q_HALF, {(0, 1): 1.0}, cap=8)
    p = x2 * x1
    assert p.coefficient((1, 1)) == pytest.approx(2.0 + 0j, rel=1e-15, abs=0)
    p2 = p * x1
    assert p2.coefficient((2, 1)) == pytest.approx(4.0 + 0j, rel=1e-15, abs=0)


def test_multiply_associative_and_distributive():
    q = Q_BIG
    a = QElement(2, q, {(1, 0): 1.5, (0, 2): 1j, (0, 0): -0.5}, cap=12)
    b = QElement(2, q, {(0, 1): -2.0, (1, 1): 0.25 + 0.5j}, cap=12)
    c = QElement(2, q, {(1, 0): 1.0, (0, 0): 3.0}, cap=12)
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    for k in set(lhs.coefficients) | set(rhs.coefficients):
        assert lhs.coefficient(k) == pytest.approx(rhs.coefficient(k), rel=1e-12, abs=1e-12)
    dist = multiply(a, b + c)
    ref = multiply(a, b) + multiply(a, c)
    for k in set(dist.coefficients) | set(ref.coefficients):
        assert dist.coefficient(k) == pytest.approx(ref.coefficient(k), rel=1e-12, abs=1e-12)


def test_classical_degeneration_commutes():
    q1 = QParameter(1.0, 0.0)
    a = QElement(2, q1, {(1, 0): 2.0, (0, 1): -1.0}, cap=8)
    b = QElement(2, q1, {(0, 1): 1.0, (1, 1): 0.5}, cap=8)
    ab, ba = multiply(a, b), multiply(b, a)
    assert ab.coefficients.keys() == ba.coefficients.keys()
    for k in ab.coefficients:
        assert ab.coefficient(k) == pytest.approx(ba.coefficient(k), rel=1e-14, abs=0)


def test_unit_and_zero():
    one = QElement(2, Q_HALF, {(0, 0): 1.0}, cap=6)
    zero = QElement(2, Q_HALF, cap=6)
    a = QElement(2, Q_HALF, {(2, 1): 1.0 + 1j}, cap=6)
    assert multiply(one, a).coefficient((2, 1)) == a.coefficient((2, 1))
    assert multiply(a, one).coefficient((2, 1)) == a.coefficient((2, 1))
    assert multiply(zero, a).is_zero()
    assert (a - a).is_zero()


def test_incompatible_operands_rejected():
    a = QElement(2, Q_HALF, {(0, 0): 1.0}, cap=4)
    b = QElement(2, Q_BIG, {(0, 0): 1.0}, cap=4)
    c = QElement(3, Q_HALF, {(0, 0, 0): 1.0}, cap=4)
    with pytest.raises(IncompatibilityError):
        multiply(a, b)
    with pytest.raises(IncompatibilityError):
        a + c
    # an element of the other algebra is refused in either order; its keys
    # mean something else (the monomial x1 x2 is not the word z1 z1)
    f = FreeElement(2, {(1,): 1}, cap=3)
    x = QElement(2, QParameter(0.5), {(1, 1): 2}, cap=3)
    for op in (lambda u, v: u + v, lambda u, v: u - v, concat_multiply, multiply):
        for u, v in ((f, x), (x, f)):
            with pytest.raises(IncompatibilityError, match="cannot combine"):
                op(u, v)
    # + and - with an operand that is no series are Python's TypeError
    for element in (f, x):
        for operand in (1, 0.5j, "x1", None):
            for op in (lambda u, v: u + v, lambda u, v: u - v):
                with pytest.raises(TypeError):
                    op(element, operand)
                with pytest.raises(TypeError):
                    op(operand, element)


def test_non_finite_coefficients_are_rejected():
    for bad in (math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            QElement(2, Q_HALF, {(1, 0): bad}, cap=4)


def make_qelement(coefficients, *, n=2, cap=4, q=Q_HALF, saturated=False):
    return QElement(n, q, coefficients, cap=cap, saturated=saturated)


def make_free_element(coefficients, *, n=2, cap=4, q=None, saturated=False):
    return FreeElement(n, coefficients, cap=cap, saturated=saturated)


class Series(NamedTuple):
    """One series class as the shared container tests see it."""

    make: Callable
    key: tuple
    other_key: tuple
    unit: tuple
    product: Callable
    # (q, left, right, product items in order) for products in which a key cancels
    cancelling: list


SERIES = {
    "QElement": Series(
        make_qelement, (1, 0), (0, 1), (0, 0), multiply,
        [
            # (x1 + x2)(x2 - q x1) at q = 2: x1 x2 and -q q^-1 x1 x2 cancel
            (QParameter(2.0, 0.0), {(1, 0): 1.0, (0, 1): 1.0}, {(0, 1): 1.0, (1, 0): -2.0},
             [((2, 0), -2.0), ((0, 2), 1.0)]),
            # (x1 - 0.5 x2)(x2 + x1) at q = 0.5: x1 x2 and -0.5 q^-1 x1 x2 cancel
            (Q_HALF, {(1, 0): 1.0, (0, 1): -0.5}, {(0, 1): 1.0, (1, 0): 1.0},
             [((2, 0), 1.0), ((0, 2), -0.5)]),
        ],
    ),
    "FreeElement": Series(
        make_free_element, (1,), (2,), (), concat_multiply,
        # (1 + z1)(z1 - 1): z1 and -z1 cancel
        [(None, {(): 1.0, (1,): 1.0}, {(1,): 1.0, (): -1.0}, [((), -1.0), ((1, 1), 1.0)])],
    ),
}


def test_multiply_edge_cases():
    for make, key, other_key, _, product, cancelling in SERIES.values():
        a = make({key: 2.0, other_key: 1j})
        # a product that cancels drops the key, and the keys left keep the order they were reached in
        for q, left, right, items in cancelling:
            assert list(product(make(left, q=q), make(right, q=q)).coefficients.items()) == items
        # an empty factor gives an empty product, saturated only if a factor is
        zero = make({})
        for u, v in ((a, zero), (zero, a), (zero, zero)):
            p = product(u, v)
            assert p.is_zero() and not p.saturated and type(p) is type(a)
            if isinstance(a, QElement):
                assert p.q is a.q


def test_cap_truncation_is_sticky():
    for make, key, other_key, unit, product, _ in SERIES.values():
        a = make({key: 2.0, other_key: 1j})
        # a pair past the cap is dropped and saturates the product; the pairs within it stay
        x = make({key: 1.0}, cap=2)
        square = x * x
        assert square.degree() == 2 and len(square.coefficients) == 1 and not square.saturated
        cube = square * x
        assert cube.saturated
        assert cube.is_zero()  # degree-3 term dropped entirely
        partly = product(square + make({unit: 1.0}, cap=2), x)
        assert partly.saturated and partly.coefficients == x.coefficients
        back = cube + make({unit: 1.0}, cap=2)
        assert back.saturated  # flag survives later arithmetic
        # saturated is sticky through * from either side, an empty factor included
        sat = make({key: 1.0}, saturated=True)
        empty_sat = make({}, saturated=True)
        for out in (a * sat, sat * a, product(a, empty_sat), product(empty_sat, a)):
            assert out.saturated and type(out) is type(a)
        assert not (a * a).saturated


@pytest.mark.parametrize("series", SERIES.values(), ids=SERIES.keys())
def test_series_container_contract(series):
    make, key, other_key, _, product, _ = series
    a = make({key: 2.0, other_key: 1j})
    # a sum that cancels drops the key
    assert (a + make({key: -2.0})).coefficients == {other_key: 1j}
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    # saturated is sticky through +, - and scaled, from either side
    sat = make({key: 1.0}, saturated=True)
    for out in (a + sat, sat + a, a - sat, sat - a, -sat, sat.scaled(3.0), sat.scaled(0)):
        assert out.saturated and type(out) is type(a)
    assert not (a + a).saturated and not a.scaled(2.0).saturated
    # a coefficient that underflows to zero is dropped, as one that cancels
    tiny = make({key: 1e-300, other_key: 1e-300}).scaled(1e-300)
    assert tiny.coefficients == {} and tiny.is_zero() and tiny.degree() == 0
    if isinstance(a, QElement):
        tiny = scale_auto(QElement(2, Q_HALF, {(3, 3): 1e-300}, cap=8), 1e-10)
        assert tiny.is_zero() and tiny.degree() == 0
    # operands must share n and cap (and q for QElement), empty or not, in either order
    mismatched = [make({}, n=3), make({}, cap=5), make({key: 1.0}, cap=5)]
    if isinstance(a, QElement):
        mismatched += [make({}, q=Q_BIG), make({key: 1.0}, q=Q_BIG), make({(1, 0, 0): 1.0}, n=3)]
        assert (a + a).q is a.q and a.scaled(2.0).q is a.q
    else:
        mismatched.append(make({key: 1.0}, n=3))
    for b in mismatched:
        for op in (lambda x, y: x + y, lambda x, y: x - y, product, lambda x, y: x * y):
            with pytest.raises(IncompatibilityError):
                op(a, b)
            with pytest.raises(IncompatibilityError):
                op(b, a)
    # non-finite coefficients are rejected, given or computed
    for bad in (math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            make({key: bad})
    big = make({key: 1e308})
    with pytest.raises(ValueError, match="double range"):
        big + big
    with pytest.raises(ValueError, match="double range"):
        big.scaled(10.0)
    # * multiplies two elements of the class and scales by a number from either side
    b = make({other_key: 3.0, key: -1.0})
    assert (a * b).coefficients == product(a, b).coefficients
    for c in (2, 1.5, 0.5j):
        assert (a * c).coefficients == (c * a).coefficients == a.scaled(c).coefficients
    other = make_free_element({}) if isinstance(a, QElement) else make_qelement({})
    for operand in (other, "x", None):
        with pytest.raises(TypeError):
            a * operand
        with pytest.raises(TypeError):
            operand * a


def test_seminorm_rho_validation():
    # rho is checked on the zero element too, where no term is summed
    for a in (QElement(1, Q_HALF, {(0,): 1.0}, cap=2), QElement(1, Q_HALF, cap=2)):
        for norm in (polydisk_norm, ball_norm):
            for rho in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="rho must be positive and finite"):
                    norm(a, rho)


@pytest.mark.parametrize("tau", [0.5, math.nan, math.inf])
def test_tau_must_be_finite_and_at_least_one(tau):
    w = FreeElement(2, {(1, 2): 1.0}, cap=4)
    for check in (
        lambda: free_polydisk_norm(w, 1.0, tau),
        lambda: quotient_norm_l1(w, 1.0, tau, q=Q_HALF),
        lambda: canonical_partials("free_polydisk", 2, None, 2.0, 5, tau=tau),
    ):
        with pytest.raises(ValueError, match="tau must be >= 1 and finite"):
            check()


def test_polydisk_norm_values():
    a = QElement(2, Q_HALF, {(1, 1): 2.0, (0, 0): 1.0}, cap=8)
    # w((1,1)) = mod^1 = 0.5 at modulus 1/2; contribution 2 * 0.5 * 0.25
    assert polydisk_norm(a, 0.5) == pytest.approx(1.0 + 0.25, rel=1e-14, abs=0)
    b = QElement(2, Q_BIG, {(1, 1): 2.0, (0, 0): 1.0}, cap=8)
    assert polydisk_norm(b, 0.5) == pytest.approx(1.0 + 0.5, rel=1e-14, abs=0)


def test_ball_norm_value():
    b = QElement(2, Q_BIG, {(1, 1): 1.0}, cap=8)
    assert ball_norm(b, 1.0) == pytest.approx(0.8944271909999159, rel=1e-13, abs=0)


def scalar_norm(a, family, rho):
    """Oracle: sum_k |c_k| weight(k) rho^|k| term by term, ball weights from scalar q-factorials."""
    mod = a.q.modulus
    total = []
    for k, c in a.coefficients.items():
        if family == "ball":
            t = mod ** -2
            w = math.exp(0.5 * (log_q_factorial(k, t) - log_q_factorial(degree(k), t)))
        else:
            w = mod ** cross_degree_sum(k) if mod < 1.0 else 1.0
        total.append(abs(c) * w * rho ** degree(k))
    return math.fsum(total)


# |q| = 1 and log-uniform |q| in [0.25, 0.8] and [1.25, 4], as for the ratio scan
@settings(max_examples=40, deadline=None)
@given(
    log_mod=st.one_of(st.just(0.0), st.floats(min_value=math.log(1.25), max_value=math.log(4.0))),
    invert=st.booleans(),
    n=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_norms_match_term_by_term_oracle(log_mod, invert, n, seed):
    rng = np.random.default_rng(seed)
    q = QParameter(math.exp(-log_mod if invert else log_mod), float(rng.uniform(0.0, 6.0)))
    terms = {
        tuple(int(e) for e in rng.integers(0, 6, size=n)): complex(*rng.standard_normal(2))
        for _ in range(int(rng.integers(1, 12)))
    }
    a = QElement(n, q, terms, cap=5 * n)
    rho = float(rng.uniform(0.3, 1.5))
    assert polydisk_norm(a, rho) == pytest.approx(scalar_norm(a, "polydisk", rho), rel=1e-13, abs=0)
    assert ball_norm(a, rho) == pytest.approx(scalar_norm(a, "ball", rho), rel=1e-13, abs=0)


def test_norms_keep_their_range():
    # (x2 x1)^2 = q^-3 x1^2 x2^2: a coefficient 1e300 against the weight
    # |q|^4 = 1e-400 leaves 1e-100 for both families
    tiny = QParameter(1e-100, 0.0)
    x1, x2 = (QElement(2, tiny, {k: 1.0}, cap=4) for k in ((1, 0), (0, 1)))
    sq = (x2 * x1) * (x2 * x1)
    assert polydisk_norm(sq, 1.0) == pytest.approx(1e-100, rel=1e-12, abs=0)
    assert ball_norm(sq, 1.0) == pytest.approx(1e-100, rel=1e-12, abs=0)
    assert ball_norm(QElement(2, tiny, cap=4), 1.0) == 0.0
    high = QElement(1, Q_HALF, {(10,): 1.0}, cap=10)
    with pytest.raises(ValueError, match="double range"):
        polydisk_norm(high, 1e100)


def test_scale_auto_moves_rho():
    a = QElement(2, Q_BIG, {(1, 1): 2.0, (2, 0): -1j, (0, 0): 3.0}, cap=8)
    for rho in (0.3, 0.9, 1.7):
        scaled = scale_auto(a, rho)
        assert polydisk_norm(scaled, 1.0) == pytest.approx(
            polydisk_norm(a, rho), rel=1e-13, abs=0
        )


@pytest.mark.parametrize("q", [Q_HALF, Q_UNIT, Q_BIG])
def test_reversal_involution_and_homomorphism(q):
    a = QElement(3, q, {(1, 0, 2): 1.0 + 2j, (0, 1, 0): -0.5}, cap=10)
    b = QElement(3, q, {(0, 0, 1): 2.0, (1, 1, 0): 1j}, cap=10)
    ra, rb = reversal_iso(a), reversal_iso(b)
    assert ra.q.modulus == pytest.approx(1.0 / q.modulus, rel=1e-14, abs=0)
    back = reversal_iso(ra)
    for k in a.coefficients:
        assert back.coefficient(k) == pytest.approx(a.coefficient(k), rel=1e-12)
    lhs = reversal_iso(multiply(a, b))
    rhs = multiply(ra, rb)
    for k in set(lhs.coefficients) | set(rhs.coefficients):
        assert lhs.coefficient(k) == pytest.approx(rhs.coefficient(k), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("q", [Q_HALF, Q_UNIT, Q_BIG])
def test_reversal_is_isometric(q):
    a = QElement(3, q, {(2, 0, 1): 1.5, (0, 3, 0): -2j, (1, 1, 1): 0.25}, cap=10)
    ra = reversal_iso(a)
    for norm in (polydisk_norm, ball_norm):
        for rho in (0.4, 1.0, 1.6):
            assert norm(ra, rho) == pytest.approx(norm(a, rho), rel=1e-12)


def random_qelement(rng, n, q, cap=8):
    """Up to 5 terms of degree <= cap / 2 with complex normal coefficients."""
    terms = {
        tuple(int(e) for e in rng.multinomial(d, [1.0 / n] * n)): complex(*rng.standard_normal(2))
        for d in rng.integers(0, cap // 2 + 1, size=int(rng.integers(1, 6)))
    }
    return QElement(n, q, terms, cap=cap)


def random_q_pair(log_mod, n, seed):
    rng = np.random.default_rng(seed)
    q = QParameter(math.exp(log_mod), float(rng.uniform(0.0, 2.0 * math.pi)))
    return random_qelement(rng, n, q), random_qelement(rng, n, q), float(rng.uniform(0.3, 1.5))


def moduli(a):
    """a with every coefficient replaced by its modulus, at |q| with phase 0."""
    return QElement(a.n, QParameter(a.q.modulus), {k: abs(c) for k, c in a.items()}, cap=a.cap)


RANDOM_PAIRS = {
    "log_mod": st.floats(min_value=-7.0, max_value=7.0),
    "n": st.integers(min_value=1, max_value=3),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
}


@settings(max_examples=100, deadline=None)
@given(**RANDOM_PAIRS)
def test_random_products_are_submultiplicative(log_mod, n, seed):
    a, b, rho = random_q_pair(log_mod, n, seed)
    for norm in (polydisk_norm, ball_norm):
        assert norm(multiply(a, b), rho) <= norm(a, rho) * norm(b, rho) * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(**RANDOM_PAIRS)
def test_random_reversal_is_an_isometric_homomorphism(log_mod, n, seed):
    a, b, rho = random_q_pair(log_mod, n, seed)
    for norm in (polydisk_norm, ball_norm):
        assert norm(reversal_iso(a), rho) == pytest.approx(norm(a, rho), rel=1e-12, abs=0)
    lhs = reversal_iso(multiply(a, b))
    rhs = multiply(reversal_iso(a), reversal_iso(b))
    # a coefficient is a sum of products, rounded relative to the sum of their moduli
    size = reversal_iso(multiply(moduli(a), moduli(b)))
    assert set(lhs.coefficients) <= set(size.coefficients) >= set(rhs.coefficients)
    for k, bound in size.coefficients.items():
        assert abs(lhs.coefficient(k) - rhs.coefficient(k)) <= 1e-12 * bound.real


def test_weight_ratio_scan_pinches():
    scan = weight_ratio_scan(2.0, 2, 50)
    assert scan.max_ratio == pytest.approx(1.0, abs=1e-15)
    assert scan.max_at == (0, 0)
    # infimum over all degrees is prod_m (1 - 4^-m) to the power (n-1)/2
    phi = 1.0
    m = 1
    while 0.25 ** m >= 1e-18:
        phi *= 1.0 - 0.25 ** m
        m += 1
    assert scan.min_ratio >= math.sqrt(phi) - 1e-6
    assert scan.min_ratio == pytest.approx(0.8297816201389013, rel=1e-12)
    assert scan.min_at == (25, 25)  # balanced index maximises the crossing count


def test_weight_ratio_scan_at_unit_modulus_has_no_pinch():
    # at |q| = 1 the ratio is (k!/|k|!)^(1/2): 1/sqrt(C(30, 15)) at the
    # balanced index, and it falls without bound as d_max grows
    scan = weight_ratio_scan(1.0, 2, 30)
    want = math.exp(0.5 * (2 * math.lgamma(16) - math.lgamma(31)))
    assert scan.min_ratio == pytest.approx(want, rel=1e-13, abs=0)
    assert scan.min_at == (15, 15)
    assert scan.max_ratio == 1.0 and scan.max_at == (0, 0)
    assert weight_ratio_scan(1.0, 2, 60).min_ratio < scan.min_ratio * 1e-4


def test_weight_ratio_scan_small_modulus_via_reversal_regime():
    # same pinch for |q| < 1 since both weights transform the same way
    scan = weight_ratio_scan(0.5, 2, 30)
    assert 0.0 < scan.min_ratio <= scan.max_ratio <= 1.0 + 1e-12


def scalar_ratio(k, q_mod):
    t = q_mod ** -2
    log_ball = 0.5 * (log_q_factorial(k, t) - log_q_factorial(degree(k), t))
    return math.exp(log_ball - log_w_q(k, q_mod))


def scalar_weight_ratio_scan(q_mod, n, d_max):
    """Oracle: one multi-index at a time from scalar q-factorials."""
    best_min, best_max = math.inf, -math.inf
    min_at = max_at = (0,) * n
    for k in multi_indices_up_to(n, d_max):
        ratio = scalar_ratio(k, q_mod)
        if ratio < best_min:
            best_min, min_at = ratio, k
        if ratio > best_max:
            best_max, max_at = ratio, k
    return best_min, best_max, min_at, max_at


# log-uniform |q| in [0.25, 0.8] and [1.25, 4]: nearer to 1 the oracle's
# q-integers (1 - t^m) / (1 - t) lose digits to cancellation
@settings(max_examples=40, deadline=None)
@given(
    log_mod=st.floats(min_value=math.log(1.25), max_value=math.log(4.0)),
    invert=st.booleans(),
    n=st.integers(min_value=1, max_value=3),
    d_max=st.integers(min_value=0, max_value=20),
)
def test_weight_ratio_scan_matches_scalar_loop(log_mod, invert, n, d_max):
    q_mod = math.exp(-log_mod if invert else log_mod)
    scan = weight_ratio_scan(q_mod, n, d_max)
    lo, hi, lo_at, hi_at = scalar_weight_ratio_scan(q_mod, n, d_max)
    assert scan.min_ratio == pytest.approx(lo, rel=1e-12)
    assert scan.max_ratio == pytest.approx(hi, rel=1e-12)
    # another extreme index is allowed only where the ratios agree to 1e-14
    if scan.min_at != lo_at:
        assert scalar_ratio(scan.min_at, q_mod) == pytest.approx(lo, rel=1e-14, abs=0)
    if scan.max_at != hi_at:
        assert scalar_ratio(scan.max_at, q_mod) == pytest.approx(hi, rel=1e-14, abs=0)


def test_weight_ratio_scan_depends_on_min_of_q_and_inverse():
    # the reversal symmetry: |q| and 1/|q| give the same ratios
    for n, d_max in ((2, 50), (3, 20)):
        a, b = weight_ratio_scan(2.0, n, d_max), weight_ratio_scan(0.5, n, d_max)
        assert (a.min_ratio, a.max_ratio, a.min_at, a.max_at) == (b.min_ratio, b.max_ratio, b.min_at, b.max_at)


def mp_weight_ratio_extremes(q_mod, n, d_max):
    """Oracle: min and max of ball_weight / w_q over |k| <= d_max, from 40 digits.

    The ratio is exp((sum_i P[k_i] - P[|k|]) / 2), P[m] = log (s; s)_m,
    s = min(|q|, 1/|q|)^2.  P is summed in mpmath and held as integers in
    units of 2^-200, so the scan over every index adds exact integers.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(q_mod) ** (2 if q_mod < 1 else -2)
        logs = [mpmath.fsum(mpmath.log1p(-s**j) for j in range(1, m + 1)) for m in range(d_max + 1)]
        P = [int(mpmath.nint(mpmath.ldexp(v, 200))) for v in logs]
        sums = [sum(P[e] for e in k) - P[sum(k)] for k in multi_indices_up_to(n, d_max)]
        return tuple(float(mpmath.exp(mpmath.ldexp(v, -201))) for v in (min(sums), max(sums)))


@pytest.mark.parametrize("q_mod", [0.5, 3.0])
def test_weight_ratio_scan_extremes_match_mpmath(q_mod):
    # weight_law reads the log (s; s)_m table of log_pochhammer_table; the
    # jsr module's expm1-ratio table of log [m]_x! gives the same law but
    # puts these extremes 3e-15 to 8e-15 off, so the two tables stay separate
    scan = weight_ratio_scan(q_mod, 3, 50)
    lo, hi = mp_weight_ratio_extremes(q_mod, 3, 50)
    assert scan.min_ratio == pytest.approx(lo, rel=4.5e-16, abs=0)
    assert scan.max_ratio == pytest.approx(hi, rel=4.5e-16, abs=0)


@pytest.mark.parametrize("n", [0, -1])
def test_weight_ratio_scan_rejects_n_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        weight_ratio_scan(2.0, n, 5)


def test_overflowing_arithmetic_raises():
    tiny = QParameter(1e-200, 0.0)
    with pytest.raises(ValueError, match="double range"):
        tiny.power(-2)
    x2x1 = QElement(2, tiny, {(1, 1): 1e200}, cap=4)  # x2*x1 = q^-1 x1*x2
    with pytest.raises(ValueError, match="double range"):
        multiply(x2x1, x2x1)
