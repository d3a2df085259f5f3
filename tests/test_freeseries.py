"""Free-algebra series: arithmetic, norms, radius, operator evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdomains import freeseries
from qdomains.qspace import IncompatibilityError
from qdomains.freeseries import (
    FreeElement,
    OperatorTuple,
    concat_multiply,
    estimated_radius,
    evaluate,
    free_ball_norm,
    free_polydisk_norm,
    radius_partials,
    taylor_norm,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()


def test_concat_multiply_assembles_words():
    a = FreeElement(2, {(1,): 2.0, (2,): 1j}, cap=6)
    b = FreeElement(2, {(1, 2): 1.0, (): -1.0}, cap=6)
    p = concat_multiply(a, b)
    assert p.coefficient((1, 1, 2)) == pytest.approx(2.0 + 0j)
    assert p.coefficient((2, 1, 2)) == pytest.approx(1j)
    assert p.coefficient((1,)) == pytest.approx(-2.0 + 0j)
    assert p.coefficient((2,)) == pytest.approx(-1j)
    one = FreeElement.unit(2, cap=6)
    q = concat_multiply(one, a)
    assert q.coefficients == a.coefficients


def test_concat_multiply_is_associative():
    a = FreeElement(2, {(1,): 1.0, (2, 2): 0.5j}, cap=10)
    b = FreeElement(2, {(2,): -1.0, (): 2.0}, cap=10)
    c = FreeElement(2, {(1, 2): 1.0 + 1j}, cap=10)
    lhs = concat_multiply(concat_multiply(a, b), c)
    rhs = concat_multiply(a, concat_multiply(b, c))
    assert lhs.coefficients.keys() == rhs.coefficients.keys()
    for w in lhs.coefficients:
        assert lhs.coefficient(w) == pytest.approx(rhs.coefficient(w), rel=1e-13)


def test_cap_saturation_on_words():
    a = FreeElement.word(2, (1, 2), cap=3)
    b = FreeElement.word(2, (2, 1), cap=3)
    p = concat_multiply(a, b)  # degree 4 > cap
    assert p.is_zero() and p.saturated
    with pytest.raises(ValueError):
        FreeElement(2, {(1, 1, 1, 1): 1.0}, cap=3)


def test_norm_of_unit_is_one_in_every_family():
    one = FreeElement.unit(3, cap=4)
    # the empty word has block count 0, so tau does not touch the unit
    assert free_polydisk_norm(one, 0.5, 7.0) == pytest.approx(1.0)
    assert taylor_norm(one, 0.5) == pytest.approx(1.0)
    assert free_ball_norm(one, 0.5) == pytest.approx(1.0)


def test_norms_skip_coefficients_that_underflowed_to_zero():
    tiny = FreeElement.word(2, (1, 2), 1e-300, cap=4).scaled(1e-300)
    assert tiny.is_zero()
    assert free_polydisk_norm(tiny, 0.5, 2.0) == taylor_norm(tiny, 0.5) == free_ball_norm(tiny, 0.5) == 0.0


def test_free_polydisk_norm_counts_blocks():
    rho, tau = 0.5, 3.0
    w = FreeElement.word(2, (1, 1, 2, 1), cap=8)  # 3 maximal constant blocks
    assert free_polydisk_norm(w, rho, tau) == pytest.approx(rho ** 4 * tau ** 3, rel=1e-14)
    assert taylor_norm(w, rho) == pytest.approx(rho ** 4, rel=1e-14)
    with pytest.raises(ValueError):
        free_polydisk_norm(w, rho, 0.9)


def test_free_ball_norm_is_l2_per_fiber():
    # two words in one fiber, one alone: sqrt(4+9)*rho^2 + 5*rho^2
    a = FreeElement(2, {(1, 2): 2.0, (2, 1): 3j, (1, 1): 5.0}, cap=4)
    got = free_ball_norm(a, 0.5)
    assert got == pytest.approx((math.sqrt(13.0) + 5.0) * 0.25, rel=1e-14)


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=2), min_size=0, max_size=4).map(tuple),
            st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        ),
        max_size=6,
    )
)
def test_norm_triangle_and_scaling(pairs):
    coeffs = {}
    for w, c in pairs:
        coeffs[w] = coeffs.get(w, 0j) + c
    a = FreeElement(2, coeffs, cap=4)
    b = FreeElement(2, {(1, 2): 1.0, (): -2.0}, cap=4)
    for norm in (lambda e: free_polydisk_norm(e, 0.7, 2.0),
                 lambda e: taylor_norm(e, 0.7),
                 lambda e: free_ball_norm(e, 0.7)):
        na, nb, nsum = norm(a), norm(b), norm(a + b)
        assert nsum <= na + nb + 1e-9
        assert norm(a.scaled(3j)) == pytest.approx(3.0 * na, rel=1e-9, abs=1e-12)


def test_norms_are_submultiplicative_spot():
    a = FreeElement(2, {(1,): 1.0, (2, 1): -2j}, cap=8)
    b = FreeElement(2, {(2,): 0.5, (1, 1): 1.0}, cap=8)
    p = concat_multiply(a, b)
    assert taylor_norm(p, 0.8) <= taylor_norm(a, 0.8) * taylor_norm(b, 0.8) + 1e-12
    assert free_polydisk_norm(p, 0.8, 2.0) <= (
        free_polydisk_norm(a, 0.8, 2.0) * free_polydisk_norm(b, 0.8, 2.0) + 1e-12
    )
    assert free_ball_norm(p, 0.8) <= free_ball_norm(a, 0.8) * free_ball_norm(b, 0.8) + 1e-12


def test_radius_partials_geometric():
    # |c| = 2^d on a single word per degree: every partial equals 2
    coeffs = {tuple([1] * d): 2.0 ** d for d in range(1, 7)}
    a = FreeElement(1, coeffs, cap=6, saturated=True)
    partials = radius_partials(a)
    assert [d for d, _ in partials] == [1, 2, 3, 4, 5, 6]
    for _, v in partials:
        assert v == pytest.approx(2.0, rel=1e-14)
    assert estimated_radius(a) == pytest.approx(0.5, rel=1e-14)


def test_radius_infinite_for_polynomials():
    a = FreeElement(2, {(1, 2): 100.0}, cap=8)
    assert not a.saturated
    assert estimated_radius(a) == math.inf


def test_radius_partials_skip_empty_degrees():
    a = FreeElement(2, {(1,): 1.0, (1, 2, 1): 8.0}, cap=8)
    assert [d for d, _ in radius_partials(a)] == [1, 3]
    assert radius_partials(a)[1][1] == pytest.approx(8.0 ** (1.0 / 3.0), rel=1e-14)


def test_radius_partials_are_range_safe():
    # |c|^2 = 1e616 is not a double, but (1e616)^(1/4) = 1e154 is
    a = FreeElement(2, {(1,): 1.0, (1, 2): 1e308, (2, 1): 1e308}, cap=4)
    (_, r1), (_, r2) = radius_partials(a)
    assert r1 == 1.0
    assert r2 == pytest.approx(2.0 ** 0.25 * 1e154, rel=1e-14)
    tiny = FreeElement(1, {(1, 1): 1e-300}, cap=2)
    assert radius_partials(tiny)[0][1] == pytest.approx(1e-150, rel=1e-14, abs=0)


def test_non_finite_free_coefficients_are_rejected():
    big = FreeElement(2, {(1,): 1e300}, cap=4)
    with pytest.raises(ValueError, match="double range"):
        concat_multiply(big, big)


def test_evaluate_matrix_units():
    a = FreeElement.word(2, (1, 2), cap=4)
    T = OperatorTuple((E12, E21))
    out = evaluate(a, T)
    assert np.allclose(out, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert freeseries._row_norm(T) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(IncompatibilityError):
        evaluate(FreeElement.unit(3, cap=2), T)


def test_evaluate_warns_outside_radius():
    coeffs = {tuple([1] * d): 2.0 ** d for d in range(1, 5)}
    a = FreeElement(1, coeffs, cap=4, saturated=True)
    T = OperatorTuple((np.eye(2, dtype=complex),))  # row norm 1 >= radius 0.5
    with pytest.warns(RuntimeWarning):
        evaluate(a, T)


def test_operator_tuple_validation():
    with pytest.raises(ValueError):
        OperatorTuple(())
    with pytest.raises(ValueError):
        OperatorTuple((np.zeros((2, 3)),))
    with pytest.raises(ValueError):
        OperatorTuple((np.zeros((2, 2)), np.zeros((3, 3))))
