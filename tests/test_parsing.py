"""Expression grammar, round-trip formatting, and error positions."""

import math

import pytest

from qdomains.parsing import (
    ParseError,
    format_free_element,
    format_qelement,
    parse_free_element,
    parse_qelement,
)
from qdomains.qspace import QElement, QParameter

Q = QParameter(0.5, 0.0)


def test_simple_monomials():
    a = parse_qelement("x1*x2", 2, Q, 8)
    assert a.coefficient((1, 1)) == pytest.approx(1.0 + 0j)
    b = parse_qelement("x1^3", 2, Q, 8)
    assert b.coefficient((3, 0)) == pytest.approx(1.0 + 0j)
    c = parse_qelement("2.5*x2", 2, Q, 8)
    assert c.coefficient((0, 1)) == pytest.approx(2.5 + 0j)


def test_signs_and_constants():
    a = parse_qelement("-x1 + 2 - 0.5*x2", 2, Q, 8)
    assert a.coefficient((1, 0)) == pytest.approx(-1.0 + 0j)
    assert a.coefficient((0, 0)) == pytest.approx(2.0 + 0j)
    assert a.coefficient((0, 1)) == pytest.approx(-0.5 + 0j)


def test_complex_coefficients():
    a = parse_qelement("3i*x1 + (1+2i)*x2 + (2-1i)", 2, Q, 8)
    assert a.coefficient((1, 0)) == pytest.approx(3j)
    assert a.coefficient((0, 1)) == pytest.approx(1 + 2j)
    assert a.coefficient((0, 0)) == pytest.approx(2 - 1j)
    b = parse_qelement("i*x1 - i", 2, Q, 8)
    assert b.coefficient((1, 0)) == pytest.approx(1j)
    assert b.coefficient((0, 0)) == pytest.approx(-1j)


def test_variable_order_uses_the_relations():
    # x2*x1 reorders with a 1/q factor
    a = parse_qelement("x2*x1", 2, Q, 8)
    assert a.coefficient((1, 1)) == pytest.approx(2.0 + 0j)


def test_unit_modulus_phase_collapse():
    # at q = i the antisymmetrised pair cancels to within float rounding
    qi = QParameter(1.0, math.pi / 2.0)
    a = parse_qelement("x1*x2 - (0+1i)*x2*x1", 2, qi, 8)
    assert all(abs(c) <= 1e-15 for c in a.coefficients.values())


def test_free_mode_keeps_word_order():
    a = parse_free_element("z1*z2 - z2*z1", 2, 8)
    assert a.coefficient((1, 2)) == pytest.approx(1.0 + 0j)
    assert a.coefficient((2, 1)) == pytest.approx(-1.0 + 0j)
    b = parse_free_element("z2^2*z1", 2, 8)
    assert b.coefficient((2, 2, 1)) == pytest.approx(1.0 + 0j)
    # x letters are tolerated as synonyms on input
    c = parse_free_element("x1*x2", 2, 8)
    assert c.coefficient((1, 2)) == pytest.approx(1.0 + 0j)


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_qelement("x3", 2, Q, 8)
    assert e.value.position == 0
    assert "outside 1..2" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_qelement("x1 + x2*x9", 2, Q, 8)
    assert e.value.position == 8
    with pytest.raises(ParseError) as e:
        parse_qelement("(1+2j)", 2, Q, 8)
    assert "unexpected character" in str(e.value)
    with pytest.raises(ParseError):
        parse_qelement("x1^2.5", 2, Q, 8)
    with pytest.raises(ParseError):
        parse_qelement("x1*", 2, Q, 8)
    with pytest.raises(ParseError):
        parse_qelement("", 2, Q, 8)


def test_non_finite_numbers_are_rejected():
    with pytest.raises(ParseError, match="double range") as e:
        parse_qelement("x1 + 1e999*x2", 2, Q, 8)
    assert e.value.position == 5
    with pytest.raises(ParseError, match="double range"):
        parse_qelement("(1+1e999i)*x1", 2, Q, 8)
    with pytest.raises(ParseError, match="double range"):
        parse_free_element("1e200*z1*1e200", 2, 8)


def test_degree_cap_is_checked():
    with pytest.raises(ParseError):
        parse_qelement("x1^9", 2, Q, 8)
    assert parse_qelement("x1^8", 2, Q, 8).degree() == 8


def test_round_trip_qelement():
    for text in ["x1*x2", "2.5*x1^2 - x2", "3i*x1 + (1+2i)*x2^3 - 0.5"]:
        a = parse_qelement(text, 2, Q, 10)
        back = parse_qelement(format_qelement(a), 2, Q, 10)
        assert back.coefficients == a.coefficients


def test_round_trip_free_element():
    for text in ["z1*z2 - z2*z1", "2*z1^2*z2*z1", "i*z2 + (1-1i)"]:
        a = parse_free_element(text, 2, 10)
        back = parse_free_element(format_free_element(a), 2, 10)
        assert back.coefficients == a.coefficients


def test_formatting_style():
    a = QElement(2, Q, {(1, 1): 1.0, (0, 0): -2.0}, cap=4)
    s = format_qelement(a)
    assert s == "-2.0 + x1*x2"
    z = format_free_element(parse_free_element("z2*z2*z1", 2, 6))
    assert z == "z2^2*z1"  # runs collapse to powers
    assert format_qelement(QElement.zero(2, Q, cap=2)) == "0"
