"""Expression grammar, round-trip formatting, and error positions."""

import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdomains.freeseries import FreeElement
from qdomains.parsing import (
    ParseError,
    format_free_element,
    format_qelement,
    parse_free_element,
    parse_qelement,
)
from qdomains.qcombinatorics import p_proj
from qdomains.qspace import QElement, QParameter, normal_order_word

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


@pytest.mark.parametrize(
    "n, cap, message", [(0, 8, "n must be >= 1"), (2, -1, "cap must be >= 0")], ids=["n", "cap"]
)
def test_n_and_cap_are_checked_before_the_text(n, cap, message):
    # the containers' own messages, not "outside 1..0" or "exceeds cap -1"
    for parse in (lambda t: parse_qelement(t, n, Q, cap), lambda t: parse_free_element(t, n, cap)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse("x1")


@pytest.mark.parametrize("exponent", ["1000000000000", "99999999999999999999"])
def test_huge_exponent_fails_on_the_cap_before_the_word_is_spelled_out(exponent):
    for parse in (lambda t: parse_qelement(t, 2, Q, 8), lambda t: parse_free_element(t, 2, 8)):
        with pytest.raises(ParseError, match=f"term degree {exponent} exceeds cap 8"):
            parse(f"x1^{exponent}")
        # the degree of the whole term, and only once the text has parsed
        with pytest.raises(ParseError, match=f"term degree {int(exponent) + 2} exceeds cap 8"):
            parse(f"x2*x1^{exponent}*x2")
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse(f"x1^{exponent} +")


# runs past Python's 4300-digit int() limit
@pytest.mark.parametrize(
    "var, message",
    [("x1^" + "9" * 5000, r"term degree above 10\^100 exceeds cap 8"), ("x" + "1" * 5000, r"outside 1\.\.2")],
    ids=["exponent", "index"],
)
def test_digit_runs_past_the_int_limit_are_parse_errors(var, message):
    for parse in (lambda t: parse_qelement(t, 2, Q, 8), lambda t: parse_free_element(t, 2, 8)):
        with pytest.raises(ParseError, match=message) as e:
            parse(var)
        assert e.value.position == 0
        with pytest.raises(ParseError, match=message) as e:
            parse("2 + " + var)
        assert e.value.position == 4


def test_leading_zeros_do_not_count_toward_a_digit_run():
    zeros = "0" * 4400
    assert format_qelement(parse_qelement(f"x1^{zeros}2", 2, Q, 8)) == "x1^2"
    assert format_free_element(parse_free_element(f"z{zeros}2^{zeros}2", 2, 8)) == "z2^2"


def test_degree_error_points_at_its_term():
    with pytest.raises(ParseError, match=r"term degree 9 exceeds cap 8") as e:
        parse_free_element("z1 - 2*z2^9*z1^0", 2, 8)
    assert e.value.position == 5
    with pytest.raises(ParseError, match=r"term degree above 10\^100") as e:
        parse_qelement("x1 + x2^1" + "0" * 100 + "*x1", 2, Q, 8)
    assert e.value.position == 5


def test_failed_coefficient_match_backtracks_in_linear_time():
    # each run of digits or blanks has one way to match, so a '(' that opens no
    # coefficient fails after one scan; an ambiguous NUMBER took k1*k2^2/2 steps here
    for text in ["(" + "1" * 5000 + "+" + "1" * 5000 + "x", "(" + " " * 5000 + "x"]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"unexpected character '\('"):
            parse_free_element(text, 2, 8)
        assert time.perf_counter() - start < 0.5


# every finite double, a zero part always +0.0: the formatter prints no sign
# of a zero part, and parsed or computed coefficients carry none
PART = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)
COEFF = st.builds(complex, PART, PART).filter(bool)


def bits(coefficients):
    return {k: (c.real.hex(), c.imag.hex()) for k, c in coefficients.items()}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    coeffs=st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), COEFF, max_size=5),
    phase=st.floats(min_value=0.0, max_value=6.28),
)
def test_round_trip_qelement(n, coeffs, phase):
    q = QParameter(0.5, phase)
    a = QElement(n, q, {k[:n]: c for k, c in coeffs.items()}, cap=9)
    back = parse_qelement(format_qelement(a), n, q, 9)
    assert bits(back.coefficients) == bits(a.coefficients)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    coeffs=st.dictionaries(
        st.lists(st.integers(1, 3), max_size=6).map(tuple), COEFF, max_size=5
    ),
)
def test_round_trip_free_element(n, coeffs):
    a = FreeElement(n, {tuple(min(x, n) for x in w): c for w, c in coeffs.items()}, cap=6)
    back = parse_free_element(format_free_element(a), n, 6)
    assert bits(back.coefficients) == bits(a.coefficients)


def coefficient_text(c: complex) -> str:
    """c as '(a+bi)', which reads back to the same bits."""
    return f"({c.real!r}{'-' if c.imag < 0 else '+'}{abs(c.imag)!r}i)"


# few short words, so that terms repeat, cancel, overflow and pass the cap
@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    cap=st.integers(min_value=2, max_value=6),
    free=st.booleans(),
    terms=st.lists(
        st.tuples(
            st.lists(st.integers(1, 3), max_size=5),
            st.builds(complex, PART, PART) | st.sampled_from([1.0, -1.0, 1e308, -1e308, 1e308j]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_parse_equals_the_constructor_on_the_same_mapping(n, cap, free, terms):
    q = QParameter(0.7, 2.0)
    written, mapping = [], {}
    for letters, c in terms:
        word = tuple(min(x, n) for x in letters)
        if free:
            key, variables = word, [f"z{x}" for x in word]
        else:  # a normal-ordered word: the coefficient takes no power of q
            key = p_proj(word, n)
            variables = [f"x{i + 1}^{e}" for i, e in enumerate(key) if e]
        written.append("*".join([coefficient_text(c), *variables]))
        mapping[key] = mapping.get(key, 0j) + c  # terms add in written order
    text = " + ".join(written)
    parse = (lambda: parse_free_element(text, n, cap)) if free else (lambda: parse_qelement(text, n, q, cap))
    build = (lambda: FreeElement(n, mapping, cap=cap)) if free else (lambda: QElement(n, q, mapping, cap=cap))
    try:
        want = build()
    except ValueError:  # a key past the cap, or a sum past double range
        with pytest.raises(ValueError):
            parse()
        return
    got = parse()
    assert (type(got), got.n, got.cap, got.saturated) == (type(want), n, cap, False)
    assert bits(got.coefficients) == bits(want.coefficients)
    assert all(c != 0 for c in got.coefficients.values())
    assert all(type(k) is tuple and all(type(e) is int for e in k) for k in got.coefficients)
    if not free:
        assert got.q is q


# (text, coefficient of each word); every word is normal-ordered, so the
# q-commuting value is the same at every q
ACCEPTED = [
    ("3 i*x1", {(1,): 3j}),
    ("(2i+3i)", {(): 5j}),
    ("( - 2 )", {(): -2}),
    (".5e-3i", {(): 0.5e-3j}),
    ("i", {(): 1j}),
    ("-i*x1", {(1,): -1j}),
    ("+x1", {(1,): 1}),
    ("x1^0*x2", {(2,): 1}),
    ("(1-2i)*(3+1i)", {(): 5 - 5j}),
    ("x1 ^2", {(1, 1): 1}),
    ("2. i", {(): 2j}),
    ("x1*2", {(1,): 2}),
    ("-(1+1i)", {(): -1 - 1j}),
    ("(3 i - 2 i)", {(): 1j}),
    ("x01", {(1,): 1}),
    ("x1^02", {(1, 1): 1}),
    ("1E5", {(): 1e5}),
    ("0*x1", {}),
    ("x1 - x1", {}),
]


@pytest.mark.parametrize("text, words", ACCEPTED)
def test_accepted_language(text, words):
    assert parse_free_element(text, 2, 4).coefficients == words
    want = {p_proj(w, 2): c for w, c in words.items()}
    assert parse_qelement(text, 2, QParameter(0.7, 2.0), 4).coefficients == want


REJECTED = [
    # cli-mix's invalid texts
    "x1*+x2", "(1+2i*x1", "x1^", "2**x1", "x1 $ x2",
    "(i)", "(1+2)", "((1))", "2(3)", "x1 x2", "x1^2.5", "x1^-1", "- -x1",
    "I", "x0", "", "   ", "+",
]


@pytest.mark.parametrize("text", REJECTED)
def test_rejected_language(text):
    for parse in (lambda: parse_qelement(text, 2, Q, 8), lambda: parse_free_element(text, 2, 8)):
        with pytest.raises(ParseError) as e:
            parse()
        assert 0 <= e.value.position <= len(text)


@pytest.mark.parametrize(
    "text, char, hint",
    [
        ("(1+2i*x1", "(", "(a+bi)"),
        ("(i)", "(", "(a+bi)"),
        ("(1+2)", "(", "(a+bi)"),
        ("((1))", "(", "(a+bi)"),
        ("(1+2j)", "(", "(a+bi)"),
        ("x1^", "^", "nonnegative integer"),
        ("x1^-1", "^", "nonnegative integer"),
    ],
)
def test_malformed_parenthesis_and_exponent_name_the_form(text, char, hint):
    with pytest.raises(ParseError, match=re.escape(f"unexpected character '{char}'")) as e:
        parse_qelement(text, 2, Q, 8)
    assert hint in str(e.value)
    assert e.value.position == text.index(char)


Q_MODULI = st.sampled_from([1e-3, 0.3, 0.9, 1.0, 1.1, 4.0, 1e3])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    letters=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    modulus=Q_MODULI,
    phase=st.floats(min_value=0.0, max_value=6.28),
)
def test_normal_order_matches_rewriting_oracle(n, letters, modulus, phase):
    q = QParameter(modulus, phase)
    word = tuple(min(x, n) for x in letters)
    a = parse_qelement("*".join(f"x{x}" for x in word), n, q, 6)
    coeff, key = normal_order_word(word, q, n)
    assert set(a.coefficients) == {key}
    assert abs(a.coefficient(key) - coeff) <= 1e-13 * abs(coeff)


def test_formatting_style():
    a = QElement(2, Q, {(1, 1): 1.0, (0, 0): -2.0}, cap=4)
    s = format_qelement(a)
    assert s == "-2.0 + x1*x2"
    z = format_free_element(parse_free_element("z2*z2*z1", 2, 6))
    assert z == "z2^2*z1"  # runs collapse to powers
    assert format_qelement(QElement(2, Q, cap=2)) == "0"


def test_long_variable_index_is_quoted_short():
    # the error names the first digits and the run's length, not 5000 digits
    for text, position in [("x" + "1" * 5000, 0), ("2 + x" + "1" * 5000 + "^3", 4)]:
        with pytest.raises(ParseError) as e:
            parse_qelement(text, 2, Q, 8)
        message = str(e.value)
        assert len(message) < 120 and e.value.position == position
        assert message.startswith("variable 'x11111111'... (5000-digit index) outside 1..2")
    with pytest.raises(ParseError, match=r"^variable 'x12345678' outside 1\.\.2 \(at position 0\)$"):
        parse_free_element("x12345678", 2, 8)
