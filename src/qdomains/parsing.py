"""Expression parsing for the CLI and the formatters inverse to it.

One regular expression cuts the text into tokens.  Whitespace may stand
between tokens and, inside one, before 'i', around '^' and in parentheses:

    var    ('x'|'z') INT ['^' INT]          1-based index, exponent >= 0
    coeff  NUMBER ['i'] | 'i' | '(' ['+'|'-'] NUMBER ['i'] [('+'|'-') NUMBER 'i'] ')'
    op     '+' | '-' | '*'                  any other character is an error

NUMBER is a decimal with an optional exponent (2, 2.5, .5, 1e-3).  The
tokens read as  expr := ['+'|'-'] term (('+'|'-') term)*  with
term := (coeff | var) ('*' (coeff | var))*.  A term's coefficients commute
into one; its variables keep their written order, the term's word.  The
free algebra takes the word as it stands, the q-commuting algebra its normal
form q^(-inv w) x^(p(w)); the terms then add in written order.  The
formatters print coefficients by repr, so their output reparses to the
identical element.
"""

from __future__ import annotations

import cmath
import math
import re
from itertools import groupby

from .freeseries import FreeElement
from .qspace import QElement, QParameter, finite


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# one way to match each run of digits or blanks, so a failed match backtracks
# in linear time
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# each alternative is one outer group, so ``lastgroup`` names the token kind;
# '(' opens a coefficient only if it closes, '^' an exponent only if no '.',
# 'e' or digit follows the integer (x1^2.5 is an error, not x1^2 times .5)
_TOKEN_RE = re.compile(
    rf"(?P<var>[xz](?P<index>\d+)(?:\s*\^\s*(?P<exp>\d+)(?![\d.eE]))?)"
    rf"|(?P<coeff>(?P<open>\(\s*(?:(?P<sign>[+-])\s*)?)?(?P<first>{_NUMBER})(?P<first_i>\s*i)?"
    rf"(?(open)(?:\s*(?P<sign2>[+-])\s*(?P<second>{_NUMBER})\s*i)?\s*\))|i)"
    r"|(?P<op>[-+*])"
    r"|(?P<bad>\S)"
)
# an exponent whose digit run, leading zeros dropped, is longer than this is
# read as inf: it exceeds every usable cap, and Python refuses int() on runs
# past 4300 digits
_MAX_DIGITS = 100
# an error quotes at most this many digits of a variable's index
_QUOTED_DIGITS = 8
_HINTS = {
    "(": ": parentheses hold one coefficient, (a), (ai), (a+bi) or (a-bi)",
    "^": ": an exponent is a nonnegative integer",
}


def _real(m: re.Match, group: str, digits: str, sign: str | None) -> float:
    value = float(digits)
    if not math.isfinite(value):
        raise ParseError(f"number {digits!r} leaves the double range", m.start(group))
    return -value if sign == "-" else value


def _coefficient(m: re.Match) -> complex:
    first, first_i, sign, second, sign2 = m.group("first", "first_i", "sign", "second", "sign2")
    if first is None:
        return 1j
    a = _real(m, "first", first, sign)
    b = _real(m, "second", second, sign2) if second else 0.0
    return complex(0.0, a + b) if first_i else complex(a, b)


def _quoted_variable(m: re.Match) -> str:
    """The variable token quoted, a long index cut to its first digits and its length."""
    run = m.group("index")
    shown = m.group()[0] + run[:_QUOTED_DIGITS]
    return f"{shown!r}... ({len(run)}-digit index)" if len(run) > _QUOTED_DIGITS else repr(shown)


def _terms(text: str, n: int, cap: int) -> list[tuple[complex, list[int]]]:
    """(coefficient, word) of each term in written order, the word its letters as written.

    Digit runs are read without their leading zeros; one with more digits
    than any admissible value is refused, or read as inf, before int() sees
    it.  Every term's degree is checked against the cap before any word is
    spelled out, so a huge exponent is only a number; the error points at
    the term's first coefficient or variable.
    """
    tokens = list(_TOKEN_RE.finditer(text))
    bad = next((m for m in tokens if m.lastgroup == "bad"), None)
    if bad is not None:
        char = bad.group()
        raise ParseError(f"unexpected character {char!r}{_HINTS.get(char, '')}", bad.start())
    index_digits = len(str(n))
    terms = []
    coeff, word, deg, start = 1.0 + 0j, [], 0, None
    atom_next = True  # at the start, after a sign and after '*'
    for at, m in enumerate(tokens):
        kind = m.lastgroup
        if kind == "op":
            tok = m.group()
            if atom_next and (at or tok == "*"):  # only the first token may be a bare sign
                raise ParseError(f"unexpected token {tok!r}", m.start())
            if tok != "*":
                if at:
                    terms.append((coeff, word, deg, start))
                coeff, word, deg, start = (-1.0 + 0j if tok == "-" else 1.0 + 0j), [], 0, None
            atom_next = True
            continue
        if not atom_next:
            raise ParseError(f"unexpected token {m.group()!r}", m.start())
        atom_next = False
        if start is None:
            start = m.start()
        if kind == "var":
            run, exp = m.group("index", "exp")
            digits = run.lstrip("0")
            index = int(digits or 0) if len(digits) <= index_digits else n + 1
            if not 1 <= index <= n:
                raise ParseError(f"variable {_quoted_variable(m)} outside 1..{n}", m.start())
            digits = (exp or "1").lstrip("0")
            e = int(digits or 0) if len(digits) <= _MAX_DIGITS else math.inf
            word.append((index, e))
            deg += e
            continue
        coeff *= _coefficient(m)
        if not cmath.isfinite(coeff):
            raise ParseError("coefficient product leaves the double range", m.start())
    if atom_next:
        raise ParseError("unexpected end of input", len(text))
    terms.append((coeff, word, deg, start))
    for _, _, degree, pos in terms:
        if degree > cap:
            shown = degree if degree < math.inf else f"above 10^{_MAX_DIGITS}"
            raise ParseError(f"term degree {shown} exceeds cap {cap}", pos)
    return [(c, [letter for letter, e in powers for _ in range(e)]) for c, powers, _, _ in terms]


def _normal_form(c: complex, word: list[int], q: QParameter, n: int) -> tuple[tuple, complex]:
    """c times the word, normal-ordered: x^(p(w)) and its coefficient q^(-inv w) c.

    Each letter moves past the greater letters written before it, a factor
    q^(-count) per letter, left to right: the same products, roundings and
    range errors as building the word from generators one letter at a time.
    """
    counts = [0] * (n + 1)
    for letter in word:
        passed = sum(counts[letter + 1 :])
        counts[letter] += 1
        if passed and c:  # 0 stays 0: no power of q, so no range error
            c = finite(c * q.power(-passed))
    return tuple(counts[1:]), c


def parse_qelement(text: str, n: int, q: QParameter, cap: int) -> QElement:
    """Parse in the q-commuting algebra; each written word goes to its normal form."""
    a = QElement(n, q, cap=cap)  # n, q and cap are checked before the text is read
    return a._sum((_normal_form(c, word, q, n) for c, word in _terms(text, n, cap)), False)


def parse_free_element(text: str, n: int, cap: int) -> FreeElement:
    """Parse in the free algebra; variable order becomes the word."""
    a = FreeElement(n, cap=cap)  # n and cap are checked before the text is read
    return a._sum(((tuple(word), c) for c, word in _terms(text, n, cap)), False)


# ---------------------------------------------------------------------------
# formatting


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{sign}{abs(c.imag)!r}i)"


def _one_term(c: complex, mono: str) -> str:
    if not mono:
        return _fmt_coeff(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{_fmt_coeff(c)}*{mono}"


def _joined(terms) -> str:
    """The (coefficient, monomial text) terms joined by signs, or '0'."""
    # no term's text holds a blank, so ' + -' only stands where two terms meet
    text = " + ".join(_one_term(c, mono) for c, mono in terms)
    return text.replace(" + -", " - ") if text else "0"


def _power(letter: str, e: int) -> str:
    return letter if e == 1 else f"{letter}^{e}"


def format_qelement(a: QElement) -> str:
    return _joined(
        (c, "*".join(_power(f"x{i}", e) for i, e in enumerate(k, 1) if e)) for k, c in a.items()
    )


def format_free_element(a: FreeElement) -> str:
    return _joined(
        (c, "*".join(_power(f"z{x}", len(list(run))) for x, run in groupby(w)))
        for w, c in a.items()
    )
