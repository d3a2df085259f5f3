"""Expression parsing for the CLI and the formatters inverse to it.

Grammar (whitespace-insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := atom ('*' atom)*
    atom   := coeff | var ['^' INT]
    coeff  := NUMBER | NUMBER 'i' | 'i' | '(' signed [('+'|'-') NUMBER 'i'] ')'
    var    := ('x'|'z') INT          indices are 1-based

Scalar atoms commute and multiply into the term coefficient; variable
atoms keep their written order, which matters for both the q-commuting
and the free product.  `format_qelement` / `format_free_element` emit
strings that reparse to the identical element (coefficients printed via
repr round-trip).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from itertools import groupby

from .freeseries import FreeElement
from .qspace import QElement, QParameter, multiply


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # "var" | "number" | "op"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<var>[xz]\d+)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<op>[-+*^()i])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        assert kind is not None
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


#: a parsed term: (coefficient, [(variable index, exponent), ...] in written order)
_Term = tuple[complex, list[tuple[int, int]]]


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def _at_op(self, *ops: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "op" and tok.text in ops

    def parse(self) -> list[_Term]:
        terms: list[_Term] = []
        sign = 1.0
        if self._at_op("+", "-"):
            sign = -1.0 if self._next().text == "-" else 1.0
        while True:
            coeff, factors = self._term()
            terms.append((sign * coeff, factors))
            if self._at_op("+", "-"):
                sign = -1.0 if self._next().text == "-" else 1.0
                continue
            break
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        if not terms:
            raise ParseError("empty expression", 0)
        return terms

    def _number(self, tok: _Token) -> float:
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(f"number {tok.text!r} leaves the double range", tok.pos)
        return value

    def _term(self) -> _Term:
        coeff = complex(1.0)
        factors: list[tuple[int, int]] = []
        while True:
            coeff *= self._atom(factors)
            if not cmath.isfinite(coeff):
                raise ParseError(
                    "coefficient product leaves the double range", self.tokens[self.i - 1].pos
                )
            if self._at_op("*"):
                self._next()
                continue
            break
        return coeff, factors

    def _atom(self, factors: list[tuple[int, int]]) -> complex:
        tok = self._next()
        if tok.kind == "number":
            if self._at_op("i"):
                self._next()
                return self._number(tok) * 1j
            return complex(self._number(tok))
        if tok.kind == "op" and tok.text == "i":
            return 1j
        if tok.kind == "op" and tok.text == "(":
            value = self._paren_coeff(tok.pos)
            return value
        if tok.kind == "var":
            letter_index = int(tok.text[1:])
            if not 1 <= letter_index <= self.n:
                raise ParseError(
                    f"variable {tok.text!r} outside 1..{self.n}", tok.pos
                )
            exponent = 1
            if self._at_op("^"):
                self._next()
                etok = self._next()
                if etok.kind != "number" or not etok.text.isdigit():
                    raise ParseError("exponent must be a nonnegative integer", etok.pos)
                exponent = int(etok.text)
            if exponent > 0:
                factors.append((letter_index, exponent))
            return complex(1.0)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _paren_coeff(self, open_pos: int) -> complex:
        sign = 1.0
        if self._at_op("+", "-"):
            sign = -1.0 if self._next().text == "-" else 1.0
        tok = self._next()
        if tok.kind != "number":
            raise ParseError("expected a number inside parentheses", tok.pos)
        first = sign * self._number(tok)
        value = complex(first)
        if self._at_op("i"):
            self._next()
            value = first * 1j
        if self._at_op("+", "-"):
            sign2 = -1.0 if self._next().text == "-" else 1.0
            tok2 = self._next()
            if tok2.kind != "number":
                raise ParseError("expected a number for the imaginary part", tok2.pos)
            itok = self._next()
            if not (itok.kind == "op" and itok.text == "i"):
                raise ParseError("imaginary part must end in 'i'", itok.pos)
            value = complex(value.real, value.imag + sign2 * self._number(tok2))
        close = self._next()
        if not (close.kind == "op" and close.text == ")"):
            raise ParseError("unbalanced parenthesis", open_pos)
        return value


def _term_degree_check(terms: list[_Term], cap: int) -> None:
    for _, factors in terms:
        total = sum(e for _, e in factors)
        if total > cap:
            raise ParseError(f"term degree {total} exceeds cap {cap}")


def parse_qelement(text: str, n: int, q: QParameter, cap: int) -> QElement:
    """Parse in the q-commuting algebra; products normal-order as they fold."""
    terms = _Parser(text, n).parse()
    _term_degree_check(terms, cap)
    gens = [QElement.generator(n, q, i, cap=cap) for i in range(1, n + 1)]
    acc = QElement.zero(n, q, cap=cap)
    for coeff, factors in terms:
        part = QElement.unit(n, q, cap=cap).scaled(coeff)
        for letter_index, exponent in factors:
            for _ in range(exponent):
                part = multiply(part, gens[letter_index - 1])
        acc = acc + part
    return acc


def parse_free_element(text: str, n: int, cap: int) -> FreeElement:
    """Parse in the free algebra; variable order becomes the word."""
    terms = _Parser(text, n).parse()
    _term_degree_check(terms, cap)
    acc = FreeElement.zero(n, cap=cap)
    for coeff, factors in terms:
        letters: list[int] = []
        for letter_index, exponent in factors:
            letters.extend([letter_index] * exponent)
        acc = acc + FreeElement.word(n, letters, coeff, cap=cap)
    return acc


# ---------------------------------------------------------------------------
# formatting


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _fmt_float(c.real)
    if c.real == 0.0:
        return f"{_fmt_float(c.imag)}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i)"


def _fmt_powers(pairs: list[tuple[int, int]], letter: str = "x") -> str:
    return "*".join(
        f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}" for i, e in pairs
    )


def _join_terms(parts: list[str]) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def _one_term(c: complex, mono: str) -> str:
    if not mono:
        return _fmt_coeff(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{_fmt_coeff(c)}*{mono}"


def format_qelement(a: QElement) -> str:
    parts = []
    for k, c in a.items():
        pairs = [(i + 1, e) for i, e in enumerate(k) if e > 0]
        parts.append(_one_term(c, _fmt_powers(pairs)))
    return _join_terms(parts)


def format_free_element(a: FreeElement) -> str:
    parts = []
    for w, c in a.items():
        pairs = [(letter, len(list(run))) for letter, run in groupby(w)]
        parts.append(_one_term(c, _fmt_powers(pairs, "z")))
    return _join_terms(parts)
