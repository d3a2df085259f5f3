"""Truncated elements of the q-commuting coordinate algebra and their seminorms.

Elements are stored on the normal-ordered monomial basis x^k =
x_1^{k_1} ... x_n^{k_n}; the generators satisfy x_i x_j = q x_j x_i for
i < j.  Products above the degree cap are dropped and the element is
marked saturated; norms of saturated elements are lower bounds for the
untruncated values.

:func:`multiply` hands the container's product loop the closed form
x^k x^m = q^e(k,m) x^(k+m), with e from :func:`normal_order_exponent`.
The normal-ordering suite runs that same function on the index columns of
all monomial pairs of an n at once, against the rewriting oracle
:func:`normal_order_word`.  The rewriting does not depend on q, so the
suite rewrites each word once, matches exponents to swap counts as integers,
and calls the oracle once per q and swap count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Mapping

import numpy as np

from .qcombinatorics import (
    MultiIndex,
    Word,
    as_multi_index,
    check_positive,
    checked_power,
    compositions_up_to,
    cross_degree_sum,
    degree,
    p_proj,
    sum_of_terms,
    weight_law,
)

_TWO_PI = 2.0 * math.pi


class IncompatibilityError(ValueError):
    """Raised when combining elements of different classes, n, q, or degree cap."""


@dataclass(frozen=True)
class QParameter:
    """Deformation parameter q kept in polar form.

    Storing modulus and phase separately keeps |q| exact in the weight
    formulas (abs() of a complex would lose digits) and makes integer
    powers q**e cheap and stable.
    """

    modulus: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_positive("modulus", self.modulus)
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "modulus", float(self.modulus))
        object.__setattr__(self, "phase", float(self.phase) % _TWO_PI)

    @property
    def value(self) -> complex:
        return self.modulus * cmath.exp(1j * self.phase)

    def power(self, e: int) -> complex:
        """q**e with exact modulus |q|**e and exact phase e*arg(q) mod 2pi."""
        return checked_power(self.modulus, e) * cmath.exp(1j * ((e * self.phase) % _TWO_PI))

    def inverse(self) -> "QParameter":
        return QParameter(1.0 / self.modulus, -self.phase)


def normal_order_exponent(k: MultiIndex, m: MultiIndex) -> int:
    """Integer e with x^k x^m = q**e x^(k+m); equals -sum_{i<j} k_j m_i.

    Also takes the columns ``K.T`` of int arrays, one pair per column.
    """
    total = 0
    prefix = 0  # sum of m_i over i < current position
    for i in range(len(k)):
        total += k[i] * prefix
        prefix += m[i]
    return -total


def _rewrite_word(word: Word, n: int) -> tuple[int, MultiIndex]:
    """Swaps made and normal-ordered key reached by rewriting a generator word.

    Applies the defining relation literally: an adjacent descent
    x_j x_i (j > i) is swapped to x_i x_j.  One left-to-right insertion
    pass makes the swaps: each letter moves left past the greater letters
    before it, one swap at a time, which is the order in which repeatedly
    swapping the first descent makes them.  Neither the swaps nor the key
    depend on q.
    """
    letters: list[int] = []
    swaps = 0
    for letter in word:
        s = len(letters)
        while s and letters[s - 1] > letter:
            s -= 1
            swaps += 1
        letters.insert(s, letter)
    return swaps, p_proj(tuple(letters), n)


def normal_order_word(word: Word, q: QParameter, n: int) -> tuple[complex, MultiIndex]:
    """Brute-force rewriting oracle for the normal form of a generator word.

    Each swap of :func:`_rewrite_word` costs one factor q^(-1), multiplied
    into the coefficient one swap at a time.  Kept as the independent
    reference for the closed form used by :func:`multiply`; do not use in
    hot paths.
    """
    swaps, key = _rewrite_word(word, n)
    coeff = 1.0 + 0.0j
    q_inv = q.power(-1)
    for _ in range(swaps):
        coeff *= q_inv
    return coeff, key


def finite(c: complex) -> complex:
    """c itself; ValueError when arithmetic has left double range (inf or nan)."""
    if not cmath.isfinite(c):
        raise ValueError("coefficient overflow: a result leaves the double range")
    return c


def check_finite_coefficients(coefficients: Mapping[object, complex]) -> None:
    """Raise :func:`finite`'s ValueError when a coefficient is inf or nan."""
    # a non-finite entry makes the sum non-finite; finite entries can also
    # overflow the sum, so only then are they looked at one by one
    values = coefficients.values()
    if not cmath.isfinite(sum(values)):
        for c in values:
            finite(c)


class _TruncatedSeries:
    """Degree-truncated coefficient map: the container behind QElement and FreeElement.

    The two algebras differ only in their keys and in how two keys multiply.
    Every other rule is here, once: :meth:`_sum` adds terms key by key and
    drops a key whose terms cancel (``+``, both products, both parsers);
    :meth:`_convolve` drops a term pair past the cap and marks the product
    ``saturated``, a flag that sticks to everything computed from it, so its
    norms are lower bounds; and operands must be of one class with one n,
    cap (and q), or :class:`IncompatibilityError` is raised (``+`` and ``-``
    with a non-series operand raise TypeError).

    Treat instances as immutable: all arithmetic returns new elements.
    Subclasses supply the key normaliser ``_key``, the key degree
    ``_key_degree``, the noun ``_key_name`` for error messages and the
    product ``_product``.
    """

    __slots__ = ("n", "cap", "coefficients", "saturated")

    def __init__(
        self,
        n: int,
        coefficients: Mapping[tuple[int, ...], complex] | None = None,
        *,
        cap: int,
        saturated: bool = False,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        key_of, degree_of = self._key, self._key_degree
        coeffs: dict[tuple[int, ...], complex] = {}
        for key, c in (coefficients or {}).items():
            kk = key_of(key, n)
            if degree_of(kk) > cap:
                raise ValueError(f"{self._key_name} {kk} exceeds degree cap {cap}")
            cc = complex(c)
            if not cmath.isfinite(cc):
                raise ValueError(f"coefficient of {kk} is not finite: {cc!r}")
            if cc != 0:
                coeffs[kk] = cc
        self.n = n
        self.cap = cap
        self.coefficients = coeffs
        self.saturated = bool(saturated)

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        return max(map(self._key_degree, self.coefficients), default=0)

    def coefficient(self, key: Iterable[int]) -> complex:
        return self.coefficients.get(self._key(key, self.n), 0j)

    def items(self) -> list[tuple[tuple[int, ...], complex]]:
        """Coefficients sorted by (degree, key) for deterministic output."""
        degree_of = self._key_degree
        return sorted(self.coefficients.items(), key=lambda kv: (degree_of(kv[0]), kv[0]))

    def _with(self, coefficients: dict, saturated: bool):
        check_finite_coefficients(coefficients)
        out = object.__new__(type(self))
        out.n = self.n
        out.cap = self.cap
        out.coefficients = coefficients
        out.saturated = saturated
        return out

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise IncompatibilityError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.n != other.n:
            raise IncompatibilityError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.cap != other.cap:
            raise IncompatibilityError(f"cap mismatch: {self.cap} vs {other.cap}")

    def _sum(self, terms: Iterable[tuple[tuple, complex]], saturated: bool, start=()):
        """The map ``start`` plus the (normal key, coefficient) terms, added in order.

        A key whose sum is zero is dropped; a sum past double range is
        :func:`finite`'s ValueError.
        """
        out = dict(start)
        for k, c in terms:
            acc = out.get(k, 0j) + c
            if acc == 0:
                out.pop(k, None)
            else:
                out[k] = acc
        return self._with(out, saturated)

    def _convolve(self, other, join, factor=None):
        """Sum of the products x^k x^m = factor(k, m) x^join(k, m) of the term pairs.

        ``factor`` None stands for 1.  A pair whose degrees add past the cap
        is dropped before it is joined, and the product is then saturated.
        """
        self._check_compatible(other)
        cap, degree_of = self.cap, self._key_degree
        right = [(m, cm, degree_of(m)) for m, cm in other.coefficients.items()]
        pairs = [
            (k, m, ck * cm)
            for k, ck in self.coefficients.items()
            for room in (cap - degree_of(k),)
            for m, cm, dm in right
            if dm <= room
        ]
        truncated = len(pairs) < len(self.coefficients) * len(right)
        K, M, C = zip(*pairs) if pairs else ((), (), ())
        if factor is not None:
            C = map(mul, C, map(factor, K, M))
        return self._sum(zip(map(join, K, M), C), self.saturated or other.saturated or truncated)

    def __add__(self, other):
        if not isinstance(other, _TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._sum(
            other.coefficients.items(), self.saturated or other.saturated, self.coefficients
        )

    def __neg__(self):
        return self._with({k: -c for k, c in self.coefficients.items()}, self.saturated)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _TruncatedSeries) else NotImplemented

    def scaled(self, c: complex):
        c = complex(c)
        # a product that underflows to zero is dropped, as a zero sum is
        return self._with(
            {k: p for k, v in self.coefficients.items() if (p := v * c)}, self.saturated
        )

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented


class QElement(_TruncatedSeries):
    """Degree-truncated series on the normal-ordered monomial basis."""

    __slots__ = ("q",)
    _key = staticmethod(as_multi_index)
    _key_degree = staticmethod(degree)
    _key_name = "monomial"

    def __init__(
        self,
        n: int,
        q: QParameter,
        coefficients: Mapping[MultiIndex, complex] | None = None,
        *,
        cap: int,
        saturated: bool = False,
    ) -> None:
        if not isinstance(q, QParameter):
            raise TypeError("q must be a QParameter")
        self.q = q
        _TruncatedSeries.__init__(self, n, coefficients, cap=cap, saturated=saturated)

    # -- container hooks ---------------------------------------------------
    # On every short arithmetic call: the base class is called by name, and
    # q by identity first, both cheaper than super() and the dataclass __eq__.

    def _with(self, coefficients: dict[MultiIndex, complex], saturated: bool) -> "QElement":
        out = _TruncatedSeries._with(self, coefficients, saturated)
        out.q = self.q
        return out

    def _check_compatible(self, other: "QElement") -> None:
        _TruncatedSeries._check_compatible(self, other)
        if self.q is not other.q and self.q != other.q:
            raise IncompatibilityError(f"parameter mismatch: {self.q} vs {other.q}")

    def _product(self, other: "QElement") -> "QElement":
        return multiply(self, other)

    def __repr__(self) -> str:
        return (
            f"QElement(n={self.n}, |q|={self.q.modulus:g}, arg q={self.q.phase:g}, "
            f"terms={len(self.coefficients)}, cap={self.cap}, saturated={self.saturated})"
        )


def multiply(a: QElement, b: QElement) -> QElement:
    """Product in the q-commuting algebra, truncated at the common cap.

    Uses the closed form x^k x^m = q**e(k,m) x^(k+m) with
    e(k,m) = -sum_{i<j} k_j m_i, whose sign is pinned down by the
    rewriting oracle :func:`normal_order_word`.
    """
    return a._convolve(
        b,
        lambda k, m: tuple(map(add, k, m)),
        lambda k, m: a.q.power(normal_order_exponent(k, m)),
    )


def scale_auto(a: QElement, rho: float) -> QElement:
    """Automorphism-style rescaling x_i -> rho x_i: multiplies c_k by rho^|k|."""
    check_positive("rho", rho)
    return a._with(
        {k: p for k, c in a.coefficients.items() if (p := c * checked_power(rho, degree(k)))},
        a.saturated,
    )


def reversal_iso(a: QElement) -> QElement:
    """Order-reversing isomorphism onto the inverse-parameter algebra.

    Sends x_i to x_{n+1-i}; on monomials x^k the image normal-orders to
    q**cross_degree_sum(k) x^(reversed k), the coefficient fixed by the
    rewriting oracle.  Isometric for both norm families and multiplicative
    (checked on every monomial pair up to a degree by the reversal suite).
    """
    out: dict[MultiIndex, complex] = {}
    for k, c in a.coefficients.items():
        out[k[::-1]] = c * a.q.power(cross_degree_sum(k))
    return QElement(a.n, a.q.inverse(), out, cap=a.cap, saturated=a.saturated)


# ---------------------------------------------------------------------------
# seminorms

FAMILIES = ("polydisk", "ball")


def check_tau(tau: float, unweighted: str | None = None) -> None:
    """Raise ValueError unless 1 <= tau < inf, or tau = 1 for an ``unweighted`` family (nan fails)."""
    if unweighted is not None and tau != 1.0:
        raise ValueError(f"the {unweighted} family has no block weight: tau must be 1, got {tau!r}")
    if not 1.0 <= tau < math.inf:
        raise ValueError("tau must be >= 1 and finite")


def weighted_degree_sums(
    terms: list[tuple[MultiIndex, float, float, int]], q_mod: float, rho: float, ball: bool
) -> dict[int, float]:
    """Per degree d, the sum of m exp(g) |q|^j w(k) rho^d over the (k, m, g, j) of degree d.

    w is w_q, or the ball weight with ``ball``, read off
    :func:`qdomains.qcombinatorics.weight_law`, which also folds in the
    integer power j: the one weighted sum behind the coefficient norms
    (m = |c_k|, g = j = 0) and the quotient norms (the fiber images).  Each
    weight is formed from its logs and summed against m by
    :func:`sum_of_terms`, so a large m against a small weight stays in range.
    """
    check_positive("rho", rho)
    log_rho = math.log(rho)
    law = weight_law(q_mod, max((sum(k) for k, *_ in terms), default=0), ball)
    pairs: dict[int, list[tuple[float, float]]] = {}
    for k, m, g, j in terms:
        log_w, factor = law(k, j)
        d = sum(k)
        pairs.setdefault(d, []).append((m, g + log_w + d * log_rho + factor))
    return {d: sum_of_terms(ps) for d, ps in sorted(pairs.items())}


def _coefficient_norm(a: QElement, rho: float, ball: bool) -> float:
    terms = [(k, abs(c), 0.0, 0) for k, c in a.coefficients.items()]
    sums = weighted_degree_sums(terms, a.q.modulus, rho, ball)
    return sum_of_terms((v, 0.0) for v in sums.values())


def polydisk_norm(a: QElement, rho: float) -> float:
    """Weighted coefficient norm sum |c_k| w_q(k) rho^|k|.

    For saturated elements the value is a lower bound of the untruncated
    norm (dropped tail terms are nonnegative contributions).
    """
    return _coefficient_norm(a, rho, ball=False)


def ball_norm(a: QElement, rho: float) -> float:
    """Weighted coefficient norm sum |c_k| ball_weight(k) rho^|k| (lower bound when saturated)."""
    return _coefficient_norm(a, rho, ball=True)


@dataclass(frozen=True)
class WeightRatioScan:
    """Extremes of ball_weight(k)/w_q(k) over all |k| <= d_max in dimension n."""

    min_ratio: float
    max_ratio: float
    min_at: MultiIndex
    max_at: MultiIndex


def weight_ratio_scan(q_mod: float, n: int, d_max: int) -> WeightRatioScan:
    """Scan the two weight systems against each other.

    The ratio being pinched inside (0, 1] for |q| != 1 witnesses that the
    two seminorm families generate the same series space there; at |q| = 1
    it is (k!/|k|!)^(1/2), which has no positive lower bound.  Ties go to
    the first index in multi_indices_up_to order.

    The log ratio is the ball factor of
    :func:`qdomains.qcombinatorics.weight_law`, a difference of sums of small
    terms, so neighbouring indices whose ratios differ by a few ulps still
    come out in the right order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    law = weight_law(q_mod, d_max)
    K = compositions_up_to(n, d_max)
    ratio = np.exp(law(K.T)[1])
    lo, hi = int(np.argmin(ratio)), int(np.argmax(ratio))
    return WeightRatioScan(
        float(ratio[lo]), float(ratio[hi]), tuple(K[lo].tolist()), tuple(K[hi].tolist())
    )
