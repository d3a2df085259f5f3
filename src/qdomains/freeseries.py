"""Truncated series over the free algebra on n letters.

Basis words are tuples over 1..n; multiplication is concatenation.
"""

from __future__ import annotations

import math
from operator import add

from .qcombinatorics import (
    MultiIndex,
    as_word,
    check_positive,
    degree,
    p_proj,
    s_stat,
    sum_of_terms,
)
from .qspace import _TruncatedSeries, check_tau


class FreeElement(_TruncatedSeries):
    """Degree-truncated series on the word basis of the free algebra.

    Same container as QElement (see ``qspace._TruncatedSeries``): the
    sticky ``saturated`` flag marks a concatenation that dropped a word
    past the cap.
    """

    __slots__ = ()
    _key = staticmethod(as_word)
    _key_degree = staticmethod(len)
    _key_name = "word"

    def _product(self, other: "FreeElement") -> "FreeElement":
        return concat_multiply(self, other)

    def __repr__(self) -> str:
        return (
            f"FreeElement(n={self.n}, terms={len(self.coefficients)}, "
            f"cap={self.cap}, saturated={self.saturated})"
        )


def concat_multiply(a: FreeElement, b: FreeElement) -> FreeElement:
    """Concatenation product u·v, truncated at the cap with the sticky flag."""
    return a._convolve(b, add)


# ---------------------------------------------------------------------------
# seminorms on the free algebra


def free_polydisk_norm(a: FreeElement, rho: float, tau: float) -> float:
    """sum |c_w| rho^|w| tau^(s(w)+1); tau >= 1 grades by block count.

    Each weight is formed from its logs and summed against |c_w| by
    :func:`sum_of_terms`, as in the two norms below, so a large
    coefficient against a small weight stays in range.
    """
    check_positive("rho", rho)
    check_tau(tau)
    log_rho, log_tau = math.log(rho), math.log(tau)
    return sum_of_terms(
        (abs(c), len(w) * log_rho + (s_stat(w) + 1) * log_tau) for w, c in a.coefficients.items()
    )


def taylor_norm(a: FreeElement, rho: float) -> float:
    """Plain weighted coefficient sum, i.e. the tau = 1 polydisk norm."""
    return free_polydisk_norm(a, rho, 1.0)


def free_ball_norm(a: FreeElement, rho: float) -> float:
    """l2 over each letter-count fiber, then weighted l1 across fibers."""
    check_positive("rho", rho)
    fibers: dict[MultiIndex, list[complex]] = {}
    for w, c in a.coefficients.items():
        fibers.setdefault(p_proj(w, a.n), []).append(c)
    log_rho = math.log(rho)
    # hypot scales internally, so no square leaves double range; the moduli are
    # taken inside sum_of_terms, so one past double range is a ValueError
    return sum_of_terms((math.hypot(*map(abs, cs)), degree(k) * log_rho) for k, cs in fibers.items())


def radius_partials(a: FreeElement) -> list[tuple[int, float]]:
    """Per-degree quantities (sum_{|w|=d} |c_w|^2)^(1/(2d)), empty degrees skipped.

    Their limsup is the reciprocal of the multi-variable radius of
    convergence; for the finitely supported elements stored here the
    sequence is all the data there is.  A partial past double range is a
    ValueError.
    """
    parts: dict[int, list[float]] = {}
    for w, c in a.coefficients.items():
        if w:
            parts.setdefault(len(w), []).extend((c.real, c.imag))
    out = []
    for d in sorted(parts):
        # scaled by the power of two at the largest real or imaginary part
        # before any modulus is taken: exact, and no modulus leaves double range
        scale = math.ldexp(1.0, math.frexp(max(map(abs, parts[d])))[1] - 1)
        norm = math.hypot(*(x / scale for x in parts[d]))
        partial = scale ** (1.0 / d) * norm ** (1.0 / d)
        if not math.isfinite(partial):
            raise ValueError(f"radius partial of degree {d} leaves the double range")
        out.append((d, partial))
    return out


def estimated_radius(a: FreeElement) -> float:
    """Cauchy-Hadamard estimate 1/max(partials); +inf for unsaturated elements.

    A finitely supported (unsaturated) element is an honest polynomial, so
    its radius is infinite regardless of the stored partials.
    """
    if not a.saturated:
        return math.inf
    partials = radius_partials(a)
    top = max((v for _, v in partials), default=0.0)
    return math.inf if top == 0.0 else 1.0 / top

