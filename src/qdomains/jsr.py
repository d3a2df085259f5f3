"""Joint l^p spectral radius of generator tuples: partials and exact limits.

The degree-d partial quantity for a tuple (a_1, ..., a_n) is

    R_d = ( sum_{|w| = d} ||a_w||^p )^(1/(p d))      (sup over words for p = inf)

with a_w the length-d product along the word w.  reversal_iso maps the
algebra at q isometrically onto the one at 1/q, so the canonical partials
are read at max(|q|, 1/|q|), where w_q = 1.  For the canonical generators
x_i the norm of a word product depends on its letter counts k and its
inversion number only, and summing max(|q|, 1/|q|)^(-p inv) over a fiber is
the classical q-multinomial [d]_u! / prod_i [k_i]_u!, u = min(|q|, 1/|q|)^p.
With h half the log [.]_t! table, t = min(|q|, 1/|q|)^2, for the ball and
0 for the polydisk, each fiber term is exp(sum_i g(k_i) - g(d)),
g = p h - log [.]_u!, so the sum over all fibers of degree d is entry d of
the n-fold self-convolution of exp(g), over exp(g(d)) (Andrews, The Theory
of Partitions, Thm 3.6), formed in the log domain for every d <= d_max at
once (a max-plus convolution of h for p = inf).  Each factor [j]_x is the
ratio expm1(-j e) / expm1(-e), x = exp(-e), so no digit is lost as |q| -> 1.

The JSR is lim R_d = inf_d R_d (Fekete's lemma); R_d is degree-homogeneous
in rho, so on the radius-r domain it is r L, L the limit at rho = 1, in
closed form for every canonical tuple.  Off |q| = 1, or at p = inf, L = 1
for the polydisk and the ball: a q-multinomial at u < 1 is at most
(u; u)_inf^(1-n) (Andrews, ch. 3), the weights are at most 1 and the fibers
polynomially many, while x_i^d gives R_d >= 1.  At |q| = 1 every polydisk
word has norm 1, so L = n^(1/p), and a ball fiber of multinomial size M
contributes M^(1 - p/2), largest at the central fiber for p <= 2 and at
k = d e_i for p >= 2: L = max(1, n^(1/p - 1/2)).  The free partials are
closed forms in d, and L is their limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .qcombinatorics import (
    check_positive,
    checked_power,
    log_convolution_power,
)
from .qspace import (
    FAMILIES as Q_FAMILIES,
    QElement,
    QParameter,
    check_tau,
    multiply,
)

FREE_FAMILIES = ("free_taylor", "free_ball", "free_polydisk")

#: refuse general-tuple enumeration beyond this many word products (jsr_partials only)
ENUMERATION_LIMIT = 200_000

#: the p from which the canonical partials and limits are read at p = inf.  R_d
#: at p is R_d at p = inf times a factor in [1, n^(1/p)] (n^d words of degree
#: d), within ln(n) 2^-53 of 1 here; the finite-p forms, p times a log table
#: and p times the degree, leave double range as p nears 1e308
_P_AS_INF = 2.0**53

#: refuse canonical partials beyond this degree: the q-side convolution
#: power holds several (d_max + 1)^2 float arrays, about 40 B (d_max + 1)^2
#: at its peak, so some 160 MB at the limit
CONVOLUTION_DEGREE_LIMIT = 2000


def canonical_partials(
    family: str,
    n: int,
    q: QParameter | None,
    p: float,
    d_max: int,
    rho: float = 1.0,
    tau: float = 1.0,
) -> list[tuple[int, float]]:
    """Partial sequence (d, R_d) for the canonical generator tuple.

    A log-domain convolution power over letter counts for the q-side
    families; closed word-count sums for the free families (both
    cross-checked against brute-force enumeration in the tests).  R_d is
    degree-homogeneous in rho: R_d(rho) = rho R_d(1).  A p from
    :data:`_P_AS_INF` on is read as p = inf.  Raises ValueError
    when |q|^-p at the given |q| or a partial leaves double range, when
    d_max exceeds :data:`CONVOLUTION_DEGREE_LIMIT`, or when tau is not 1
    for a family other than free_polydisk, the one with block weights.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    check_positive("rho", rho)
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if p >= _P_AS_INF:
        p = math.inf
    check_tau(tau, unweighted=None if family == "free_polydisk" else family)
    if d_max > CONVOLUTION_DEGREE_LIMIT:
        raise ValueError(
            f"d_max = {d_max} exceeds {CONVOLUTION_DEGREE_LIMIT}, the largest degree "
            "the canonical partials are built for"
        )
    j = np.arange(1, d_max + 1, dtype=float)
    if family in FREE_FAMILIES:
        log_r = _free_log_partials(family, n, p, j, tau)
    elif family not in Q_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    elif q is None:
        raise ValueError(f"family {family!r} needs the deformation parameter")
    else:
        # read at max(|q|, 1/|q|), where the weight of fiber k is exp(sum_i h(k_i) - h(d))
        mod = q.modulus
        e = abs(math.log(mod))
        h = 0.5 * _log_q_factorial_table(d_max, 2 * e) if family == "ball" else np.zeros(d_max + 1)
        if math.isfinite(p):
            # the base |q|^-p must be a nonzero double at the given |q| itself
            if checked_power(mod, -p) == 0.0:
                raise ValueError(f"{mod!r}**{-p!r} leaves the double range")
            g = p * h - _log_q_factorial_table(d_max, p * e)
            log_r = (log_convolution_power(g, n) - g)[1:] / (p * j)
        else:
            # the sup over a fiber of max(|q|, 1/|q|)^(-inv) is 1, at inv = 0
            log_r = (log_convolution_power(h, n, maxplus=True) - h)[1:] / j
    with np.errstate(over="ignore"):
        values = rho * np.exp(log_r)
    if not np.all(np.isfinite(values)):
        raise ValueError("JSR partial leaves the double range")
    return list(zip(range(1, d_max + 1), values.tolist()))


def _log_q_factorial_table(d_max: int, e: float) -> np.ndarray:
    """Table c with c[m] = log [m]_x!, x = exp(-e) <= 1, m = 0..d_max (log m! at e = 0).

    Kept apart from ``log_pochhammer_table``: each [j]_x, an expm1 ratio,
    keeps its digits as |q| -> 1 (``test_partials_near_unit_modulus_match_mpmath``,
    rel 5e-15).
    """
    j = np.arange(1, d_max + 1, dtype=float)
    terms = np.log(j) if e == 0.0 else np.log(np.expm1(-j * e) / math.expm1(-e))
    out = np.zeros(d_max + 1)
    np.cumsum(terms, out=out[1:])
    return out


def _log_block_growth(n: int, p: float, tau: float) -> float:
    """log(1 + (n - 1) tau^p) for finite p, tau >= 1, without forming tau^p."""
    if n == 1:
        return 0.0
    return p * math.log(tau) + math.log(n - 1 + tau ** -p)


def _free_log_partials(family: str, n: int, p: float, j: np.ndarray, tau: float) -> np.ndarray:
    if family in ("free_taylor", "free_ball"):
        # every length-d word contributes rho^(pd): n^d terms, so
        # R_d = n^(1/p) rho independent of d (just rho for p = inf)
        return np.full(len(j), math.log(n) / p)
    if not math.isfinite(p):
        # max block count is d for n >= 2, 1 for n = 1
        return np.full(len(j), math.log(tau)) if n >= 2 else math.log(tau) / j
    # sum over words of tau^(p (s+1)): first letter n tau^p, then each
    # position either repeats (factor 1) or switches ((n-1) tau^p)
    log_sum = math.log(n) + p * math.log(tau) + (j - 1) * _log_block_growth(n, p, tau)
    return log_sum / (p * j)


# A test oracle kept here, with ENUMERATION_LIMIT, because perfbench's spans.py
# wraps it by name; ROADMAP item 1 moves both into tests/test_jsr.py.
def jsr_partials(
    generators: Sequence[QElement],
    p: float,
    norm: Callable[[QElement], float],
    d_max: int,
) -> tuple[list[tuple[int, float]], list[str]]:
    """Partial sequence for an arbitrary generator tuple under ``norm``, with flags.

    ``norm`` takes an element alone, e.g. ``lambda a: ball_norm(a, rho)``.
    Multiplies out all n^d word products (flagged, size-guarded) and stops
    early if truncation saturates the products; the canonical tuple's
    partials come in closed form from :func:`canonical_partials`.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    flags = ["general-tuple-enumeration"]
    count = len(generators)
    if count ** d_max > ENUMERATION_LIMIT:
        raise ValueError(
            f"{count}^{d_max} word products exceed the enumeration limit; "
            "reduce d_max, or use canonical_partials for the canonical tuple"
        )
    out: list[tuple[int, float]] = []
    level = list(generators)
    d = 1
    while True:
        if any(e.saturated for e in level):
            flags.append(f"saturated-at-d={d}")
            break
        values = [norm(e) for e in level]
        if math.isfinite(p):
            s = math.fsum(v ** p for v in values)
            out.append((d, s ** (1.0 / (p * d))))
        else:
            out.append((d, max(values) ** (1.0 / d)))
        if d == d_max:
            break
        level = [multiply(e, g) for e in level for g in generators]
        d += 1
    return out, flags


# ---------------------------------------------------------------------------
# limits


@dataclass
class JsrEstimate:
    """Limit of the partials at rho = r, with the certified bracket [lower, upper]."""

    partials: dict[tuple[float, int], float]
    extrapolated: float
    lower: float
    upper: float
    # always empty; perfbench's execute.py reads it until ROADMAP item 1 drops it
    flags: list[str] = field(default_factory=list)


# perfbench's spans.py wraps this by name; ROADMAP item 1 folds it into the caller.
def jsr_extrapolate(seq: Sequence[tuple[int, float]], r: float) -> JsrEstimate:
    """Certified bracket [r, min_d R_d] of the partials (d, R_d) at rho = r; extrapolated = upper.

    The bracket is certified for the canonical tuples: every x_i^d has
    norm at least r^d, so R_d >= r; the seminorms are submultiplicative,
    so S_(d+e) <= S_d S_e for the p-th power sums S_d = R_d^(p d) and, by
    Fekete's lemma, lim R_d = inf_d R_d <= min_(d <= d_max) R_d (Jungers,
    The Joint Spectral Radius, LNCIS 385, 2009, ch. 1).  The upper end
    converges to the JSR as d_max grows.
    """
    upper = min(v for _, v in seq)
    return JsrEstimate({(r, d): v for d, v in seq}, extrapolated=upper, lower=r, upper=upper)


def _canonical_limit(family: str, n: int, q: QParameter | None, p: float, tau: float) -> float:
    """lim_d R_d at rho = 1 for the canonical tuple, in closed form (module docstring)."""
    if family == "free_polydisk":
        if p < _P_AS_INF:
            return math.exp(_log_block_growth(n, p, tau) / p)
        return tau if n >= 2 else 1.0
    if family in Q_FAMILIES and q.modulus != 1.0:
        return 1.0
    if family == "ball":
        return max(1.0, n ** (1.0 / p - 0.5))
    return n ** (1.0 / p)


def estimate_canonical_jsr(
    family: str,
    n: int,
    q: QParameter | None,
    p: float,
    r: float,
    d_max: int = 200,
    tau: float = 1.0,
) -> JsrEstimate:
    """Joint spectral radius of the canonical generators on the radius-r domain.

    ``extrapolated`` is the exact limit r L, L from the closed forms in the
    module docstring; [lower, upper] is the bracket that the partials up to
    d_max certify independently of them, with the partials in ``partials``.
    """
    check_positive("r", r)
    est = jsr_extrapolate(canonical_partials(family, n, q, p, d_max, rho=r, tau=tau), r)
    est.extrapolated = r * _canonical_limit(family, n, q, p, tau)
    return est
