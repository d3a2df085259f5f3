"""Joint l^p spectral radius estimation for generator tuples.

The degree-d partial quantity for a tuple (a_1, ..., a_n) is

    R_d = ( sum_{|w| = d} ||a_w||^p )^(1/(p d))      (sup over words for p = inf)

with a_w the length-d product along the word w.  For the canonical
generators x_i the norm of a word product depends on its letter counts k
and its inversion number only, and summing |q|^(-p inv) over a fiber is
the classical q-multinomial [d]_u! / prod_i [k_i]_u!, u = |q|^-p.  Each
fiber term is then exp(A(d) + sum_i g(k_i)), so the sum over all fibers
of degree d is entry d of the n-fold self-convolution of exp(g) (Andrews,
The Theory of Partitions, Thm 3.6), formed in the log domain for every
d <= d_max at once (a max-plus convolution for p = inf); d in the hundreds
is routine.  R_d is degree-homogeneous in rho, so the estimate on the
radius-r domain is one tail fit of the partials at rho = r, clamped into
the certified bracket [r, min_d R_d].
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
    log_pochhammer_table,
    log_q_factorial_table,
)
from .qspace import (
    FAMILIES as Q_FAMILIES,
    QElement,
    QParameter,
    check_tau,
    multiply,
)

FREE_FAMILIES = ("free_taylor", "free_ball", "free_polydisk")

#: refuse general-tuple enumeration beyond this many word products
ENUMERATION_LIMIT = 200_000

#: refuse q-side canonical partials beyond this degree: the convolution
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
    degree-homogeneous in rho: R_d(rho) = rho R_d(1).  Raises ValueError
    when a weight table or a partial leaves double range, when a q-side
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
    check_tau(tau, unweighted=None if family == "free_polydisk" else family)
    if family in FREE_FAMILIES:
        return _free_canonical_partials(family, n, p, d_max, rho, tau)
    if family not in Q_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if q is None:
        raise ValueError(f"family {family!r} needs the deformation parameter")
    if d_max > CONVOLUTION_DEGREE_LIMIT:
        raise ValueError(
            f"d_max = {d_max} exceeds {CONVOLUTION_DEGREE_LIMIT}, the largest degree "
            f"the {family} convolution power is built for"
        )
    mod = q.modulus
    finite_p = math.isfinite(p)
    log_mod = math.log(mod)
    j = np.arange(d_max + 1, dtype=float)
    # the weight of a fiber k of degree d is exp(a(d) + sum_i h(k_i)):
    # w_q(k) = |q|^cross(k), cross(k) = (d^2 - sum_i k_i^2) / 2, for |q| < 1,
    # times exp((sum_i P[k_i] - P[d]) / 2) for the ball
    if mod < 1.0:
        a = 0.5 * log_mod * j * j
        h = -a
    else:
        h = a = np.zeros(d_max + 1)
    if family == "ball":
        half = 0.5 * log_pochhammer_table(d_max, mod)
        h, a = h + half, a - half
    if finite_p:
        u_table = log_q_factorial_table(d_max, checked_power(mod, -p))
        log_s = u_table + p * a + log_convolution_power(p * h - u_table, n)
        log_r = log_s[1:] / (p * j[1:])
    else:
        # sup over a fiber of |q|^(-inv) is attained at inv = 0 or inv = cross
        top = a + log_convolution_power(h, n, maxplus=True)
        if mod < 1.0:
            shift = 0.5 * log_mod * j * j  # -cross(k) log|q| = sum_i shift(k_i) - shift(d)
            top = np.maximum(top, a - shift + log_convolution_power(h + shift, n, maxplus=True))
        log_r = top[1:] / j[1:]
    with np.errstate(over="ignore"):
        values = rho * np.exp(log_r)
    if not np.all(np.isfinite(values)):
        raise ValueError("JSR partial leaves the double range")
    return list(zip(range(1, d_max + 1), values.tolist()))


def _free_canonical_partials(
    family: str, n: int, p: float, d_max: int, rho: float, tau: float
) -> list[tuple[int, float]]:
    finite_p = math.isfinite(p)
    out: list[tuple[int, float]] = []
    for d in range(1, d_max + 1):
        if family in ("free_taylor", "free_ball"):
            # every length-d word contributes rho^(pd): n^d terms, so
            # R_d = n^(1/p) rho independent of d (just rho for p = inf)
            R = rho * math.exp(math.log(n) / p) if finite_p else rho
        else:
            if finite_p:
                # sum over words of tau^(p (s+1)): first letter n tau^p, then
                # each position either repeats (factor 1) or switches ((n-1) tau^p)
                log_sum = (
                    math.log(n) + p * math.log(tau) + (d - 1) * math.log1p((n - 1) * tau ** p)
                )
                R = rho * math.exp(log_sum / (p * d))
            else:
                # max block count is d for n >= 2, 1 for n = 1
                R = rho * tau if n >= 2 else rho * tau ** (1.0 / d)
        out.append((d, R))
    return out


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
# extrapolation


@dataclass
class JsrEstimate:
    """Tail-fit limit of the partials at rho = r, clamped into [lower, upper]."""

    p: float
    r: float
    partials: dict[tuple[float, int], float]
    residual: float
    extrapolated: float
    lower: float
    upper: float
    flags: list[str] = field(default_factory=list)
    family: str | None = None
    n: int | None = None


def _fit_limit(seq: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Fit log R_d = log L + a (log d)/d + b/d on the tail; return (L, residual).

    Small-d transients are outside the model class, so only the tail half
    (at least 8 points) enters the fit.
    """
    if len(seq) < 8:
        raise ValueError("need at least 8 partial values")
    tail = sorted(seq)[-max(8, len(seq) // 2):]
    d = np.array([float(dd) for dd, _ in tail])
    y = np.log(np.array([v for _, v in tail]))
    A = np.column_stack([np.ones_like(d), np.log(d) / d, 1.0 / d])
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.max(np.abs(A @ beta - y)))
    return float(math.exp(beta[0])), resid


def jsr_extrapolate(seq: Sequence[tuple[int, float]], r: float, p: float) -> JsrEstimate:
    """Tail-fit limit of the partials (d, R_d) at rho = r, clamped into a bracket.

    The bracket is certified for the canonical tuples: every x_i^d has
    norm at least r^d, so R_d >= r; the seminorms are submultiplicative,
    so S_(d+e) <= S_d S_e for the p-th power sums S_d = R_d^(p d) and, by
    Fekete's lemma, lim R_d = inf_d R_d <= min_(d <= d_max) R_d (Jungers,
    The Joint Spectral Radius, LNCIS 385, 2009, ch. 1).  A fit the clamp
    moves by more than 1e-12 relative is flagged ``fit-outside-bracket``.
    """
    L, resid = _fit_limit(seq)
    lower = r
    upper = min(v for _, v in seq)
    value = min(max(L, lower), upper)
    flags: list[str] = []
    if resid > 1e-3:
        flags.append(f"poor-fit:residual={resid:.3e}")
    if abs(value - L) > 1e-12 * abs(L):
        flags.append(f"fit-outside-bracket:fit={L:.9g}")
    return JsrEstimate(
        p=p,
        r=r,
        partials={(r, d): v for d, v in seq},
        residual=resid,
        extrapolated=value,
        lower=lower,
        upper=upper,
        flags=flags,
    )


def estimate_canonical_jsr(
    family: str,
    n: int,
    q: QParameter | None,
    p: float,
    r: float,
    d_max: int = 200,
    tau: float = 1.0,
) -> JsrEstimate:
    """End-to-end estimate for the canonical generators on the radius-r domain.

    R_d(rho) = rho R_d(1), so the sup over rho < r of the limits is the
    limit at rho = r: one sequence, one fit.
    """
    check_positive("r", r)
    est = jsr_extrapolate(canonical_partials(family, n, q, p, d_max, rho=r, tau=tau), r, p)
    est.family = family
    est.n = n
    return est
