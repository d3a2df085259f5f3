"""Truncated series over the free algebra on n letters, plus operator plumbing.

Basis words are tuples over 1..n; multiplication is concatenation.  The
module also carries the operator-tuple machinery used to evaluate free
polynomials on matrix tuples (row norm, evaluation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .qcombinatorics import (
    MultiIndex,
    Word,
    as_word,
    check_positive,
    degree,
    p_proj,
    s_stat,
    sum_of_terms,
)
from .qspace import IncompatibilityError, _TruncatedSeries, check_tau


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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, *, cap: int) -> "FreeElement":
        return cls(n, {}, cap=cap)

    @classmethod
    def unit(cls, n: int, *, cap: int) -> "FreeElement":
        return cls(n, {(): 1.0}, cap=cap)

    @classmethod
    def word(cls, n: int, letters: Iterable[int], coeff: complex = 1.0, *, cap: int) -> "FreeElement":
        return cls(n, {tuple(letters): coeff}, cap=cap)

    @classmethod
    def generator(cls, n: int, i: int, *, cap: int) -> "FreeElement":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")
        return cls(n, {(i,): 1.0}, cap=cap)

    def _product(self, other: "FreeElement") -> "FreeElement":
        return concat_multiply(self, other)

    def __repr__(self) -> str:
        return (
            f"FreeElement(n={self.n}, terms={len(self.coefficients)}, "
            f"cap={self.cap}, saturated={self.saturated})"
        )


def concat_multiply(a: FreeElement, b: FreeElement) -> FreeElement:
    """Concatenation product, truncated at the cap with the sticky flag."""
    a._check_compatible(b)
    out: dict[Word, complex] = {}
    truncated = False
    for wa, ca in a.coefficients.items():
        for wb, cb in b.coefficients.items():
            if len(wa) + len(wb) > a.cap:
                truncated = True
                continue
            w = wa + wb
            acc = out.get(w, 0j) + ca * cb
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
    return a._with(out, a.saturated or b.saturated or truncated)


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


def radius_partials(a: FreeElement, d_max: int | None = None) -> list[tuple[int, float]]:
    """Per-degree quantities (sum_{|w|=d} |c_w|^2)^(1/(2d)), empty degrees skipped.

    Their limsup is the reciprocal of the multi-variable radius of
    convergence; for the finitely supported elements stored here the
    sequence is all the data there is.
    """
    if d_max is None:
        d_max = a.cap
    moduli: dict[int, list[float]] = {}
    for w, c in a.coefficients.items():
        if 1 <= len(w) <= d_max:
            moduli.setdefault(len(w), []).append(abs(c))
    out = []
    for d in sorted(moduli):
        # scaled by the largest modulus so that no square leaves double range
        top = max(moduli[d])
        s = math.fsum((v / top) ** 2 for v in moduli[d])
        out.append((d, top ** (1.0 / d) * s ** (0.5 / d)))
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


# ---------------------------------------------------------------------------
# operator tuples


@dataclass(frozen=True)
class OperatorTuple:
    """A tuple of same-shape square complex matrices (one per letter)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.matrices) < 1:
            raise ValueError("need at least one matrix")
        mats = []
        shape = None
        for m in self.matrices:
            arr = np.asarray(m, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("matrices must be square")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValueError("matrices must share one shape")
            mats.append(arr)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def _row_norm(T: OperatorTuple) -> float:
    """Norm of the row operator: ||sum_i T_i T_i^*||^(1/2)."""
    acc = np.zeros((T.dim, T.dim), dtype=complex)
    for m in T.matrices:
        acc += m @ m.conj().T
    top = np.linalg.eigvalsh(acc)[-1]
    return math.sqrt(max(float(top), 0.0))


def evaluate(a: FreeElement, T: OperatorTuple) -> np.ndarray:
    """Evaluate the stored polynomial at the matrix tuple, word by word.

    Warns when a saturated element is evaluated at a tuple with row norm
    at or beyond the Cauchy-Hadamard radius estimate: the dropped tail of
    such a series need not be small there.
    """
    if T.n != a.n:
        raise IncompatibilityError(f"dimension mismatch: element n={a.n}, tuple n={T.n}")
    if a.saturated and _row_norm(T) >= estimated_radius(a):
        warnings.warn(
            "evaluating a truncated series at a tuple outside its estimated "
            "radius of convergence; result ignores the dropped tail",
            RuntimeWarning,
            stacklevel=2,
        )
    dim = T.dim
    cache: dict[Word, np.ndarray] = {(): np.eye(dim, dtype=complex)}

    def word_matrix(w: Word) -> np.ndarray:
        mat = cache.get(w)
        if mat is None:
            mat = word_matrix(w[:-1]) @ T.matrices[w[-1] - 1]
            cache[w] = mat
        return mat

    acc = np.zeros((dim, dim), dtype=complex)
    for w, c in a.items():
        acc += c * word_matrix(w)
    return acc
