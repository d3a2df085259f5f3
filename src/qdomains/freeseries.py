"""Truncated series over the free algebra on n letters, plus operator plumbing.

Basis words are tuples over 1..n; multiplication is concatenation.  The
module also carries the operator-tuple machinery used to evaluate free
polynomials on matrix tuples (row norm, evaluation).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .qcombinatorics import (
    MultiIndex,
    Word,
    as_word,
    degree,
    p_proj,
    s_stat,
)
from .qspace import IncompatibilityError, check_finite_coefficients


class FreeElement:
    """Degree-truncated series on the word basis of the free algebra.

    Same container conventions as QElement: immutable by convention,
    sticky ``saturated`` flag once concatenation has dropped a word past
    the cap.
    """

    __slots__ = ("n", "cap", "coefficients", "saturated")

    def __init__(
        self,
        n: int,
        coefficients: Mapping[Word, complex] | None = None,
        *,
        cap: int,
        saturated: bool = False,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        coeffs: dict[Word, complex] = {}
        for key, c in (coefficients or {}).items():
            w = as_word(key, n)
            if len(w) > cap:
                raise ValueError(f"word {w} exceeds degree cap {cap}")
            cc = complex(c)
            if not cmath.isfinite(cc):
                raise ValueError(f"coefficient of {w} is not finite: {cc!r}")
            if cc != 0:
                coeffs[w] = cc
        self.n = n
        self.cap = cap
        self.coefficients = coeffs
        self.saturated = bool(saturated)

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

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        return max((len(w) for w in self.coefficients), default=0)

    def coefficient(self, letters: Iterable[int]) -> complex:
        return self.coefficients.get(as_word(letters, self.n), 0j)

    def items(self) -> list[tuple[Word, complex]]:
        return sorted(self.coefficients.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _with(self, coefficients: dict[Word, complex], saturated: bool) -> "FreeElement":
        check_finite_coefficients(coefficients)
        out = FreeElement.__new__(FreeElement)
        out.n = self.n
        out.cap = self.cap
        out.coefficients = coefficients
        out.saturated = saturated
        return out

    def __repr__(self) -> str:
        return (
            f"FreeElement(n={self.n}, terms={len(self.coefficients)}, "
            f"cap={self.cap}, saturated={self.saturated})"
        )

    def __add__(self, other: "FreeElement") -> "FreeElement":
        _check_compatible(self, other)
        out = dict(self.coefficients)
        for w, c in other.coefficients.items():
            acc = out.get(w, 0j) + c
            if acc == 0:
                out.pop(w, None)
            else:
                out[w] = acc
        return self._with(out, self.saturated or other.saturated)

    def __neg__(self) -> "FreeElement":
        return self._with({w: -c for w, c in self.coefficients.items()}, self.saturated)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def scaled(self, c: complex) -> "FreeElement":
        c = complex(c)
        if c == 0:
            return self._with({}, self.saturated)
        return self._with({w: v * c for w, v in self.coefficients.items()}, self.saturated)

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return concat_multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented


def _check_compatible(a: FreeElement, b: FreeElement) -> None:
    if a.n != b.n:
        raise IncompatibilityError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.cap != b.cap:
        raise IncompatibilityError(f"cap mismatch: {a.cap} vs {b.cap}")


def concat_multiply(a: FreeElement, b: FreeElement) -> FreeElement:
    """Concatenation product, truncated at the cap with the sticky flag."""
    _check_compatible(a, b)
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
    """sum |c_w| rho^|w| tau^(s(w)+1); tau >= 1 grades by block count."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("rho must be positive and finite")
    if tau < 1.0:
        raise ValueError("tau must be >= 1")
    return math.fsum(
        abs(c) * rho ** len(w) * tau ** (s_stat(w) + 1)
        for w, c in a.coefficients.items()
    )


def taylor_norm(a: FreeElement, rho: float) -> float:
    """Plain weighted coefficient sum, i.e. the tau = 1 polydisk norm."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("rho must be positive and finite")
    return math.fsum(abs(c) * rho ** len(w) for w, c in a.coefficients.items())


def free_ball_norm(a: FreeElement, rho: float) -> float:
    """l2 over each letter-count fiber, then weighted l1 across fibers."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("rho must be positive and finite")
    fibers: dict[MultiIndex, float] = {}
    for w, c in a.coefficients.items():
        k = p_proj(w, a.n)
        fibers[k] = fibers.get(k, 0.0) + abs(c) ** 2
    return math.fsum(math.sqrt(v) * rho ** degree(k) for k, v in fibers.items())


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
