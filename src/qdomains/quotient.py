"""Quotient seminorms over the q-commutation ideal, in closed form.

The two-sided ideal generated by z_i z_j - q z_j z_i (i < j) is graded, and
within a degree it splits over the letter-count fibers: its part in fiber k
is the kernel of the functional c |-> sum_w q^(-inv(w)) c_w, w running over
the rearrangements of k.  A coset norm is therefore a sum of one rank-one
problem per fiber,

    minimize  sum_w weight_w |c_w|  (or rho^d ||c||_2)  subject to  g . c = y_k,

with g_w = q^(-inv(w)) and y_k = g . t for the target t.  By the dual-norm
identity the l1 value is |y_k| min_w weight_w / |g_w|; for the weights here
the minimum sits on the sorted word (|q| >= 1) or on the reversed word
(|q| < 1), both with the least block count nnz(k).  The l2 value is
rho^d |y_k| / ||g||_2, and ||g||_2^2 is the q-multinomial [d]_u! / [k]_u!
with u = |q|^-2.  So the l1 value is |y_k| w_q(k) rho^d, times tau^nnz(k)
for numeric tau, and the l2 value is |y_k| ball_weight(k) rho^d: a quotient
norm is the polydisk or ball coefficient norm of the fiber images y_k, and
both are read off the one weight law and summed by the one per-degree
weighted sum of :mod:`qdomains.qspace`.  The images are kept in the log
domain, so no power of |q| leaves double range on the way (at |q| = 1e-200,
y_k itself is no double while the norm is); a result that does raises
ValueError.

The explicit slices (``build_slice``, ``slice_matrix``, ``slice_rank``) stay
as the independent description of the ideal: dense matrices, their entries
placed by base-n index arithmetic, ranked one fiber block at a time.  The
slice-rank suite checks that g annihilates them and that the block ranks sum
to n^d minus the fiber count, so each fiber part is all of ker g; the tests
solve the quotient problems on them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .freeseries import FreeElement
from .qcombinatorics import (
    MultiIndex,
    _canonical_word,
    Word,
    as_multi_index,
    check_positive,
    inv_count,
    p_proj,
    sum_of_terms,
    words_of_degree,
)
from .qspace import QParameter, check_tau, weighted_degree_sums


@dataclass(frozen=True)
class IdealSlice:
    """Degree-d slice of the commutation ideal: the columns of ``matrix`` span it.

    Row r of ``matrix`` is the coefficient of ``words[r]``; the words are sorted.
    """

    n: int
    q: QParameter
    degree: int
    words: list[Word]
    matrix: np.ndarray


def build_slice(n: int, q: QParameter, d: int) -> IdealSlice:
    """All vectors z_b (z_i z_j - q z_j z_i) z_c with |b| + |c| = d - 2, i < j.

    Columns run over |b|, then the word bc, then (i, j), each ascending; a
    word's row is its base-n numeral (digits letter - 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    i, j = np.triu_indices(n, 1)
    tail = n ** np.arange(d - 1)[::-1, None, None]  # n^|c| for |b| = 0, 1, ..., d - 2
    bc = np.arange(n ** max(d - 2, 0))[:, None]  # the word bc as one numeral
    head = bc // tail * (n * n * tail) + bc % tail  # the numeral of b _ _ c
    plus = (head + (i * n + j) * tail).ravel()
    minus = (head + (j * n + i) * tail).ravel()
    cols = np.arange(plus.size)
    matrix = np.zeros((n ** d, plus.size), dtype=complex)
    matrix[plus, cols] = 1.0
    matrix[minus, cols] = -q.value
    return IdealSlice(n, q, d, list(words_of_degree(n, d)), matrix)


# perfbench's spans.py wraps this by name; ROADMAP item 1 may drop it with the span.
def slice_matrix(s: IdealSlice) -> tuple[list[Word], np.ndarray]:
    """Degree-d word list (sorted) and the matrix whose columns span the slice."""
    return s.words, s.matrix


def slice_rank(s: IdealSlice) -> int:
    """The sum of the ranks of the slice's letter-count fiber blocks: its rank.

    Each spanning vector joins two words of one fiber, so with the rows grouped
    by fiber and each column put in the fiber of its first nonzero row the
    matrix is block diagonal.
    """
    fibers: dict[MultiIndex, int] = {}
    row = np.array([fibers.setdefault(p_proj(w, s.n), len(fibers)) for w in s.words])
    col = row[(s.matrix != 0).argmax(axis=0)]
    blocks = (s.matrix[np.ix_(row == f, col == f)] for f in np.unique(col))
    return sum(int(np.linalg.matrix_rank(b)) for b in blocks)


def theoretical_slice_rank(n: int, d: int) -> int:
    """n^d minus the number of degree-d monomials, i.e. the kernel dimension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    return n ** d - math.comb(d + n - 1, n - 1)


def canonical_lift(k: Sequence[int]) -> FreeElement:
    """The nondecreasing word with letter counts k, as a free element at cap |k|."""
    kk = as_multi_index(k)
    word = _canonical_word(kk)
    return FreeElement(len(kk), {word: 1.0}, cap=len(word))


@dataclass
class QuotientResult:
    value: float
    per_degree: dict[int, float]
    flags: list[str] = field(default_factory=list)
    # The closed form runs no iteration: always 0 and True.  perfbench reads
    # both (run.py, execute.py); ROADMAP item 1 removes them with its reads.
    iterations: int = 0
    converged: bool = True


def _fiber_log_images(
    target: FreeElement, q: QParameter
) -> list[tuple[MultiIndex, float, float, int]]:
    """(k, m, g, j) with |y_k| = m exp(g) |q|^j, for each letter-count fiber k of the target.

    m is the modulus |t_w| of the fiber's largest term t_w q^(-inv w), j that
    term's -inv(w) and g the log of the fiber sum relative to it, so m keeps
    all its digits and no power of |q| is formed.  Every power of |q| stays
    an integer until it meets log|q|: here in each term's ratio to the
    largest, in the weighted sum where j joins cross(k).  A fiber whose
    terms cancel is left out.
    """
    log_q = math.log(q.modulus)
    phase = QParameter(1.0, q.phase)
    terms: dict[MultiIndex, list[tuple[float, int, float, complex]]] = {}
    for w, c in target.coefficients.items():
        inv = inv_count(w)
        m = abs(c)
        terms.setdefault(p_proj(w, target.n), []).append(
            (math.log(m), inv, m, c / m * phase.power(-inv))
        )
    out = []
    for k, fiber in terms.items():
        log_m, inv, m, _ = max(fiber, key=lambda term: term[0] - term[1] * log_q)
        s = abs(sum(u * math.exp(lm - log_m + (inv - i) * log_q) for lm, i, _, u in fiber))
        if s > 0.0:
            out.append((k, m, math.log(s), -inv))
    return out


def _quotient(
    target: FreeElement, q: QParameter, rho: float, ball: bool, log_tau: float = 0.0
) -> QuotientResult:
    """The coefficient norm of the fiber images y_k, times tau^nnz(k), by degree."""
    check_positive("rho", rho)
    try:
        images = _fiber_log_images(target, q)
    except OverflowError:  # a coefficient modulus past double range
        raise ValueError("norm leaves the double range") from None
    terms = [(k, m, g + log_tau * sum(1 for e in k if e), j) for k, m, g, j in images]
    sums = weighted_degree_sums(terms, q.modulus, rho, ball)
    per_degree = {d: sums.get(d, 0.0) for d in sorted({len(w) for w in target.coefficients})}
    return QuotientResult(sum_of_terms((v, 0.0) for v in per_degree.values()), per_degree)


def quotient_norm_l1(
    target: FreeElement, rho: float, tau: float | None = None, *, q: QParameter
) -> QuotientResult:
    """Quotient of the weighted-l1 family by the commutation ideal.

    tau >= 1 adds the block-count factor tau^(s(w)+1) to the coefficient
    (Taylor) weights rho^|w|; tau=None is tau = 1, the plain weights.
    """
    tau = 1.0 if tau is None else tau
    check_tau(tau)
    return _quotient(target, q, rho, ball=False, log_tau=math.log(tau))


def quotient_norm_l2(target: FreeElement, rho: float, *, q: QParameter) -> QuotientResult:
    """Quotient of the fiberwise-l2 (free ball) norm by the commutation ideal."""
    return _quotient(target, q, rho, ball=True)
