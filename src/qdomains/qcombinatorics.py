"""Word statistics and q-numerical weights underlying the seminorm families.

Multi-indices are plain tuples of nonnegative ints (exponent vectors of
normal-ordered monomials), words are tuples over the letter alphabet
``1..n``.  Next to the scalar helpers sit the graded-table kernels: the
log q-Pochhammer table behind every ball and q-multinomial weight, the
log-domain convolution power that sums a letter-separable term over every
multi-index of each degree at once, and the Sobol sample behind the sampled
suprema, drawn once per (domain, n, point count, seed) and kept read-only;
scipy.stats, slow to import, is loaded when the first sample is drawn.
:func:`sum_of_terms` is the one term sum behind every coefficient seminorm.
Everything in this module is a pure function of its arguments; the stateful
containers live in :mod:`qdomains.qspace` and :mod:`qdomains.freeseries`.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

MultiIndex = tuple[int, ...]
Word = tuple[int, ...]

def as_multi_index(entries: Sequence[int], n: int | None = None) -> MultiIndex:
    """Normalize and validate a multi-index (all entries integers >= 0)."""
    # a tuple of non-negative ints is already normal (bool is not int here)
    if type(entries) is tuple and all(type(e) is int and e >= 0 for e in entries):
        k = entries
    else:
        raw = list(entries)
        if any(int(e) != e for e in raw):
            raise ValueError("multi-index entries must be integers")
        k = tuple(int(e) for e in raw)
        if any(e < 0 for e in k):
            raise ValueError(f"multi-index entries must be >= 0, got {k}")
    if n is not None and len(k) != n:
        raise ValueError(f"expected {n} entries, got {len(k)}")
    return k


def as_word(letters: Sequence[int], n: int) -> Word:
    """Normalize and validate a word over the alphabet 1..n."""
    w = tuple(int(a) for a in letters)
    for a in w:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} outside alphabet 1..{n}")
    return w


def degree(k: Sequence[int]) -> int:
    """Total degree |k| (word length for words)."""
    return sum(k)


def s_stat(word: Word) -> int:
    """Number of adjacent letter changes; by convention len(word)-1 for length 0, 1.

    s(word)+1 is the number of maximal constant blocks (0 for the empty word).
    """
    if len(word) <= 1:
        return len(word) - 1
    return sum(1 for a, b in zip(word, word[1:]) if a != b)


def p_proj(word: Word, n: int) -> MultiIndex:
    """Letter-count projection: entry i is the number of occurrences of i+1."""
    counts = [0] * n
    for a in word:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} outside alphabet 1..{n}")
        counts[a - 1] += 1
    return tuple(counts)


def _canonical_word(k: MultiIndex) -> Word:
    """The nondecreasing word with letter counts k, the right inverse of :func:`p_proj`."""
    return tuple(i + 1 for i, e in enumerate(k) for _ in range(e))


def inv_count(word: Word) -> int:
    """Number of inversions: pairs s < t with word[s] > word[t]."""
    total = 0
    for s in range(len(word)):
        a = word[s]
        for b in word[s + 1:]:
            if a > b:
                total += 1
    return total


def cross_degree_sum(k: Sequence[int]) -> int:
    """sum_{i<j} k_i k_j, always an integer: (|k|^2 - sum k_i^2) / 2."""
    d = sum(k)
    return (d * d - sum(e * e for e in k)) // 2


# ---------------------------------------------------------------------------
# graded log tables


def log_pochhammer_table(d_max: int, q_mod: float) -> np.ndarray:
    """Table P with P[m] = log (s; s)_m = sum_{j <= m} log(1 - s^j), m = 0..d_max.

    s = min(|q|, 1/|q|)^2.  Each term comes from log s^j = -2 j |log |q||
    by whichever of log1p / expm1 keeps its digits, so no power of |q|
    is formed and any positive finite |q| is fine.  At |q| = 1 the table
    holds log m! instead: only differences sum_i P[k_i] - P[|k|] over
    sum_i k_i = |k| are ever used, terms linear in m cancel in them, and
    log m! is the limit of P[m] - m log(1 - s) as s -> 1.  For the same
    reason P stands in for log [m]_s! = P[m] - m log(1 - s) in such sums.

    Kept apart from the jsr module's log [m]_s! table: log (s; s)_m stays
    bounded, so these differences keep their digits away from |q| = 1
    (``test_weight_ratio_scan_extremes_match_mpmath``, rel 4.5e-16).
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    check_positive("q_mod", q_mod)
    j = np.arange(1, d_max + 1, dtype=float)
    log_s = -2.0 * abs(math.log(q_mod))
    if q_mod == 1.0:
        terms = np.log(j)
    else:
        log_sj = j * log_s
        terms = np.log1p(-np.exp(log_sj))
        if log_s >= -_LN2:  # s^j >= 1/2 for small j, where log1p(-s^j) loses digits
            terms = np.where(log_sj < -_LN2, terms, np.log(-np.expm1(log_sj)))
    out = np.zeros(d_max + 1)
    np.cumsum(terms, out=out[1:])
    return out


def check_positive(name: str, x: float) -> None:
    """Raise ValueError unless 0 < x < inf (nan fails)."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def checked_power(x: float, e: float) -> float:
    """x**e for x > 0, raising ValueError where the value leaves double range."""
    try:
        return float(x) ** e
    except OverflowError:
        raise ValueError(f"{x!r}**{e!r} leaves the double range") from None


_LN2 = math.log(2.0)


def sum_of_terms(pairs: Iterable[tuple[float, float]]) -> float:
    """Sum of m exp(w) over (modulus m >= 0, log weight w) pairs, behind every seminorm.

    A term is ldexp(f exp(w - j ln 2), e + j), m = f 2^e, j = round(w / ln 2):
    m keeps all its digits, so the term is right to a few ulps times
    max(1, |w|), where exp(log m + w) would lose |log m| ulps.  Whatever
    leaves double range, a modulus, a term or the sum, raises ValueError.
    """
    try:
        terms = []
        for m, w in pairs:
            f, e = math.frexp(m)
            j = round(w / _LN2)
            terms.append(math.ldexp(f * math.exp(w - j * _LN2), e + j))
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("norm leaves the double range")
    return total


def log_convolution_power(g: np.ndarray, n: int, *, maxplus: bool = False) -> np.ndarray:
    """Entry d is log sum_{|k| = d} exp(g[k_1] + ... + g[k_n]) over length-n k.

    The n-fold self-convolution of exp(g), formed in the log domain by
    n - 1 log-sum-exp convolutions; with ``maxplus`` the sum becomes a max.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = len(g)
    lag = np.subtract.outer(np.arange(size), np.arange(size))  # lag[d, j] = d - j
    below = lag >= 0
    g_lag = np.where(below, g[np.where(below, lag, 0)], -np.inf)
    out = np.asarray(g, dtype=float)
    for _ in range(n - 1):
        terms = g_lag + out  # terms[d, j] = g[d - j] + out[j]
        top = np.max(terms, axis=1)
        if not maxplus:
            with np.errstate(under="ignore"):
                top = top + np.log(np.sum(np.exp(terms - top[:, None]), axis=1))
        out = top
    return out


# ---------------------------------------------------------------------------
# norm weights


def weight_law(
    q_mod: float, d_max: int, ball: bool = True
) -> Callable[..., tuple[float, float]]:
    """The one weight law: a function of k giving (log w_q(k), ball factor), |k| <= d_max.

    The polydisk weight is w_q(k) = min(1, |q|^cross(k)), cross(k) =
    sum_{i<j} k_i k_j; the ball weight ([k]_t! / [|k|]_t!)^(1/2), t = |q|^-2,
    is w_q(k) times exp of the ball factor (sum_i P[k_i] - P[|k|]) / 2,
    P = :func:`log_pochhammer_table`.  The identity holds for every positive
    finite |q| and forms no power of |q| above 1: with s = min(|q|, 1/|q|)^2,
    [m]_s! = (s; s)_m / (1 - s)^m, and for |q| < 1, [m]_(1/s) = s^-(m-1) [m]_s
    leaves the factor |q|^cross(k).  At |q| = 1 the factor is log (k!/|k|!)^(1/2).

    k is one multi-index, or the columns K.T of an int array K of them, which
    weighs every row at once by the same arithmetic; one index costs no numpy
    call, which is most of a small norm's time.  An integer j multiplies the
    polydisk weight by |q|^j: the exponent of |q| is summed as an integer
    and meets log|q| in one product, so where cross(k) and -j nearly cancel
    the log weight is not the difference of two rounded products.  Without
    ``ball`` the factor is 0 and P is not built.
    """
    check_positive("q_mod", q_mod)
    log_q = math.log(q_mod)
    small = q_mod < 1.0
    pochhammer = log_pochhammer_table(d_max, q_mod) if ball else None

    def law(k, j=0):
        # cross(k) is weighed only for |q| < 1
        log_w = (cross_degree_sum(k) * small + j) * log_q
        if pochhammer is None:
            return log_w, 0.0
        return log_w, 0.5 * (sum(pochhammer[e] for e in k) - pochhammer[sum(k)])

    return law


def _law_of(k: Sequence[int], q_mod: float, ball: bool) -> float:
    """log w_q(k), times the ball factor with ``ball``, for one multi-index."""
    kk = as_multi_index(k)
    return float(sum(weight_law(q_mod, degree(kk), ball)(kk)))


def w_q(k: Sequence[int], q_mod: float) -> float:
    """Polydisk weight: 1 for |q| >= 1, else |q|^(sum_{i<j} k_i k_j); see :func:`weight_law`."""
    return math.exp(log_w_q(k, q_mod))


def log_w_q(k: Sequence[int], q_mod: float) -> float:
    return _law_of(k, q_mod, ball=False)


def log_ball_weight(k: Sequence[int], q_mod: float) -> float:
    """log of the ball weight ([k]_t! / [|k|]_t!)^(1/2), t = |q|^-2; see :func:`weight_law`."""
    return _law_of(k, q_mod, ball=True)


def ball_weight(k: Sequence[int], q_mod: float) -> float:
    """Ball weight ([k]_t! / [|k|]_t!)^(1/2), t = |q|^-2; see :func:`weight_law`."""
    return math.exp(log_ball_weight(k, q_mod))


Domain = Literal["polydisk", "ball"]


def monomial_sup(k: Sequence[int], domain: Domain, r: float) -> float:
    """Supremum of |z^k| over the closed polydisk / Euclidean ball of radius r.

    polydisk: r^|k|; ball: (k^k / |k|^|k|)^(1/2) r^|k| with 0^0 = 1.
    """
    check_positive("r", r)
    kk = as_multi_index(k)
    d = degree(kk)
    if domain == "polydisk":
        return r ** d
    if domain != "ball":
        raise ValueError(f"unknown domain {domain!r}")
    if d == 0:
        return 1.0
    lv = 0.5 * (math.fsum(e * math.log(e) for e in kk if e > 0) - d * math.log(d))
    return math.exp(lv + d * math.log(r))


def stirling_ratio(k: Sequence[int]) -> float:
    """[(k!/|k|!) / (k^k/|k|^|k|)]^(1/(2|k|)); tends to 1 along rays."""
    kk = as_multi_index(k)
    d = degree(kk)
    if d == 0:
        raise ValueError("stirling_ratio needs |k| >= 1")
    num = math.fsum(math.lgamma(e + 1) for e in kk) - math.lgamma(d + 1)
    den = math.fsum(e * math.log(e) for e in kk if e > 0) - d * math.log(d)
    return math.exp((num - den) / (2.0 * d))


@functools.lru_cache(maxsize=4)
def _log_sample(domain: Domain, n: int, m: int, seed: int) -> np.ndarray:
    """Read-only logs of 2^m scrambled Sobol points, one row per point.

    ball: squared moduli on the unit sphere, i.e. points of the standard
    (n-1)-simplex by sorted spacings; polydisk: moduli in the unit box.
    Zero coordinates give -inf.
    """
    from scipy.stats import qmc

    if domain == "ball":
        if n == 1:
            u = np.ones((1, 1))
        else:
            s = qmc.Sobol(d=n - 1, scramble=True, seed=seed).random_base2(m)
            s.sort(axis=1)
            u = np.diff(s, axis=1, prepend=0.0, append=1.0)
    else:  # polydisk; sampled_monomial_sup rejects any other domain
        u = qmc.Sobol(d=n, scramble=True, seed=seed).random_base2(m)
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u.flags.writeable = False
    return u


def sampled_monomial_sup(
    k: Sequence[int],
    domain: Domain,
    r: float,
    points: int = 1 << 20,
    seed: int = 0,
) -> float:
    """Sampled lower estimate of monomial_sup over quasi-random domain points.

    Sampling can only underestimate the true supremum.  On the ball the
    maximizer is interior to the sphere simplex and ~10^5 Sobol points keep
    the one-sided gap below 1% for small exponents; on the polydisk the
    maximizer is a box corner and the box sampling is a much coarser
    underestimate.  The point count is rounded up to a power of 2; the
    sample for the unit domain is drawn once per (domain, n, point count,
    seed) and kept, so each call is one matrix-vector product.
    """
    check_positive("r", r)
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if domain not in ("polydisk", "ball"):
        raise ValueError(f"unknown domain {domain!r}")
    kk = as_multi_index(k)
    d = degree(kk)
    if d == 0:
        return 1.0
    m = max(1, math.ceil(math.log2(points)))
    logs = _log_sample(domain, len(kk), m, seed)
    ke = np.asarray(kk, dtype=float)
    if domain == "ball":
        ke *= 0.5  # the sample holds squared moduli
    return float(np.exp(np.max(logs @ ke) + d * math.log(r)))


# ---------------------------------------------------------------------------
# graded enumeration


def multi_indices_of_degree(n: int, d: int) -> Iterator[MultiIndex]:
    """All length-n multi-indices of total degree d, first entry descending."""
    return map(tuple, composition_array(n, d).tolist())


def multi_indices_up_to(n: int, d_max: int) -> Iterator[MultiIndex]:
    """All length-n multi-indices of degree <= d_max, graded."""
    return map(tuple, compositions_up_to(n, d_max).tolist())


def composition_array(n: int, d: int) -> np.ndarray:
    """All length-n multi-indices of degree d as an int array, one per row: the one enumeration.

    The first entry descends, and the rest follow recursively: the rows are
    (d - |r|, r) for the (n-1)-part indices r with |r| <= d, graded.  Those
    are built part by part from the empty index: the degree-e indices with
    one more part are (e - |r|, r) for the rows r up to degree e, a prefix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    degrees = np.arange(d + 1, dtype=np.int64)
    rows, deg = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        counts = np.searchsorted(deg, degrees, side="right")  # rows up to degree e
        prefix = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        e = np.repeat(degrees, counts)
        rows, deg = np.column_stack([e - deg[prefix], rows[prefix]]), e
    return np.column_stack([d - deg, rows])


def compositions_up_to(n: int, d_max: int) -> np.ndarray:
    """All length-n multi-indices of degree <= d_max, graded, as a strided int array view."""
    # the degree-d_max indices with n + 1 parts, first entry dropped
    return composition_array(n + 1, d_max)[:, 1:]


def words_of_degree(n: int, d: int) -> Iterator[Word]:
    """All n^d words of length d over 1..n, lexicographic."""
    return itertools.product(range(1, n + 1), repeat=d)
