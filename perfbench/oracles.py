"""Reference values computed without qdomains.

Each oracle re-derives its quantity from the definitions by brute force or
by a different algorithm than the program uses: fiber enumeration for the
quotient norms, a dense top singular value (or a sandwich of bounds) for the
Fock norms, word enumeration for the JSR partials, the weight formulas for
the coefficient norms and the weight ratio scans, and the closed sphere
maximum for the sampled monomial suprema.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

# ---------------------------------------------------------------------------
# word statistics


def inversions(word) -> int:
    return sum(1 for a in range(len(word)) for b in range(a + 1, len(word)) if word[a] > word[b])


def blocks(word) -> int:
    """Number of maximal runs of equal letters."""
    return sum(1 for a in range(len(word)) if a == 0 or word[a] != word[a - 1])


def letter_counts(word, n: int) -> tuple[int, ...]:
    return tuple(sum(1 for a in word if a == i) for i in range(1, n + 1))


def fiber(k: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct words with letter counts k."""
    out: list[tuple[int, ...]] = []
    counts = list(k)
    word: list[int] = []
    d = sum(k)

    def rec() -> None:
        if len(word) == d:
            out.append(tuple(word))
            return
        for a, c in enumerate(counts):
            if c:
                counts[a] -= 1
                word.append(a + 1)
                rec()
                word.pop()
                counts[a] += 1

    rec()
    return out


@lru_cache(maxsize=None)
def _fiber_stats(k: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(inversions, blocks) of every word in the fiber of k."""
    return tuple((inversions(w), blocks(w)) for w in fiber(k))


# ---------------------------------------------------------------------------
# quotient norms by fiber enumeration


def _fiber_images(terms, n: int, q_mod: float, q_phase: float) -> dict:
    """y_k = sum over target words w in fiber k of c_w q^(-inv w)."""
    ys: dict[tuple[int, ...], complex] = {}
    for w, (re, im) in terms:
        e = inversions(w)
        g = cmath.rect(q_mod ** (-e), -e * q_phase)
        k = letter_counts(w, n)
        ys[k] = ys.get(k, 0j) + complex(re, im) * g
    return ys


def quotient_l1(terms, n: int, q_mod: float, q_phase: float, rho: float, tau: float | None) -> float:
    """Sum over fibers of |y_k| min_w weight(w) / |g_w|, |g_w| = |q|^(-inv w).

    weight(w) = rho^|w| (tau None) or rho^|w| tau^blocks(w): the one-constraint
    weighted l1 problem is solved by putting all mass on the best word.
    """
    total = []
    for k, y in _fiber_images(terms, n, q_mod, q_phase).items():
        if y == 0:
            continue
        d = sum(k)
        best = min(
            (tau ** b if tau is not None else 1.0) * q_mod ** e for e, b in _fiber_stats(k)
        )
        total.append(abs(y) * rho ** d * best)
    return math.fsum(total)


def quotient_l2(terms, n: int, q_mod: float, q_phase: float, rho: float) -> float:
    """Sum over fibers of rho^d |y_k| / ||g||_2 (minimum-norm solution of g.c = y)."""
    total = []
    for k, y in _fiber_images(terms, n, q_mod, q_phase).items():
        if y == 0:
            continue
        gnorm = math.sqrt(math.fsum(q_mod ** (-2 * e) for e, _ in _fiber_stats(k)))
        total.append(rho ** sum(k) * abs(y) / gnorm)
    return math.fsum(total)


# ---------------------------------------------------------------------------
# coefficient norms


def _log_q_int(m: int, t: float) -> float:
    return math.log(math.fsum(t ** j for j in range(m)))


def _log_q_fact(m: int, t: float) -> float:
    return math.fsum(_log_q_int(j, t) for j in range(1, m + 1))


def polydisk_weight(k, q_mod: float) -> float:
    if q_mod >= 1.0:
        return 1.0
    cross = sum(k[i] * k[j] for i in range(len(k)) for j in range(i + 1, len(k)))
    return q_mod ** cross


def ball_weight(k, q_mod: float) -> float:
    """([k]_t! / [|k|]_t!)^(1/2) with t = |q|^-2."""
    t = q_mod ** -2
    return math.exp(0.5 * (math.fsum(_log_q_fact(e, t) for e in k) - _log_q_fact(sum(k), t)))


def weight_ratio_extremes(n: int, d_max: int, q_mod: float) -> tuple[float, float]:
    """Least and largest ball_weight(k) / polydisk_weight(k) over |k| <= d_max, in logs."""
    t = q_mod ** -2
    logs = []
    for k in product(range(d_max + 1), repeat=n):
        if sum(k) > d_max:
            continue
        log_ball = 0.5 * (math.fsum(_log_q_fact(e, t) for e in k) - _log_q_fact(sum(k), t))
        cross = sum(k[i] * k[j] for i in range(n) for j in range(i + 1, n))
        logs.append(log_ball - (cross * math.log(q_mod) if q_mod < 1.0 else 0.0))
    return math.exp(min(logs)), math.exp(max(logs))


def ball_monomial_sup(k, r: float) -> float:
    """max of |z^k| on the sphere of radius r: r^|k| prod (k_i / |k|)^(k_i / 2)."""
    d = sum(k)
    return r ** d * math.prod((e / d) ** (e / 2) for e in k if e)


def coefficient_norm(family: str, terms, n: int, rho: float, q_mod: float = 1.0, tau: float = 1.0) -> float:
    """The CLI's `norm` families, from (multi-index or word, coefficient) terms."""
    if family == "polydisk":
        return math.fsum(abs(complex(*c)) * polydisk_weight(k, q_mod) * rho ** sum(k) for k, c in terms)
    if family == "ball":
        return math.fsum(abs(complex(*c)) * ball_weight(k, q_mod) * rho ** sum(k) for k, c in terms)
    if family == "free-taylor":
        return math.fsum(abs(complex(*c)) * rho ** len(w) for w, c in terms)
    if family == "free-polydisk":
        return math.fsum(abs(complex(*c)) * rho ** len(w) * tau ** blocks(w) for w, c in terms)
    if family == "free-ball":
        fibers: dict[tuple[int, ...], float] = {}
        for w, c in terms:
            k = letter_counts(w, n)
            fibers[k] = fibers.get(k, 0.0) + abs(complex(*c)) ** 2
        return math.fsum(math.sqrt(v) * rho ** sum(k) for k, v in fibers.items())
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# JSR partials by word enumeration


def jsr_partials(family: str, n: int, q_mod: float, p: float, d_max: int) -> dict[int, float]:
    """R_d at rho = 1 from all n^d word products: ||x_w|| = |q|^(-inv w) W(k)."""
    weight = polydisk_weight if family == "polydisk" else ball_weight
    out = {}
    for d in range(1, d_max + 1):
        terms = []
        for w in product(range(1, n + 1), repeat=d):
            terms.append((q_mod ** (-inversions(w)) * weight(letter_counts(w, n), q_mod)) ** p)
        out[d] = math.fsum(terms) ** (1.0 / (p * d))
    return out


# ---------------------------------------------------------------------------
# Fock representation


def fock_window_block(n: int, q: float, cap: int, terms, rho: float) -> sp.csc_matrix:
    """Window columns of sum c_k rho^|k| X1^k1 ... Xn^kn on the truncated Fock space.

    X_j e_k = sqrt(1 - q^(2(k_j + 1))) q^(k_(j+1) + ... + k_n) e_(k + delta_j),
    which is sqrt(1 - q^2) sqrt([k_j + 1]_(q^2)) written in closed form.
    """
    basis = [k for k in product(range(cap + 1), repeat=n) if sum(k) <= cap]
    index = {k: i for i, k in enumerate(basis)}
    size = len(basis)
    gens = []
    for j in range(n):
        rows, cols, vals = [], [], []
        for col, k in enumerate(basis):
            if sum(k) >= cap:
                continue
            target = k[:j] + (k[j] + 1,) + k[j + 1:]
            rows.append(index[target])
            cols.append(col)
            vals.append(math.sqrt(1.0 - q ** (2 * (k[j] + 1))) * q ** sum(k[j + 1:]))
        gens.append(sp.csr_matrix((vals, (rows, cols)), shape=(size, size), dtype=complex))
    acc = sp.csr_matrix((size, size), dtype=complex)
    for k, c in terms:
        mono = sp.identity(size, dtype=complex, format="csr")
        for j, e in enumerate(k):
            for _ in range(e):
                mono = mono @ gens[j]
        acc = acc + complex(*c) * rho ** sum(k) * mono
    degree = max(sum(k) for k, _ in terms)
    window = [i for i, k in enumerate(basis) if sum(k) <= cap - degree]
    return acc.tocsc()[:, window]


def fock_dense_norm(n: int, q: float, cap: int, terms, rho: float) -> float:
    """Top singular value of the window block, from the dense Gram matrix."""
    B = fock_window_block(n, q, cap, terms, rho).toarray()
    return float(math.sqrt(max(np.linalg.eigvalsh(B.conj().T @ B)[-1], 0.0)))


def fock_sandwich(n: int, q: float, cap: int, terms, rho: float) -> tuple[float, float]:
    """max column norm <= ||B|| <= sum |c_k| rho^|k| (every generator has norm <= 1)."""
    B = fock_window_block(n, q, cap, terms, rho)
    lower = float(np.sqrt(np.max(np.asarray(abs(B).power(2).sum(axis=0)))))
    upper = math.fsum(abs(complex(*c)) * rho ** sum(k) for k, c in terms)
    return lower, upper
