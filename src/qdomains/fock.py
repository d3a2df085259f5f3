"""Degree-truncated creation-operator representation on the n-mode q-Fock space.

For 0 < q < 1 the generators act on the occupation basis e_k by

    x_j e_k = sqrt(1 - q^2) sqrt([k_j + 1]_{q^2}) q^(k_{j+1} + ... + k_n) e_{k + delta_j}

which realizes the commutation relations of the coordinate algebra
together with their adjoint (twisted CCR) counterparts.  Truncating at
total degree K keeps every matrix entry exact; only columns within the
validity window |k| <= K - deg(element) represent the untruncated
operator faithfully, so norms are computed on that column block B.

Applying the generators of x^k = x_1^(k_1) ... x_n^(k_n) with x_n first
and x_1 last, and sqrt(1 - q^2) sqrt([m]_{q^2}) = sqrt(1 - q^(2m)), gives
x^k e_l = c e_{l+k} with

    log c = sum_j [ (P[l_j + k_j] - P[l_j]) / 2 + k_j (sum_{i>j} (l_i + k_i)) log q ],

P[m] = log (q^2; q^2)_m.  Every matrix is built from that closed form, one
q-Pochhammer log table and one integer power of q per entry, with no
matrix product: the entries keep their digits near q = 1 and underflow
cleanly to 0 at tiny q.

A monomial x^k sends e_l to a multiple of e_{l+k}, so column l of B lives
on the rows l + k, k in the support.  Columns l and l' share a row only
when l - l' is a difference of two support indices; the connected
components of that relation split B, up to row and column order, into a
direct sum of blocks, and ||B|| is the largest block norm.  Every
monomial gives one-column blocks (column norms); other elements give
blocks whose size depends on how the support differences link the
window's columns, each with an exact SVD (ARPACK for the largest).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .qcombinatorics import MultiIndex, check_positive, log_pochhammer_table, multi_indices_up_to
from .qspace import QElement, QParameter, scale_auto

# Window components with more columns than this get ARPACK instead of a dense
# SVD.  On fully linked components (1 + x1 + x2, 1 + x1 + x2 + x3; q = 0.2,
# 0.5, 0.9) the two take the same time at 150-170 columns: a dense SVD costs
# 2.7 ms at 136 columns and 14 ms at 253, svds 3.6 and 4.7 ms.
_DENSE_MAX_COLS = 160


class FockTruncation:
    """Graded basis e_k, |k| <= cap, with index lookup."""

    def __init__(self, n: int, q: float, cap: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not (0.0 < q < 1.0):
            raise ValueError("q must lie strictly between 0 and 1")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.n = n
        self.q = float(q)
        self.cap = cap
        self.basis: tuple[MultiIndex, ...] = tuple(multi_indices_up_to(n, cap))
        self.exponents = np.array(self.basis, dtype=np.int64).reshape(len(self.basis), n)
        self.degrees = self.exponents.sum(axis=1)

    @property
    def size(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def index(self) -> dict[MultiIndex, int]:
        """Basis position of each multi-index, as ``positions`` ranks it."""
        return dict(zip(self.basis, self.positions(self.exponents).tolist()))

    def positions(self, exponents: np.ndarray) -> np.ndarray:
        """Basis positions of the rows of an int array of multi-indices, |k| <= cap.

        The basis is graded, and inside a degree the first entry descends
        (recursively), so a position is a sum of binomial counts.
        """
        n = self.n
        binom = self._binomials
        remaining = exponents.sum(axis=1)
        pos = binom[remaining + n - 1, n]  # multi-indices of lower degree
        for i in range(n - 1):
            parts = n - i
            pos = pos + binom[remaining - exponents[:, i] + parts - 2, parts - 1]
            remaining = remaining - exponents[:, i]
        return pos

    @functools.cached_property
    def _binomials(self) -> np.ndarray:
        n = self.n
        return np.array(
            [[math.comb(a, b) for b in range(n + 1)] for a in range(self.cap + n + 1)],
            dtype=np.int64,
        )

    def __repr__(self) -> str:
        return f"FockTruncation(n={self.n}, q={self.q:g}, cap={self.cap}, size={self.size})"


@dataclass
class RepMatrix:
    """Truncated operator matrix plus the degree window where it is exact."""

    matrix: sp.csr_matrix
    fock: FockTruncation
    valid_degree: int

    def window_columns(self) -> np.ndarray:
        return np.nonzero(self.fock.degrees <= self.valid_degree)[0]


def _rep_terms(
    terms: Sequence[tuple[MultiIndex, complex]], fock: FockTruncation, valid_degree: int
) -> RepMatrix:
    """Sum of c_k pi(x)^k over (k, c_k) in ``terms``, one closed form per term.

    Term k fills the columns |l| <= cap - |k|, a prefix of the graded
    basis: column l gets c_k times the amplitude of x^k e_l (the module
    docstring's c) in row l + k.
    """
    P = log_pochhammer_table(fock.cap, fock.q)
    # int32 column indices and row pointers, which scipy would otherwise
    # scan and copy down to int32 itself
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int32)]
    data = [np.zeros(0, dtype=complex)]
    for k, c in terms:
        k = np.array(k, dtype=np.int64)
        width = int(np.searchsorted(fock.degrees, fock.cap - k.sum(), side="right"))
        l = fock.exponents[:width]
        target = l + k
        # sum_j k_j sum_{i>j} target_i = sum_i target_i (k_1 + ... + k_{i-1})
        q_power = target @ (np.cumsum(k) - k)
        amp = np.exp(0.5 * (P[target] - P[l]).sum(axis=1)) * fock.q ** q_power
        rows.append(fock.positions(target))
        cols.append(np.arange(width, dtype=np.int32))
        data.append(c * amp)
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")
    indptr = np.zeros(fock.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=fock.size), out=indptr[1:])
    mat = sp.csr_matrix(
        (np.concatenate(data)[order], np.concatenate(cols)[order], indptr),
        shape=(fock.size, fock.size),
    )
    return RepMatrix(mat, fock, valid_degree)


def rep_generator(j: int, fock: FockTruncation) -> RepMatrix:
    """Matrix of the j-th generator (1-based); exact on columns |k| <= cap-1."""
    if not 1 <= j <= fock.n:
        raise ValueError(f"generator index {j} outside 1..{fock.n}")
    delta = tuple(int(i == j - 1) for i in range(fock.n))
    return _rep_terms([(delta, 1.0)], fock, fock.cap - 1)


def _check_element(a: QElement, fock: FockTruncation) -> None:
    if a.n != fock.n:
        raise ValueError(f"dimension mismatch: element n={a.n}, fock n={fock.n}")
    if a.q.phase != 0.0 or not math.isclose(a.q.modulus, fock.q, rel_tol=0, abs_tol=1e-12):
        raise ValueError("element parameter must equal the (real, in (0,1)) Fock q")
    if a.degree() > fock.cap:
        raise ValueError("element degree exceeds the Fock truncation cap")


def rep_element(a: QElement, fock: FockTruncation) -> RepMatrix:
    """Sum of c_k pi(x)^k over the stored support; window K - deg(a)."""
    _check_element(a, fock)
    return _rep_terms(a.items(), fock, fock.cap - a.degree())


def op_norm(M: RepMatrix) -> float:
    """Largest singular value of the window-column block B, computed exactly.

    Columns of B that share no row act on orthogonal pieces, so B splits
    into the connected components of the pattern of B^H B, and ||B|| is the
    largest component norm: a one-column component gives its column norm, a
    component of up to ``_DENSE_MAX_COLS`` columns the top value of a dense
    SVD, and a larger one the top value from ARPACK (``svds``).  ARPACK
    failing to converge raises ValueError; no estimate is returned.
    """
    window = np.zeros(M.fock.size, dtype=bool)
    window[M.window_columns()] = True
    if not window.any():
        raise ValueError("empty validity window")
    A = M.matrix.tocsr()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    keep = window[A.indices]
    rows, cols, data = rows[keep], A.indices[keep], A.data[keep]
    scale = float(np.max(np.abs(data))) if data.size else 0.0
    if scale == 0.0:
        return 0.0
    data = data / scale  # unit largest entry: squares neither overflow nor underflow
    col_sq = np.bincount(cols, weights=np.abs(data) ** 2, minlength=A.shape[1])

    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=A.shape)
    count, labels = connected_components(pattern.T @ pattern, directed=False)
    sizes = np.bincount(labels, minlength=count)
    best = math.sqrt(float(col_sq[sizes[labels] == 1].max(initial=0.0)))
    groups = np.nonzero(sizes > 1)[0]
    entry_labels = labels[cols]
    order = np.argsort(entry_labels, kind="stable")
    sorted_labels = entry_labels[order]
    starts = np.searchsorted(sorted_labels, groups, side="left")
    stops = np.searchsorted(sorted_labels, groups, side="right")
    for g, lo, hi in zip(groups, starts, stops):
        entries = order[lo:hi]
        _, r = np.unique(rows[entries], return_inverse=True)
        _, c = np.unique(cols[entries], return_inverse=True)
        best = max(best, _component_norm(r, c, data[entries], int(sizes[g])))
    return scale * best


def _component_norm(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, width: int) -> float:
    """Top singular value of one component, given as local COO entries."""
    shape = (int(rows.max()) + 1, width)
    if width <= _DENSE_MAX_COLS or min(shape) < 3:  # ARPACK needs 1 = k < min(shape) - 1
        block = np.zeros(shape, dtype=complex)
        block[rows, cols] = data
        return float(np.linalg.svd(block, compute_uv=False)[0])
    from scipy.sparse.linalg import ArpackNoConvergence, svds

    block = sp.csr_matrix((data, (rows, cols)), shape=shape)
    v0 = np.random.default_rng(0).standard_normal(min(shape))
    try:
        top = svds(block, k=1, v0=v0, return_singular_vectors=False)
    except ArpackNoConvergence as exc:
        raise ValueError(f"ARPACK did not converge on a {shape[0]}x{width} window component") from exc
    return float(top[0])


def vaksman_norm(a: QElement, rho: float, fock: FockTruncation) -> float:
    """Operator norm of the representation of the rho-rescaled element.

    Increasing the truncation cap can only refine the value; the window
    restriction keeps truncation artifacts out of the returned number.
    """
    check_positive("rho", rho)
    return op_norm(rep_element(scale_auto(a, rho), fock))


def verify_tw_ccr(fock: FockTruncation, include_boundary: bool = False) -> float:
    """Max residual of the twisted commutation relations on the window.

    Checks, with X_i the truncated generators and * the adjoint:
      X_i X_j - q X_j X_i            (i < j)
      X_i* X_j - q X_j X_i*          (i != j)
      X_i* X_i - q^2 X_i X_i* - (1-q^2)(1 - sum_{k>i} X_k X_k*)
    on columns |k| <= cap-2; ``include_boundary`` widens to all columns,
    where the truncation makes the relations genuinely fail.
    """
    if fock.cap < 2:
        raise ValueError("need cap >= 2 to compose two generators")
    n, q = fock.n, fock.q
    X = [rep_generator(j, fock).matrix for j in range(1, n + 1)]
    Xs = [x.conj().T.tocsr() for x in X]
    eye = _rep_terms([((0,) * n, 1.0)], fock, fock.cap).matrix  # pi(1)
    # the basis is graded, so the checked columns are a prefix
    width = fock.size if include_boundary else int(np.count_nonzero(fock.degrees <= fock.cap - 2))

    def residual(mat: sp.spmatrix) -> float:
        mat = mat.tocsr()
        return float(np.abs(mat.data[mat.indices < width]).max(initial=0.0))

    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, residual(X[i] @ X[j] - q * (X[j] @ X[i])))
    for i in range(n):
        for j in range(n):
            if i != j:
                worst = max(worst, residual(Xs[i] @ X[j] - q * (X[j] @ Xs[i])))
    for i in range(n):
        tail = sp.csr_matrix((fock.size, fock.size), dtype=complex)
        for k in range(i + 1, n):
            tail = tail + X[k] @ Xs[k]
        rel = Xs[i] @ X[i] - q * q * (X[i] @ Xs[i]) - (1.0 - q * q) * (eye - tail)
        worst = max(worst, residual(rel))
    return worst


def element_for(fock: FockTruncation, coefficients, cap: int | None = None) -> QElement:
    """Convenience: a QElement with the matching real parameter q."""
    return QElement(
        fock.n,
        QParameter(fock.q, 0.0),
        coefficients,
        cap=fock.cap if cap is None else cap,
    )
