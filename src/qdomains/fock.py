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
components of that relation split the Gram matrix B^H B into a direct sum
of blocks, and ||B||^2 is their largest top eigenvalue.  When no two
entries share a row, as for every monomial, the Gram matrix is diagonal
and ||B||^2 is its largest column sum of squares.  Other elements give
blocks whose size depends on how the support differences link the window's
columns.  Blocks of one width get one stacked dense eigvalsh; ARPACK takes
only those too wide for it.

A representation is plain data: a ``RepMatrix`` holds its entries as row,
column and value arrays, sorted by row.  Only ``op_norm`` on a Gram matrix
that is not diagonal (component search and ARPACK) and the
``RepMatrix.matrix`` view import scipy.sparse, so importing this module,
building a representation, norming a monomial or checking the twisted CCR
does not load it.

The twisted-CCR residuals need no matrix: a generator, its adjoint and a
product of two of them send each basis vector to a multiple of at most one
other, so every product is one index lookup on such weighted partial maps.
One pass gives the window and the all-column maxima together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .qcombinatorics import MultiIndex, check_positive, compositions_up_to, log_pochhammer_table
from .qspace import QElement, QParameter, scale_auto

if TYPE_CHECKING:
    import scipy.sparse as sp

# Window components with more columns than this get ARPACK instead of a dense
# eigvalsh of their Gram block.  On fully linked components (1 + x1 + x2,
# 1 + x1 + x2 + x3; q = 0.2, 0.5, 0.9) the two take the same time at 220-280
# columns: eigvalsh costs 1.0-1.8 ms at 105-120 columns and 10-18 ms at
# 364-406, eigsh 2.7-4.8 and 4.1-5.8 ms.
_DENSE_MAX_COLS = 240

# Largest basis a truncation enumerates, which bounds a request's time: n = 3 at
# cap 60 has 39,711 elements, and a norm at 40-50 thousand takes 0.3-1.5 s.
BASIS_LIMIT = 100_000


class FockTruncation:
    """Graded basis e_k, |k| <= cap, as the rows of ``exponents``; ``positions`` finds k in it.

    The e_k with |k| <= D are the first ``prefix(D)`` rows; every window is one.
    """

    def __init__(self, n: int, q: float, cap: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not (0.0 < q < 1.0):
            raise ValueError("q must lie strictly between 0 and 1")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        size = math.comb(cap + n, n)
        if size > BASIS_LIMIT:
            raise ValueError(
                f"n = {n}, cap = {cap} gives {size} basis elements, "
                f"more than the limit of {BASIS_LIMIT}"
            )
        self.n = n
        self.q = float(q)
        self.cap = cap
        # a C-contiguous copy: Fock norms read it a few percent faster than the strided view
        self.exponents = np.ascontiguousarray(compositions_up_to(n, cap))
        # [d, b] counts the b-part multi-indices of degree below d, C(d - 1 + b, b):
        # the hockey-stick sum of column b - 1.  No count exceeds the basis size.
        below = np.ones((cap + 1, n + 1), dtype=np.int64)
        below[0] = 0
        for b in range(1, n + 1):
            below[:, b] = np.cumsum(below[:, b - 1])
        self._binomials = below

    @property
    def size(self) -> int:
        return len(self.exponents)

    def prefix(self, d: int) -> int:
        """Number of basis elements of degree <= d, C(d + n, n); 0 for d < 0."""
        return math.comb(d + self.n, self.n) if d >= 0 else 0

    def positions(self, exponents: np.ndarray) -> np.ndarray:
        """Basis positions of the rows of an int array of multi-indices, |k| <= cap.

        The basis is graded, and inside a degree the first entry descends
        (recursively), so a position is a sum of binomial counts.
        """
        n, below = self.n, self._binomials
        remaining = exponents.sum(axis=1)
        pos = below[remaining, n]  # multi-indices of lower degree
        for i in range(n - 1):
            remaining = remaining - exponents[:, i]
            pos = pos + below[remaining, n - i - 1]
        return pos

    def __repr__(self) -> str:
        return f"FockTruncation(n={self.n}, q={self.q:g}, cap={self.cap}, size={self.size})"


@dataclass
class RepMatrix:
    """Truncated operator entries, sorted by row, plus the degree window where it is exact.

    Entry i is ``values[i]`` at (``rows[i]``, ``cols[i]``); no two share a
    position.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    fock: FockTruncation
    valid_degree: int

    @property
    def matrix(self) -> sp.csr_matrix:
        """The entries as a scipy CSR matrix, built on each access."""
        import scipy.sparse as sp

        shape = (self.fock.size, self.fock.size)
        return sp.csr_matrix((self.values, (self.rows, self.cols)), shape=shape)

    def window_columns(self) -> np.ndarray:
        return np.arange(self.fock.prefix(self.valid_degree))


def _monomial_entries(
    k: Sequence[int], fock: FockTruncation, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row and amplitude of x^k e_l for each column l = 0..width-1 it keeps.

    Those are the columns |l| <= cap - |k|, the prefix of the graded basis
    of length width = C(cap - |k| + n, n).  Column l goes to row l + k with
    the module docstring's c, read off ``P = log_pochhammer_table(cap, q)``.
    """
    k = np.array(k, dtype=np.int64)
    width = fock.prefix(fock.cap - int(k.sum()))
    l = fock.exponents[:width]
    target = l + k
    # sum_j k_j sum_{i>j} target_i = sum_i target_i (k_1 + ... + k_{i-1})
    q_power = target @ (np.cumsum(k) - k)
    amp = np.exp(0.5 * (P[target] - P[l]).sum(axis=1)) * fock.q ** q_power
    return fock.positions(target), amp


def _rep_terms(
    terms: Sequence[tuple[MultiIndex, complex]], fock: FockTruncation, valid_degree: int
) -> RepMatrix:
    """Sum of c_k pi(x)^k over (k, c_k) in ``terms``, one closed form per term.

    Term k fills the columns of its ``_monomial_entries``: column l gets
    c_k times the amplitude of x^k e_l in row l + k.
    """
    P = log_pochhammer_table(fock.cap, fock.q)
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    values = [np.zeros(0, dtype=complex)]
    for k, c in terms:
        row, amp = _monomial_entries(k, fock, P)
        rows.append(row)
        cols.append(np.arange(row.size))
        values.append(c * amp)
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")
    return RepMatrix(
        row[order], np.concatenate(cols)[order], np.concatenate(values)[order], fock, valid_degree
    )


def rep_generator(j: int, fock: FockTruncation) -> RepMatrix:
    """Matrix of the j-th generator (1-based); exact on columns |k| <= cap-1."""
    if not 1 <= j <= fock.n:
        raise ValueError(f"generator index {j} outside 1..{fock.n}")
    delta = tuple(int(i == j - 1) for i in range(fock.n))
    return _rep_terms([(delta, 1.0)], fock, fock.cap - 1)


def _check_element(a: QElement, fock: FockTruncation) -> None:
    if a.n != fock.n:
        raise ValueError(f"dimension mismatch: element n={a.n}, fock n={fock.n}")
    if a.q.phase != 0.0 or not math.isclose(a.q.modulus, fock.q, rel_tol=1e-12):
        raise ValueError("element parameter must equal the (real, in (0,1)) Fock q")
    if a.degree() > fock.cap:
        raise ValueError("element degree exceeds the Fock truncation cap")


def rep_element(a: QElement, fock: FockTruncation) -> RepMatrix:
    """Sum of c_k pi(x)^k over the stored support; window K - deg(a)."""
    _check_element(a, fock)
    return _rep_terms(a.items(), fock, fock.cap - a.degree())


def op_norm(M: RepMatrix) -> float:
    """Largest singular value of the window-column block B, computed exactly.

    The window |k| <= D, D = ``M.valid_degree``, is the prefix of
    C(D + n, n) columns of the graded basis.  ||B||^2 is the top eigenvalue
    of the Gram matrix G = B^H B.  When no two entries share a row, every
    monomial's case, G is diagonal and ||B||^2 is the largest column sum of
    |d|^2, with no scipy import.  Otherwise columns of B that share no row
    act on orthogonal pieces, so G splits into the connected components of
    its pattern and ||B|| is the largest component norm.  Components of up
    to ``_DENSE_MAX_COLS`` columns, one-column ones included, are stacked by
    width, one batched ``eigvalsh`` per width; a wider one gives its sparse
    Gram block to ARPACK (``eigsh``).  ARPACK failing to converge raises
    ValueError; no estimate is returned.
    """
    width = M.fock.prefix(M.valid_degree)
    if width == 0:
        raise ValueError("empty validity window")
    keep = M.cols < width  # the window is a prefix of the graded basis
    rows, cols, data = M.rows[keep], M.cols[keep], M.values[keep]
    scale = float(np.max(np.abs(data))) if data.size else 0.0
    if scale == 0.0:
        return 0.0
    data = data / scale  # unit largest entry: squares neither overflow nor underflow
    if not (rows[1:] == rows[:-1]).any():
        # no two entries share a row: G is diagonal, column c holding sum |d|^2
        squares = (data.conj() * data).real
        return scale * math.sqrt(float(np.bincount(cols, squares, minlength=width).max()))

    # the entries are sorted by row; every two that share a row, i and j
    # (i = j included), give the Gram entry (c_i, c_j, conj(d_i) d_j)
    first = np.searchsorted(rows, rows)
    per_entry = np.searchsorted(rows, rows, side="right") - first
    left = np.repeat(np.arange(rows.size), per_entry)
    right = np.arange(left.size) - np.repeat(np.cumsum(per_entry) - per_entry - first, per_entry)
    gl, gr, gram = cols[left], cols[right], data[left].conj() * data[right]
    if not gram.imag.any():
        gram = gram.real  # real blocks: a faster eigvalsh, and Lanczos in place of Arnoldi

    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    indptr = np.zeros(width + 1, dtype=np.int64)
    np.cumsum(np.bincount(gl, minlength=width), out=indptr[1:])
    pattern = sp.csr_matrix(
        (np.ones(gl.size), gr[np.argsort(gl, kind="stable")], indptr), shape=(width, width)
    )
    # the pattern repeats entries; scipy 1.17's connection="strong" never returns on that
    count, labels = connected_components(pattern, directed=False)
    # renumber the components by width and the columns inside each component;
    # the dense components' blocks then lie one after another in one buffer,
    # and those of one width form one stacked array
    sizes = np.bincount(labels)
    by_width = np.argsort(sizes, kind="stable")
    labels, sizes = np.argsort(by_width)[labels], sizes[by_width]
    local = np.empty(width, dtype=np.int64)
    first_column = np.repeat(np.cumsum(sizes) - sizes, sizes)
    local[np.argsort(labels, kind="stable")] = np.arange(width) - first_column
    ends = np.concatenate(([0], np.cumsum(sizes**2)))
    dense = int(np.searchsorted(sizes, _DENSE_MAX_COLS, side="right"))

    label, li, lj = labels[gl], local[gl], local[gr]
    w = sizes[label]
    fits = label < dense
    blocks = np.zeros(ends[dense], dtype=gram.dtype)
    np.add.at(blocks, (ends[label] + li * w + lj)[fits], gram[fits])
    best = 0.0
    widths, firsts = np.unique(sizes[:dense], return_index=True)
    for k, lo, hi in zip(widths, firsts, [*firsts[1:], dense]):
        stack = blocks[ends[lo]:ends[hi]].reshape(hi - lo, k, k)
        best = max(best, float(np.linalg.eigvalsh(stack)[:, -1].max()))
    for g in range(dense, count):
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        k, mine = int(sizes[g]), label == g
        block = sp.csr_matrix((gram[mine], (li[mine], lj[mine])), shape=(k, k))
        v0 = np.random.default_rng(0).standard_normal(k)
        try:
            # 80 Lanczos vectors: x1 + 0.5*x2 + 0.3*x1*x2 at n = 3, cap 60, q = 0.7,
            # rho = 0.9 fails at the default 20 and takes 3.5 s at 40, 1.1 s at 80
            top = eigsh(block, k=1, which="LA", v0=v0, ncv=min(k, 80), return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise ValueError(f"ARPACK did not converge on a {k}-column window component") from exc
        best = max(best, float(top[0]))
    return scale * math.sqrt(best)


def vaksman_norm(a: QElement, rho: float, fock: FockTruncation) -> float:
    """Window norm of the representation of the rho-rescaled element.

    The window columns are exact images of the untruncated operator, so
    the value is a lower bound for its norm that rises with the cap.  For
    a non-monomial it still moves in the third digit at the CLI's default
    cap 16, closing about like 1/K^2; monomials converge geometrically.
    """
    check_positive("rho", rho)
    return op_norm(rep_element(scale_auto(a, rho), fock))


# A weighted partial map over size + 1 slots: column c goes to row to[c] with
# value val[c].  Slot ``size`` stands for "no column": it maps to itself with
# value 0, so a column the truncation drops stays zero through any product.
_PartialMap = tuple[np.ndarray, np.ndarray]


def _partial_maps(
    rows: np.ndarray, vals: np.ndarray, size: int
) -> tuple[_PartialMap, _PartialMap]:
    """The map sending column c < rows.size to vals[c] e_{rows[c]}, and its adjoint.

    The adjoint inverts the map and conjugates its values; that needs every
    row hit at most once, and a row hit twice raises ValueError.
    """
    if np.bincount(rows).max(initial=0) > 1:
        raise ValueError("two columns map to one row; the adjoint needs an injective map")
    cols = np.arange(rows.size)
    to, val = np.full(size + 1, size), np.zeros(size + 1, dtype=vals.dtype)
    to_adj, val_adj = to.copy(), val.copy()
    to[cols], val[cols] = rows, vals
    to_adj[rows], val_adj[rows] = cols, vals.conj()
    return (to, val), (to_adj, val_adj)


def _compose(a: _PartialMap, b: _PartialMap) -> _PartialMap:
    """The product A B: column c goes through B, then through A."""
    return a[0][b[0]], a[1][b[0]] * b[1]


def verify_tw_ccr(fock: FockTruncation) -> tuple[float, float]:
    """Max residuals of the twisted commutation relations: (window, everywhere).

    Checks, with X_i the truncated generators and * the adjoint:
      X_i X_j - q X_j X_i            (i < j)
      X_i* X_j - q X_j X_i*          (i != j)
      X_i* X_i - q^2 X_i X_i* - (1-q^2)(1 - sum_{k>i} X_k X_k*)
    The first maximum is over the columns |k| <= cap-2, where the relations
    hold: the prefix of C(cap - 2 + n, n) columns of the graded basis.  The
    second is over all columns, where the truncation makes them genuinely
    fail.  A generator sends each column to at most one row, and so do its
    adjoint and every product of two of them: they are weighted partial
    maps, read off the entries ``rep_generator`` holds.  All terms of a relation
    move a column by one multi-index, so they meet on one row (or vanish).
    """
    if fock.cap < 2:
        raise ValueError("need cap >= 2 to compose two generators")
    n, q, size = fock.n, fock.q, fock.size
    P = log_pochhammer_table(fock.cap, q)
    deltas = np.eye(n, dtype=np.int64)
    X, Xs = zip(*(_partial_maps(*_monomial_entries(d, fock, P), size) for d in deltas))
    eye = (np.arange(size + 1), np.append(np.ones(size), 0.0))  # pi(1)
    rels = [
        [(1.0, _compose(X[i], X[j])), (-q, _compose(X[j], X[i]))]
        for i in range(n) for j in range(i + 1, n)
    ]
    rels += [
        [(1.0, _compose(Xs[i], X[j])), (-q, _compose(X[j], Xs[i]))]
        for i in range(n) for j in range(n) if i != j
    ]
    rels += [
        [(1.0, _compose(Xs[i], X[i])), (-q * q, _compose(X[i], Xs[i])), (q * q - 1.0, eye)]
        + [(1.0 - q * q, _compose(X[k], Xs[k])) for k in range(i + 1, n)]
        for i in range(n)
    ]
    residual = np.abs([sum(c * m[1][:size] for c, m in terms) for terms in rels])
    width = fock.prefix(fock.cap - 2)
    return float(residual[:, :width].max(initial=0.0)), float(residual.max(initial=0.0))


def element_for(fock: FockTruncation, coefficients) -> QElement:
    """Convenience: a QElement with the matching real parameter q."""
    return QElement(fock.n, QParameter(fock.q, 0.0), coefficients, cap=fock.cap)
