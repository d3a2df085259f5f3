"""Truncated Fock representation: entries, relations, operator norms."""

import inspect
import math

import mpmath
import numpy as np
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qdomains.fock as fock_module
from qdomains.fock import (
    FockTruncation,
    element_for,
    op_norm,
    rep_element,
    rep_generator,
    vaksman_norm,
    verify_tw_ccr,
)
from qdomains.parsing import parse_qelement
from qdomains.qcombinatorics import multi_indices_up_to
from qdomains.qspace import QElement, QParameter


def position(fock, *k):
    return int(fock.positions(np.array([k]))[0])


def test_basis_layout():
    fock = FockTruncation(2, 0.5, 3)
    assert fock.size == 10  # 1 + 2 + 3 + 4 graded slots
    assert fock.exponents.tolist() == [
        [0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3]
    ]
    assert fock.exponents.flags.c_contiguous
    assert position(fock, 0, 0) == 0
    with pytest.raises(ValueError):
        FockTruncation(2, 1.0, 3)
    with pytest.raises(ValueError):
        FockTruncation(2, 0.0, 3)


def test_basis_size_is_checked_before_enumeration():
    # n = 1 holds cap + 1 elements: the first cap over the limit, and cheap to
    # enumerate if the check were missing
    limit = fock_module.BASIS_LIMIT
    assert FockTruncation(1, 0.5, limit - 1).size == limit
    with pytest.raises(ValueError, match=f"{limit + 1} basis elements, more than the limit of {limit}"):
        FockTruncation(1, 0.5, limit)
    assert math.comb(60 + 3, 3) <= limit  # n = 3 at cap 60 stays admissible


def test_generator_entry_spot():
    # x_1 e_(0,1): sqrt(1-q^2) sqrt([1]) q^(k_2) = sqrt(0.75) * 0.5 at q = 0.5
    fock = FockTruncation(2, 0.5, 4)
    X1 = rep_generator(1, fock)
    col = position(fock, 0, 1)
    row = position(fock, 1, 1)
    got = X1.matrix[row, col]
    assert got == pytest.approx(math.sqrt(0.75) * 0.5, rel=1e-15, abs=0)
    assert abs(got - 0.4330127018922193) < 1e-15
    # x_2 sees no letters to its right: no q factor
    X2 = rep_generator(2, fock)
    assert X2.matrix[position(fock, 0, 2), position(fock, 0, 1)] == pytest.approx(
        math.sqrt(0.75) * math.sqrt(1.0 + 0.25), rel=1e-14, abs=0  # [2]_{1/4} = 1 + 1/4
    )


def test_generator_column_structure():
    fock = FockTruncation(2, 0.7, 3)
    X1 = rep_generator(1, fock).matrix.tocsc()
    for col, k in enumerate(fock.exponents):
        nnz = X1[:, col].nnz
        assert nnz == (0 if k.sum() >= fock.cap else 1)
    assert rep_generator(1, fock).valid_degree == fock.cap - 1
    with pytest.raises(ValueError):
        rep_generator(3, fock)


def test_rep_element_matches_generator_products():
    for q in (0.5, 0.9):
        fock = FockTruncation(3, q, 6)
        X1, X2, X3 = (rep_generator(j, fock).matrix for j in (1, 2, 3))
        a = element_for(fock, {(2, 0, 1): 1.5, (0, 1, 0): -1j, (1, 1, 1): 0.25})
        R = rep_element(a, fock)
        # normal order: x^(2,0,1) acts as X1 X1 X3, x^(1,1,1) as X1 X2 X3
        want = 1.5 * (X1 @ X1 @ X3) - 1j * X2 + 0.25 * (X1 @ X2 @ X3)
        # a product of truncated generators vanishes on the columns whose image
        # leaves the truncation, as the closed form does: compare on every column
        assert np.max(np.abs((R.matrix - want).toarray())) < 1e-14
        assert R.valid_degree == fock.cap - 3


def test_rep_element_rejects_mismatches():
    fock = FockTruncation(2, 0.5, 4)
    with pytest.raises(ValueError):
        rep_element(QElement(2, QParameter(0.5, 0.1), {(1, 0): 1.0}, cap=4), fock)
    with pytest.raises(ValueError):
        rep_element(QElement(2, QParameter(0.6, 0.0), {(1, 0): 1.0}, cap=4), fock)
    with pytest.raises(ValueError):
        rep_element(QElement(3, QParameter(0.5, 0.0), {(1, 0, 0): 1.0}, cap=4), fock)
    big = QElement(2, QParameter(0.5, 0.0), {(3, 3): 1.0}, cap=8)
    with pytest.raises(ValueError):
        rep_element(big, fock)
    # q is compared relatively: 1e-13 is not 1e-100, though both are near 0
    tiny = FockTruncation(2, 1e-100, 4)
    with pytest.raises(ValueError):
        rep_element(QElement(2, QParameter(1e-13, 0.0), {(1, 0): 1.0}, cap=4), tiny)
    assert rep_element(element_for(tiny, {(1, 0): 1.0}), tiny).valid_degree == 3


def test_vacuum_column_reads_off_coefficients():
    # the e_0 column of pi(a) lists the monomial amplitudes: faithfulness
    fock = FockTruncation(2, 0.5, 4)
    a = element_for(fock, {(1, 1): 2.0, (0, 0): 3.0})
    col = rep_element(a, fock).matrix.tocsc()[:, position(fock, 0, 0)].toarray().ravel()
    assert col[position(fock, 0, 0)] == pytest.approx(3.0 + 0j)
    assert abs(col[position(fock, 1, 1)]) > 0.1  # nonzero image of the (1,1) term
    assert np.count_nonzero(col) == 2


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n,cap", [(1, 6), (2, 6)])
def test_twisted_ccr_window_exact(n, cap, q):
    window, _ = verify_tw_ccr(FockTruncation(n, q, cap))
    assert window <= 1e-12


def test_twisted_ccr_boundary_artifact_is_visible():
    _, everywhere = verify_tw_ccr(FockTruncation(2, 0.5, 6))
    assert everywhere >= 1e-6


def _dense_tw_ccr(fock):
    """verify_tw_ccr's two maxima from dense generator matrices and numpy products."""
    n, q = fock.n, fock.q
    X = [rep_generator(j, fock).matrix.toarray() for j in range(1, n + 1)]
    Xs = [x.conj().T for x in X]
    eye = np.eye(fock.size)
    rels = [X[i] @ X[j] - q * X[j] @ X[i] for i in range(n) for j in range(i + 1, n)]
    rels += [Xs[i] @ X[j] - q * X[j] @ Xs[i] for i in range(n) for j in range(n) if i != j]
    for i in range(n):
        tail = sum((X[k] @ Xs[k] for k in range(i + 1, n)), np.zeros_like(eye))
        rels.append(Xs[i] @ X[i] - q * q * X[i] @ Xs[i] - (1 - q * q) * (eye - tail))
    width = int(np.count_nonzero(fock.exponents.sum(axis=1) <= fock.cap - 2))
    return (
        max(float(np.abs(r[:, :width]).max()) for r in rels),
        max(float(np.abs(r).max()) for r in rels),
    )


# every truncation ``verify fock-ccr`` runs (n <= 2, cap 6 and 12), and n = 3
@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize(
    "n,cap", [(1, 3), (1, 6), (1, 12), (2, 3), (2, 6), (2, 12), (3, 3), (3, 6)]
)
def test_twisted_ccr_against_dense_products(n, cap, q):
    fock = FockTruncation(n, q, cap)
    assert verify_tw_ccr(fock) == pytest.approx(_dense_tw_ccr(fock), rel=0, abs=1e-15)


def _keyed_tw_ccr(fock):
    """verify_tw_ccr's two maxima with the terms summed per (relation, row, column) key."""
    n, q, size = fock.n, fock.q, fock.size
    P = fock_module.log_pochhammer_table(fock.cap, q)
    maps = (fock_module._monomial_entries(d, fock, P) for d in np.eye(n, dtype=np.int64))
    X, Xs = zip(*(fock_module._partial_maps(*m, size) for m in maps))
    compose = fock_module._compose
    eye = (np.arange(size + 1), np.append(np.ones(size), 0.0))
    rels = [
        [(1.0, compose(X[i], X[j])), (-q, compose(X[j], X[i]))]
        for i in range(n) for j in range(i + 1, n)
    ]
    rels += [
        [(1.0, compose(Xs[i], X[j])), (-q, compose(X[j], Xs[i]))]
        for i in range(n) for j in range(n) if i != j
    ]
    rels += [
        [(1.0, compose(Xs[i], X[i])), (-q * q, compose(X[i], Xs[i])), (q * q - 1.0, eye)]
        + [(1.0 - q * q, compose(X[k], Xs[k])) for k in range(i + 1, n)]
        for i in range(n)
    ]
    relation = np.repeat(np.arange(len(rels)), [len(terms) for terms in rels])
    terms = [term for terms in rels for term in terms]
    to = np.stack([m[0][:size] for _, m in terms])
    val = np.stack([c * m[1][:size] for c, m in terms])
    keys = ((relation[:, None] * (size + 1) + to) * size + np.arange(size)).ravel()
    keys, where = np.unique(keys, return_inverse=True)
    sums = np.zeros(keys.size, dtype=val.dtype)
    np.add.at(sums, where, val.ravel())
    residual = np.abs(sums)
    width = fock.prefix(fock.cap - 2)
    return float(residual[keys % size < width].max(initial=0.0)), float(residual.max(initial=0.0))


# the per-relation sums rely on all terms of a relation landing on one row
@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.99])
@pytest.mark.parametrize(
    "n,cap", [(1, 2), (1, 6), (1, 20), (2, 2), (2, 6), (2, 12), (3, 2), (3, 6), (3, 12)]
)
def test_twisted_ccr_per_relation_sums_match_the_keyed_sums(n, cap, q):
    fock = FockTruncation(n, q, cap)
    assert verify_tw_ccr(fock) == _keyed_tw_ccr(fock)


def test_twisted_ccr_refuses_a_generator_that_is_not_injective(monkeypatch):
    # the adjoint inverts each generator's map; two columns on one row must not
    # overwrite each other silently
    entries = fock_module._monomial_entries

    def collide(k, fock, P):
        rows, amp = entries(k, fock, P)
        return np.concatenate(([rows[1]], rows[1:])), amp

    monkeypatch.setattr(fock_module, "_monomial_entries", collide)
    with pytest.raises(ValueError, match="injective"):
        verify_tw_ccr(FockTruncation(2, 0.5, 6))


def test_op_norm_against_dense_svd():
    fock = FockTruncation(2, 0.6, 6)
    a = element_for(fock, {(1, 0): 1.0, (0, 2): 0.5j, (1, 1): -0.25})
    R = rep_element(a, fock)
    dense = R.matrix.toarray()[:, R.window_columns()]
    svd_top = float(np.linalg.svd(dense, compute_uv=False)[0])
    assert op_norm(R) == pytest.approx(svd_top, rel=1e-12)


def _dense_window_norm(R) -> float:
    dense = R.matrix.toarray()[:, R.window_columns()]
    return float(np.linalg.svd(dense, compute_uv=False)[0])


@st.composite
def _fock_elements(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    cap = draw(st.integers(0, 8))
    q = draw(st.floats(0.05, 0.95))
    fock = FockTruncation(n, q, cap)
    support = draw(st.lists(st.sampled_from(list(multi_indices_up_to(n, cap))), min_size=1, max_size=3))
    coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0)
    return fock, {k: draw(coeff) for k in support}


@settings(max_examples=80, deadline=None)
@given(_fock_elements())
def test_op_norm_matches_dense_svd_property(case):
    fock, coeffs = case
    R = rep_element(element_for(fock, coeffs), fock)
    assert op_norm(R) == pytest.approx(_dense_window_norm(R), rel=1e-10)


def _no_component_search(*args, **kwargs):
    raise AssertionError("a diagonal Gram matrix needs no component search")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_norms_match_dense_svd(monkeypatch, n):
    # a monomial's window entries lie in distinct rows, so its Gram matrix is diagonal
    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", _no_component_search)
    for q in (0.05, 0.5, 0.95):
        for cap in (0, 3, 6):
            fock = FockTruncation(n, q, cap)
            for k in multi_indices_up_to(n, cap):
                R = rep_element(element_for(fock, {k: 0.3 - 2.7j}), fock)
                assert op_norm(R) == pytest.approx(_dense_window_norm(R), rel=1e-15, abs=0)


def test_one_column_window_with_several_entries_matches_dense_svd(monkeypatch):
    # x1^3 + x2^3 at cap 3 keeps only the vacuum column, which has two entries
    monkeypatch.setattr(scipy.sparse.csgraph, "connected_components", _no_component_search)
    fock = FockTruncation(2, 0.5, 3)
    R = rep_element(element_for(fock, {(3, 0): 1.0, (0, 3): 1.0}), fock)
    assert R.window_columns().tolist() == [0]
    assert np.count_nonzero(R.cols == 0) == 2
    assert op_norm(R) == pytest.approx(_dense_window_norm(R), rel=1e-15, abs=0)


# elements whose window splits into components of several columns; in the
# fourth, columns l and l + 1 share two rows, so Gram pairs repeat; the last
# one's window is one component wider than _DENSE_MAX_COLS
_WIDE_CASES = [
    (2, 0.6, 8, {(1, 0): 1.0, (0, 1): 0.5j, (1, 1): -0.25}),
    (2, 0.4, 10, {(1, 0): 1.0, (0, 1): -2.0}),
    (3, 0.5, 6, {(1, 0, 0): 1.0, (0, 1, 0): 0.5, (0, 0, 1): 0.3j}),
    (1, 0.85, 12, {(2,): 1.7, (3,): 0.77, (4,): 0.083}),
    (2, 0.5, 24, {(1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}),
]


@pytest.mark.parametrize("n,q,cap,coeffs", _WIDE_CASES)
def test_op_norm_arpack_branch_matches_dense_svd(monkeypatch, n, q, cap, coeffs):
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigsh(*args, **kwargs)

    fock = FockTruncation(n, q, cap)
    R = rep_element(element_for(fock, coeffs), fock)
    if R.window_columns().size <= fock_module._DENSE_MAX_COLS:
        # ARPACK for every component of 3 columns or more; complex Arnoldi
        # needs that many
        monkeypatch.setattr(fock_module, "_DENSE_MAX_COLS", 2)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    assert op_norm(R) == pytest.approx(_dense_window_norm(R), rel=1e-10)
    assert calls  # the value came through ARPACK


def test_op_norm_arpack_nonconvergence_is_an_error(monkeypatch):
    def failing_eigsh(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    n, q, cap, coeffs = _WIDE_CASES[-1]
    fock = FockTruncation(n, q, cap)
    with pytest.raises(ValueError, match="ARPACK"):
        op_norm(rep_element(element_for(fock, coeffs), fock))


def test_op_norm_takes_only_the_matrix():
    assert list(inspect.signature(op_norm).parameters) == ["M"]


def test_op_norm_of_zero_and_empty_window():
    fock = FockTruncation(2, 0.5, 4)
    zero = rep_element(element_for(fock, {(1, 0): 0.0}), fock)
    assert op_norm(zero) == 0.0
    with pytest.raises(ValueError):
        op_norm(fock_module.RepMatrix(zero.rows, zero.cols, zero.values, fock, -1))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("cap", [4, 24, 60])
def test_one_mode_generator_norm_closed_form(q, cap):
    # ||pi(x)|| on the window |k| <= K-1 is sqrt(1-q^2) sqrt([K]_{q^2})
    with mpmath.workdps(30):
        t = mpmath.mpf(q) ** 2
        closed = mpmath.sqrt(1 - t) * mpmath.sqrt(mpmath.fsum(t ** j for j in range(cap)))
        want = float(closed)
    got = op_norm(rep_generator(1, FockTruncation(1, q, cap)))
    assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("n,cap", [(1, 5), (2, 7), (3, 6), (4, 4), (100, 2)])
def test_positions_invert_the_basis(n, cap):
    fock = FockTruncation(n, 0.5, cap)
    assert np.array_equal(fock.positions(fock.exponents), np.arange(fock.size))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prefix_and_windows_match_a_scan_of_the_basis(n):
    # the oracle scans the degrees of the basis; prefix(d) is the count C(d + n, n)
    for cap in range(13):
        fock = FockTruncation(n, 0.5, cap)
        degrees = fock.exponents.sum(axis=1)
        for d in range(-1, cap + 1):
            assert fock.prefix(d) == np.count_nonzero(degrees <= d)
        # generator windows |k| <= cap - 1 (empty at cap 0), monomials' |k| <= cap - e
        reps = [rep_generator(j, fock) for j in range(1, n + 1)]
        for e in range(cap + 1):
            reps.append(rep_element(element_for(fock, {(0,) * (n - 1) + (e,): 1.0}), fock))
        for R in reps:
            want = np.nonzero(degrees <= R.valid_degree)[0]
            assert np.array_equal(R.window_columns(), want)


def test_generator_norm_approaches_one_from_below():
    # ||pi(x_1)|| = sqrt(1-q^2) sqrt([K]_{q^2}) -> 1 as the cap grows
    q = 0.5
    vals = []
    for cap in (4, 10, 24, 60):
        fock = FockTruncation(1, q, cap)
        vals.append(op_norm(rep_generator(1, fock)))
    assert all(a < b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0 + 1e-9
    assert abs(vals[-1] - 1.0) < 1e-4


def test_vaksman_norm_of_powers():
    # for one mode, ||pi(x^m)|| -> 1 and the rescaling carries rho^m
    q = 0.5
    fock = FockTruncation(1, q, 40)
    for m in (1, 2, 4):
        a = element_for(fock, {(m,): 1.0})
        got = vaksman_norm(a, 0.5, fock)
        assert got == pytest.approx(0.5 ** m, abs=1e-4)
        assert got <= 0.5 ** m + 1e-12  # truncation never overshoots here
    with pytest.raises(ValueError):
        vaksman_norm(element_for(fock, {(1,): 1.0}), -1.0, fock)


def test_window_norms_converge_upward():
    # growing the cap widens the window: values increase, increments shrink
    q = 0.4
    a_coeffs = {(1, 1): 1.0, (0, 1): 0.5}
    vals = []
    for cap in (6, 9, 12):
        fock = FockTruncation(2, q, cap)
        vals.append(op_norm(rep_element(element_for(fock, a_coeffs), fock)))
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9
    assert vals[2] - vals[1] < vals[1] - vals[0]
    assert vals[2] - vals[1] < 1e-2


def _mp_window_norm(n, q, cap, coeffs):
    """Oracle: window norm from 50-digit entries, one generator at a time.

    Each letter of x^k = x_1^(k_1) ... x_n^(k_n), x_n first, multiplies by
    sqrt(1 - q^2) sqrt([m_j + 1]_{q^2}) q^(m_{j+1} + ... + m_n) at the
    current occupation m; the rounded window block gets a dense SVD.
    """
    degree = max(sum(k) for k in coeffs)
    basis = list(multi_indices_up_to(n, cap))
    row_of = {k: i for i, k in enumerate(basis)}
    cols = [l for l in basis if sum(l) <= cap - degree]
    block = np.zeros((len(basis), len(cols)), dtype=complex)
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        for col, l in enumerate(cols):
            for k, c in coeffs.items():
                m, amp = list(l), mpmath.mpf(1)
                for j in reversed(range(n)):
                    for _ in range(k[j]):
                        q_int = mpmath.fsum(qm ** (2 * i) for i in range(m[j] + 1))
                        amp *= mpmath.sqrt((1 - qm ** 2) * q_int) * qm ** sum(m[j + 1:])
                        m[j] += 1
                block[row_of[tuple(m)], col] += c * complex(amp)
    return float(np.linalg.svd(block, compute_uv=False)[0])


@pytest.mark.parametrize("q", [0.999999, 1 - 1e-10])
def test_window_norm_near_one_matches_mpmath(q):
    # near q = 1 every entry is a ratio of vanishing q-Pochhammer factors;
    # the closed form reads them off one log table without cancellation
    coeffs = {(2, 1): 1.0, (0, 1): 0.5}
    fock = FockTruncation(2, q, 12)
    a = parse_qelement("x1^2*x2 + 0.5*x2", 2, QParameter(q, 0.0), 12)
    assert a.coefficients == coeffs
    got = vaksman_norm(a, 1.0, fock)
    assert got == pytest.approx(_mp_window_norm(2, q, 12, coeffs), rel=1e-13, abs=0)


@pytest.mark.parametrize("q", [1e-170, 1e-300])
def test_vaksman_norm_at_tiny_q(q):
    # q^2 underflows; the x1^2*x2 entries carry q^2 at least and vanish,
    # so the norm is that of 0.5 x2 on its window, 0.5 sqrt(1 - q^2) = 0.5
    fock = FockTruncation(2, q, 12)
    a = element_for(fock, {(2, 1): 1.0, (0, 1): 0.5})
    assert vaksman_norm(a, 1.0, fock) == 0.5


def test_ccr_requires_room():
    with pytest.raises(ValueError):
        verify_tw_ccr(FockTruncation(2, 0.5, 1))
