"""svtkit's numpy CSR storage against the arrays scipy builds, and the
order in which Hamiltonian assembly sums repeated positions.

``from_dense`` and ``from_entries`` take distinct positions, so every
array they build must match scipy's in dtype and bytes.  Hamiltonian
assembly sums each position's repeats left to right in term order, 3
last when shifted: it must match a plain loop that does so bit for bit,
and scipy's assembly, which sums in another order, within a rounding
bound fixed from float64 epsilon and the repeat count.  scipy is the
oracle here and nowhere in svtkit's sve and glh paths.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from svtkit.access import SparseMatrix
from svtkit.hamiltonian import LocalHamiltonian, LocalTerm


def _same(got, want):
    """Arrays equal in dtype, shape and bytes."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _assert_same_csr(A: SparseMatrix, csr):
    for got, want in zip(A.csr_arrays(), (csr.indptr, csr.indices, csr.data)):
        assert _same(got, want)
    assert _same(A.to_dense(), csr.toarray())


def _matrix(rng, nrows, ncols, fill, kind):
    """Random complex matrix with about ``fill`` of its entries nonzero;
    ``kind`` picks real entries, small integers (sums that cancel
    exactly), or parts that are -0.0."""
    dense = rng.normal(size=(nrows, ncols)) + 1j * rng.normal(size=(nrows, ncols))
    if kind == "real":
        dense = dense.real.astype(complex)
    elif kind == "integer":
        dense = np.round(2 * dense)
    elif kind == "negative zero":
        dense = dense.real.astype(complex)
        dense.imag[rng.random(dense.shape) < 0.5] = -0.0
    dense[rng.random(dense.shape) >= fill] = 0
    return dense


_KINDS = st.sampled_from(["complex", "real", "integer", "negative zero"])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nrows=st.integers(1, 30),
       ncols=st.integers(1, 30), fill=st.floats(0.0, 1.0), kind=_KINDS)
def test_from_dense_matches_scipy(seed, nrows, ncols, fill, kind):
    dense = _matrix(np.random.default_rng(seed), nrows, ncols, fill, kind)
    want = sp.csr_matrix(dense)
    want.eliminate_zeros()
    want.sort_indices()
    A = SparseMatrix.from_dense(dense)
    _assert_same_csr(A, want)
    assert A.csr().toarray().tobytes() == want.toarray().tobytes()  # round trip
    rows, vals = A.col_nonzeros(ncols - 1)
    assert np.array_equal(rows, np.flatnonzero(dense[:, -1]))
    assert np.array_equal(vals, dense[rows, -1])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nrows=st.integers(1, 30),
       ncols=st.integers(1, 30), fill=st.floats(0.01, 1.0), kind=_KINDS)
def test_from_entries_matches_scipy(seed, nrows, ncols, fill, kind):
    rng = np.random.default_rng(seed)
    dense = _matrix(rng, nrows, ncols, fill, kind)
    rows, cols = np.nonzero(dense)
    if rows.size == 0:
        return
    order = rng.permutation(rows.size)  # any input order gives one CSR
    entries = [(int(rows[k]) + 1, int(cols[k]) + 1, dense[rows[k], cols[k]])
               for k in order]
    want = sp.coo_matrix((dense[rows, cols][order], (rows[order], cols[order])),
                         shape=dense.shape).tocsr()
    want.sort_indices()
    _assert_same_csr(SparseMatrix.from_entries(nrows, ncols, entries), want)


def _loop_coo(H: LocalHamiltonian, term: LocalTerm):
    """COO triplets of one term, one block nonzero at a time: the scatter
    the vectorized assembly replaced, kept as its reference."""
    n, q = H.n, term.qubits
    rest = [p for p in range(1, n + 1) if p not in q]

    def spread(local, qubits):
        return sum(((local >> (len(qubits) - 1 - a)) & 1) << (n - qq)
                   for a, qq in enumerate(qubits))

    base = np.array([spread(t, rest) for t in range(2 ** len(rest))], dtype=np.int64)
    rows, cols, vals = [], [], []
    for r, c in zip(*np.nonzero(term.block)):
        rows.append(base + spread(int(r), q))
        cols.append(base + spread(int(c), q))
        vals.append(np.full(base.size, term.block[r, c]))
    return rows, cols, vals


def _triplets(H: LocalHamiltonian, shift: bool):
    """All COO triplets of H in term order, then 3 on every diagonal
    position when shifted."""
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=complex)]
    for term in H.terms:
        r, c, v = _loop_coo(H, term)
        rows += r
        cols += c
        vals += v
    if shift:
        rows.append(np.arange(H.dim))
        cols.append(np.arange(H.dim))
        vals.append(np.full(H.dim, 3.0 + 0j))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _scipy_assembly(H: LocalHamiltonian, shift: bool):
    rows, cols, vals = _triplets(H, shift=False)
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(H.dim, H.dim)).tocsr()
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    if shift:
        csr = ((csr + 3.0 * sp.identity(H.dim, dtype=complex, format="csr"))
               / 4.0).tocsr()
        csr.sort_indices()
    return csr


@st.composite
def _hamiltonians(draw):
    """H on n <= 5 qubits with up to 12 terms of k <= 3 qubits, so rows
    hold up to 96 repeats; blocks are complex, real, small integers
    (exact cancellations) or half zeros, with negative scales."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        qubits = draw(st.permutations(list(range(1, n + 1))))
        qubits = tuple(qubits[:draw(st.integers(1, k))])
        dim = 2 ** len(qubits)
        g = _matrix(rng, dim, dim, draw(st.floats(0.3, 1.0)), draw(_KINDS))
        terms.append(LocalTerm(qubits, draw(st.sampled_from([1.0, -0.5, 0.3]))
                               * (g + g.conj().T) / 2))
    return LocalHamiltonian(n, k, terms)


def _reference_assembly(H: LocalHamiltonian, shift: bool):
    """Each position's triplets summed one at a time, left to right from
    the first, zero sums dropped, then scaled by 1/4 when shifted."""
    sums = {}
    for r, c, v in zip(*_triplets(H, shift)):
        key = (int(r), int(c))
        sums[key] = sums[key] + v if key in sums else v
    keys = sorted(key for key, v in sums.items() if v != 0)
    data = np.array([sums[key] for key in keys], dtype=complex)
    if shift:
        data = data * 0.25
    indptr = np.zeros(H.dim + 1, dtype=np.int32)
    np.cumsum(np.bincount([r for r, _ in keys], minlength=H.dim), out=indptr[1:])
    indices = np.array([c for _, c in keys], dtype=np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(H.dim, H.dim))


@settings(max_examples=120, deadline=None)
@given(H=_hamiltonians(), shift=st.booleans())
def test_hamiltonian_assembly_sums_in_term_order(H, shift):
    A = H.assemble_csr(shift)
    _assert_same_csr(A, _reference_assembly(H, shift))
    assert A.s == H.sparsity_bound() + shift


@settings(max_examples=120, deadline=None)
@given(H=_hamiltonians(), shift=st.booleans())
def test_hamiltonian_assembly_matches_scipy(H, shift):
    # two orders of summing m numbers differ by at most 2 (m - 1) eps times
    # their summed magnitude in each part; scipy adds the 3 after its sum
    # of H's repeats too, which the bound's m and magnitude count
    rows, cols, vals = _triplets(H, shift)
    repeats = np.zeros((H.dim, H.dim))
    magnitude = np.zeros((H.dim, H.dim))
    np.add.at(repeats, (rows, cols), 1)
    np.add.at(magnitude, (rows, cols), np.abs(vals))
    scale = 0.25 if shift else 1.0
    tol = 4 * repeats * np.finfo(float).eps * magnitude * scale
    A = H.assemble_csr(shift)
    assert np.all(np.abs(A.to_dense() - _scipy_assembly(H, shift).toarray()) <= tol)
    assert A.s == H.sparsity_bound() + shift


def test_arrays_are_read_only(rng):
    from svtkit.rand import random_sparse_matrix
    A = random_sparse_matrix(rng, 8, 8, 2)
    A.col_nonzeros(0)
    for arr in A.csr_arrays() + tuple(A._csc[1:]):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        A.csr_arrays()[2][0] = 1.0
