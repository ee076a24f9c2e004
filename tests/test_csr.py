"""svtkit's numpy CSR storage against the arrays scipy builds.

Every array must match scipy's in dtype and bytes, so that CSR digests and
every value computed from the matrices stay what they were when scipy
built them.  scipy is the oracle here and nowhere in svtkit's sve and glh
paths.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from svtkit import access
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


def _scipy_assembly(H: LocalHamiltonian, shift: bool):
    rows, cols, vals = [], [], []
    for term in H.terms:
        r, c, v = _loop_coo(H, term)
        rows += r
        cols += c
        vals += v
    if not rows:
        csr = sp.csr_matrix((H.dim, H.dim), dtype=complex)
    else:
        csr = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                   np.concatenate(cols))),
                            shape=(H.dim, H.dim)).tocsr()
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


@settings(max_examples=120, deadline=None)
@given(H=_hamiltonians(), shift=st.booleans())
def test_hamiltonian_assembly_matches_scipy(H, shift):
    A = H.assemble_csr(shift)
    want = _scipy_assembly(H, shift)
    _assert_same_csr(A, want)
    assert A.s == H.sparsity_bound() + shift


# Keys on which libstdc++'s introsort, which scipy sorts CSR rows with,
# exhausts its depth limit and heap-sorts the rest of the range, with
# repeats that the heap sort reorders (found by running a median-of-3
# adversary against the quicksort, then merging keys while the heap
# sort still ran).
_HEAP_SORTED = [8, 0, 15, 1, 15, 2, 15, 3, 15, 4, 15, 7, 7, 6, 19, 15, 8, 6,
                15, 19, 0, 1, 2, 3, 4, 5, 6, 7, 8, 19, 15, 15, 15, 15, 15, 8,
                15, 15, 15, 2]


def _scipy_sums(nrows, ncols, rows, cols, vals):
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr().tocoo()
    return coo.row.astype(np.int64) * ncols + coo.col, coo.data


def _sums(nrows, ncols, rows, cols, vals):
    order = access._coo_sum_order(nrows, ncols, rows, cols)
    return access._fold_sorted(rows[order] * ncols + cols[order], vals[order])


def test_sum_order_follows_the_heap_sort(monkeypatch):
    heap_sorts = []
    real = access._heap_sort
    monkeypatch.setattr(access, "_heap_sort",
                        lambda *args: heap_sorts.append(1) or real(*args))
    cols = np.array(_HEAP_SORTED, dtype=np.int64)
    rows = np.zeros_like(cols)
    rng = np.random.default_rng(3)
    vals = (rng.normal(size=cols.size) * 10.0 ** rng.integers(-8, 8, cols.size)
            + 1j * rng.normal(size=cols.size))
    keys, sums = _sums(1, 20, rows, cols, vals)
    assert heap_sorts
    want_keys, want = _scipy_sums(1, 20, rows, cols, vals)
    assert np.array_equal(keys, want_keys) and _same(sums, want)
    stable = np.argsort(cols, kind="stable")  # input order gives other sums
    assert not _same(access._fold_sorted(cols[stable], vals[stable])[1], want)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nrows=st.integers(1, 5),
       ncols=st.integers(1, 40), count=st.integers(0, 400),
       pattern=st.sampled_from(["random", "ascending", "descending"]))
def test_summed_repeats_match_scipy(seed, nrows, ncols, count, pattern):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, count)
    cols = rng.integers(0, ncols, count)
    if pattern != "random":
        cols = np.sort(cols) if pattern == "ascending" else np.sort(cols)[::-1].copy()
    vals = (rng.normal(size=count) * 10.0 ** rng.integers(-8, 8, count)
            + 1j * rng.normal(size=count))
    keys, sums = _sums(nrows, ncols, rows, cols, vals)
    want_keys, want = _scipy_sums(nrows, ncols, rows, cols, vals)
    assert np.array_equal(keys, want_keys) and _same(sums, want)


def test_arrays_are_read_only(rng):
    from svtkit.rand import random_sparse_matrix
    A = random_sparse_matrix(rng, 8, 8, 2)
    A.col_nonzeros(0)
    for arr in A.csr_arrays() + tuple(A._csc[1:]):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        A.csr_arrays()[2][0] = 1.0


def test_shift_turns_negative_zero_parts_positive_as_scipy_does():
    # scipy's H + 3I adds 0 to every entry off the diagonal, which turns a
    # -0.0 part into +0.0; scaling by 1/4 then keeps the sign of the zero
    blocks = [np.array([[0.0, x], [x, 0.0]], dtype=complex) for x in (0.3, -0.5)]
    for block in blocks:
        block.imag[:] = -0.0  # the sum has the parts -0.2 and -0.0
    H = LocalHamiltonian(1, 1, [LocalTerm((1,), b) for b in blocks])
    for shift in (False, True):
        _assert_same_csr(H.assemble_csr(shift), _scipy_assembly(H, shift))
