"""Access models for vectors and sparse matrices.

Three ways of touching data, and the only ones the algorithms use:
query-access to a vector (read one entry), query-access to a sparse
matrix (read the l-th nonzero of a row or column), and sampling-access
(query-access plus an index sampler whose distribution sits within a
multiplicative (1 +/- zeta) band of |v_j|^2 / ||v||^2, plus a norm
estimate m with |m - ||v||| <= zeta * ||v||).

All indices at the public interface are 1-based.  Objects are immutable
after construction; RNGs are passed per call, never stored.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, ParseError, reject_trailing

__all__ = [
    "QueryVector",
    "SparseMatrix",
    "SampledVector",
    "exact_sampler",
    "distorted_sampler",
    "load_vector",
    "save_vector",
    "load_matrix",
    "save_matrix",
]


class QueryVector:
    """Deterministic per-index read access to a complex vector."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("expected a nonempty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("vector entries must be finite")
        self._values = values.copy()
        self._values.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._values.size

    def entry(self, i: int) -> complex:
        """Return v_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise IndexError(f"index {i} out of range [1, {self.dim}]")
        return complex(self._values[i - 1])

    def dense(self) -> np.ndarray:
        """Read-only view of the underlying storage."""
        return self._values

    def norm(self) -> float:
        return float(np.linalg.norm(self._values))


class _Csr(NamedTuple):
    """Compressed-row arrays, laid out as scipy's csr_matrix keeps them."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _frozen(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _sorted_csr(shape, rows, cols, data) -> _Csr:
    """CSR of 0-based triplets in ascending (row, col) order, no repeats;
    int32 indices unless a size needs more, as scipy chooses them."""
    idx = np.int32 if max(*shape, rows.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return _Csr(shape, indptr, cols.astype(idx), data)


# libstdc++'s std::sort, which scipy's csr_sort_indices calls on every row,
# is an introsort: quicksort partitions while a range is longer than
# _S_threshold, heapsort below a depth limit, then one insertion sort.
_SORT_THRESHOLD = 16


def _heap_sort(keys, perm, lo: int, hi: int):
    """std::__partial_sort(first, last, last) on keys[lo:hi]: make_heap,
    then sort_heap, moving perm along."""
    items = list(zip(keys[lo:hi].tolist(), perm[lo:hi].tolist()))

    def adjust(hole: int, length: int, value):  # std::__adjust_heap
        top = child = hole
        while child < (length - 1) // 2:
            child = 2 * (child + 1)
            if items[child][0] < items[child - 1][0]:
                child -= 1
            items[hole] = items[child]
            hole = child
        if length % 2 == 0 and child == (length - 2) // 2:
            child = 2 * (child + 1)
            items[hole] = items[child - 1]
            hole = child - 1
        parent = (hole - 1) // 2
        while hole > top and items[parent][0] < value[0]:
            items[hole] = items[parent]
            hole = parent
            parent = (hole - 1) // 2
        items[hole] = value

    for parent in range((len(items) - 2) // 2, -1, -1):
        adjust(parent, len(items), items[parent])
    for last in range(len(items) - 1, 0, -1):
        value, items[last] = items[last], items[0]
        adjust(0, last, value)
    keys[lo:hi] = [k for k, _ in items]
    perm[lo:hi] = [p for _, p in items]


def _introsort_partitions(keys: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Permutation that std::sort's partitioning applies to each segment
    keys[indptr[i]:indptr[i + 1]], all segments at once.

    The final insertion sort is stable, so this permutation fixes the
    order in which std::sort leaves equal keys.  One round partitions
    every pending range: the median of its second, middle and last keys
    goes first as the pivot, and the unguarded partition swaps the i-th
    key >= pivot from the left with the i-th key <= pivot from the right
    while the first lies left of the second; the cut is where the left
    scan then stops.
    """
    keys = keys.copy()
    perm = np.arange(keys.size)
    lo, hi = indptr[:-1].astype(np.int64), indptr[1:].astype(np.int64)
    big = hi - lo > _SORT_THRESHOLD
    lo, hi = lo[big], hi[big]
    depth = 2 * np.floor(np.log2(hi - lo)).astype(np.int64)
    while lo.size:
        for a, b in zip(lo[depth == 0], hi[depth == 0]):
            _heap_sort(keys, perm, int(a), int(b))
        go = depth > 0
        lo, hi, depth = lo[go], hi[go], depth[go] - 1
        if not lo.size:
            break
        a, b, c = lo + 1, lo + (hi - lo) // 2, hi - 1
        ka, kb, kc = keys[a], keys[b], keys[c]
        pick = np.where(ka < kb,
                        np.where(kb < kc, b, np.where(ka < kc, c, a)),
                        np.where(ka < kc, a, np.where(kb < kc, c, b)))
        keys[lo], keys[pick] = keys[pick], keys[lo].copy()
        perm[lo], perm[pick] = perm[pick], perm[lo].copy()
        # every position of every range after its pivot, range by range
        span = hi - lo - 1
        seg = np.repeat(np.arange(lo.size), span)
        pos = np.arange(seg.size) + np.repeat(lo + 1 - (np.cumsum(span) - span), span)
        pivot = keys[lo][seg]
        ge, le = keys[pos] >= pivot, keys[pos] <= pivot
        left, right = pos[ge], pos[le]  # ascending within each range
        n_left = np.bincount(seg[ge], minlength=lo.size)
        n_right = np.bincount(seg[le], minlength=lo.size)
        end_right = np.cumsum(n_right)
        rank = np.arange(left.size) - np.repeat(np.cumsum(n_left) - n_left, n_left)
        owner = seg[ge]
        paired = rank < n_right[owner]
        partner = np.full(left.size, -1)
        partner[paired] = right[end_right[owner[paired]] - 1 - rank[paired]]
        swap = left < partner
        i, j = left[swap], partner[swap]
        keys[i], keys[j] = keys[j], keys[i].copy()
        perm[i], perm[j] = perm[j], perm[i].copy()
        # the left scan stops at the next key >= pivot or at the last
        # right-hand swap position, whichever comes first
        swaps = np.bincount(owner[swap], minlength=lo.size)
        cut = hi.copy()
        stop = rank == swaps[owner]
        cut[owner[stop]] = left[stop]
        had = swaps > 0
        last_swap = right[end_right[had] - swaps[had]]
        cut[had] = np.minimum(cut[had], last_swap)
        lo, hi, depth = (np.concatenate(x) for x in
                         ((cut, lo), (hi, cut), (depth, depth)))
        big = hi - lo > _SORT_THRESHOLD
        lo, hi, depth = lo[big], hi[big], depth[big]
    return perm


def _coo_sum_order(nrows: int, ncols: int, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Order in which scipy's ``coo_matrix(...).tocsr()`` adds up 0-based
    COO triplets: ascending (row, col), and within one position the
    order its conversion leaves the repeats in.

    The conversion buckets the triplets by row in input order, then,
    unless every row is already in non-decreasing column order, runs
    std::sort on every row's columns, which keeps equal columns in input
    order only in rows of at most 16 triplets; the sum of the repeats
    then goes left to right.  Summing in this order (``_fold_sorted``)
    gives scipy's sums bit for bit.
    """
    order = np.argsort(rows, kind="stable")
    keys = rows[order] * ncols + cols[order]
    if np.any(keys[1:] < keys[:-1]):  # only within a row: rows ascend
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        order = order[_introsort_partitions(keys, indptr)]
        keys = rows[order] * ncols + cols[order]
    return order[np.argsort(keys, kind="stable")]


def _fold_sorted(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """(distinct keys, sums) for ascending ``keys``: each run of equal
    keys summed left to right from its first value, as scipy's
    csr_sum_duplicates does."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    rank = np.arange(keys.size) - starts[run]
    sums = vals[starts]
    for r in range(1, int(rank.max(initial=0)) + 1):
        at = rank == r
        sums[run[at]] += vals[at]
    return keys[starts], sums


class SparseMatrix:
    """s-sparse complex matrix with dual row/column nonzero indexes.

    Storage is read-only numpy CSR arrays laid out exactly as scipy
    builds them: int32 ``indptr`` and ``indices`` (int64 only past int32
    sizes) and the values, nonzeros within a row in ascending column
    order.  A column-ordered (CSC) index of the same form is built on the
    first column access, nonzeros within a column in ascending row
    order, so the l-th nonzero of any row or column is a constant-size
    slice lookup.  scipy is imported only when ``csr()`` is called.
    """

    def __init__(self, csr, s: int):
        """``csr`` is any CSR matrix with ``shape``, ``indptr``,
        ``indices`` and ``data`` (a scipy csr_matrix, say); its arrays are
        kept as read-only views, not copied."""
        self._shape = (int(csr.shape[0]), int(csr.shape[1]))
        self._indptr = _frozen(np.asarray(csr.indptr))
        self._indices = _frozen(np.asarray(csr.indices))
        self._data = _frozen(np.asarray(csr.data))
        self._s = int(s)
        self._validate()

    @cached_property
    def _csc(self) -> _Csr:
        order = np.argsort(self._indices, kind="stable")
        rows = np.repeat(np.arange(self.nrows), np.diff(self._indptr))
        csc = _sorted_csr((self.ncols, self.nrows), self._indices[order],
                          rows[order], self._data[order])
        return _Csr(csc.shape, *map(_frozen, csc[1:]))

    def _validate(self):
        if not np.all(np.isfinite(self._data)):
            raise ValueError("matrix entries must be finite")
        if self.nnz != np.count_nonzero(self._data):
            raise ValueError("stored values must all be nonzero")
        row_counts = np.diff(self._indptr)
        col_counts = np.bincount(self._indices, minlength=self.ncols)
        worst = max(row_counts.max(initial=0), col_counts.max(initial=0))
        if worst > self._s:
            raise ValueError(
                f"sparsity violation: a row/column has {worst} nonzeros > s={self._s}"
            )

    @classmethod
    def from_entries(cls, nrows, ncols, entries, s=None) -> "SparseMatrix":
        """Build from 1-based (row, col, value) triples.

        Duplicate (row, col) pairs are an error, not a merge; zero values
        are rejected.  When ``s`` is omitted it is set to the observed
        maximum row/column occupancy.
        """
        if not entries:
            raise ValueError("matrix must have at least one nonzero")
        rows = np.array([e[0] for e in entries], dtype=np.int64) - 1
        cols = np.array([e[1] for e in entries], dtype=np.int64) - 1
        vals = np.array([e[2] for e in entries], dtype=complex)
        if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
            raise IndexError("entry position out of range")
        if np.any(vals == 0):
            raise ValueError("explicit zero entries are not allowed")
        keys = rows * ncols + cols
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate (row, col) entries in input")
        order = np.argsort(keys, kind="stable")
        csr = _sorted_csr((nrows, ncols), rows[order], cols[order], vals[order])
        if s is None:
            s = max(
                np.diff(csr.indptr).max(initial=0),
                np.bincount(cols, minlength=ncols).max(initial=0),
            )
        return cls(csr, s)

    @classmethod
    def from_dense(cls, dense, s=None) -> "SparseMatrix":
        dense = np.atleast_2d(np.asarray(dense, dtype=complex))
        if dense.ndim != 2:
            raise ValueError("expected a matrix")
        rows, cols = np.nonzero(dense)
        csr = _sorted_csr(dense.shape, rows, cols, dense[rows, cols])
        if s is None:
            row_counts = np.diff(csr.indptr)
            col_counts = np.bincount(csr.indices, minlength=csr.shape[1])
            s = max(row_counts.max(initial=0), col_counts.max(initial=0))
        return cls(csr, s)  # s == 0 encodes the zero matrix

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def s(self) -> int:
        return self._s

    @property
    def nnz(self) -> int:
        return int(self._indptr[-1])

    def row_entry(self, i: int, ell: int):
        """The ell-th nonzero of row i as (col, value), or None if the row
        has fewer than ell nonzeros.  Both indices 1-based."""
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} out of range [1, {self.nrows}]")
        if not 1 <= ell <= self._s:
            raise IndexError(f"rank {ell} out of range [1, s={self._s}]")
        lo, hi = self._indptr[i - 1], self._indptr[i]
        if ell > hi - lo:
            return None
        k = lo + ell - 1
        return int(self._indices[k]) + 1, complex(self._data[k])

    def col_entry(self, j: int, ell: int):
        """The ell-th nonzero of column j as (row, value), or None."""
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} out of range [1, {self.ncols}]")
        if not 1 <= ell <= self._s:
            raise IndexError(f"rank {ell} out of range [1, s={self._s}]")
        lo, hi = self._csc.indptr[j - 1], self._csc.indptr[j]
        if ell > hi - lo:
            return None
        k = lo + ell - 1
        return int(self._csc.indices[k]) + 1, complex(self._csc.data[k])

    def row_nonzeros(self, i: int):
        """All nonzeros of 0-based row i as (cols, values) array views."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return self._indices[lo:hi], self._data[lo:hi]

    def col_nonzeros(self, j: int):
        """All nonzeros of 0-based column j as (rows, values) array views."""
        lo, hi = self._csc.indptr[j], self._csc.indptr[j + 1]
        return self._csc.indices[lo:hi], self._csc.data[lo:hi]

    def csr_arrays(self) -> tuple:
        """The read-only (indptr, indices, data) arrays of the CSR storage."""
        return self._indptr, self._indices, self._data

    def csr(self):
        """The matrix as a scipy csr_matrix over the same read-only arrays
        (shared, do not mutate), built and cached on the first call, which
        imports scipy.sparse.  In svtkit only sparse contractions, Lanczos
        and ``kitaev.build_terms`` call it."""
        return self._scipy_csr

    @cached_property
    def _scipy_csr(self):
        import scipy.sparse as sp  # only csr() and sparse contractions need it

        return sp.csr_matrix((self._data, self._indices, self._indptr),
                             shape=self._shape)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self._shape, dtype=self._data.dtype)
        rows = np.repeat(np.arange(self.nrows), np.diff(self._indptr))
        # summing into zeros, as scipy's toarray does, so a stored -0.0
        # part reads +0.0 in both
        np.add.at(out, (rows, self._indices), self._data)
        return out


class SampledVector:
    """Query-access plus an index sampler and a norm estimate.

    The sampler draws index j with probability within the zeta-band of
    |v_j|^2 / ||v||^2; only indices with nonzero entries are ever emitted.
    ``support`` holds distinct 0-based indices into ``base``, one per
    entry of ``probs``.
    """

    def __init__(self, base: QueryVector, support, probs, m: float, zeta: float):
        probs = np.asarray(probs, dtype=float)
        support = np.asarray(support)
        if support.size == 0:
            raise ValueError("sampler support is empty")
        if support.ndim != 1 or support.dtype.kind not in "iu":
            raise ConstructionError("sampler support must be a 1-d integer array")
        if probs.shape != support.shape:
            raise ConstructionError("sampler support and probabilities differ in length")
        if support.min() < 0 or support.max() >= base.dim:
            raise ConstructionError(f"sampler support leaves [0, {base.dim})")
        if np.unique(support).size != support.size:
            raise ConstructionError("sampler support repeats an index")
        if not 0.0 <= zeta < 1.0:  # NaN fails too
            raise ConstructionError("zeta must lie in [0, 1)")
        support = support.astype(np.int64)
        self.base = base
        self.m = float(m)
        self.zeta = float(zeta)
        self._support = support  # 0-based
        self._probs = probs
        self._cdf = np.cumsum(probs)
        self._check_band()

    def _check_band(self):
        v = self.base.dense()
        nrm2 = float(np.vdot(v, v).real)
        ideal = np.abs(v[self._support]) ** 2 / nrm2
        lo = (1.0 - self.zeta) * ideal - 1e-12
        hi = (1.0 + self.zeta) * ideal + 1e-12
        # written so that a NaN probability or norm estimate fails each test
        if not np.all((lo <= self._probs) & (self._probs <= hi)):
            raise ConstructionError("sampler probabilities leave the zeta band")
        if not abs(self._cdf[-1] - 1.0) <= 1e-9:
            raise ConstructionError("sampler probabilities do not sum to 1")
        nrm = np.sqrt(nrm2)
        if not abs(self.m - nrm) <= self.zeta * nrm + 1e-12:
            raise ConstructionError("norm estimate violates |m - ||v||| <= zeta ||v||")

    @property
    def dim(self) -> int:
        return self.base.dim

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent 1-based indices."""
        u = rng.random(size)
        pos = np.searchsorted(self._cdf, u, side="right")
        pos = np.minimum(pos, self._support.size - 1)
        return self._support[pos] + 1

    def sample_counts(self, rng: np.random.Generator, size: int,
                      batches: int) -> np.ndarray:
        """``batches`` histograms of ``size`` draws each, one row per batch.

        Column k counts draws of ``support()[k]``.  The cell probabilities
        are the widths of the intervals ``sample_many`` maps to each index
        under the same clamped inverse CDF (the last cell absorbs
        [cdf[-2], 1)), so every row has the distribution of the histogram
        of ``sample_many(rng, size)``.
        """
        edges = np.minimum(np.concatenate(([0.0], self._cdf[:-1], [1.0])), 1.0)
        return rng.multinomial(size, np.diff(edges), size=batches)

    def support(self) -> np.ndarray:
        """1-based indices the sampler can emit."""
        return self._support + 1

    def probabilities(self) -> np.ndarray:
        return self._probs.copy()


def exact_sampler(values) -> SampledVector:
    """Zeta = 0 sampling-access to an explicitly stored vector.

    The sampler is an inverse-CDF over |v_j|^2 and m is the exact norm.
    """
    base = QueryVector(values)
    v = base.dense()
    w = np.abs(v) ** 2
    total = w.sum()
    if total == 0:
        raise ValueError("cannot build sampling-access to the zero vector")
    support = np.flatnonzero(w)
    probs = w[support] / total
    return SampledVector(base, support, probs, float(np.sqrt(total)), 0.0)


def distorted_sampler(values, zeta: float, seed: int = 0) -> SampledVector:
    """Adversarial zeta-sampling-access for tolerance tests.

    Each support probability is pushed toward an edge of the allowed band
    by a seeded Rademacher pattern, recentred so the distribution still
    sums to one without leaving the band, and the norm estimate is biased
    by a seeded sign of full magnitude zeta.
    """
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must lie in [0, 1)")
    base = QueryVector(values)
    v = base.dense()
    w = np.abs(v) ** 2
    total = w.sum()
    if total == 0:
        raise ValueError("cannot build sampling-access to the zero vector")
    support = np.flatnonzero(w)
    p = w[support] / total
    rng = np.random.default_rng(seed)
    g = rng.choice([-1.0, 1.0], size=support.size)
    centered = g - float(g @ p)
    peak = np.abs(centered).max()
    if zeta == 0.0 or peak == 0.0:
        probs = p
    else:
        probs = p * (1.0 + zeta * centered / peak)
    m_sign = 1.0 if rng.random() < 0.5 else -1.0
    m = float(np.sqrt(total)) * (1.0 + m_sign * zeta)
    return SampledVector(base, support, probs, m, zeta)


# ---------------------------------------------------------------------------
# Text formats.
#
# Matrix: header "M N nnz s", then one line per nonzero "i j re im" with
# 1-based positions in ascending (i, j) order.
# Vector: header "N", then one "re im" line per entry.
# ---------------------------------------------------------------------------


def save_vector(path, values):
    values = np.asarray(values, dtype=complex)
    with open(path, "w") as fh:
        fh.write(f"{values.size}\n")
        for z in values:
            fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")


def load_vector(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty vector file", line=1)
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError("header must be a single integer N", line=1) from None
    if n < 0:
        raise ParseError("dimension must be nonnegative", line=1)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} entry lines", line=len(lines))
    out = np.empty(n, dtype=complex)
    for k in range(n):
        parts = lines[k + 1].split()
        if len(parts) != 2:
            raise ParseError("expected 're im'", line=k + 2)
        try:
            out[k] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ParseError("could not parse floats", line=k + 2) from None
        if not np.isfinite(out[k]):
            raise ParseError("entry must be finite", line=k + 2)
    reject_trailing(lines, n + 1)
    return out


def save_matrix(path, A: SparseMatrix):
    with open(path, "w") as fh:
        fh.write(f"{A.nrows} {A.ncols} {A.nnz} {A.s}\n")
        for i in range(A.nrows):
            for c, z in zip(*A.row_nonzeros(i)):
                fh.write(f"{i + 1} {c + 1} "
                         f"{float(z.real)!r} {float(z.imag)!r}\n")


def load_matrix(path) -> SparseMatrix:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty matrix file", line=1)
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError("header must be 'M N nnz s'", line=1)
    try:
        nrows, ncols, nnz, s = (int(x) for x in head)
    except ValueError:
        raise ParseError("header must be four integers", line=1) from None
    if nnz < 0:
        raise ParseError("entry count must be nonnegative", line=1)
    entries = []
    prev = (-1, -1)
    for k in range(nnz):
        if k + 1 >= len(lines):
            raise ParseError(f"expected {nnz} entry lines", line=len(lines))
        parts = lines[k + 1].split()
        if len(parts) != 4:
            raise ParseError("expected 'i j re im'", line=k + 2)
        try:
            i, j = int(parts[0]), int(parts[1])
            val = complex(float(parts[2]), float(parts[3]))
        except ValueError:
            raise ParseError("could not parse entry", line=k + 2) from None
        if not np.isfinite(val):
            raise ParseError("entry must be finite", line=k + 2)
        if (i, j) <= prev:
            raise ParseError("entries must be in ascending (i, j) order", line=k + 2)
        prev = (i, j)
        entries.append((i, j, val))
    reject_trailing(lines, nnz + 1)
    try:
        return SparseMatrix.from_entries(nrows, ncols, entries, s=s)
    except (ValueError, IndexError) as exc:
        raise ParseError(str(exc)) from exc
