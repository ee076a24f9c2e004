"""Per-entry SVT evaluation and sampling-based bilinear-form estimation.

Deterministic core: the i-th entry of B1 ... Br u for a chain of sparse
matrices is computed by recursing over row nonzeros, memoizing
(chain depth, index) pairs, at cost O(s^r) row fetches.

An entry of P(sqrt(A-dagger A)) u is evaluated through the identity
T_{2r}(x) = T_r(2 x^2 - 1) as sum_r c_r (T_r(S) u)_i in the Hermitian
contraction S = 2 A-dagger A - I, whose spectrum lies in [-1, 1].  Up
to degree LOCAL_DEGREE_LIMIT this sum is computed locally: a memoized
three-term recurrence reads only the columns and rows of A within
reach of i, at a cost of about s^(2d) row fetches that does not depend
on N.  Above it the whole vector comes from the same recurrence on all
of S, which checks ||T_r(S) u||^2 <= (1 + NORM_TOLERANCE) ||u||^2 at
every step, which holds whenever ||A|| <= 1, and raises ConfigError
when it fails.  The local recursion checks each entry it computes
against the same bound, so it raises only when the blow-up reaches
the entries within reach of i.  Both engines compute the same operator
polynomial from the same Chebyshev coefficients; the choice depends on
the degree only.

Quadratic forms u-dagger P(sqrt(A-dagger A)) u are contracted exactly
from the Chebyshev moments mu_r = u-dagger T_r(S) u as sum_r c_r mu_r
(the kernel polynomial method).  Doubling gives all D/2 + 1 moments of
a degree-D filter from ceil(D/4) matvecs in O(N) memory, and one set
of moments serves every filter on the same (A, u).

S is applied by one of two engines.  The matrix-free one computes each
step's y = A x and then S x = 2 A-dagger y - x straight from A's CSR
arrays, so S is never formed.  A pass of more than SHORT_PASS steps on
a small A whose rows share enough columns forms S as a dense array
instead (``_contraction`` holds the rule and its measured trade-offs).
Both compute the same values up to rounding, and scipy is never
imported.  Every pass is charged in queries to A, whichever engine runs
it: each step reads every row and every column of A once, nrows + ncols
row fetches and 2 nnz(A) entry probes.

Each thread keeps two memos, keyed on object identity.  The apply
memo holds the last Chebyshev apply (A, u, P) -> w and returns w,
read-only, for the same A, u array and P, so reading several entries
of one vector costs one apply.  The moments memo holds the last moment
pass (A, u) -> mu and returns its first count moments for the same A
and u array, running the pass again at the new length when count
exceeds them, so deciding several filters against one guide costs one
moment pass.  Each memo also keeps the engine ("matrix_free" or
"formed") of the pass that computed it, which a hit reports.  On a
miss, _contraction builds S for that one pass, and S is dropped when
the call returns.  The memos' strong references keep the key ids from
being reused, and the key objects are immutable.  Beyond the inputs
they keep alive they hold at most N + D/2 numbers per thread.  Query
counts are charged on every call, hit or not.

Randomized layer: one sample draws j from the sampling-access
distribution of v and takes X_j = w_j m^2 / v_j with
w = P(sqrt(A^dag A))u.  Its mean sits within 7 zeta of v-dagger w and
each component has variance at most (1 + 7 zeta)^2.  The estimator
takes the median over K batches of r sample means, separately for real
and imaginary parts.  Call a batch failed when the real or the
imaginary part of its mean is more than (eps - 7 zeta)/sqrt(2) from
that part of E[X]; by Chebyshev on each part and a union bound this
happens with probability at most 4 (1 + 7 zeta)^2 / (r (eps - 7 zeta)^2),
which min_sample_count makes at most 1/4.  Batches are independent, so
the number of failed batches is stochastically below Bin(K, 1/4).  The
median of K numbers leaves a window only when at least ceil(K/2) of
them lie outside it on one side: for odd K the median is the
((K + 1)/2)-th order statistic, and for even K, where it averages the
(K/2)-th and the (K/2 + 1)-th, one of those two must leave the window
on that side.  So when fewer than ceil(K/2) batches fail, the real
median and the imaginary median both lie in their windows, the
estimate is within eps - 7 zeta of E[X], and so within eps of
v-dagger w.  That fails with probability at most
P[Bin(K, 1/4) >= ceil(K/2)], and min_batch_count takes the smallest K
that makes this exact tail at most fail_prob (19 at fail_prob 0.01).
A batch mean depends on its draws only through how often each index
was drawn, so each batch is drawn as one multinomial histogram over the
sampler's support, all batches from one generator seeded by the config
seed, and its mean is counts @ X / r.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .access import QueryVector, SampledVector, SparseMatrix
from .errors import ConfigError, InvalidSamplerError, ShapeError
from .polynomial import EvenPolynomial

__all__ = [
    "QueryCounter",
    "EstimatorConfig",
    "EstimateResult",
    "chain_entry",
    "svt_entry",
    "svt_entries",
    "sample_values",
    "estimate_bilinear",
    "moment_contraction",
    "min_sample_count",
    "min_batch_count",
]

# ||A|| = 1 + delta puts the top of spec(S) at 1 + 4 delta, where
# |T_r| <= cosh(r sqrt(8 delta)).  At degree 730 this tolerance admits the
# shifted Hamiltonians of assemble_sparse, whose norm may exceed 1 by
# 2.5e-10 (squared growth at most 3e-4), while ||A|| = 1.02 trips it
# within a dozen steps.
NORM_TOLERANCE = 1e-3

# The local engine costs about s^(2d) row fetches; 30 is the highest degree
# the monomial chain recursion served, so each input it served stays local.
# It is not a tuned crossover: for 16 entries of one vector at N = 256 the
# whole-vector apply is faster from degree 4 up (s = 4, degree 30:
# 233 ms local against 0.8 ms), while the local cost does not grow with N.
# The entry benchmark runs degrees 2-12 locally and 186 on the whole vector.
LOCAL_DEGREE_LIMIT = 30

_memos = threading.local()


@dataclass
class QueryCounter:
    """Counts matrix access cost: whole-row fetches and per-entry probes
    (a row with ell nonzeros costs min(ell + 1, s) probes through the
    rank-indexed interface)."""

    row_fetches: int = 0
    entry_probes: int = 0

    def account_row(self, found: int, s: int):
        self.row_fetches += 1
        self.entry_probes += min(found + 1, s)


def _check_chain(matrices, u):
    if not matrices:
        raise ShapeError("empty matrix chain")
    for a, b in zip(matrices, matrices[1:]):
        if a.ncols != b.nrows:
            raise ShapeError(
                f"chain mismatch: {a.ncols} columns feed {b.nrows} rows")
    if matrices[-1].ncols != u.dim:
        raise ShapeError(
            f"chain tail has {matrices[-1].ncols} columns, vector has {u.dim}")


def _chain_value(matrices, u_arr: np.ndarray, counter: QueryCounter | None):
    """value(d, idx): entry idx (0-based) of the last d chain matrices
    applied to u, recursing over row nonzeros.  The matrix at remaining
    depth d is matrices[len - d]; results are memoized on (d, idx)."""
    n = len(matrices)
    table = {}

    def value(depth: int, idx: int) -> complex:
        if depth == 0:
            return u_arr[idx]
        got = table.get((depth, idx))
        if got is not None:
            return got
        mat = matrices[n - depth]
        cols, vals = mat.row_nonzeros(idx)
        if counter is not None:
            counter.account_row(len(cols), mat.s)
        acc = 0.0 + 0.0j
        for c, v in zip(cols, vals):
            acc += v * value(depth - 1, int(c))
        table[(depth, idx)] = acc
        return acc

    return value


def chain_entry(matrices, u: QueryVector, i: int,
                counter: QueryCounter | None = None) -> complex:
    """i-th entry (1-based) of B1 B2 ... Br u for s-sparse B's.

    Recurses over the nonzeros of the relevant row at each level,
    memoizing each (level, index) it visits.
    """
    _check_chain(matrices, u)
    if not 1 <= i <= matrices[0].nrows:
        raise IndexError(f"index {i} out of range [1, {matrices[0].nrows}]")
    value = _chain_value(matrices, u.dense(), counter)
    return complex(value(len(matrices), i - 1))


# A pass of at most SHORT_PASS steps never forms S.  The crossover is the
# formation time, less building the matrix-free operator, over the extra
# time of a matrix-free step (one thread, a fresh A each pass): a dense S
# at N = 64 (random s = 4 and a planted sve matrix) takes 0.10-0.14 ms to
# form and 2.5-3.9 us a step, against 8-13 us matrix-free, so skipping it
# wins up to 9-15 steps, and up to 16 steps a matrix-free pass is at most
# about 0.07 ms slower.  Estimate filters have degree 2-12 (1-6 steps);
# sve, glh and entry passes run 45 steps or more, so with the density
# rule below each workload's passes go to one engine.
SHORT_PASS = 16

# A longer pass forms a dense S when A is small and its rows share enough
# columns, and runs matrix-free otherwise.  On one core a dense matvec
# costs the same at any fill (1.4, 3.8 and 13 us at N = 64, 128 and 256),
# while a matrix-free step grows with nnz(A).  The rule reads the pair
# density sum_i L_i^2 / N^2 (L_i the nonzeros in row i of A), the work of
# forming S and a bound on its fill.  Its 1/16 keeps every glh
# Hamiltonian up to n = 8 dense: a dense 2-local term puts 4 nonzeros in
# every row, so the density is at least 16 / N (0.25-2.6 on most, 1/16
# when all terms share one qubit pair), and every sve matrix (0.23-0.25)
# is dense too.  There the dense S wins the 183-step moment pass by
# 1.23-1.56x at N = 256 and about 2x at N = 64-128.  The N = 256 matrices
# of the entry filter (at most 0.033) run matrix-free, at 1.7-3.2 ms per
# 93-step apply against 2.8-4.2 ms on a dense S.
DENSE_MAX_N = 256
DENSE_MIN_PAIR_DENSITY = 1 / 16
PAIR_BLOCK = 1 << 16


class _MatrixFree:
    """S = 2 A-dagger A - I as an operator that is never formed.

    ``S @ x`` computes y = A x and then 2 A-dagger y - x, each as one
    np.bincount over A's CSR arrays: y over the row of each nonzero, and
    A-dagger y over its column, so neither the column index nor scipy is
    touched.  The sums run in another order than a formed S's, so S @ x
    differs from it in rounding only.
    """

    def __init__(self, A: SparseMatrix):
        indptr, indices, data = A.csr_arrays()
        self._rows = np.repeat(np.arange(A.nrows), np.diff(indptr))
        self._cols = indices
        self._data = np.asarray(data, dtype=complex)
        self._conj2 = 2.0 * self._data.conj()
        # the real and imaginary parts of row or column j sum into slots
        # 2j and 2j + 1
        pair = np.arange(2)
        self._row_keys = (2 * self._rows[:, None] + pair).ravel()
        self._col_keys = (2 * indices.astype(np.intp)[:, None] + pair).ravel()
        self._nrows, self._ncols = A.nrows, A.ncols

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = _scatter(self._row_keys, self._data * x[self._cols], self._nrows)
        z = _scatter(self._col_keys, self._conj2 * y[self._rows], self._ncols)
        z -= x
        return z


def _scatter(keys: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The n complex sums of ``values`` into the slot pairs ``keys`` names."""
    # with no weights at all (A = 0) bincount counts in integers
    out = np.bincount(keys, values.view(float), 2 * n)
    return out.astype(float, copy=False).view(complex)


def _contraction(A: SparseMatrix, steps: int):
    """S = 2 A-dagger A - I for a pass of ``steps`` steps, Hermitian with
    spectrum in [-1, 1] when ||A|| <= 1.

    A pass of more than SHORT_PASS steps forms S as a dense array when
    N <= DENSE_MAX_N and sum_i L_i^2 >= DENSE_MIN_PAIR_DENSITY N^2.  Every
    other pass gets the matrix-free S.  Either engine computes the same
    values up to rounding and is charged the same queries (see _charge).
    """
    n = A.ncols
    if steps > SHORT_PASS and n <= DENSE_MAX_N:
        length = np.diff(A.csr_arrays()[0]).astype(np.int64)
        if n * n * DENSE_MIN_PAIR_DENSITY <= np.dot(length, length):
            return _dense_contraction(A)
    return _MatrixFree(A)


def _dense_contraction(A: SparseMatrix) -> np.ndarray:
    """S as a dense array holding the values of scipy's sparse
    S = 2 A-dagger A - I bit for bit, up to the sign of zero parts.

    Row k of A adds conj(A_kj) A_kc to G_jc for every pair (j, c) of its
    nonzeros.  The real and imaginary parts are summed in ascending k from
    0, with the products formed as scipy's sparse product forms them, so
    G holds its values.  Rows go in blocks of at most PAIR_BLOCK pairs,
    which bounds the memory for any A.
    """
    n = A.ncols
    indptr, indices, data = A.csr_arrays()
    length = np.diff(indptr)
    # rows of A padded to one width, the pads in an extra column n
    rows = np.repeat(np.arange(length.size), length)
    slot = np.arange(data.size) - np.repeat(indptr[:-1], length)
    re = np.zeros((length.size, length.max(initial=0)))
    im, col = np.zeros_like(re), np.full(re.shape, n)
    re[rows, slot], im[rows, slot], col[rows, slot] = data.real, data.imag, indices
    G = np.zeros(2 * (n + 1) ** 2)  # real and imaginary parts side by side
    block = max(1, PAIR_BLOCK // max(1, re.shape[1] ** 2))
    for k in range(0, length.size, block):
        r, i, c = re[k:k + block], im[k:k + block], col[k:k + block]
        rj, ij, rc, ic = r[:, :, None], i[:, :, None], r[:, None, :], i[:, None, :]
        parts = np.empty(rj.shape[:2] + rc.shape[2:] + (2,))
        parts[..., 0] = rc * rj + ic * ij
        parts[..., 1] = ic * rj - rc * ij
        key = np.empty(parts.shape, dtype=np.intp)
        key[..., 0] = c[:, :, None] * (2 * (n + 1)) + 2 * c[:, None, :]
        np.add(key[..., 0], 1, out=key[..., 1])
        np.add.at(G, key.ravel(), parts.ravel())  # in order, repeats included
    G = G.view(complex).reshape(n + 1, n + 1)
    G *= 2.0
    G.flat[::n + 2] -= 1.0
    return G[:n, :n]  # row stride n + 1, which BLAS takes as it is


class _Memo(NamedTuple):
    """A result kept per thread, the objects it was computed from, and
    the engine of the pass that computed it."""

    key: tuple
    value: np.ndarray  # read-only
    engine: str  # "matrix_free" or "formed"


def _charge(counter: QueryCounter | None, A: SparseMatrix, steps: int):
    """Charge ``steps`` steps of a pass with S = 2 A-dagger A - I: each
    reads every row and every column of A once, nrows + ncols row fetches
    and 2 nnz(A) entry probes, whichever engine applies S."""
    if counter is not None:
        counter.row_fetches += steps * (A.nrows + A.ncols)
        counter.entry_probes += steps * 2 * A.nnz


def _kept(name: str, key: tuple, steps: int, counter: QueryCounter | None,
          run, size: int = 0) -> np.ndarray:
    """The value of this thread's ``name`` memo when it was computed from
    the ``key`` objects and holds at least ``size`` numbers.

    Otherwise run(S) computes the value with a fresh S from _contraction
    for a pass of ``steps`` steps on A = key[0], and the result replaces
    the memo.  S is dropped on return; a pass that raises stores nothing.
    Either way the call charges ``steps`` steps on A.
    """
    _charge(counter, key[0], steps)
    memo = getattr(_memos, name, None)
    if (memo is not None and all(a is b for a, b in zip(memo.key, key))
            and memo.value.size >= size):
        return memo.value
    S = _contraction(key[0], steps)
    value = run(S)
    value.flags.writeable = False
    engine = "matrix_free" if isinstance(S, _MatrixFree) else "formed"
    setattr(_memos, name, _Memo(key, value, engine))
    return value


def _cheb_apply(A: SparseMatrix, u_arr: np.ndarray, P: EvenPolynomial,
                counter: QueryCounter | None = None) -> np.ndarray:
    """P(sqrt(A-dagger A)) u via the T_r(2 A-dagger A - I) recurrence.

    The result is read-only.  This thread's apply memo keeps it: the
    same A, u_arr and P objects return it again.  Otherwise the
    recurrence runs on a fresh S and replaces the memo.  Each call
    charges the degree // 2 steps of the pass, hit or miss.  Raises ConfigError, storing
    nothing, when some ||T_r(S) u||^2 exceeds
    (1 + NORM_TOLERANCE) ||u||^2, which means ||A|| > 1.
    """
    return _kept("apply", (A, u_arr, P), P.degree // 2, counter,
                 lambda S: _recurrence(S, u_arr, P.cheb_even()))


def _moments(A: SparseMatrix, u_arr: np.ndarray, count: int,
             counter: QueryCounter | None = None) -> np.ndarray:
    """The Chebyshev moments mu_r = u-dagger T_r(S) u for r < count.

    Returns them read-only.  This thread's moments memo keeps the last
    pass: the same A and u_arr objects return its first ``count``
    moments, unless ``count`` exceeds them, when the pass runs again at
    the new length and replaces the memo.  Each call charges count // 2 matvecs, hit or
    miss.  Raises ConfigError, storing nothing, when ||A|| > 1 shows in
    the moments.
    """
    mu = _kept("moments", (A, u_arr), count // 2, counter,
               lambda S: _moment_pass(S, u_arr, count), size=count)
    return mu[:count]


def _moment_pass(S, u_arr: np.ndarray, count: int) -> np.ndarray:
    """mu_r = u-dagger T_r(S) u for r < count from count // 2 matvecs.

    S is Hermitian, so T_j T_k = (T_{j+k} + T_{|j-k|}) / 2 gives
    mu_{2k} = 2 ||T_k u||^2 - mu_0 and
    mu_{2k+1} = 2 <T_{k+1} u, T_k u> - mu_1, and only T_k u for
    k <= count // 2 is needed, two vectors at a time.  When ||A|| <= 1
    every ||T_k u||^2 and every |mu_r| is at most mu_0 = ||u||^2;
    ConfigError is raised when one exceeds (1 + NORM_TOLERANCE) mu_0.
    """
    mu = np.empty(count)
    mu[0] = np.vdot(u_arr, u_arr).real
    bound = (1.0 + NORM_TOLERANCE) * mu[0]
    prev, cur = u_arr, u_arr  # T_{k-1} u and T_k u
    for k in range((count + 1) // 2):
        if k > 0:
            norm2 = np.vdot(cur, cur).real
            if not norm2 <= bound:
                raise ConfigError(
                    f"||A|| exceeds 1: ||T_{k}(2 A^dag A - I) u||^2 exceeds "
                    f"(1 + {NORM_TOLERANCE}) ||u||^2")
            mu[2 * k] = 2.0 * norm2 - mu[0]
        if 2 * k + 1 < count:
            nxt = S @ cur if k == 0 else 2.0 * (S @ cur) - prev
            cross = np.vdot(nxt, cur).real
            mu[2 * k + 1] = cross if k == 0 else 2.0 * cross - mu[1]
            prev, cur = cur, nxt
    if not np.all(np.abs(mu) <= bound):  # NaN fails too
        raise ConfigError(
            f"||A|| exceeds 1: a moment u^dag T_r(2 A^dag A - I) u exceeds "
            f"(1 + {NORM_TOLERANCE}) ||u||^2 in magnitude")
    return mu


def _recurrence(S, u_arr: np.ndarray,
                cr: np.ndarray) -> np.ndarray:
    """sum_r cr[r] T_r(S) u, checking ||T_r(S) u|| against ||u||."""
    y = cr[0] * u_arr
    if cr.size == 1:
        return y
    bound = (1.0 + NORM_TOLERANCE) * np.vdot(u_arr, u_arr).real

    def checked(vec, r):
        if not np.vdot(vec, vec).real <= bound:
            raise ConfigError(
                f"||A|| exceeds 1: ||T_{r}(2 A^dag A - I) u||^2 exceeds "
                f"(1 + {NORM_TOLERANCE}) ||u||^2")
        return vec

    prev = u_arr
    cur = checked(S @ u_arr, 1)
    y = y + cr[1] * cur
    for r in range(2, cr.size):
        prev, cur = cur, checked(2.0 * (S @ cur) - prev, r)
        y = y + cr[r] * cur
    return y


def svt_entry(A: SparseMatrix, u: QueryVector, P: EvenPolynomial, i: int,
              counter: QueryCounter | None = None) -> complex:
    """i-th entry of P(sqrt(A-dagger A)) u.

    Up to degree LOCAL_DEGREE_LIMIT the entry comes from the local
    Chebyshev recursion over the rows and columns of A near i, at a
    query cost independent of N.  Higher degrees use the Chebyshev
    recurrence on the whole vector, which this thread's apply memo
    keeps, so further entries of the same (A, u, P) cost no recompute.
    Both paths raise ConfigError when ||A|| > 1 shows: the whole-vector
    path in any entry, the local path in the entries it reads.  Values
    agree to machine precision.
    """
    if A.ncols != u.dim:
        raise ShapeError(f"matrix has {A.ncols} columns, vector has {u.dim}")
    if not 1 <= i <= A.ncols:
        raise IndexError(f"index {i} out of range [1, {A.ncols}]")
    if P.degree <= LOCAL_DEGREE_LIMIT:
        return _local_entry(A, u.dense(), P.cheb_even(), i - 1, counter)
    return complex(_cheb_apply(A, u.dense(), P, counter)[i - 1])


def _local_entry(A: SparseMatrix, u_arr: np.ndarray, cr: np.ndarray, i: int,
                 counter: QueryCounter | None = None) -> complex:
    """sum_r cr[r] (T_r(S) u)_i at 0-based i, for S = 2 A-dagger A - I.

    Memoizes t[(r, k)] = (T_r(S) u)_k, read through column k of A, and
    g[(r, j)] = (A T_r(S) u)_j, read through row j; each memo miss
    charges one row fetch, as the chain recursion does.  When ||A|| <= 1,
    |(T_r(S) u)_k|^2 <= ||T_r(S) u||^2 <= ||u||^2, so each new t entry
    is checked against (1 + NORM_TOLERANCE) ||u||^2 and ConfigError is
    raised when one exceeds it.
    """
    t: dict = {}
    g: dict = {}
    s = A.s
    bound = (1.0 + NORM_TOLERANCE) * np.vdot(u_arr, u_arr).real

    def t_val(r: int, k: int) -> complex:
        if r == 0:
            return complex(u_arr[k])
        got = t.get((r, k))
        if got is not None:
            return got
        rows, vals = A.col_nonzeros(k)
        if counter is not None:
            counter.account_row(len(rows), s)
        acc = 0j
        for j, a in zip(rows.tolist(), vals.tolist()):
            acc += a.conjugate() * g_val(r - 1, j)
        x = 2.0 * acc - t_val(r - 1, k)  # (S T_{r-1}(S) u)_k
        val = x if r == 1 else 2.0 * x - t_val(r - 2, k)
        if not abs(val) ** 2 <= bound:
            raise ConfigError(
                f"||A|| exceeds 1: |(T_{r}(2 A^dag A - I) u)_{k + 1}|^2 "
                f"exceeds (1 + {NORM_TOLERANCE}) ||u||^2")
        t[(r, k)] = val
        return val

    def g_val(r: int, j: int) -> complex:
        got = g.get((r, j))
        if got is not None:
            return got
        cols, vals = A.row_nonzeros(j)
        if counter is not None:
            counter.account_row(len(cols), s)
        acc = 0j
        for k, a in zip(cols.tolist(), vals.tolist()):
            acc += a * t_val(r, k)
        g[(r, j)] = acc
        return acc

    return sum(c * t_val(r, i) for r, c in enumerate(cr.tolist()))


def svt_entries(A: SparseMatrix, u: QueryVector, P: EvenPolynomial,
                indices, counter: QueryCounter | None = None) -> np.ndarray:
    """Entries of P(sqrt(A-dagger A)) u at several 1-based indices.

    Shares one Chebyshev recurrence across all requested entries, which
    is what the sampling estimator needs when the same index recurs.
    Returns a writable copy; ||A|| > 1 raises ConfigError.  Indices that
    are not integers raise IndexError, as they do in svt_entry.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        return np.empty(0, dtype=complex)
    if not np.issubdtype(indices.dtype, np.integer):
        raise IndexError(f"entry indices must be integers, got {indices.dtype}")
    if indices.min() < 1 or indices.max() > A.ncols:
        raise IndexError("entry index out of range")
    w = _cheb_apply(A, u.dense(), P, counter)
    return w[indices - 1]


def min_sample_count(eps: float, zeta: float) -> int:
    """Smallest batch size making the Chebyshev failure bound
    4 (1 + 7 zeta)^2 / (r (eps - 7 zeta)^2) at most 1/4."""
    if 7.0 * zeta >= eps:
        raise ConfigError(f"zeta={zeta} too large for precision eps={eps}")
    return math.ceil(16.0 * (1.0 + 7.0 * zeta) ** 2 / (eps - 7.0 * zeta) ** 2)


def _median_margins(fail_prob: float):
    """Yield (K, m) for K = 1, 2, 3, ... with
    m = den 4^K (fail_prob - P[Bin(K, 1/4) >= ceil(K/2)]), where
    num / den is fail_prob as its exact binary fraction.

    Integers throughout, so the sign of m decides the comparison exactly.
    For odd n and g_n = den C(n, (n-1)/2) 3^((n+1)/2), conditioning on the
    new draws gives m_{n+1} = 4 m_n - g_n (a tie at n + 1 also fails)
    and m_{n+2} = 16 m_n + 2 g_n (one short and two failures, minus one
    over and two successes, whose weights are C(n, (n-1)/2) 3^((n+1)/2)
    and 9 C(n, (n+1)/2) 3^((n-1)/2)).
    """
    num, den = float(fail_prob).as_integer_ratio()
    n, m, g = 1, 4 * num - den, 3 * den
    while True:
        yield n, m
        yield n + 1, 4 * m - g
        m = 16 * m + 2 * g
        g = 3 * g * (n + 2) * (n + 1) // (((n + 1) // 2) * ((n + 3) // 2))
        n += 2


@functools.lru_cache(maxsize=64)
def min_batch_count(fail_prob: float) -> int:
    """Smallest batch count K with P[Bin(K, 1/4) >= ceil(K/2)] <= fail_prob,
    decided in exact integer arithmetic.

    Each batch fails with probability at most 1/4 (min_sample_count), and
    the median estimate can be wrong only when at least ceil(K/2) of the
    K independent batches fail (the module docstring has the argument,
    for both parities and for the separate real and imaginary medians).
    So this K meets fail_prob: 19 batches at 0.01.  K is odd: an even K
    has the same threshold as K - 1 plus one more draw that can only add
    failures, so it is never better.  Over odd K the tail strictly
    falls, since p^2 P[X_K = (K-1)/2] < (1 - p)^2 P[X_K = (K+1)/2] for
    p = 1/4 < 1/2, and the scan returns the first K that passes.  It
    takes about ln(1/fail_prob) / ln(4/3) steps; results are memoized.
    """
    if not 0.0 < fail_prob < 1.0:
        raise ConfigError("fail_prob must lie in (0, 1)")
    return next(k for k, m in _median_margins(fail_prob) if m >= 0)


@functools.lru_cache(maxsize=64)
def _batches_meet(batches: int, fail_prob: float) -> bool:
    """Whether P[Bin(batches, 1/4) >= ceil(batches/2)] <= fail_prob.

    From 8 ln(1/fail_prob) + 1 batches up, Hoeffding's exp(-batches / 8)
    bound already holds (the + 1 absorbs the rounding of the log), so the
    exact scan runs at most about 6,000 steps, even at the smallest
    positive fail_prob.
    """
    if batches >= 8.0 * -math.log(fail_prob) + 1.0:
        return True
    return next(m for k, m in _median_margins(fail_prob) if k == batches) >= 0


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling plan for the bilinear estimator.

    ``samples`` is the per-batch count r, ``batches`` the median
    repetitions K; both must clear the bounds implied by (eps, zeta,
    fail_prob), which estimate_bilinear checks:
    r >= min_sample_count(eps, zeta) and
    P[Bin(K, 1/4) >= ceil(K/2)] <= fail_prob.
    """

    eps: float
    fail_prob: float
    samples: int
    batches: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError("eps must lie in (0, 1]")
        if not 0.0 < self.fail_prob < 1.0:
            raise ConfigError("fail_prob must lie in (0, 1)")
        if self.samples < 1 or self.batches < 1:
            raise ConfigError("samples and batches must be positive")

    @classmethod
    def for_target(cls, eps: float, fail_prob: float, zeta: float = 0.0,
                   seed: int = 0) -> "EstimatorConfig":
        if zeta > eps / 8.0:
            raise ConfigError(f"need zeta <= eps/8, got zeta={zeta}, eps={eps}")
        return cls(eps=eps, fail_prob=fail_prob,
                   samples=min_sample_count(eps, zeta),
                   batches=min_batch_count(fail_prob), seed=seed)


@dataclass
class EstimateResult:
    value: complex
    eps: float
    fail_prob: float
    samples: int
    batches: int
    total_samples: int
    unique_indices: int
    degree: int
    operator: str  # "matrix_free" or "formed": how S was applied
    counter: QueryCounter = field(default_factory=QueryCounter)
    elapsed_s: float = 0.0


def _sample_values_at(A: SparseMatrix, u: QueryVector, v: SampledVector,
                      P: EvenPolynomial, indices: np.ndarray,
                      counter: QueryCounter | None = None) -> np.ndarray:
    """X_j = w_j m^2 / v_j at the drawn 1-based ``indices``.

    The division uses the sampled entry itself, not its conjugate:
    m^2 p(j) / v_j reduces to conj(v_j) at zeta = 0, which is what makes
    E[X] track v-dagger w.  Raises InvalidSamplerError if any of them
    has v_j = 0: the sampler must never emit such an index.
    """
    v_ent = v.base.dense()[indices - 1]
    if np.any(v_ent == 0):
        raise InvalidSamplerError("sampler emitted an index with zero entry")
    w = svt_entries(A, u, P, indices, counter=counter)
    return w * (v.m ** 2) / v_ent


def sample_values(A: SparseMatrix, u: QueryVector, v: SampledVector,
                  P: EvenPolynomial, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """``count`` independent draws of X_j, with the indices j from
    ``v.sample_many(rng, count)``.

    The entry values w_j are deterministic in j, so they are computed
    once per distinct sampled index and gathered by the drawn index.
    """
    idx = v.sample_many(rng, count)
    drawn = np.zeros(v.dim, dtype=bool)
    drawn[idx - 1] = True
    cells = np.flatnonzero(drawn) + 1
    table = np.empty(v.dim, dtype=complex)
    table[cells - 1] = _sample_values_at(A, u, v, P, cells)
    return table[idx - 1]


def _validate_estimate_inputs(A, u, v, P, cfg):
    if A.ncols != u.dim or A.ncols != v.dim:
        raise ShapeError("matrix and vectors have incompatible dimensions")
    if v.zeta > cfg.eps / 8.0:
        raise ConfigError(
            f"sampling distortion zeta={v.zeta} exceeds eps/8={cfg.eps / 8.0}")
    if cfg.samples < min_sample_count(cfg.eps, v.zeta):
        raise ConfigError(
            f"config has r={cfg.samples} samples, need at least "
            f"{min_sample_count(cfg.eps, v.zeta)}")
    if not _batches_meet(cfg.batches, cfg.fail_prob):
        raise ConfigError(
            f"config has K={cfg.batches} batches, whose median fails with "
            f"probability above fail_prob={cfg.fail_prob}; "
            f"{min_batch_count(cfg.fail_prob)} batches suffice")
    if u.norm() > 1.0 + 1e-9 or v.base.norm() > 1.0 + 1e-9:
        raise ConfigError("vectors must have norm at most 1")
    xs = np.linspace(-1.0, 1.0, 1001)
    if not np.abs(P(xs)).max() <= 1.0 + 1e-9:  # NaN fails too
        raise ConfigError("polynomial must satisfy |P| <= 1 on [-1, 1]")


def estimate_bilinear(A: SparseMatrix, u: QueryVector, v: SampledVector,
                      P: EvenPolynomial, cfg: EstimatorConfig) -> EstimateResult:
    """Estimate v-dagger P(sqrt(A-dagger A)) u to within cfg.eps.

    Draws cfg.batches independent batches of cfg.samples single samples,
    each batch as one histogram over v's support from a single generator
    seeded by cfg.seed.  A batch mean is counts @ X / r with the
    per-index values X_j = w_j m^2 / v_j, so the cost is
    O(batches * |supp v|) binomial draws on top of one application of
    P.  The median across batch means is taken separately for real and
    imaginary parts.  ||A|| > 1 raises ConfigError from the apply.
    """
    t0 = time.perf_counter()
    _validate_estimate_inputs(A, u, v, P, cfg)
    rng = np.random.default_rng(cfg.seed)
    counts = v.sample_counts(rng, cfg.samples, cfg.batches)
    hit = counts.sum(axis=0) > 0
    counter = QueryCounter()
    X = _sample_values_at(A, u, v, P, v.support()[hit], counter=counter)
    means = counts[:, hit] @ X / cfg.samples
    z = complex(np.median(means.real), np.median(means.imag))
    return EstimateResult(
        value=z, eps=cfg.eps, fail_prob=cfg.fail_prob, samples=cfg.samples,
        batches=cfg.batches, total_samples=cfg.batches * cfg.samples,
        unique_indices=int(np.count_nonzero(hit)), degree=P.degree,
        operator=_memos.apply.engine, counter=counter,
        elapsed_s=time.perf_counter() - t0)


def moment_contraction(A: SparseMatrix, v: SampledVector, P: EvenPolynomial,
                       cfg: EstimatorConfig) -> EstimateResult:
    """v-dagger P(sqrt(A-dagger A)) v for the guide's stored base vector,
    exactly, as cheb_even() @ mu with the Chebyshev moments
    mu_r = v-dagger T_r(S) v (the kernel polynomial method).

    Runs estimate_bilinear's input checks with u = v.base and returns
    its result type with no samples drawn.  This thread's moments memo
    keeps them, keyed on (A, v.base array), so further filters on the
    same matrix and guide cost one dot product each; a longer filter
    recomputes them.  The counter is charged the pass's
    ceil(degree / 4) matvecs on every call.  The value is real because
    S is Hermitian.  ||A|| > 1 raises ConfigError from the pass when it
    shows in some ||T_k(S) v||^2 with k <= ceil(degree / 4) or in some
    moment with r <= degree / 2.  That reaches less far than
    estimate_bilinear's check of ||T_r(S) v||^2 up to r = degree / 2: on
    an eigenvalue lambda > 1 of S a moment grows like T_r(lambda), not
    like its square, so a singular value just above 1 with little guide
    weight passes, and the exact form for that A is returned.
    """
    t0 = time.perf_counter()
    _validate_estimate_inputs(A, v.base, v, P, cfg)
    cr = P.cheb_even()
    counter = QueryCounter()
    mu = _moments(A, v.base.dense(), cr.size, counter)
    return EstimateResult(
        value=complex(cr @ mu), eps=cfg.eps, fail_prob=cfg.fail_prob,
        samples=0, batches=0, total_samples=0, unique_indices=0,
        degree=P.degree, operator=_memos.moments.engine, counter=counter,
        elapsed_s=time.perf_counter() - t0)
