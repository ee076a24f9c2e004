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

S is a dense array when A is small and its rows share enough columns,
and a scipy CSR matrix otherwise (``_contraction`` holds the one rule
and its measured trade-off).  Both hold the same values, so nnz(S), which
the query counters charge, is the same either way; S @ x differs in
rounding only.

Each thread keeps one slot (A, (S, nnz(S)), apply, moments), keyed on
object identity: a call with the same A reuses S; apply = (u, P, w) is the
last Chebyshev apply, returned (read-only) for the same u array and P;
moments = (u, mu) is the last moment pass, returned for the same u
array when it is long enough for the filter and recomputed at the new
length otherwise.  So reading several entries of one vector costs one
apply, and deciding several filters against one guide costs one
moment pass.  The slot never holds two contractions.  Its strong
references keep those ids from being reused, and the key objects are
immutable.  Beyond the inputs it keeps alive it holds at most
(N + 1)^2 + N + D/2 numbers per thread for a dense S (stored with one
padding row and column), nnz(S) + N + D/2 for a sparse one.  Query
counts are charged on every call, cache hit or not.

Randomized layer: one sample draws j from the sampling-access
distribution of v and takes X_j = w_j m^2 / v_j with
w = P(sqrt(A^dag A))u.  Its mean sits within 7 zeta of v-dagger w and
each component has variance at most (1 + 7 zeta)^2.  The estimator
takes the median over batches of sample means, separately for real and
imaginary parts.  A batch mean depends on its draws only through how
often each index was drawn, so each batch is drawn as one multinomial
histogram over the sampler's support, all batches from one generator
seeded by the config seed, and its mean is counts @ X / r.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

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
# slot's whole-vector apply is faster from degree 4 up (s = 4, degree 30:
# 233 ms local against 0.8 ms), while the local cost does not grow with N.
# The entry benchmark runs degrees 2-12 locally and 186 on the slot.
LOCAL_DEGREE_LIMIT = 30

_last_apply = threading.local()


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


def _chain_value(matrices, u_arr: np.ndarray, table: dict | None,
                 counter: QueryCounter | None):
    """value(d, idx): entry idx (0-based) of the last d chain matrices
    applied to u, recursing over row nonzeros.  The matrix at remaining
    depth d is matrices[len - d]; results are memoized in ``table`` on
    (d, idx) unless it is None."""
    n = len(matrices)

    def value(depth: int, idx: int) -> complex:
        if depth == 0:
            return u_arr[idx]
        if table is not None:
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
        if table is not None:
            table[(depth, idx)] = acc
        return acc

    return value


def chain_entry(matrices, u: QueryVector, i: int, memo: bool = True,
                counter: QueryCounter | None = None) -> complex:
    """i-th entry (1-based) of B1 B2 ... Br u for s-sparse B's.

    Recurses over the nonzeros of the relevant row at each level;
    ``memo=False`` re-explores shared indices exactly as the plain
    recursion would (useful only for tiny chains).
    """
    _check_chain(matrices, u)
    if not 1 <= i <= matrices[0].nrows:
        raise IndexError(f"index {i} out of range [1, {matrices[0].nrows}]")
    value = _chain_value(matrices, u.dense(), {} if memo else None, counter)
    return complex(value(len(matrices), i - 1))


# S is dense when A is small and its rows share enough columns.  On one
# core a dense matvec costs the same at any fill (1.4, 3.8 and 13 us at
# N = 64, 128 and 256), while a CSR matvec grows with nnz(S): dense wins at
# every fill at N = 64, above about 10 % fill at N = 128 and 19 % at
# N = 256, and building a dense S costs about what scipy's sparse product
# does.  The rule reads the pair density sum_i L_i^2 / N^2 (L_i the
# nonzeros in row i of A), the work of forming S and a bound on its fill.
# Its 1/16 keeps every glh Hamiltonian up to n = 8 dense: a dense 2-local
# term puts 4 nonzeros in every row, so the density is at least 16 / N
# (0.25-2.6 on most, 1/16 when all terms share one qubit pair); every sve
# matrix (0.23-0.25) is dense too, and the estimate and entry matrices
# (at most 0.033) stay sparse.  At n = 8, S is often only 2-19 % full,
# where the dense matvec is up to 5x slower; not importing scipy.sparse
# (20 MB, 0.2 s) into those processes pays for it.
DENSE_MAX_N = 256
DENSE_MIN_PAIR_DENSITY = 1 / 16
PAIR_BLOCK = 1 << 16


def _contraction(A: SparseMatrix) -> tuple:
    """(S, nnz(S)) for S = 2 A-dagger A - I, Hermitian with spectrum in
    [-1, 1] when ||A|| <= 1.

    S is a dense array when N <= DENSE_MAX_N and sum_i L_i^2 >=
    DENSE_MIN_PAIR_DENSITY N^2, and a scipy CSR matrix otherwise (scipy
    imported here on first use).  Either way nnz(S) counts the nonzero
    entries of the same values, and the query counters charge it.
    """
    n = A.ncols
    length = np.diff(A.csr_arrays()[0]).astype(np.int64)
    if n <= DENSE_MAX_N and n * n <= np.dot(length, length) / DENSE_MIN_PAIR_DENSITY:
        return _dense_contraction(A)
    import scipy.sparse as sp  # only sparse contractions need it

    csr = A.csr()
    gram = (csr.conj().T @ csr).tocsr()
    S = (2.0 * gram - sp.identity(n, dtype=complex, format="csr")).tocsr()
    return S, S.nnz


def _dense_contraction(A: SparseMatrix) -> tuple:
    """(S, nnz(S)) with S a dense array holding the values of scipy's
    sparse S bit for bit, up to the sign of zero parts.

    Row k of A adds conj(A_kj) A_kc to G_jc for every pair (j, c) of its
    nonzeros.  The real and imaginary parts are summed in ascending k from
    0, with the products formed as scipy's sparse product forms them, so
    G holds its values and S its nonzeros.  Rows go in blocks of at most
    PAIR_BLOCK pairs, which bounds the memory for any A.
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
    S = G[:n, :n]  # row stride n + 1, which BLAS takes as it is
    return S, int(np.count_nonzero(S != 0))


def _slot_for(A: SparseMatrix) -> tuple:
    """This thread's slot (A, (S, nnz(S)), apply, moments) when A is its
    matrix; otherwise the slot is cleared, so that it never holds two
    contractions, and a fresh (A, (S, nnz(S)), None, None) is returned
    unstored."""
    slot = getattr(_last_apply, "slot", None)
    if slot is not None and slot[0] is A:
        return slot
    _last_apply.slot = None
    return (A, _contraction(A), None, None)


def _cheb_apply(A: SparseMatrix, u_arr: np.ndarray, P: EvenPolynomial,
                counter: QueryCounter | None = None) -> np.ndarray:
    """P(sqrt(A-dagger A)) u via the T_r(2 A-dagger A - I) recurrence.

    The result is read-only.  This thread's slot keeps (u_arr, P, w)
    from the last successful call: the same A object reuses S, and the
    same A, u_arr and P objects return the stored w.  Otherwise the
    recurrence runs and replaces the slot's apply; a call that raises
    stores nothing.  Raises ConfigError when some ||T_r(S) u||^2 exceeds
    (1 + NORM_TOLERANCE) ||u||^2, which means ||A|| > 1.
    """
    _, contraction, apply, moments = _slot_for(A)
    S, nnz = contraction
    steps = P.degree // 2
    if counter is not None:
        # each recurrence step reads every nonzero entry of S once
        counter.row_fetches += steps * S.shape[0]
        counter.entry_probes += steps * nnz
    if apply is not None and apply[0] is u_arr and apply[1] is P:
        return apply[2]
    w = _recurrence(S, u_arr, P.cheb_even())
    w.flags.writeable = False
    _last_apply.slot = (A, contraction, (u_arr, P, w), moments)
    return w


def _moments(A: SparseMatrix, u_arr: np.ndarray, count: int,
             counter: QueryCounter | None = None) -> np.ndarray:
    """The Chebyshev moments mu_r = u-dagger T_r(S) u for r < count.

    Returns them read-only.  This thread's slot keeps (u_arr, mu) from
    the last successful call: the same A reuses S, and the same A and
    u_arr objects return the first ``count`` stored moments unless
    ``count`` exceeds them, when the pass runs again at the new length.
    Each call charges the pass's count // 2 matvecs, hit or miss.
    Raises ConfigError, storing nothing, when ||A|| > 1 shows in the
    moments.
    """
    _, contraction, apply, moments = _slot_for(A)
    S, nnz = contraction
    steps = count // 2
    if counter is not None:
        counter.row_fetches += steps * S.shape[0]
        counter.entry_probes += steps * nnz
    if moments is not None and moments[0] is u_arr and moments[1].size >= count:
        return moments[1][:count]
    mu = _moment_pass(S, u_arr, count)
    mu.flags.writeable = False
    _last_apply.slot = (A, contraction, apply, (u_arr, mu))
    return mu


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
    recurrence on the whole vector, which stays in this thread's slot,
    so further entries of the same (A, u, P) cost no recompute.  Both
    paths raise ConfigError when ||A|| > 1 shows: the whole-vector path
    in any entry, the local path in the entries it reads.  Values agree
    to machine precision.
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
    Returns a writable copy; ||A|| > 1 raises ConfigError.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return np.empty(0, dtype=complex)
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


def min_batch_count(fail_prob: float) -> int:
    """Median repetitions boosting per-batch success 3/4 to 1 - fail_prob."""
    return max(1, math.ceil(18.0 * math.log(1.0 / fail_prob)))


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling plan for the bilinear estimator.

    ``samples`` is the per-batch count r, ``batches`` the median
    repetitions K; both must clear the bounds implied by (eps, zeta,
    fail_prob).
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
        counter=counter, elapsed_s=time.perf_counter() - t0)


def moment_contraction(A: SparseMatrix, v: SampledVector, P: EvenPolynomial,
                       cfg: EstimatorConfig) -> EstimateResult:
    """v-dagger P(sqrt(A-dagger A)) v for the guide's stored base vector,
    exactly, as cheb_even() @ mu with the Chebyshev moments
    mu_r = v-dagger T_r(S) v (the kernel polynomial method).

    Runs estimate_bilinear's input checks with u = v.base and returns
    its result type with no samples drawn.  The moments stay in this
    thread's slot, keyed on (A, v.base array), so further filters on the
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
        degree=P.degree, counter=counter, elapsed_s=time.perf_counter() - t0)
