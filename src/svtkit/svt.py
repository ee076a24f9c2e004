"""Per-entry SVT evaluation and sampling-based bilinear-form estimation.

Deterministic core: the i-th entry of B1 ... Br u for a chain of sparse
matrices is computed by recursing over row nonzeros, memoizing
(chain depth, index) pairs, at cost O(s^r) row fetches.  The entry of
P(sqrt(A-dagger A)) u follows from the even-coefficient expansion
a_0 u + a_2 (A-dagger A) u + ... + a_{2d} (A-dagger A)^d u.

Monomial coefficients are numerically unusable above degree ~30, but
threshold filters routinely need degree in the hundreds, so entry
evaluation dispatches: low-degree polynomials with monomial
coefficients go through the sparse chain recursion above; everything
else is evaluated through the identity T_{2r}(x) = T_r(2 x^2 - 1) by a
three-term Chebyshev recurrence in the Hermitian contraction
S = 2 A-dagger A - I, whose spectrum lies in [-1, 1].  Both paths
compute the same operator polynomial.  The recurrence checks
||T_r(S) u||^2 <= (1 + NORM_TOLERANCE) ||u||^2 at every step, which
holds whenever ||A|| <= 1, and raises ConfigError when it fails.

Each thread keeps one slot holding (A, S, u, P, w) from its last
Chebyshev apply, keyed on object identity: a call with the same A
reuses S, and a call with the same A, u array and P returns the stored
w (read-only) without recomputing it, so reading several entries of
one vector costs one apply.  The slot's strong references keep those
ids from being reused, and the key objects are immutable.  It holds at
most nnz(S) + N numbers per thread beyond the inputs it keeps alive,
the same as one apply's own peak.  Query counts are charged on every
call, cache hit or not.

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
import scipy.sparse as sp

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
    "min_sample_count",
    "min_batch_count",
]

# ||A|| = 1 + delta puts the top of spec(S) at 1 + 4 delta, where
# |T_r| <= cosh(r sqrt(8 delta)).  At degree 730 this tolerance admits the
# shifted Hamiltonians of assemble_sparse, whose norm may exceed 1 by
# 2.5e-10 (squared growth at most 3e-4), while ||A|| = 1.02 trips it
# within a dozen steps.
NORM_TOLERANCE = 1e-3

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


def _contraction(A: SparseMatrix) -> sp.csr_matrix:
    """S = 2 A-dagger A - I, Hermitian with spectrum in [-1, 1] when ||A|| <= 1."""
    csr = A.csr()
    gram = (csr.conj().T @ csr).tocsr()
    n = A.ncols
    return (2.0 * gram - sp.identity(n, dtype=complex, format="csr")).tocsr()


def _cheb_apply(A: SparseMatrix, u_arr: np.ndarray, P: EvenPolynomial,
                counter: QueryCounter | None = None) -> np.ndarray:
    """P(sqrt(A-dagger A)) u via the T_r(2 A-dagger A - I) recurrence.

    The result is read-only.  This thread's slot keeps (A, S, u_arr, P,
    w) from the last successful call: the same A object reuses S, and
    the same A, u_arr and P objects return the stored w.  Otherwise the
    recurrence runs and replaces the slot; a call that raises stores
    nothing.  Raises ConfigError when some ||T_r(S) u||^2 exceeds
    (1 + NORM_TOLERANCE) ||u||^2, which means ||A|| > 1.
    """
    slot = getattr(_last_apply, "slot", None)
    same_A = slot is not None and slot[0] is A
    if not same_A:
        _last_apply.slot = None  # never hold two contractions at once
    S = slot[1] if same_A else _contraction(A)
    steps = P.degree // 2
    if counter is not None:
        # each recurrence step reads every stored entry of S once
        counter.row_fetches += steps * S.shape[0]
        counter.entry_probes += steps * S.nnz
    if same_A and slot[2] is u_arr and slot[3] is P:
        return slot[4]
    w = _recurrence(S, u_arr, P.cheb_even())
    w.flags.writeable = False
    _last_apply.slot = (A, S, u_arr, P, w)
    return w


def _recurrence(S: sp.csr_matrix, u_arr: np.ndarray,
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

    Low-degree polynomials with monomial coefficients use the sparse
    chain recursion on [A-dagger, A] pairs with a memo shared across the
    powers (keyed on chain depth and index).  Higher degrees use the
    Chebyshev recurrence, whose whole vector stays in this thread's
    slot, so further entries of the same (A, u, P) cost no recompute;
    values agree to machine precision.  On that path ||A|| > 1 raises
    ConfigError.
    """
    if A.ncols != u.dim:
        raise ShapeError(f"matrix has {A.ncols} columns, vector has {u.dim}")
    if not 1 <= i <= A.ncols:
        raise IndexError(f"index {i} out of range [1, {A.ncols}]")
    if P.has_usable_monomial():
        return _svt_entry_monomial(A, u, P, i, counter)
    return complex(_cheb_apply(A, u.dense(), P, counter)[i - 1])


def _svt_entry_monomial(A, u, P, i, counter=None) -> complex:
    # the suffix of length 2r of [Adag, A] * d is [Adag, A] * r, so one
    # memo serves every power
    a = P.monomial_even()
    d = a.size - 1
    u_arr = u.dense()
    value = _chain_value([A.adjoint(), A] * d, u_arr, {}, counter)
    total = a[0] * u_arr[i - 1]
    for r in range(1, d + 1):
        if a[r] != 0.0:
            total = total + a[r] * value(2 * r, i - 1)
    return complex(total)


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
    if np.abs(P(xs)).max() > 1.0 + 1e-9:
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
