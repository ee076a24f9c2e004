"""k-local Hamiltonians and guided ground-energy problems.

A LocalHamiltonian is a sum of Hermitian blocks, each acting on at most
k qubits of an n-qubit register (qubit 1 is the most significant bit of
the basis index).  Assembly scatters every block into a sparse matrix
with at most m 2^k nonzeros per row and column, so the sparse-access
algorithms apply.

The gap-decision problem (is the ground energy below a or above b,
guided by a vector with ground-space overlap at least delta) reduces to
a singular-value interval decision for (H + 3I)/4, whose eigenvalues
and singular values coincide inside [1/2, 1].  Ground-energy estimation
runs fuzzy bisection: each decision on overlapping windows (a, b)
around the midpoint of the current interval shrinks it to about half,
and any answer inside (a, b) is correct, so O(log 1/eps) decisions pin
lambda_H to within eps/2 with no outcome pattern to check.  Every
decision of one estimate shares the shifted matrix and the guide, so in
the default exact contraction mode they share one Chebyshev moment
pass and differ only in the filter contracted with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .access import (SampledVector, SparseMatrix, _coo_sum_order, _fold_sorted,
                     _sorted_csr)
from .errors import ConfigError, ParseError, SizeError, reject_trailing
from .sve import HAS_SV, SveProblem, SveResult, decide_singular_interval

__all__ = [
    "LocalTerm",
    "LocalHamiltonian",
    "GlhProblem",
    "GlhDecision",
    "GlhEstimate",
    "assemble_sparse",
    "decide_glh",
    "estimate_ground_energy",
    "ground_overlap",
    "load_hamiltonian",
    "save_hamiltonian",
    "LOW",
    "HIGH",
]

LOW = "LOW"
HIGH = "HIGH"

LOCALITY_CAP = 10       # dense 2^k blocks stop being a desk-scale object here
ASSEMBLE_QUBIT_CAP = 20
DENSE_QUBIT_CAP = 12
# gap decisions at eps 0.25 need degree-730 filters, past the sve default of 512
GLH_DEGREE_CAP = 4096


@dataclass(frozen=True)
class LocalTerm:
    """Hermitian block on an ordered subset of qubits (1-based indices)."""

    qubits: tuple
    block: np.ndarray

    def __post_init__(self):
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) == 0 or len(set(qubits)) != len(qubits):
            raise ValueError("qubit subset must be nonempty and distinct")
        if len(qubits) > LOCALITY_CAP:
            raise SizeError(f"term locality {len(qubits)} exceeds cap {LOCALITY_CAP}")
        block = np.asarray(self.block, dtype=complex)
        dim = 2 ** len(qubits)
        if block.shape != (dim, dim):
            raise ValueError(f"block must be {dim}x{dim} for {len(qubits)} qubits")
        if not np.all(np.isfinite(block)):
            raise ValueError("block entries must be finite")
        if not np.abs(block - block.conj().T).max() <= 1e-12:
            raise ValueError("block is not Hermitian to 1e-12")
        object.__setattr__(self, "block", block)

    def scaled(self, factor: float) -> "LocalTerm":
        return LocalTerm(self.qubits, self.block * factor)


class LocalHamiltonian:
    """Sum of m local terms on n qubits, each touching at most k qubits."""

    def __init__(self, n: int, k: int, terms):
        if n < 1:
            raise ValueError("need at least one qubit")
        if k < 1 or k > LOCALITY_CAP:
            raise ValueError(f"locality k must lie in [1, {LOCALITY_CAP}]")
        terms = list(terms)
        for t in terms:
            if len(t.qubits) > k:
                raise ValueError(f"term on {t.qubits} exceeds locality {k}")
            if max(t.qubits) > n or min(t.qubits) < 1:
                raise ValueError(f"term qubits {t.qubits} outside register [1, {n}]")
        self.n = n
        self.k = k
        self.terms = tuple(terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def sparsity_bound(self) -> int:
        return self.num_terms * 2 ** self.k

    def _term_coo(self, term: LocalTerm):
        """COO triplets of one term on the register; within each row they
        follow the block's row-major nonzero order."""
        spread = _spread(term.qubits, self.n)
        # register indices with every bit of the term's qubits 0, ascending
        base = np.flatnonzero((np.arange(self.dim) & spread[-1]) == 0)
        r_idx, c_idx = np.nonzero(term.block)
        rows = (spread[r_idx][:, None] + base).ravel()
        cols = (spread[c_idx][:, None] + base).ravel()
        return rows, cols, np.repeat(term.block[r_idx, c_idx], base.size)

    def assemble_csr(self, shift: bool = False) -> SparseMatrix:
        """Raw sparse assembly of H, or of (H + 3I)/4 when ``shift`` is
        set, with no norm validation; s is the m 2^k bound (plus 1 for the
        shift).

        One COO pass over the terms sums each position in the order
        scipy's COO-to-CSR conversion does, and then adds 3 to every
        diagonal position, so the arrays and values are bit for bit those
        of scipy's ``coo_matrix(...).tocsr()`` (and of ``(csr + 3I) / 4``).
        """
        dim = self.dim
        parts = [self._term_coo(t) for t in self.terms]
        rows, cols = (np.concatenate([p[a] for p in parts]
                                     + [np.empty(0, dtype=np.int64)])
                      for a in (0, 1))
        vals = np.concatenate([p[2] for p in parts] + [np.empty(0, dtype=complex)])
        order = _coo_sum_order(dim, dim, rows, cols)
        keys, vals = rows[order] * dim + cols[order], vals[order]
        s = self.sparsity_bound()
        if shift:
            # 3I comes after all of H's terms at each diagonal position
            keys = np.concatenate((keys, np.arange(dim) * (dim + 1)))
            vals = np.concatenate((vals, np.full(dim, 3.0 + 0j)))
            at = np.argsort(keys, kind="stable")
            keys, vals = keys[at], vals[at]
            s += 1
        keys, vals = _fold_sorted(keys, vals)
        if shift:
            # scipy's H + 3I adds 0 off the diagonal too, which turns a -0.0
            # part into 0.0; zero sums drop before the scaling, as there
            vals = vals + 0.0
        nonzero = vals != 0
        keys, vals = keys[nonzero], vals[nonzero]
        if shift:
            vals = vals * 0.25
        return SparseMatrix(_sorted_csr((dim, dim), keys // dim, keys % dim, vals), s)

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_QUBIT_CAP:
            raise SizeError(f"dense assembly capped at n={DENSE_QUBIT_CAP}")
        return self.assemble_csr().to_dense()

    def operator_norm(self) -> float:
        """Exact for n <= 12, Lanczos extremal eigenvalues above that."""
        return max(map(abs, _extremal_eigs(self.assemble_csr())))


def _spread(qubits, n: int) -> np.ndarray:
    """Register index of each local index of a block on ``qubits``
    (1-based, qubit 1 the most significant bit), the other bits 0."""
    local = np.arange(2 ** len(qubits))
    out = np.zeros_like(local)
    for a, q in enumerate(qubits):
        out |= ((local >> (len(qubits) - 1 - a)) & 1) << (n - q)
    return out


def _extremal_eigs(A: SparseMatrix) -> tuple:
    """(lowest, highest) eigenvalue of a Hermitian sparse matrix: dense
    ``eigvalsh`` up to 2^DENSE_QUBIT_CAP rows, Lanczos above, the only
    branch that imports scipy.  Every Hamiltonian spectrum in the package
    comes from here.  Lanczos starts from a fixed seeded vector, so its
    last digits repeat from run to run."""
    if not A.nnz:  # ARPACK fails on H = 0 ("starting vector is zero")
        return 0.0, 0.0
    dim = A.nrows
    if dim <= 2 ** DENSE_QUBIT_CAP:
        w = np.linalg.eigvalsh(A.to_dense())
        return float(w[0]), float(w[-1])
    import scipy.sparse.linalg as spla  # only this branch needs Lanczos

    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lo, hi = (spla.eigsh(A.csr(), k=1, which=which, v0=v0,
                         return_eigenvectors=False)[0]
              for which in ("SA", "LA"))
    return float(lo), float(hi)


def _ascending(term: LocalTerm) -> tuple:
    """(qubits in ascending order, the block with its local qubits in that
    order): the same operator on the register."""
    q = term.qubits
    order = sorted(range(len(q)), key=q.__getitem__)
    if order == list(range(len(q))):
        return q, term.block
    j = len(q)
    block = term.block.reshape((2,) * (2 * j)).transpose(
        order + [j + a for a in order]).reshape(term.block.shape)
    return tuple(q[a] for a in order), block


def _weyl_bound(H: LocalHamiltonian) -> float:
    """Upper bound on ||H|| from the term blocks alone.

    Terms on the same qubit set are summed into one block G; then
    lambda_max(H) <= sum_G lambda_max(G) and lambda_min(H) >=
    sum_G lambda_min(G) by Weyl's inequality, each from one small
    ``eigvalsh``.  Every G is in ascending qubit order, so the lower
    triangles that ``eigvalsh`` reads of the G's embed into the lower
    triangle it reads of the assembled H: the bound holds for exactly the
    Hermitian matrix that the dense check sees, whatever the 1e-12
    Hermitian slack of the blocks.  It includes a bound on the rounding
    of the sums and of the small eigen-solves.
    """
    groups, size = {}, 0.0
    for term in H.terms:
        qubits, block = _ascending(term)
        groups[qubits] = groups[qubits] + block if qubits in groups else block
        size += np.abs(block).sum(axis=1).max()
    lo = hi = 0.0
    for block in groups.values():
        w = np.linalg.eigvalsh(block)
        lo += w[0]
        hi += w[-1]
    # summing the m terms of an entry errs by at most (m - 1) eps times their
    # summed magnitude, so by (m - 1) eps sum_t ||block_t||_inf in norm, once
    # in the assembly and once in the group sums; an eigen-solve of a 2^j
    # block errs by a few 2^j eps ||G||
    slack = (2 * len(H.terms) + 2 ** H.k) * np.finfo(float).eps * size
    return float(max(hi, -lo) + slack)


def assemble_sparse(H: LocalHamiltonian, shift: bool = False) -> SparseMatrix:
    """Sparse-access form of H, or of (H + 3I)/4 when ``shift`` is set.

    Validates ||H|| <= 1 and the m 2^k sparsity bound (m 2^k + 1 for the
    shifted form, whose eigenvalues then lie in [1/2, 1]).

    The norm check first tries a proof from the term blocks: a Weyl bound
    (``_weyl_bound``) of at most 1.0 accepts H with no eigen-solve of H.
    Otherwise, and whenever a term acts on all n qubits (its block is as
    large as H, so the proof would cost as much as the check), the
    extremal eigenvalues of the assembled H decide, and a norm above
    1 + 1e-9 is rejected.  The bound covers the spectrum that eigen-solve
    reads and the rounding on both sides, and the eigen-solve's own
    rounding stays far inside the 1e-9, so every input is accepted or
    rejected as by the eigen-solve alone (above 12 qubits, up to the
    tolerance of Lanczos).
    """
    if H.n > ASSEMBLE_QUBIT_CAP:
        raise SizeError(
            f"assembly capped at {ASSEMBLE_QUBIT_CAP} qubits, got n={H.n}")
    A = H.assemble_csr(shift)
    if any(len(t.qubits) == H.n for t in H.terms) or _weyl_bound(H) > 1.0:
        # the exact check reads H itself, a second assembly when A is shifted
        norm = max(map(abs, _extremal_eigs(H.assemble_csr() if shift else A)))
        if norm > 1.0 + 1e-9:
            raise ValueError(f"operator norm {norm!r} exceeds 1")
    return A


def _ground_split(H: LocalHamiltonian) -> tuple:
    """(ground, excited) orthonormal eigenvector bases of H from a dense
    eigendecomposition (n <= 12); eigenvalues within 1e-9 of the bottom
    count as ground."""
    w, vecs = np.linalg.eigh(H.to_dense())
    ground = w <= w[0] + 1e-9
    return vecs[:, ground], vecs[:, ~ground]


def ground_overlap(H: LocalHamiltonian, u) -> float:
    """||Pi_H u|| from a dense eigendecomposition (n <= 12); eigenvalues
    within 1e-9 of the bottom count as ground."""
    if H.n > DENSE_QUBIT_CAP:
        raise SizeError(f"ground overlap needs n <= {DENSE_QUBIT_CAP}")
    u = np.asarray(u, dtype=complex)
    if u.shape != (H.dim,):
        raise ValueError(f"vector must have dimension {H.dim}")
    ground, _ = _ground_split(H)
    return float(np.linalg.norm(ground.conj().T @ u))


@dataclass
class GlhProblem:
    """Guided local-Hamiltonian instance.

    Decision form carries thresholds (a, b); estimation form carries a
    target precision eps.  The overlap promise ||Pi_H u|| >= delta is
    assumed, not checked.
    """

    hamiltonian: LocalHamiltonian
    guide: SampledVector
    delta: float
    a: float | None = None
    b: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.guide.dim != self.hamiltonian.dim:
            raise ConfigError("guide dimension must be 2^n")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("delta must lie in (0, 1]")
        if self.guide.zeta > self.delta ** 2 / 56.0:
            raise ConfigError(
                f"guide distortion zeta={self.guide.zeta} exceeds "
                f"delta^2/56={self.delta ** 2 / 56.0}")
        if self.a is not None or self.b is not None:
            if self.a is None or self.b is None:
                raise ConfigError("decision form needs both a and b")
            if not -1.0 <= self.a < self.b <= 1.0:
                raise ConfigError("need -1 <= a < b <= 1")
        if self.eps is not None and not 0.0 < self.eps <= 1.0:
            raise ConfigError("eps must lie in (0, 1]")


@dataclass
class GlhDecision:
    decision: str
    a: float
    b: float
    sve: SveResult


@dataclass
class GlhEstimate:
    value: float
    interval: tuple
    outcomes: list
    scan_steps: int
    decisions: list = field(default_factory=list)

    @property
    def margin_min(self) -> float:
        """Smallest |margin| over the decisions: how close the closest
        one came to the other answer, in units of its eps."""
        return min(abs(d.sve.margin) for d in self.decisions)

    @property
    def degree(self) -> int:
        """Highest filter degree over the decisions."""
        return max(d.sve.degree for d in self.decisions)


def _decide_shifted(shifted: SparseMatrix, guide: SampledVector, a: float,
                    b: float, delta: float, fail_prob: float, seed: int,
                    contraction: str) -> GlhDecision:
    problem = SveProblem(matrix=shifted, guide=guide, t1=0.5, t2=(3.0 + a) / 4.0,
                         theta1=0.5, theta2=(b - a) / 4.0, delta=delta)
    sve = decide_singular_interval(problem, fail_prob=fail_prob, seed=seed,
                                   degree_cap=GLH_DEGREE_CAP,
                                   contraction=contraction)
    decision = LOW if sve.decision == HAS_SV else HIGH
    return GlhDecision(decision=decision, a=a, b=b, sve=sve)


def decide_glh(problem: GlhProblem, fail_prob: float = 0.01,
               seed: int = 0) -> GlhDecision:
    """Decide lambda_H <= a (LOW) versus lambda_H >= b (HIGH).

    Eigenvalues of (H + 3I)/4 equal its singular values and lie in
    [1/2, 1]; lambda_H <= a becomes a singular value in
    [1/2, (3 + a)/4] and the interval decision applies unchanged, in
    its default exact contraction mode.
    """
    if problem.a is None or problem.b is None:
        raise ConfigError("decision form requires thresholds a and b")
    shifted = assemble_sparse(problem.hamiltonian, shift=True)
    return _decide_shifted(shifted, problem.guide, problem.a, problem.b,
                           problem.delta, fail_prob, seed, "exact")


def _bisection_steps(eps: float) -> int:
    """Decisions until the interval width, 2 at the start and w/2 + eps/4
    after each step, is at most eps."""
    width, steps = 2.0, 0
    while width > eps:
        width = width / 2.0 + eps / 4.0
        steps += 1
    return steps


def estimate_ground_energy(problem: GlhProblem, fail_prob: float = 0.05,
                           seed: int = 0,
                           contraction: str = "exact") -> GlhEstimate:
    """Estimate lambda_H to within eps/2 by fuzzy bisection.

    The interval [lo, hi] starts at [-1, 1].  Each step decides
    lambda_H <= a = mid - eps/4 (LOW, then hi = b) versus
    lambda_H >= b = mid + eps/4 (HIGH, then lo = a) with failure budget
    fail_prob / steps.  Either answer is
    correct when lambda_H falls inside (a, b), so if every decision is
    correct the interval keeps lambda_H; the step count is fixed so that
    its final width is at most eps, and the midpoint is returned.
    Each decision runs in the ``contraction`` mode of
    sve.decide_singular_interval; in exact mode they share one moment
    pass, and the seed is unused.
    """
    if problem.eps is None:
        raise ConfigError("estimation form requires a target precision eps")
    h = problem.eps / 4.0
    steps = _bisection_steps(problem.eps)
    per_step_fail = fail_prob / steps
    seeds = np.random.SeedSequence(seed).spawn(steps)
    shifted = assemble_sparse(problem.hamiltonian, shift=True)

    lo, hi = -1.0, 1.0
    decisions = []
    for step_seed in seeds:
        mid = (lo + hi) / 2.0
        a, b = mid - h, mid + h
        d = _decide_shifted(shifted, problem.guide, a, b, problem.delta,
                            per_step_fail, step_seed.generate_state(1)[0],
                            contraction)
        if d.decision == LOW:
            hi = b
        else:
            lo = a
        decisions.append(d)
    return GlhEstimate(value=(lo + hi) / 2.0, interval=(lo, hi),
                       outcomes=[d.decision for d in decisions],
                       scan_steps=steps, decisions=decisions)


# ---------------------------------------------------------------------------
# Text format: header "n k m", then per term a line of 1-based qubit
# indices followed by the 2^j x 2^j block, one row per line as "re im"
# pairs.
# ---------------------------------------------------------------------------


def save_hamiltonian(path, H: LocalHamiltonian):
    with open(path, "w") as fh:
        fh.write(f"{H.n} {H.k} {H.num_terms}\n")
        for term in H.terms:
            fh.write(" ".join(str(q) for q in term.qubits) + "\n")
            for row in term.block:
                fh.write(" ".join(f"{float(z.real)!r} {float(z.imag)!r}"
                                  for z in row) + "\n")


def load_hamiltonian(path) -> LocalHamiltonian:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty hamiltonian file", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header must be 'n k m'", line=1)
    try:
        n, k, m = (int(x) for x in head)
    except ValueError:
        raise ParseError("header must be three integers", line=1) from None
    if m < 0:
        raise ParseError("term count must be nonnegative", line=1)
    terms = []
    ln = 1
    for _ in range(m):
        if ln >= len(lines):
            raise ParseError("unexpected end of file", line=len(lines))
        try:
            qubits = tuple(int(x) for x in lines[ln].split())
        except ValueError:
            raise ParseError("expected qubit indices", line=ln + 1) from None
        if not qubits:
            raise ParseError("empty qubit line", line=ln + 1)
        ln += 1
        dim = 2 ** len(qubits)
        block = np.empty((dim, dim), dtype=complex)
        for r in range(dim):
            if ln >= len(lines):
                raise ParseError("unexpected end of file", line=len(lines))
            parts = lines[ln].split()
            if len(parts) != 2 * dim:
                raise ParseError(
                    f"expected {2 * dim} floats for a block row", line=ln + 1)
            try:
                row = np.array([float(x) for x in parts])
            except ValueError:
                raise ParseError("could not parse block row", line=ln + 1) from None
            if not np.all(np.isfinite(row)):
                raise ParseError("block entries must be finite", line=ln + 1)
            block[r] = row.view(complex)  # keeps signed zeros
            ln += 1
        try:
            terms.append(LocalTerm(qubits, block))
        except ValueError as exc:
            raise ParseError(str(exc), line=ln) from exc
    reject_trailing(lines, ln)
    try:
        return LocalHamiltonian(n, k, terms)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
