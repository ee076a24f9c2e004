"""Seeded random and planted instance generators.

Used by the benchmark harness and the validation suite: random s-sparse
matrices with controlled norm, random bounded even polynomials, planted
singular-value instances built from sparse Givens factors (so ground
truth is known by construction), and random local Hamiltonians with
guides of exact ground-space overlap.
"""

from __future__ import annotations

import numpy as np

from .access import SparseMatrix
from .hamiltonian import LocalHamiltonian, LocalTerm, _ground_split
from .polynomial import EvenPolynomial

__all__ = [
    "random_sparse_matrix",
    "random_even_polynomial",
    "random_unit_vector",
    "planted_sve_instance",
    "random_local_hamiltonian",
    "guide_with_ground_overlap",
]


def random_sparse_matrix(rng: np.random.Generator, nrows: int, ncols: int,
                         s: int) -> SparseMatrix:
    """Random complex matrix with at most s nonzeros per row and column,
    rescaled to spectral norm 0.9."""
    col_budget = np.zeros(ncols, dtype=int)
    dense = np.zeros((nrows, ncols), dtype=complex)
    for i in range(nrows):
        open_cols = np.flatnonzero(col_budget < s)
        if open_cols.size == 0:
            break
        want = int(rng.integers(1, s + 1))
        take = min(want, open_cols.size)
        cols = rng.choice(open_cols, size=take, replace=False)
        dense[i, cols] = rng.normal(size=take) + 1j * rng.normal(size=take)
        col_budget[cols] += 1
    actual = np.linalg.norm(dense, ord=2)
    if actual == 0:
        dense[0, 0] = 1.0
        actual = 1.0
    dense *= 0.9 / actual
    return SparseMatrix.from_dense(dense, s=s)


def random_even_polynomial(rng: np.random.Generator, d: int) -> EvenPolynomial:
    """Random even polynomial of degree 2d with sup norm at most 1 on [-1, 1]."""
    coeffs = rng.normal(size=d + 1)
    P = EvenPolynomial.from_even_coeffs(coeffs)
    xs = np.linspace(-1.0, 1.0, 2001)
    sup = np.abs(P(xs)).max()
    return EvenPolynomial.from_even_coeffs(coeffs / (sup * (1.0 + 1e-9)))


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v * (1.0 / np.linalg.norm(v))


def _givens_layer(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unitary made of disjoint random 2x2 blocks; every row and column
    has at most two nonzeros."""
    u = np.eye(n, dtype=complex)
    order = rng.permutation(n)
    for a in range(0, n - 1, 2):
        i, j = order[a], order[a + 1]
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        u[np.ix_((i, j), (i, j))] = q
    return u


def planted_sve_instance(rng: np.random.Generator, n: int, t1: float,
                         t2: float, theta1: float, theta2: float,
                         delta: float, case: str):
    """4-sparse matrix with planted singular values and a guide of exact
    overlap with the target subspace.

    ``case='inside'`` plants one singular value in [t1, t2] and the rest
    outside the enlarged interval; the guide mixes the matching right
    singular vector with orthogonal noise so its projection norm is
    exactly delta.  ``case='outside'`` keeps every singular value out of
    (t1 - theta1, t2 + theta2) and returns a random unit guide.

    Returns (matrix, guide_dense, sigmas).
    """
    margin = 1e-3
    lo_room = t1 - theta1 - margin
    sig = np.empty(n)
    for i in range(n):
        if lo_room > margin and rng.random() < 0.5:
            sig[i] = rng.uniform(0.0, lo_room)
        else:
            sig[i] = rng.uniform(t2 + theta2 + margin, 1.0)
    if case == "inside":
        planted = rng.integers(0, n)
        sig[planted] = rng.uniform(t1, t2)
    elif case != "outside":
        raise ValueError("case must be 'inside' or 'outside'")

    left = _givens_layer(rng, n)
    right = _givens_layer(rng, n)
    dense = (left * sig) @ right.conj().T
    matrix = SparseMatrix.from_dense(dense, s=4)

    if case == "inside":
        target = right[:, planted]
        others = np.delete(np.arange(n), planted)
        noise = right[:, others] @ random_unit_vector(rng, n - 1)
        guide = delta * target + np.sqrt(1.0 - delta ** 2) * noise
    else:
        guide = random_unit_vector(rng, n)
    return matrix, guide, sig


def random_local_hamiltonian(rng: np.random.Generator, n: int, k: int,
                             m: int, norm: float = 0.95) -> LocalHamiltonian:
    """Random k-local Hamiltonian on n qubits with the given operator norm."""
    terms = []
    for _ in range(m):
        qubits = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k,
                                         replace=False).tolist()))
        dim = 2 ** k
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        terms.append(LocalTerm(qubits, (g + g.conj().T) / 2.0))
    H = LocalHamiltonian(n, k, terms)
    actual = H.operator_norm()
    return LocalHamiltonian(n, k, [t.scaled(norm / actual) for t in H.terms])


def guide_with_ground_overlap(rng: np.random.Generator, H: LocalHamiltonian,
                              delta: float) -> np.ndarray:
    """Unit vector whose ground-space projection norm is exactly delta
    (or 1 when the ground space is everything)."""
    ground, rest = _ground_split(H)
    g = ground @ random_unit_vector(rng, ground.shape[1])
    if rest.shape[1] == 0:
        return g
    r = rest @ random_unit_vector(rng, rest.shape[1])
    return delta * g + np.sqrt(1.0 - delta ** 2) * r
