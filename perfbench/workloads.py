"""The four benchmark workloads, built from a seed through svtkit's public API.

Each workload generates its inputs from ``(seed, stream, index)`` seed
sequences, so solve ``i`` of a seed always sees the same input however many
solves a run completes.  ``solve`` is the timed public call; ``check``
compares its output with the dense oracle and runs outside the timed region.
Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import hashlib

import numpy as np

from svtkit import hamiltonian as ham_mod
from svtkit import oracle, polynomial, rand
from svtkit import sve as sve_mod
from svtkit import svt as svt_mod
from svtkit.access import QueryVector, SparseMatrix, exact_sampler
from svtkit.errors import InconsistencyError
from svtkit.hamiltonian import GlhProblem, LocalHamiltonian, LocalTerm

POOL, WARMUP, SOLVE = 0, 1, 2  # seed-sequence streams


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _solve_seed(seed: int, stream: int, index: int = 0) -> int:
    """Estimator seed of solve ``index``: fresh per solve, fixed per seed."""
    return int(np.random.SeedSequence([seed, stream, index, 1]).generate_state(1)[0])


def _feed(h, *parts):
    """Add inputs to a digest: arrays by dtype, shape and bytes, the rest by repr."""
    for part in parts:
        if isinstance(part, SparseMatrix):
            csr = part.csr()
            _feed(h, part.s, csr.shape, csr.indptr, csr.indices, csr.data)
        elif isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())


class Workload:
    """Base: subclasses set the class attributes and override the methods."""

    name = ""
    min_solves = 1          # every run completes at least this many solves
    fail_prob = 0.0         # per-solve failure probability the library promises
    expected_errors: tuple = ()   # exceptions that count as a failed solve

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self):
        raise NotImplementedError

    def instance(self, i: int):
        raise NotImplementedError

    def solve(self, inst):
        raise NotImplementedError

    def check(self, inst, out) -> bool:
        raise NotImplementedError

    def costs(self, out) -> tuple[int, int]:
        """(entry probes, row fetches) from the QueryCounter(s) in a solve's
        output; not called for a solve that raised."""
        raise NotImplementedError

    def digest(self) -> str:
        """sha256 of the warm-up input and the inputs of the first
        ``min_solves`` solves, which every run generates."""
        h = hashlib.sha256(self.name.encode())
        _feed(h, *self._digest_parts(self.warmup()))
        for i in range(self.min_solves):
            _feed(h, *self._digest_parts(self.instance(i)))
        return h.hexdigest()

    def _digest_parts(self, inst):
        raise NotImplementedError


class Estimate(Workload):
    """estimate_bilinear on N = 256, s = 4 with u != v, eps 0.1, fail 0.01."""

    name = "estimate"
    min_solves = 100
    fail_prob = 0.01
    EPS, FAIL, N, S, POOL_SIZE = 0.1, 0.01, 256, 4, 32

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = [self._item(_rng(seed, POOL, k), 1 + k % 6)
                     for k in range(self.POOL_SIZE)]
        self._exact = {}

    def _item(self, rng, d):
        A = rand.random_sparse_matrix(rng, self.N, self.N, self.S)
        u = rand.random_unit_vector(rng, self.N)
        v = rand.random_unit_vector(rng, self.N)
        P = rand.random_even_polynomial(rng, d)
        return {"A": A, "u": u, "v": v, "P": P,
                "uq": QueryVector(u), "vs": exact_sampler(v)}

    def warmup(self):
        return self._item(_rng(self.seed, WARMUP), 3), -1, _solve_seed(self.seed, WARMUP)

    def instance(self, i):
        k = i % self.POOL_SIZE
        return self.pool[k], k, _solve_seed(self.seed, SOLVE, i)

    def solve(self, inst):
        item, _, seed = inst
        cfg = svt_mod.EstimatorConfig.for_target(self.EPS, self.FAIL, seed=seed)
        return svt_mod.estimate_bilinear(item["A"], item["uq"], item["vs"],
                                         item["P"], cfg)

    def check(self, inst, out):
        item, k, _ = inst
        if k not in self._exact:
            self._exact[k] = oracle.exact_bilinear(item["A"].to_dense(), item["P"],
                                                   item["u"], item["v"])
        return abs(out.value - self._exact[k]) <= self.EPS

    def costs(self, out):
        return out.counter.entry_probes, out.counter.row_fetches

    def _digest_parts(self, inst):
        item, _, seed = inst
        return item["A"], item["u"], item["v"], item["P"].cheb_even(), seed


class Sve(Workload):
    """decide_singular_interval on planted N = 64 instances, delta 0.8.

    theta cycles through THETAS and the planted case alternates, so every
    run has the same mix; t1 is drawn fresh per solve, so no filter spec
    repeats and the filter cache never hits.
    """

    name = "sve"
    min_solves = 100
    fail_prob = 0.01
    N, DELTA, WIDTH, ROOM, THETAS = 64, 0.8, 0.2, 0.05, (0.05, 0.08, 0.1)

    def _make(self, rng, theta, case, seed):
        # ROOM keeps space for planted singular values below and above the
        # enlarged interval (t1 - theta, t2 + theta).
        t1 = float(rng.uniform(theta + self.ROOM,
                               1.0 - self.WIDTH - theta - self.ROOM))
        t2 = t1 + self.WIDTH
        A, guide, _ = rand.planted_sve_instance(rng, self.N, t1, t2, theta, theta,
                                                self.DELTA, case)
        problem = sve_mod.SveProblem(matrix=A, guide=exact_sampler(guide), t1=t1,
                                     t2=t2, theta1=theta, theta2=theta,
                                     delta=self.DELTA)
        return problem, guide, case, seed

    def warmup(self):
        return self._make(_rng(self.seed, WARMUP), self.THETAS[0], "inside",
                          _solve_seed(self.seed, WARMUP))

    def instance(self, i):
        case = "inside" if i % 2 == 0 else "outside"
        return self._make(_rng(self.seed, SOLVE, i), self.THETAS[i % 3], case,
                          _solve_seed(self.seed, SOLVE, i))

    def solve(self, inst):
        problem, _, _, seed = inst
        return sve_mod.decide_singular_interval(problem, fail_prob=0.01, seed=seed)

    def check(self, inst, out):
        problem, guide, case, _ = inst
        dense = problem.matrix.to_dense()
        sigma = oracle.DenseSvd.compute(dense).sigma
        if case == "inside":
            overlap = np.linalg.norm(oracle.exact_projector(dense, problem.t1,
                                                            problem.t2) @ guide)
            truth = overlap >= problem.delta - 1e-9
        else:
            truth = not np.any((sigma > problem.t1 - problem.theta1)
                               & (sigma < problem.t2 + problem.theta2))
        if not truth:
            raise RuntimeError(f"planted {case} instance breaks its promise")
        want = sve_mod.HAS_SV if case == "inside" else sve_mod.NO_SV
        return out.decision == want

    def costs(self, out):
        return out.estimator.counter.entry_probes, out.estimator.counter.row_fetches

    def _digest_parts(self, inst):
        problem, guide, case, seed = inst
        return (problem.matrix, guide, problem.t1, problem.t2, problem.theta1,
                case, seed)


def shifted_hamiltonian(rng, n, k, m, spread=0.5):
    """Random k-local Hamiltonian plus an identity shift, so the ground
    energy is not pinned near -1."""
    H = rand.random_local_hamiltonian(rng, n, k, m, norm=spread)
    mu = rng.uniform(-(1.0 - spread), 1.0 - spread)
    terms = list(H.terms) + [LocalTerm((1,), mu * np.eye(2, dtype=complex))]
    return LocalHamiltonian(n, k, terms)


class Glh(Workload):
    """estimate_ground_energy with default arguments on 2-local n = 6, 7, 8
    Hamiltonians, guide overlap 0.5, eps 0.25, delta 0.5."""

    name = "glh"
    min_solves = 2
    fail_prob = 0.05
    expected_errors = (InconsistencyError,)
    EPS, DELTA, SIZES = 0.25, 0.5, (6, 7, 8)

    def _make(self, rng, n, seed):
        H = shifted_hamiltonian(rng, n, 2, int(rng.integers(3, 7)))
        guide = rand.guide_with_ground_overlap(rng, H, self.DELTA)
        problem = GlhProblem(hamiltonian=H, guide=exact_sampler(guide),
                             delta=self.DELTA, eps=self.EPS)
        return problem, guide, seed

    def warmup(self):
        return self._make(_rng(self.seed, WARMUP), self.SIZES[0],
                          _solve_seed(self.seed, WARMUP))

    def instance(self, i):
        return self._make(_rng(self.seed, SOLVE, i), self.SIZES[i % 3],
                          _solve_seed(self.seed, SOLVE, i))

    def solve(self, inst):
        problem, _, seed = inst
        return ham_mod.estimate_ground_energy(problem, seed=seed)

    def check(self, inst, out):
        problem, _, _ = inst
        if out is None:  # the scan raised InconsistencyError
            return False
        lam = float(np.linalg.eigvalsh(problem.hamiltonian.to_dense())[0])
        return abs(out.value - lam) <= self.EPS

    def costs(self, out):
        counters = [d.sve.estimator.counter for d in out.decisions]
        return (sum(c.entry_probes for c in counters),
                sum(c.row_fetches for c in counters))

    def _digest_parts(self, inst):
        problem, guide, seed = inst
        H = problem.hamiltonian
        parts = [H.n, H.k, guide, seed]
        for term in H.terms:
            parts += [term.qubits, term.block]
        return parts


class Entry(Workload):
    """svt_entry at 16 indices per solve on N = 256.

    Of every four pool items, three carry a random even P whose chain
    recursion stays within s^(2d) <= 4^6 row fetches, and one carries a
    prebuilt certified threshold filter, which takes the Chebyshev path.
    Solves cycle through the pool, so the 3:1 mix is exact in every run.
    """

    name = "entry"
    min_solves = 100
    fail_prob = 0.0
    N, INDICES, TOL = 256, 16, 1e-9
    RECURSION = [(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 4)] \
        + [(4, d) for d in range(1, 4)]
    CHEB_SPARSITY = (2, 3, 4, 4)
    FILTER = polynomial.ThresholdSpec(0.5, 0.7, 0.1, 0.1, 0.2)

    def __init__(self, seed):
        super().__init__(seed)
        # The certified filter is an input, built before set-up is timed.
        self.filter = polynomial.build_threshold(self.FILTER)
        shapes = iter(self.RECURSION)
        self.pool = []
        for k in range(16):
            rng = _rng(seed, POOL, k)
            if k % 4 == 3:
                self.pool.append(self._item(rng, self.CHEB_SPARSITY[k // 4], None))
            else:
                s, d = next(shapes)
                self.pool.append(self._item(rng, s, d))
        self._exact = {}

    def _item(self, rng, s, d):
        A = rand.random_sparse_matrix(rng, self.N, self.N, s)
        u = rand.random_unit_vector(rng, self.N)
        P = self.filter if d is None else rand.random_even_polynomial(rng, d)
        return {"A": A, "u": u, "P": P, "uq": QueryVector(u)}

    def warmup(self):
        rng = _rng(self.seed, WARMUP)
        return (self._item(rng, 3, 2), -1,
                rng.integers(1, self.N + 1, size=self.INDICES))

    def instance(self, i):
        k = i % len(self.pool)
        idx = _rng(self.seed, SOLVE, i).integers(1, self.N + 1, size=self.INDICES)
        return self.pool[k], k, idx

    def solve(self, inst):
        item, _, idx = inst
        counter = svt_mod.QueryCounter()
        vals = [svt_mod.svt_entry(item["A"], item["uq"], item["P"], int(j),
                                  counter=counter) for j in idx]
        return np.array(vals), counter

    def check(self, inst, out):
        item, k, idx = inst
        if k not in self._exact:
            self._exact[k] = oracle.exact_svt_apply(item["A"].to_dense(), item["P"],
                                                    item["u"])
        exact = self._exact[k]
        scale = max(float(np.abs(exact).max()), 1e-300)
        return float(np.abs(out[0] - exact[idx - 1]).max()) / scale <= self.TOL

    def costs(self, out):
        return out[1].entry_probes, out[1].row_fetches

    def _digest_parts(self, inst):
        item, _, idx = inst
        return item["A"], item["u"], item["P"].cheb_even(), idx


WORKLOADS = {w.name: w for w in (Estimate, Sve, Glh, Entry)}
