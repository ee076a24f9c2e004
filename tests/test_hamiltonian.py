import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import svtkit.hamiltonian as ham
from conftest import dense_from_terms, shifted_hamiltonian
from svtkit.access import exact_sampler
from svtkit.errors import ConfigError, ParseError, SizeError
from svtkit.hamiltonian import (GlhProblem, LocalHamiltonian, LocalTerm,
                                assemble_sparse, decide_glh,
                                estimate_ground_energy, ground_overlap,
                                load_hamiltonian, save_hamiltonian)
from svtkit.rand import guide_with_ground_overlap, random_local_hamiltonian

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this
    svtkit."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import svtkit
    env = dict(os.environ)
    src = str(Path(svtkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_lanczos_module_unloaded():
    code = "import sys, svtkit; print('scipy.sparse.linalg' in sys.modules)"
    assert _run_python(code).strip() == "False"


def test_lanczos_branch_repeats_across_processes():
    # 13 qubits is past the dense cap; without a fixed starting vector the
    # last digits of the Lanczos eigenvalues change from process to process
    code = ("import numpy as np\n"
            "from svtkit import hamiltonian as ham, rand\n"
            "H = rand.random_local_hamiltonian(np.random.default_rng(7), 13, 2, 24)\n"
            "print(repr(ham._extremal_eigs(H.assemble_csr())))\n")
    first, second = _run_python(code), _run_python(code)
    assert first.startswith("(") and first == second


@pytest.mark.parametrize("n", [4, 13])
def test_operator_norm_lanczos_branch(n):
    # n = 4 takes the dense branch of the shared extremal-eigenvalue
    # routine, n = 13 (past the dense cap) its Lanczos branch; the
    # block's eigenvalues are 0.9, 0.3, 0.1 and -0.5
    assert (n <= ham.DENSE_QUBIT_CAP) == (n == 4)
    block = 0.3 * np.kron(Z, Z) + 0.4 * np.kron(X, X) + 0.2 * np.eye(4)
    H = LocalHamiltonian(n, 2, [LocalTerm((2, n), block)])
    lo, hi = ham._extremal_eigs(H.assemble_csr())
    assert abs(lo + 0.5) < 1e-9 and abs(hi - 0.9) < 1e-9
    assert abs(H.operator_norm() - 0.9) < 1e-9


def test_local_term_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        LocalTerm((1,), np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="distinct"):
        LocalTerm((1, 1), np.eye(4))
    with pytest.raises(ValueError):
        LocalTerm((1, 2), np.eye(2))  # wrong block size


def test_assemble_single_z():
    H = LocalHamiltonian(2, 2, [LocalTerm((1,), Z)])
    A = assemble_sparse(H)
    assert_allclose(A.to_dense(), np.diag([1.0, 1.0, -1.0, -1.0]), atol=0)


def test_assemble_zero_hamiltonian_shift():
    H = LocalHamiltonian(2, 2, [])
    A = assemble_sparse(H, shift=True)
    assert_allclose(A.to_dense(), 0.75 * np.eye(4), atol=0)
    assert A.s == 1


@pytest.mark.parametrize("shift", [False, True])
def test_assemble_sparse_assembles_once(monkeypatch, shift):
    calls = []
    real = LocalHamiltonian.assemble_csr

    def spy(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(LocalHamiltonian, "assemble_csr", spy)
    H = LocalHamiltonian(3, 2, [LocalTerm((1, 3), 0.5 * np.kron(Z, X))])
    assemble_sparse(H, shift=shift)
    assert calls == [H]


def test_assemble_matches_dense_kron_oracle(rng):
    H = random_local_hamiltonian(rng, 6, 2, 5)
    sparse = assemble_sparse(H).to_dense()
    dense = dense_from_terms(H.n, H.terms)
    assert np.abs(sparse - dense).max() < 1e-12


def test_assemble_qubit_order_within_term():
    # term on qubits (2, 3) of n=3: first listed qubit is the more
    # significant local bit
    block = np.kron(Z, X)
    H = LocalHamiltonian(3, 2, [LocalTerm((2, 3), block)])
    got = assemble_sparse(H).to_dense()
    expected = np.kron(np.eye(2), np.kron(Z, X))
    assert_allclose(got, expected, atol=0)


def test_assemble_norm_violation_rejected(rng):
    H = LocalHamiltonian(2, 1, [LocalTerm((1,), 2.0 * Z)])
    with pytest.raises(ValueError, match="norm"):
        assemble_sparse(H)


def test_norm_rejection_prints_the_norm_in_full():
    # six decimals would print 1.000000 for a norm the check rejects
    H = LocalHamiltonian(2, 1, [LocalTerm((1,), (1 + 1e-8) * Z)])
    with pytest.raises(ValueError, match=r"operator norm 1\.00000001 exceeds 1"):
        assemble_sparse(H)


@st.composite
def _hamiltonians(draw, norms=None):
    """Random H on n <= 5 qubits with k <= 3, rescaled to a norm drawn from
    ``norms`` if given; a term may reuse an earlier support, reordered or
    cut to a nested subset, and every block is then made non-Hermitian
    within LocalTerm's 1e-12."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(3, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        if terms and draw(st.booleans()):
            support = draw(st.sampled_from(terms)).qubits
        else:
            support = range(1, n + 1)
        qubits = draw(st.permutations(list(support)))
        qubits = tuple(qubits[:draw(st.integers(1, min(k, len(qubits))))])
        dim = 2 ** len(qubits)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        terms.append(LocalTerm(qubits, draw(st.floats(0.01, 2.0))
                               * (g + g.conj().T) / 2))
    H = LocalHamiltonian(n, k, terms)
    if norms is not None and terms:
        scale = draw(st.sampled_from(norms)) / H.operator_norm()
        terms = [t.scaled(scale) for t in terms]
    return LocalHamiltonian(n, k, [
        LocalTerm(t.qubits, t.block + np.triu(
            rng.uniform(-5e-13, 5e-13, size=t.block.shape), 1))
        for t in terms])


@settings(max_examples=150, deadline=None)
@given(H=_hamiltonians())
def test_weyl_bound_covers_the_spectrum(H):
    assert ham._weyl_bound(H) >= np.abs(np.linalg.eigvalsh(H.to_dense())).max() - 1e-12


@settings(max_examples=150, deadline=None)
@given(H=_hamiltonians(norms=[0.5, 0.99, 1.0 - 1e-10, 1.0, 1.0 + 1e-10,
                              1.0 + 1e-8, 1.2]))
def test_assemble_sparse_accepts_exactly_what_the_eigen_solve_accepts(H):
    exact = np.abs(np.linalg.eigvalsh(H.to_dense())).max() <= 1.0 + 1e-9
    try:
        assemble_sparse(H)
    except ValueError as exc:
        assert "norm" in str(exc) and not exact
    else:
        assert exact


def _spy_extremal_eigs(monkeypatch) -> list:
    calls = []
    real = ham._extremal_eigs

    def spy(csr):
        calls.append(csr)
        return real(csr)

    monkeypatch.setattr(ham, "_extremal_eigs", spy)
    return calls


def _zz_xx(weight):
    return LocalHamiltonian(3, 2, [LocalTerm((1, 2), weight * np.kron(Z, Z)),
                                   LocalTerm((2, 3), weight * np.kron(X, X))])


def test_provable_norm_skips_the_eigen_solve(monkeypatch):
    calls = _spy_extremal_eigs(monkeypatch)
    H = _zz_xx(0.3)  # Weyl bound 0.6
    assert_allclose(assemble_sparse(H).to_dense(), H.to_dense(), atol=0)
    assert calls == []


def test_unprovable_norm_falls_back_to_the_eigen_solve(monkeypatch):
    # Z1 Z2 and X2 X3 anticommute, so H^2 = 0.72 I and ||H|| = 0.85, while
    # the Weyl bound is 0.6 + 0.6 = 1.2
    calls = _spy_extremal_eigs(monkeypatch)
    H = _zz_xx(0.6)
    assert ham._weyl_bound(H) == pytest.approx(1.2)
    assert_allclose(assemble_sparse(H).to_dense(), H.to_dense(), atol=0)
    assert len(calls) == 1


def test_term_on_every_qubit_takes_the_eigen_solve(monkeypatch):
    # a block as large as H would cost as much as the check it replaces
    calls = _spy_extremal_eigs(monkeypatch)
    assemble_sparse(LocalHamiltonian(2, 2, [LocalTerm((2, 1), 0.3 * np.kron(Z, X))]))
    assert len(calls) == 1


def test_assemble_cap(rng):
    H = LocalHamiltonian(21, 1, [LocalTerm((1,), Z)])
    with pytest.raises(SizeError):
        assemble_sparse(H)


def test_sparsity_bound_holds(rng):
    H = random_local_hamiltonian(rng, 6, 2, 5)
    A = assemble_sparse(H)
    dense = A.to_dense()
    bound = H.sparsity_bound()
    assert np.count_nonzero(dense, axis=0).max() <= bound
    assert np.count_nonzero(dense, axis=1).max() <= bound
    assert A.s == bound


def test_spectral_mapping_of_shift(rng):
    for n in (4, 6):
        H = shifted_hamiltonian(rng, n, 2, 4)
        shifted = assemble_sparse(H, shift=True).to_dense()
        eig_h = np.linalg.eigvalsh(H.to_dense())
        sig = np.linalg.svd(shifted, compute_uv=False)
        assert_allclose(np.sort(sig), np.sort((eig_h + 3) / 4), atol=1e-10)
        assert sig.min() >= 0.5 - 1e-10 and sig.max() <= 1.0 + 1e-10


def test_ground_overlap_cases(rng):
    H = random_local_hamiltonian(rng, 4, 2, 3)
    w, vecs = np.linalg.eigh(H.to_dense())
    ground = vecs[:, 0]
    excited = vecs[:, -1]
    assert abs(ground_overlap(H, ground) - 1.0) < 1e-10
    assert ground_overlap(H, excited) < 1e-10
    mixed = (ground + excited) / np.sqrt(2)
    assert abs(ground_overlap(H, mixed) - 1 / np.sqrt(2)) < 1e-10


def test_decide_glh_ground_state_guide(rng):
    # -Z on qubit 1: lambda = -1, guide = exact ground state
    H = LocalHamiltonian(2, 2, [LocalTerm((1,), -Z)])
    guide = guide_with_ground_overlap(rng, H, 1.0)
    p = GlhProblem(hamiltonian=H, guide=exact_sampler(guide), delta=1.0,
                   a=-0.5, b=0.0)
    assert decide_glh(p, seed=1).decision == "LOW"


def test_decide_glh_high_spectrum(rng):
    # lambda_H = 0.5 with spectrum entirely above b
    H = LocalHamiltonian(1, 1, [LocalTerm((1,), 0.5 * np.eye(2, dtype=complex))])
    guide = guide_with_ground_overlap(rng, H, 0.9)
    p = GlhProblem(hamiltonian=H, guide=exact_sampler(guide), delta=0.9,
                   a=-0.5, b=0.25)
    assert decide_glh(p, seed=2).decision == "HIGH"


def test_decide_glh_planted_batch(rng):
    hits = 0
    for k in range(6):
        H = shifted_hamiltonian(rng, 4, 2, 3)
        lam = np.linalg.eigvalsh(H.to_dense())[0]
        gap = 0.2
        if lam + gap > 1.0:
            continue
        a, b = lam + gap / 4, lam + 3 * gap / 4
        guide = guide_with_ground_overlap(rng, H, 0.6)
        p = GlhProblem(hamiltonian=H, guide=exact_sampler(guide), delta=0.6,
                       a=a, b=b)
        got = decide_glh(p, fail_prob=0.01, seed=50 + k).decision
        hits += got == "LOW"  # lambda <= a by construction
    assert hits >= 5


def test_glh_problem_validation(rng):
    H = random_local_hamiltonian(rng, 3, 2, 2)
    g = exact_sampler(guide_with_ground_overlap(rng, H, 0.5))
    with pytest.raises(ConfigError):
        GlhProblem(hamiltonian=H, guide=g, delta=0.5, a=0.5, b=0.2)
    with pytest.raises(ConfigError):
        GlhProblem(hamiltonian=H, guide=g, delta=0.5, a=-0.5)  # missing b
    with pytest.raises(ConfigError):
        GlhProblem(hamiltonian=H, guide=g, delta=0.5, eps=3.0)
    from svtkit.access import distorted_sampler
    noisy = distorted_sampler(guide_with_ground_overlap(rng, H, 0.5), 0.1,
                              seed=1)
    with pytest.raises(ConfigError, match="zeta"):
        GlhProblem(hamiltonian=H, guide=noisy, delta=0.5, eps=0.5)


def test_estimate_zero_hamiltonian(rng):
    H = LocalHamiltonian(2, 2, [])
    guide = np.ones(4, dtype=complex) / 2
    p = GlhProblem(hamiltonian=H, guide=exact_sampler(guide), delta=1.0,
                   eps=0.5)
    est = estimate_ground_energy(p, fail_prob=0.05, seed=4)
    assert est.interval[0] <= 0.0 <= est.interval[1]
    assert abs(est.value) <= 0.5


def test_estimate_boundary_case(rng):
    H = LocalHamiltonian(1, 1, [LocalTerm((1,), -Z)])
    guide = guide_with_ground_overlap(rng, H, 0.9)
    p = GlhProblem(hamiltonian=H, guide=exact_sampler(guide), delta=0.9,
                   eps=0.25)
    est = estimate_ground_energy(p, fail_prob=0.05, seed=6)
    assert abs(est.value - (-1.0)) <= 0.25


def test_scan_classification_with_deterministic_oracle(monkeypatch, rng):
    # exact decisions: the concluded interval contains lambda
    import svtkit.hamiltonian as ham

    for lam in (-1.0, -0.83, -0.26, 0.0, 0.31, 0.97, 1.0):
        def fake_decide(shifted, guide, a, b, delta, fail_prob, seed, contraction):
            decision = ham.LOW if lam <= a else (
                ham.HIGH if lam >= b else ham.LOW)
            return ham.GlhDecision(decision=decision, a=a, b=b, sve=None)

        monkeypatch.setattr(ham, "_decide_shifted", fake_decide)
        H = LocalHamiltonian(2, 2, [])
        p = GlhProblem(hamiltonian=H,
                       guide=exact_sampler(np.ones(4) / 2), delta=1.0,
                       eps=0.25)
        est = ham.estimate_ground_energy(p, seed=1)
        assert est.interval[0] - 1e-12 <= lam <= est.interval[1] + 1e-12
        assert abs(est.value - lam) <= 0.25


# width 2 shrinks to w/2 + eps/4 per decision until it is at most eps
BISECTION_STEPS = {1.0: 2, 0.5: 3, 0.25: 4, 0.1: 6, 0.05: 7}


def _null_problem(eps):
    return GlhProblem(hamiltonian=LocalHamiltonian(2, 2, []),
                      guide=exact_sampler(np.ones(4) / 2), delta=1.0, eps=eps)


def _estimate_with(decide, eps):
    def fake_decide(shifted, guide, a, b, delta, fail_prob, seed, contraction):
        return ham.GlhDecision(decision=decide(a, b), a=a, b=b, sve=None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ham, "_decide_shifted", fake_decide)
        return ham.estimate_ground_energy(_null_problem(eps), seed=1)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(-1.0, 1.0), eps=st.sampled_from(sorted(BISECTION_STEPS)),
       data=st.data())
def test_bisection_keeps_lambda_when_decisions_are_correct(lam, eps, data):
    # a correct decider must answer LOW below a and HIGH above b; inside
    # (a, b) either answer is correct, so hypothesis picks it
    def decide(a, b):
        if lam <= a:
            return ham.LOW
        if lam >= b:
            return ham.HIGH
        return data.draw(st.sampled_from([ham.LOW, ham.HIGH]))

    est = _estimate_with(decide, eps)
    lo, hi = est.interval
    assert lo <= lam <= hi
    assert hi - lo <= eps
    assert abs(est.value - lam) <= eps / 2
    assert len(est.decisions) == est.scan_steps == BISECTION_STEPS[eps]


@settings(max_examples=100, deadline=None)
@given(eps=st.sampled_from(sorted(BISECTION_STEPS)),
       answers=st.lists(st.booleans(), min_size=7, max_size=7))
def test_arbitrary_outcomes_never_raise(eps, answers):
    # failed decisions can move the interval away from lambda, but never
    # outside [-1, 1] or past width eps, and nothing is left to flag
    outcomes = iter(ham.LOW if low else ham.HIGH for low in answers)
    est = _estimate_with(lambda a, b: next(outcomes), eps)
    lo, hi = est.interval
    assert -1.0 <= lo < hi <= 1.0
    assert hi - lo <= eps
    assert est.value == (lo + hi) / 2


def test_hamiltonian_file_round_trip(tmp_path, rng):
    H = random_local_hamiltonian(rng, 4, 2, 3)
    path = tmp_path / "h.ham"
    save_hamiltonian(path, H)
    G = load_hamiltonian(path)
    assert (G.n, G.k, G.num_terms) == (H.n, H.k, H.num_terms)
    assert np.abs(G.to_dense() - H.to_dense()).max() < 1e-15


def test_hamiltonian_loader_errors(tmp_path):
    path = tmp_path / "bad.ham"
    path.write_text("2 2 1\n1\n1.0 0.0\n")  # block row too short
    with pytest.raises(ParseError):
        load_hamiltonian(path)
