import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from svtkit.access import (QueryVector, SparseMatrix, distorted_sampler,
                           exact_sampler, load_matrix, load_vector,
                           save_matrix, save_vector)
from svtkit.errors import ConstructionError, ParseError


def test_query_entry_direct_read():
    v = QueryVector([1, 0, 3j, 0])
    assert v.entry(3) == 3j
    assert QueryVector(np.eye(4)[0]).entry(2) == 0


def test_query_entry_matches_dense(rng):
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    v = QueryVector(vals)
    for i in rng.integers(1, 65, size=20):
        assert v.entry(int(i)) == vals[i - 1]


def test_query_entry_range_errors():
    v = QueryVector([1.0, 2.0])
    with pytest.raises(IndexError):
        v.entry(0)
    with pytest.raises(IndexError):
        v.entry(3)


def test_row_entry_identity():
    A = SparseMatrix.from_dense(np.eye(4), s=2)
    assert A.row_entry(2, 1) == (2, 1.0)
    assert A.row_entry(2, 2) is None  # only one nonzero in the row
    with pytest.raises(IndexError):
        A.row_entry(5, 1)
    with pytest.raises(IndexError):
        A.row_entry(1, 3)  # ell beyond declared sparsity
    tight = SparseMatrix.from_dense(np.eye(4))  # s inferred as 1
    with pytest.raises(IndexError):
        tight.row_entry(1, 2)


def test_row_col_enumeration_reconstructs(rng):
    from svtkit.rand import random_sparse_matrix
    A = random_sparse_matrix(rng, 8, 8, 3)
    dense = A.to_dense()
    via_rows = np.zeros_like(dense)
    for i in range(1, 9):
        for ell in range(1, A.s + 1):
            got = A.row_entry(i, ell)
            if got is None:
                break
            via_rows[i - 1, got[0] - 1] = got[1]
    via_cols = np.zeros_like(dense)
    for j in range(1, 9):
        for ell in range(1, A.s + 1):
            got = A.col_entry(j, ell)
            if got is None:
                break
            via_cols[got[0] - 1, j - 1] = got[1]
    assert np.array_equal(via_rows, dense)
    assert np.array_equal(via_cols, dense)


def test_row_entries_ascending_order(rng):
    from svtkit.rand import random_sparse_matrix
    A = random_sparse_matrix(rng, 10, 10, 4)
    for i in range(1, 11):
        cols = []
        for ell in range(1, 5):
            got = A.row_entry(i, ell)
            if got is None:
                break
            cols.append(got[0])
        assert cols == sorted(cols)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix.from_entries(2, 2, [(1, 1, 1.0), (1, 1, 2.0)])
    with pytest.raises(ValueError, match="zero"):
        SparseMatrix.from_entries(2, 2, [(1, 1, 0.0)])
    with pytest.raises(ValueError, match="sparsity"):
        SparseMatrix.from_entries(2, 2, [(1, 1, 1.0), (1, 2, 1.0)], s=1)
    with pytest.raises(IndexError):
        SparseMatrix.from_entries(2, 2, [(3, 1, 1.0)])


def test_column_sparsity_violation_rejected_at_construction():
    import scipy.sparse as sp
    # every row holds one nonzero, column 1 holds three
    csr = sp.csr_matrix(np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]))
    with pytest.raises(ValueError, match="3 nonzeros > s=1"):
        SparseMatrix(csr, 1)
    with pytest.raises(ValueError, match="sparsity"):
        SparseMatrix.from_dense(csr.toarray(), s=2)


def test_column_index_built_only_on_column_access(rng):
    from svtkit.polynomial import EvenPolynomial
    from svtkit.rand import random_sparse_matrix
    from svtkit.svt import svt_entries
    A = random_sparse_matrix(rng, 8, 8, 2)
    A.csr()
    svt_entries(A, QueryVector(np.ones(8)), EvenPolynomial([0.5, 0.25]), [1, 5])
    assert "_csc" not in A.__dict__
    dense = A.to_dense()
    rows, vals = A.col_nonzeros(2)
    assert "_csc" in A.__dict__
    assert np.array_equal(rows, np.flatnonzero(dense[:, 2]))
    assert np.array_equal(vals, dense[rows, 2])


def test_sparsity_invariant_holds(rng):
    from svtkit.rand import random_sparse_matrix
    for trial in range(5):
        A = random_sparse_matrix(rng, 12, 12, 3)
        counts_r = np.count_nonzero(A.to_dense(), axis=1)
        counts_c = np.count_nonzero(A.to_dense(), axis=0)
        assert counts_r.max() <= A.s and counts_c.max() <= A.s


def test_adjoint_view(rng):
    from svtkit.rand import random_sparse_matrix
    A = random_sparse_matrix(rng, 6, 9, 3)
    adj = A.adjoint()
    assert (adj.nrows, adj.ncols) == (9, 6)
    dense = A.to_dense().conj().T
    for i in range(9):
        cols, vals = adj.row_nonzeros(i)
        row = np.zeros(6, dtype=complex)
        row[cols] = vals
        assert_allclose(row, dense[i], atol=0)


def test_sample_point_mass(rng):
    v = exact_sampler(np.eye(4)[2])
    assert np.all(v.sample_many(rng, 20) == 3)


def test_sample_uniform_frequencies(rng):
    v = exact_sampler(np.array([1.0, 1.0]) / np.sqrt(2))
    draws = v.sample_many(rng, 100_000)
    freq = np.bincount(draws, minlength=3)[1:] / draws.size
    assert abs(freq[0] - 0.5) < 0.01 and abs(freq[1] - 0.5) < 0.01


def test_sample_weighted_frequencies(rng):
    # |2|^2 / (1 + 4) = 0.8
    v = exact_sampler(np.array([1.0, 2.0]))
    draws = v.sample_many(rng, 100_000)
    assert abs(np.mean(draws == 2) - 0.8) < 0.01


def test_sampler_zero_vector_rejected():
    with pytest.raises(ValueError):
        exact_sampler(np.zeros(3))
    with pytest.raises(ValueError):
        distorted_sampler(np.zeros(3), 0.1)


def test_exact_sampler_norm():
    assert exact_sampler(np.array([3.0, 4.0])).m == 5.0


def test_exact_sampler_subset_state(rng):
    v = np.zeros(8)
    v[[0, 1, 2]] = 1 / np.sqrt(3)
    s = exact_sampler(v)
    draws = s.sample_many(rng, 30_000)
    freq = np.bincount(draws, minlength=9)[1:4] / draws.size
    assert np.all(np.abs(freq - 1 / 3) < 0.02)
    assert set(np.unique(draws)) == {1, 2, 3}


def test_exact_sampler_norm_matches_recomputation(rng):
    vals = rng.normal(size=32) + 1j * rng.normal(size=32)
    s = exact_sampler(vals)
    manual = np.sqrt(sum(abs(z) ** 2 for z in vals))
    assert abs(s.m - manual) < 1e-12


def test_sampler_chi_squared_goodness_of_fit(rng):
    for n in (8, 64):
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        s = exact_sampler(vals)
        draws = s.sample_many(rng, 100_000)
        expected = np.abs(vals) ** 2 / np.sum(np.abs(vals) ** 2) * draws.size
        observed = np.bincount(draws, minlength=n + 1)[1:]
        _, p = chisquare(observed, expected)
        assert p > 0.001


def test_distorted_sampler_zero_zeta_matches_exact(rng):
    vals = rng.normal(size=10) + 1j * rng.normal(size=10)
    d = distorted_sampler(vals, 0.0, seed=3)
    e = exact_sampler(vals)
    assert_allclose(d.probabilities(), e.probabilities(), atol=0)
    assert d.m == e.m


def test_distorted_sampler_band_and_norm(rng):
    vals = np.array([1.0, 1.0]) / np.sqrt(2)
    d = distorted_sampler(vals, 0.1, seed=7)
    draws = d.sample_many(rng, 100_000)
    freq = np.mean(draws == 1)
    assert 0.45 - 0.01 < freq < 0.55 + 0.01
    assert 0.9 - 1e-12 <= d.m <= 1.1 + 1e-12


def test_distorted_sampler_band_invariant(rng):
    for zeta in (0.05, 0.2, 0.6):
        vals = rng.normal(size=20) + 1j * rng.normal(size=20)
        d = distorted_sampler(vals, zeta, seed=11)
        p_ideal = np.abs(vals) ** 2 / np.sum(np.abs(vals) ** 2)
        probs = d.probabilities()
        assert np.all(probs >= (1 - zeta) * p_ideal - 1e-12)
        assert np.all(probs <= (1 + zeta) * p_ideal + 1e-12)
        assert abs(probs.sum() - 1.0) < 1e-12
        nrm = np.linalg.norm(vals)
        assert abs(d.m - nrm) <= zeta * nrm + 1e-12


def test_distorted_sampler_deterministic_given_seed(rng):
    vals = rng.normal(size=15)
    a = distorted_sampler(vals, 0.3, seed=5)
    b = distorted_sampler(vals, 0.3, seed=5)
    assert np.array_equal(a.probabilities(), b.probabilities())
    assert a.m == b.m


def test_sampler_emits_only_nonzero_entries(rng):
    vals = np.array([0.0, 2.0, 0.0, 1.0, 0.0])
    for s in (exact_sampler(vals), distorted_sampler(vals, 0.2, seed=1)):
        draws = s.sample_many(rng, 5000)
        assert set(np.unique(draws)) <= {2, 4}


def test_sample_counts_rows_sum_and_skip_zero_cells(rng):
    from svtkit.access import SampledVector
    # one support cell has a zero entry and zero probability; the CDF ends
    # within 1e-9 of 1 on either side, and the last cell absorbs the rest
    # of [0, 1).  When the zero cell is last and the CDF passes 1 before
    # it, sample_many never reaches it, so it must get no counts either.
    layouts = [([1.0, 0.0, 1.0, 1.0], (1.0, 1.0 - 5e-10, 1.0 + 5e-10)),
               ([1.0, 1.0, 1.0, 0.0], (1.0, 1.0 + 5e-10))]
    for vals, scales in layouts:
        vals = np.array(vals)
        base = QueryVector(vals / np.sqrt(3))
        for scale in scales:
            s = SampledVector(base, [0, 1, 2, 3], vals / 3 * scale, m=1.0,
                              zeta=1e-8)
            counts = s.sample_counts(rng, 500, 40)
            assert counts.shape == (40, 4)
            assert np.all(counts.sum(axis=1) == 500)
            assert np.all(counts[:, vals == 0] == 0)
            assert np.all(counts[:, vals != 0].sum(axis=0) > 0)


def test_sample_counts_match_sample_many_histogram(rng):
    from scipy.stats import chi2_contingency
    eps = 0.1
    vals = rng.normal(size=32) + 1j * rng.normal(size=32)
    for s in (exact_sampler(vals), distorted_sampler(vals, eps / 8, seed=4)):
        totals = s.sample_counts(rng, 1000, 200).sum(axis=0)
        hist = np.bincount(s.sample_many(rng, 200_000), minlength=33)[s.support()]
        assert totals.sum() == hist.sum() == 200_000
        _, p, _, _ = chi2_contingency(np.vstack([totals, hist]))
        assert p > 0.001


def test_sampled_vector_band_violation_detected(rng):
    from svtkit.access import SampledVector
    base = QueryVector([1.0, 1.0])
    with pytest.raises(ConstructionError):
        SampledVector(base, [0, 1], [0.9, 0.1], m=np.sqrt(2), zeta=0.0)


@pytest.mark.parametrize("support, probs", [
    ([1, -1], [0.36, 0.64]),        # negative: sample_many would emit index 0
    ([1, 3], [0.36, 0.64]),         # past the end
    ([1, 1], [0.36, 0.64]),         # repeated index
    ([1, 2], [1.0]),                # one probability short
    ([1.0, 2.0], [0.36, 0.64]),     # not integers
    ([[1, 2]], [[0.36, 0.64]]),     # not 1-d
])
def test_sampled_vector_rejects_bad_support(support, probs):
    from svtkit.access import SampledVector
    base = QueryVector([0.0, 0.6, 0.8])
    with pytest.raises(ConstructionError, match="support"):
        SampledVector(base, support, probs, m=1.0, zeta=0.0)
    SampledVector(base, [1, 2], [0.36, 0.64], m=1.0, zeta=0.0)


def test_vector_file_round_trip(tmp_path, rng):
    vals = rng.normal(size=9) + 1j * rng.normal(size=9)
    path = tmp_path / "v.vec"
    save_vector(path, vals)
    assert np.array_equal(load_vector(path), vals)


def test_matrix_file_round_trip(tmp_path, rng):
    from svtkit.rand import random_sparse_matrix
    A = random_sparse_matrix(rng, 7, 5, 3)
    path = tmp_path / "a.mat"
    save_matrix(path, A)
    B = load_matrix(path)
    assert B.s == A.s
    assert np.array_equal(B.to_dense(), A.to_dense())


def test_matrix_loader_rejects_sparsity_violation(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2 2 1\n1 1 1.0 0.0\n1 2 1.0 0.0\n")
    with pytest.raises(ParseError, match="sparsity"):
        load_matrix(path)


def test_loaders_report_line_numbers(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_text("2\n1.0 0.0\nnot numbers\n")
    with pytest.raises(ParseError, match="line 3"):
        load_vector(path)
    path2 = tmp_path / "bad.mat"
    path2.write_text("2 2 2 2\n1 2 1.0 0.0\n1 1 1.0 0.0\n")
    with pytest.raises(ParseError, match="ascending"):
        load_matrix(path2)


def _save_each_format(kind, path):
    from svtkit.hamiltonian import LocalHamiltonian, LocalTerm, save_hamiltonian
    from svtkit.kitaev import GATES, Circuit, Gate, save_circuit
    from svtkit.polynomial import EvenPolynomial, save_polynomial
    z = np.diag([1.0, -1.0]).astype(complex)
    if kind == "vector":
        save_vector(path, [1.0, 2j])
    elif kind == "matrix":
        save_matrix(path, SparseMatrix.from_entries(
            2, 2, [(1, 1, 0.5), (2, 1, 0.25j)], s=2))
    elif kind == "polynomial":
        save_polynomial(path, EvenPolynomial.from_even_coeffs([0.3, 0.5]))
    elif kind == "hamiltonian":
        save_hamiltonian(path, LocalHamiltonian(1, 1, [LocalTerm((1,), z)]))
    else:
        save_circuit(path, Circuit(1, 1, [Gate("X", (2,), GATES["X"])]))


@pytest.mark.parametrize("kind", ["vector", "matrix", "polynomial",
                                  "hamiltonian", "circuit"])
def test_loaders_reject_lines_past_declared_count(tmp_path, kind):
    from svtkit.hamiltonian import load_hamiltonian
    from svtkit.kitaev import load_circuit
    from svtkit.polynomial import load_polynomial
    load = {"vector": load_vector, "matrix": load_matrix,
            "polynomial": load_polynomial, "hamiltonian": load_hamiltonian,
            "circuit": load_circuit}[kind]
    path = tmp_path / kind
    _save_each_format(kind, path)
    text = path.read_text()
    used = len(text.splitlines())
    load(path)
    path.write_text(text + "\n  \n")  # trailing blank lines are fine
    load(path)
    path.write_text(text + "\n0.0 0.0\n")
    with pytest.raises(ParseError, match=f"line {used + 2}:"):
        load(path)
