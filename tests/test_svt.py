import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from svtkit import svt
from svtkit.access import QueryVector, SparseMatrix, distorted_sampler, exact_sampler
from svtkit.errors import ConfigError, InvalidSamplerError, ShapeError
from svtkit.oracle import exact_bilinear, exact_svt_apply
from svtkit.polynomial import EvenPolynomial, ThresholdSpec, build_threshold_cached
from svtkit.rand import (random_even_polynomial, random_sparse_matrix,
                         random_unit_vector)
from svtkit.svt import (EstimatorConfig, QueryCounter, _contraction, chain_entry,
                        estimate_bilinear, min_sample_count, sample_values,
                        svt_entry, svt_entries)

ONE = EvenPolynomial.from_even_coeffs([1.0])
SQUARE = EvenPolynomial.from_even_coeffs([0.0, 1.0])


def test_chain_identity():
    A = SparseMatrix.from_dense(np.eye(4))
    u = QueryVector([1.0, 2.0, 3.0, 4.0])
    assert chain_entry([A], u, 2) == 2.0


def test_chain_diagonal_gram():
    A = SparseMatrix.from_dense(np.diag([0.5, 0.25]))
    u = QueryVector([1.0, 1.0])
    A_dag = SparseMatrix.from_dense(A.to_dense().conj().T)
    assert chain_entry([A_dag, A], u, 1) == 0.25


def test_chain_matches_dense_product(rng):
    mats = [random_sparse_matrix(rng, 16, 16, 3) for _ in range(4)]
    u = random_unit_vector(rng, 16)
    dense = mats[0].to_dense()
    for m in mats[1:]:
        dense = dense @ m.to_dense()
    expected = dense @ u
    uq = QueryVector(u)
    got = np.array([chain_entry(mats, uq, i) for i in range(1, 17)])
    assert_allclose(got, expected, rtol=1e-10, atol=1e-14)


def test_chain_rectangular(rng):
    a = random_sparse_matrix(rng, 3, 8, 2)
    b = random_sparse_matrix(rng, 8, 5, 2)
    u = random_unit_vector(rng, 5)
    expected = a.to_dense() @ b.to_dense() @ u
    got = [chain_entry([a, b], QueryVector(u), i) for i in range(1, 4)]
    assert_allclose(got, expected, rtol=1e-10, atol=1e-14)


def test_chain_shape_errors(rng):
    a = random_sparse_matrix(rng, 3, 4, 2)
    b = random_sparse_matrix(rng, 5, 3, 2)
    u = QueryVector(np.ones(3))
    with pytest.raises(ShapeError):
        chain_entry([a, b], u, 1)  # 4 cols feed 5 rows
    with pytest.raises(ShapeError):
        chain_entry([a], u, 1)  # tail mismatch
    with pytest.raises(IndexError):
        chain_entry([b], u, 9)


def test_chain_memo_transparency(rng):
    mats = [random_sparse_matrix(rng, 8, 8, 2) for _ in range(3)]
    u = QueryVector(random_unit_vector(rng, 8))
    for i in (1, 4, 8):
        assert chain_entry(mats, u, i, memo=True) == chain_entry(
            mats, u, i, memo=False)


def test_chain_counter_counts_row_fetches(rng):
    A = SparseMatrix.from_dense(np.eye(4))
    u = QueryVector(np.ones(4))
    counter = QueryCounter()
    chain_entry([A, A], u, 1, counter=counter)
    assert counter.row_fetches == 2
    assert counter.entry_probes == 2  # identity rows hold a single nonzero


def test_svt_entry_identity_polynomial(rng):
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = random_unit_vector(rng, 8)
    uq = QueryVector(u)
    for i in range(1, 9):
        assert svt_entry(A, uq, ONE, i) == u[i - 1]


def test_svt_entry_diagonal_square():
    sig = np.array([0.9, 0.5, 0.1])
    A = SparseMatrix.from_dense(np.diag(sig))
    u = np.array([1.0, 2.0, -1.0])
    got = [svt_entry(A, QueryVector(u), SQUARE, i) for i in (1, 2, 3)]
    assert_allclose(got, sig ** 2 * u, atol=1e-15)


def test_svt_entry_zero_matrix():
    A = SparseMatrix.from_dense(np.zeros((3, 3)))
    u = QueryVector(np.ones(3))
    assert svt_entry(A, u, SQUARE, 2) == 0.0


def test_svt_entry_matches_dense_oracle(rng):
    A = random_sparse_matrix(rng, 32, 32, 4)
    u = random_unit_vector(rng, 32)
    P = random_even_polynomial(rng, 3)
    expected = exact_svt_apply(A.to_dense(), P, u)
    uq = QueryVector(u)
    for i in rng.integers(1, 33, size=10):
        got = svt_entry(A, uq, P, int(i))
        assert abs(got - expected[i - 1]) <= 1e-9 * max(1.0, abs(expected[i - 1]))


def test_svt_entry_paths_agree(rng):
    A = random_sparse_matrix(rng, 16, 16, 3)
    u = QueryVector(random_unit_vector(rng, 16))
    P = random_even_polynomial(rng, 4)
    whole = svt_entries(A, u, P, np.arange(1, 17))  # the whole-vector apply
    for i in (1, 7, 16):
        assert abs(svt_entry(A, u, P, i) - whole[i - 1]) < 1e-12


def test_svt_entries_block_matches_single(rng):
    A = random_sparse_matrix(rng, 12, 12, 3)
    u = QueryVector(random_unit_vector(rng, 12))
    P = random_even_polynomial(rng, 5)
    idx = np.array([1, 3, 12])
    block = svt_entries(A, u, P, idx)
    singles = [svt_entry(A, u, EvenPolynomial(P.cheb_even()), int(i)) for i in idx]
    assert_allclose(block, singles, atol=1e-12)


def test_svt_entry_high_degree_uses_stable_path(rng):
    from svtkit.polynomial import ThresholdSpec, build_threshold_cached
    P = build_threshold_cached(ThresholdSpec(0.5, 0.7, 0.1, 0.1, 0.05))
    assert P.degree > 30
    A = random_sparse_matrix(rng, 24, 24, 3)
    u = random_unit_vector(rng, 24)
    expected = exact_svt_apply(A.to_dense(), P, u)
    got = svt_entries(A, QueryVector(u), P, np.arange(1, 25))
    assert_allclose(got, expected, atol=1e-9)


FILTER = ThresholdSpec(0.5, 0.7, 0.1, 0.1, 0.05)  # degree 270
SCAN_FILTER = ThresholdSpec(0.5, 0.71875, 0.5, 0.03125, 1 / 12)  # degree 730


def _cheb_only(rng, d):
    """Random bounded even polynomial of degree 2d built in the Chebyshev
    basis; above degree 30 svt_entry takes the whole-vector path."""
    return EvenPolynomial(random_even_polynomial(rng, d).cheb_even())


def test_cheb_entry_is_bitwise_one_recurrence(rng):
    A = random_sparse_matrix(rng, 20, 20, 3)
    u = QueryVector(random_unit_vector(rng, 20))
    P = build_threshold_cached(FILTER)
    (S, _), cr = _contraction(A), P.cheb_even()
    prev, cur = u.dense(), S @ u.dense()
    fresh = cr[0] * prev + cr[1] * cur
    for r in range(2, cr.size):
        prev, cur = cur, 2.0 * (S @ cur) - prev
        fresh = fresh + cr[r] * cur
    singles = np.array([svt_entry(A, u, P, i) for i in range(1, 21)])
    block = svt_entries(A, u, P, np.arange(1, 21))
    assert np.array_equal(singles, fresh)
    assert np.array_equal(block, fresh)


def test_interleaved_cheb_applies_are_never_stale(rng):
    As = [random_sparse_matrix(rng, 12, 12, 3) for _ in range(2)]
    us = [random_unit_vector(rng, 12) for _ in range(2)]
    uqs = [QueryVector(u) for u in us]
    Ps = [_cheb_only(rng, 16), build_threshold_cached(FILTER)]
    exact = {(a, b, c): exact_svt_apply(As[a].to_dense(), Ps[c], us[b])
             for a in range(2) for b in range(2) for c in range(2)}
    keys = list(exact) * 3
    for n in rng.permutation(len(keys)):
        a, b, c = keys[n]
        i = int(rng.integers(1, 13))
        got = svt_entry(As[a], uqs[b], Ps[c], i)
        assert abs(got - exact[a, b, c][i - 1]) <= 1e-9
        if n % 2:
            assert_allclose(svt_entries(As[a], uqs[b], Ps[c], np.arange(1, 13)),
                            exact[a, b, c], atol=1e-9)
    # fresh vectors that die after each call must not be confused either
    for _ in range(5):
        u = random_unit_vector(rng, 12)
        got = svt_entry(As[0], QueryVector(u), Ps[0], 3)
        assert abs(got - exact_svt_apply(As[0].to_dense(), Ps[0], u)[2]) <= 1e-9


def test_repeated_cheb_entry_charges_the_same_queries(rng):
    A = random_sparse_matrix(rng, 16, 16, 3)
    u = QueryVector(random_unit_vector(rng, 16))
    P = _cheb_only(rng, 20)
    first, again = QueryCounter(), QueryCounter()
    svt_entry(A, u, P, 5, counter=first)
    svt_entry(A, u, P, 9, counter=again)
    assert first == again and first.row_fetches == 20 * 16


def test_threads_keep_separate_apply_slots(rng):
    jobs = []
    for _ in range(4):  # more threads than the two cores of a small host
        A = random_sparse_matrix(rng, 32, 32, 4)
        u = random_unit_vector(rng, 32)
        P = _cheb_only(rng, 30)
        jobs.append((A, QueryVector(u), P, exact_svt_apply(A.to_dense(), P, u)))
    barrier = threading.Barrier(len(jobs), timeout=30)
    worst = [None] * len(jobs)

    def work(k):
        A, uq, P, exact = jobs[k]
        err = 0.0
        for step in range(60):
            barrier.wait()
            i = (7 * step + k) % 32 + 1
            err = max(err, abs(svt_entry(A, uq, P, i) - exact[i - 1]))
        worst[k] = err

    main_A = random_sparse_matrix(rng, 32, 32, 4)  # no worker touches these
    main_u = QueryVector(random_unit_vector(rng, 32))
    svt_entry(main_A, main_u, _cheb_only(rng, 30), 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(e is not None and e <= 1e-9 for e in worst)
    assert svt._last_apply.slot[0] is main_A  # the workers left this thread's slot alone


LOW_FILTER = ThresholdSpec(0.6, 0.8, 0.1, 0.1, 0.64 / 3)  # degree 182
GUIDE_CFG = EstimatorConfig.for_target(0.1, 0.01)


def _filter(spec):
    return build_threshold_cached(spec, degree_cap=4096)


@pytest.mark.parametrize("spec, degree", [(LOW_FILTER, 182), (FILTER, 270),
                                          (SCAN_FILTER, 730)])
def test_moment_contraction_matches_oracle(rng, spec, degree):
    P = _filter(spec)
    assert P.degree == degree
    A = random_sparse_matrix(rng, 40, 40, 3)
    u = random_unit_vector(rng, 40)
    res = svt.moment_contraction(A, exact_sampler(u), P, GUIDE_CFG)
    assert abs(res.value.real - exact_bilinear(A.to_dense(), P, u, u).real) <= 1e-12
    assert res.value.imag == 0.0 and res.degree == degree
    assert res.total_samples == 0
    steps = -(-degree // 4)
    assert res.counter == QueryCounter(steps * 40, steps * _contraction(A)[1])


def test_interleaved_moment_contractions_are_never_stale(rng):
    As = [random_sparse_matrix(rng, 16, 16, 3) for _ in range(2)]
    us = [random_unit_vector(rng, 16) for _ in range(2)]
    guides = [exact_sampler(u) for u in us]
    Ps = [_filter(LOW_FILTER), _filter(SCAN_FILTER)]
    exact = {(a, b, c): exact_bilinear(As[a].to_dense(), Ps[c], us[b], us[b]).real
             for a in range(2) for b in range(2) for c in range(2)}
    keys = list(exact) * 3
    for n in rng.permutation(len(keys)):
        a, b, c = keys[n]
        got = svt.moment_contraction(As[a], guides[b], Ps[c], GUIDE_CFG).value
        assert abs(got - exact[a, b, c]) <= 1e-12
    # fresh guides that die after each call must not be confused either
    for _ in range(5):
        u = random_unit_vector(rng, 16)
        got = svt.moment_contraction(As[0], exact_sampler(u), Ps[1], GUIDE_CFG)
        assert abs(got.value - exact_bilinear(As[0].to_dense(), Ps[1], u, u)) <= 1e-12


def test_moment_contraction_charges_the_same_queries_on_a_hit(rng):
    A = random_sparse_matrix(rng, 16, 16, 3)
    guide = exact_sampler(random_unit_vector(rng, 16))
    short, long = _filter(LOW_FILTER), _filter(SCAN_FILTER)
    svt._last_apply.slot = None
    miss = svt.moment_contraction(A, guide, short, GUIDE_CFG)
    hit = svt.moment_contraction(A, guide, short, GUIDE_CFG)
    assert svt._last_apply.slot[3][1].size == 92  # one pass, kept
    longer = svt.moment_contraction(A, guide, long, GUIDE_CFG)  # recomputes
    assert svt._last_apply.slot[3][1].size == 366
    shorter = svt.moment_contraction(A, guide, short, GUIDE_CFG)  # a hit
    assert miss.counter == hit.counter == shorter.counter
    assert miss.counter.row_fetches == 46 * 16
    assert longer.counter.row_fetches == 183 * 16
    assert miss.value == hit.value
    assert abs(shorter.value - miss.value) <= 1e-14


def test_threads_keep_separate_moments(rng):
    P = _filter(SCAN_FILTER)
    jobs = []
    for _ in range(4):  # more threads than the two cores of a small host
        A = random_sparse_matrix(rng, 32, 32, 4)
        u = random_unit_vector(rng, 32)
        jobs.append((A, exact_sampler(u), exact_bilinear(A.to_dense(), P, u, u)))
    barrier = threading.Barrier(len(jobs), timeout=30)
    worst = [None] * len(jobs)

    def work(k):
        A, guide, exact = jobs[k]
        err = 0.0
        for _ in range(30):
            barrier.wait()
            got = svt.moment_contraction(A, guide, P, GUIDE_CFG).value
            err = max(err, abs(got - exact))
        worst[k] = err

    main_A = random_sparse_matrix(rng, 32, 32, 4)  # no worker touches these
    main_guide = exact_sampler(random_unit_vector(rng, 32))
    svt.moment_contraction(main_A, main_guide, P, GUIDE_CFG)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(e is not None and e <= 1e-12 for e in worst)
    # the workers left this thread's moments alone
    assert svt._last_apply.slot[0] is main_A
    assert svt._last_apply.slot[3][0] is main_guide.base.dense()


def test_svt_entries_returns_a_writable_copy(rng):
    A = random_sparse_matrix(rng, 10, 10, 2)
    u = QueryVector(random_unit_vector(rng, 10))
    P = _cheb_only(rng, 16)
    idx = np.arange(1, 11)
    block = svt_entries(A, u, P, idx)
    keep = block.copy()
    assert block.flags.writeable
    block[:] = 7.0
    assert np.array_equal(svt_entries(A, u, P, idx), keep)
    assert svt_entry(A, u, P, 4) == keep[3]


def test_norm_above_one_raises_config_error(rng):
    P = build_threshold_cached(SCAN_FILTER, degree_cap=4096)
    assert P.degree == 730
    good = SparseMatrix.from_dense(np.diag([1.0, 0.5, 0.2]))
    bad = SparseMatrix.from_dense(np.diag([1.02, 0.5, 0.2]))
    u = np.ones(3) / np.sqrt(3.0)
    uq = QueryVector(u)
    before = svt_entries(good, uq, P, [1, 2, 3])
    assert_allclose(before, exact_svt_apply(good.to_dense(), P, u), atol=1e-9)
    for _ in range(2):  # a failed apply is never cached
        with pytest.raises(ConfigError, match="exceeds 1"):
            svt_entry(bad, uq, P, 1)
        with pytest.raises(ConfigError, match="exceeds 1"):
            svt_entries(bad, uq, P, [1, 2, 3])
    cfg = EstimatorConfig.for_target(0.25, 0.05, seed=1)
    with pytest.raises(ConfigError, match="exceeds 1"):
        estimate_bilinear(bad, uq, exact_sampler(u), P, cfg)
    assert svt_entry(good, uq, P, 1) == before[0]
    local = EvenPolynomial([0.0] * 15 + [1.0])  # T_15(2x^2 - 1), degree 30
    assert local.degree <= svt.LOCAL_DEGREE_LIMIT
    with pytest.raises(ConfigError, match="exceeds 1"):
        svt_entry(bad, uq, local, 1)
    got = svt_entry(good, uq, local, 1)
    assert abs(got - exact_svt_apply(good.to_dense(), local, u)[0]) < 1e-12


def _spy_local_entry(monkeypatch):
    calls = []
    local = svt._local_entry
    monkeypatch.setattr(svt, "_local_entry",
                        lambda *args: calls.append(1) or local(*args))
    return calls


# The engine follows degree: degree 4 takes the local recursion, degree
# 32 goes past LOCAL_DEGREE_LIMIT to the whole-vector apply.
@pytest.mark.parametrize("coeffs, local_path", [([0.2, 0.3, 0.1], True),
                                                 ([0.02] * 17, False)])
def test_entry_engine_follows_usable_monomial(rng, monkeypatch, coeffs,
                                              local_path):
    calls = _spy_local_entry(monkeypatch)
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = random_unit_vector(rng, 8)
    P = EvenPolynomial.from_even_coeffs(coeffs)
    assert (P.degree <= svt.LOCAL_DEGREE_LIMIT) is local_path
    got = svt_entry(A, QueryVector(u), P, 3)
    assert bool(calls) is local_path
    assert abs(got - exact_svt_apply(A.to_dense(), P, u)[2]) < 1e-9


def test_entry_engine_ignores_basis(rng, monkeypatch):
    calls = _spy_local_entry(monkeypatch)
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = random_unit_vector(rng, 8)
    cheb = EvenPolynomial([0.5, 0.25, 0.25])
    twin = EvenPolynomial.from_even_coeffs([0.5, -1.5, 2.0])
    assert np.array_equal(twin.cheb_even(), cheb.cheb_even())
    for P in (cheb, twin):
        calls.clear()
        got = svt_entry(A, QueryVector(u), P, 3)
        assert calls
        assert abs(got - exact_svt_apply(A.to_dense(), P, u)[2]) < 1e-9


def test_local_entry_cost_does_not_depend_on_n(rng):
    block = random_sparse_matrix(rng, 16, 16, 3).to_dense()
    P = random_even_polynomial(rng, 3)
    costs = []
    for n in (64, 1024):
        A = SparseMatrix.from_dense(np.kron(np.eye(n // 16), block), s=3)
        u = QueryVector(random_unit_vector(np.random.default_rng(5), n))
        idx = np.array([1, 9, 16])
        counter = QueryCounter()
        got = [svt_entry(A, u, P, int(i), counter=counter) for i in idx]
        assert_allclose(got, svt_entries(A, u, P, idx), rtol=0, atol=1e-12)
        costs.append(counter)
    assert costs[0] == costs[1] and costs[0].row_fetches > 0


def test_single_sample_point_mass(rng):
    u = random_unit_vector(rng, 4)
    A = SparseMatrix.from_dense(np.eye(4))
    v = exact_sampler(np.eye(4)[0])
    draws = sample_values(A, QueryVector(u), v, ONE, rng, 5)
    assert np.all(draws == u[0])  # v = e_1: X = u_1 m^2 / v_1 = u_1 = v^dag u


def test_single_sample_zero_matrix(rng):
    A = SparseMatrix.from_dense(np.zeros((4, 4)))
    u = QueryVector(random_unit_vector(rng, 4))
    v = exact_sampler(random_unit_vector(rng, 4))
    assert np.all(sample_values(A, u, v, SQUARE, rng, 5) == 0.0)


def test_single_sample_mean_tracks_exact(rng):
    A = random_sparse_matrix(rng, 16, 16, 3)
    u = random_unit_vector(rng, 16)
    v = random_unit_vector(rng, 16)
    P = random_even_polynomial(rng, 2)
    exact = exact_bilinear(A.to_dense(), P, u, v)
    draws = sample_values(A, QueryVector(u), exact_sampler(v), P, rng, 200_000)
    err = abs(draws.mean() - exact)
    three_sigma = 3 * draws.std() / np.sqrt(draws.size)
    assert err <= three_sigma + 1e-3


def test_sample_values_matches_single_sample_stream(rng):
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = QueryVector(random_unit_vector(rng, 8))
    v = exact_sampler(random_unit_vector(rng, 8))
    P = random_even_polynomial(rng, 2)
    r1 = np.random.default_rng(99)
    batch = sample_values(A, u, v, P, r1, 6)
    idx = v.sample_many(np.random.default_rng(99), 6)
    v_arr = v.base.dense()
    singles = [svt_entry(A, u, P, int(j)) * v.m ** 2 / v_arr[j - 1] for j in idx]
    assert_allclose(batch, singles, atol=1e-13)


def test_min_sample_count_formula():
    assert min_sample_count(0.1, 0.0) == 1600
    # zeta = eps/8: 16 (1 + 7 eps/8)^2 / (eps/8)^2
    eps, zeta = 0.1, 0.0125
    expected = int(np.ceil(16 * (1 + 7 * zeta) ** 2 / (eps - 7 * zeta) ** 2))
    assert min_sample_count(eps, zeta) == expected
    with pytest.raises(ConfigError):
        min_sample_count(0.1, 0.05)  # 7 zeta > eps


def test_estimator_config_validation():
    cfg = EstimatorConfig.for_target(0.1, 0.01)
    assert cfg.samples == 1600
    assert cfg.batches == 83
    with pytest.raises(ConfigError):
        EstimatorConfig.for_target(0.1, 0.01, zeta=0.02)  # zeta > eps/8
    with pytest.raises(ConfigError):
        EstimatorConfig(eps=2.0, fail_prob=0.1, samples=10, batches=3)


def test_estimate_deterministic_case(rng):
    A = random_sparse_matrix(rng, 4, 4, 2)
    e1 = np.eye(4)[0]
    cfg = EstimatorConfig.for_target(0.5, 0.1, seed=1)
    res = estimate_bilinear(A, QueryVector(e1), exact_sampler(e1), ONE, cfg)
    assert res.value == 1.0  # u = v = e_1, P = 1


def test_estimate_identity_matrix(rng):
    A = SparseMatrix.from_dense(np.eye(32))
    u = random_unit_vector(rng, 32)
    v = random_unit_vector(rng, 32)
    cfg = EstimatorConfig.for_target(0.1, 0.01, seed=5)
    res = estimate_bilinear(A, QueryVector(u), exact_sampler(v), SQUARE, cfg)
    assert abs(res.value - np.vdot(v, u)) <= 0.1


def test_estimate_reproducible(rng):
    A = random_sparse_matrix(rng, 16, 16, 3)
    u = QueryVector(random_unit_vector(rng, 16))
    v = exact_sampler(random_unit_vector(rng, 16))
    P = random_even_polynomial(rng, 2)
    cfg = EstimatorConfig.for_target(0.2, 0.05, seed=42)
    first = estimate_bilinear(A, u, v, P, cfg)
    again = estimate_bilinear(A, u, v, P, cfg)
    assert first.value == again.value
    assert first.unique_indices == again.unique_indices
    assert first.counter == again.counter


def test_estimate_unique_indices_counts_hit_cells(rng):
    A = random_sparse_matrix(rng, 64, 64, 3)
    u = QueryVector(random_unit_vector(rng, 64))
    vals = random_unit_vector(rng, 64)
    vals[32:] *= 1e-4  # cells drawn with probability ~1e-10 each
    v = exact_sampler(vals / np.linalg.norm(vals))
    cfg = EstimatorConfig.for_target(0.5, 0.3, seed=8)
    res = estimate_bilinear(A, u, v, ONE, cfg)
    counts = v.sample_counts(np.random.default_rng(cfg.seed), cfg.samples,
                             cfg.batches)
    hit = np.count_nonzero(counts.sum(axis=0))
    assert res.unique_indices == hit
    assert 0 < hit < v.support().size


def test_estimate_rejects_drawn_zero_entry(rng, monkeypatch):
    from svtkit.access import SampledVector
    A = random_sparse_matrix(rng, 4, 4, 2)
    base = QueryVector(np.array([1.0, 0.0, 1.0, 1.0]) / np.sqrt(3))
    v = SampledVector(base, [0, 1, 2, 3], np.array([1.0, 0.0, 1.0, 1.0]) / 3,
                      m=1.0, zeta=0.0)
    cfg = EstimatorConfig.for_target(0.5, 0.1, seed=3)
    estimate_bilinear(A, base, v, ONE, cfg)  # zero cell present, never drawn

    def hits_zero_cell(rng, size, batches):
        counts = np.zeros((batches, 4), dtype=np.int64)
        counts[:, 0] = size
        counts[-1, :2] = size - 1, 1
        return counts

    monkeypatch.setattr(v, "sample_counts", hits_zero_cell)
    with pytest.raises(InvalidSamplerError, match="zero entry"):
        estimate_bilinear(A, base, v, ONE, cfg)


def test_estimate_validates_preconditions(rng):
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = QueryVector(random_unit_vector(rng, 8))
    v = exact_sampler(random_unit_vector(rng, 8))
    big = QueryVector(2.0 * random_unit_vector(rng, 8))
    cfg = EstimatorConfig.for_target(0.2, 0.05)
    with pytest.raises(ConfigError, match="norm"):
        estimate_bilinear(A, big, v, ONE, cfg)
    vd = distorted_sampler(random_unit_vector(rng, 8), 0.1, seed=1)
    with pytest.raises(ConfigError, match="zeta"):
        estimate_bilinear(A, u, vd, ONE, cfg)  # 0.1 > eps/8
    too_few = EstimatorConfig(eps=0.2, fail_prob=0.05, samples=5, batches=3)
    with pytest.raises(ConfigError, match="samples"):
        estimate_bilinear(A, u, v, ONE, too_few)
    loud = EvenPolynomial.from_even_coeffs([2.0])
    with pytest.raises(ConfigError, match="polynomial"):
        estimate_bilinear(A, u, v, loud, cfg)


def test_estimate_rejects_a_polynomial_that_evaluates_to_nan(rng, monkeypatch):
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = QueryVector(random_unit_vector(rng, 8))
    v = exact_sampler(random_unit_vector(rng, 8))
    P = EvenPolynomial([0.5, 0.25])
    monkeypatch.setattr(EvenPolynomial, "__call__",
                        lambda self, x: np.full(np.shape(x), np.nan))
    cfg = EstimatorConfig.for_target(0.2, 0.05)
    with pytest.raises(ConfigError, match="polynomial"):
        estimate_bilinear(A, u, v, P, cfg)


def test_estimate_with_distorted_sampler_stays_within_eps(rng):
    A = random_sparse_matrix(rng, 16, 16, 3)
    u = random_unit_vector(rng, 16)
    v = random_unit_vector(rng, 16)
    P = random_even_polynomial(rng, 2)
    eps = 0.2
    vd = distorted_sampler(v, eps / 8, seed=2)
    cfg = EstimatorConfig.for_target(eps, 0.02, zeta=eps / 8, seed=7)
    res = estimate_bilinear(A, QueryVector(u), vd, P, cfg)
    exact = exact_bilinear(A.to_dense(), P, u, v)
    assert abs(res.value - exact) <= eps


def test_bias_and_variance_bounds_small(rng):
    # scaled-down version of the theorem-bound check
    zeta = 0.0125
    A = random_sparse_matrix(rng, 16, 16, 3)
    u = random_unit_vector(rng, 16)
    v = random_unit_vector(rng, 16)
    P = random_even_polynomial(rng, 2)
    vd = distorted_sampler(v, zeta, seed=3)
    draws = sample_values(A, QueryVector(u), vd, P, rng, 100_000)
    exact = exact_bilinear(A.to_dense(), P, u, v)
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) <= 7 * zeta + 3 * se
    bound = (1 + 7 * zeta) ** 2 * 1.05
    assert draws.real.var() <= bound and draws.imag.var() <= bound


def test_query_cost_scaling_single_point(rng):
    from svtkit.cli import bench_point
    point = bench_point(3, 2, 32, seed=1)
    assert point["entry_probes"] <= 8 * point["bound"]


def _scipy_contraction(A):
    """S = 2 A-dagger A - I as scipy's sparse product builds it."""
    import scipy.sparse as sp
    csr = A.csr()
    gram = (csr.conj().T @ csr).tocsr()
    return (2.0 * gram - sp.identity(A.ncols, dtype=complex, format="csr")).tocsr()


def _contraction_cases(rng):
    """(A, dense?) on both sides of the density rule."""
    from conftest import shifted_hamiltonian
    from svtkit.hamiltonian import LocalHamiltonian, LocalTerm, assemble_sparse
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X2 = (g + g.conj().T) / np.linalg.norm(g + g.conj().T, 2)
    from svtkit.rand import planted_sve_instance
    sve, _, _ = planted_sve_instance(rng, 64, 0.5, 0.7, 0.1, 0.1, 0.6, "inside")
    return [
        (SparseMatrix.from_dense(np.diag([1.0, 0.5, 0.2])), True),
        (random_sparse_matrix(rng, 32, 32, 4), True),
        (sve, True),
        (assemble_sparse(shifted_hamiltonian(rng, 6, 2, 5), shift=True), True),
        (assemble_sparse(shifted_hamiltonian(rng, 8, 2, 3), shift=True), True),
        # 2-local terms all on one pair: 4 nonzeros per row, density 1/16
        (assemble_sparse(LocalHamiltonian(8, 2, [LocalTerm((1, 2), 0.25 * X2)]
                                          + [LocalTerm((3,), 0.25 * np.eye(2))]),
                         shift=True), True),
        (random_sparse_matrix(rng, 256, 256, 4), False),
        (random_sparse_matrix(rng, 128, 128, 1), False),
        (random_sparse_matrix(rng, 260, 260, 16), False),
    ]


def test_dense_and_sparse_contractions_agree(rng):
    P = build_threshold_cached(FILTER)
    for A, dense in _contraction_cases(rng):
        S, nnz = _contraction(A)
        assert isinstance(S, np.ndarray) == dense
        ref = _scipy_contraction(A)
        assert nnz == ref.nnz
        u = random_unit_vector(rng, A.ncols)
        steps = P.degree // 2
        svt._last_apply.slot = None
        counter = QueryCounter()
        w = svt._cheb_apply(A, u, P, counter)
        assert np.abs(w - svt._recurrence(ref, u, P.cheb_even())).max() <= 1e-12
        assert counter == QueryCounter(steps * A.ncols, steps * ref.nnz)
        counter = QueryCounter()
        mu = svt._moments(A, u, 366, counter)
        assert np.abs(mu - svt._moment_pass(ref, u, 366)).max() <= 1e-12
        assert counter == QueryCounter(183 * A.ncols, 183 * ref.nnz)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
       fill=st.floats(0.0, 1.0), integer=st.booleans())
def test_dense_contraction_holds_scipy_values(seed, n, fill, integer):
    # small integer entries make entries of A-dagger A cancel exactly, which
    # only the same sums in the same order reproduce
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense[rng.random((n, n)) >= fill] = 0
    if integer:
        dense = np.round(dense)
    if not dense.any():
        return
    A = SparseMatrix.from_dense(dense)
    S, nnz = svt._dense_contraction(A)  # whichever side of the rule A is on
    ref = _scipy_contraction(A)
    assert nnz == ref.nnz and np.array_equal(S, ref.toarray())


def test_dense_contraction_in_row_blocks(rng, monkeypatch):
    # blocks of one or a few rows sum in the same order as one block
    A = SparseMatrix.from_dense(np.round(2 * rng.normal(size=(40, 24))) + 1j)
    ref = _scipy_contraction(A)
    for pairs in (1, 600, 1 << 16):
        monkeypatch.setattr(svt, "PAIR_BLOCK", pairs)
        S, nnz = svt._dense_contraction(A)
        assert nnz == ref.nnz and np.array_equal(S, ref.toarray())


def test_norm_above_one_raises_on_the_dense_contraction():
    from svtkit.sve import SveProblem, decide_singular_interval
    bad = SparseMatrix.from_dense(np.diag([1.02, 0.5, 0.2]))
    assert isinstance(_contraction(bad)[0], np.ndarray)  # N = 3 is dense
    P = build_threshold_cached(SCAN_FILTER, degree_cap=4096)
    u = np.ones(3) / np.sqrt(3.0)
    uq = QueryVector(u)
    cfg = EstimatorConfig.for_target(0.25, 0.05, seed=1)
    problem = SveProblem(matrix=bad, guide=exact_sampler(u), t1=0.5,
                         t2=0.71875, theta1=0.5, theta2=0.03125, delta=0.5)
    calls = [lambda: svt_entry(bad, uq, P, 1),
             lambda: svt_entries(bad, uq, P, [1, 2, 3]),
             lambda: estimate_bilinear(bad, uq, exact_sampler(u), P, cfg)]
    calls += [lambda mode=mode: decide_singular_interval(
        problem, degree_cap=4096, contraction=mode) for mode in ("exact", "sampled")]
    for call in calls:
        svt._last_apply.slot = None
        with pytest.raises(ConfigError, match="exceeds 1"):
            call()
