import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svtkit.access import SparseMatrix, distorted_sampler, exact_sampler
from svtkit.errors import ConfigError
from svtkit.hamiltonian import (HIGH, LOW, GlhProblem, LocalHamiltonian, LocalTerm,
                                assemble_sparse, decide_glh)
from svtkit.oracle import DenseSvd, exact_bilinear, exact_projector
from svtkit.polynomial import CERT_TOLERANCE, build_threshold_cached
from svtkit.rand import planted_sve_instance, random_unit_vector
from svtkit.sve import HAS_SV, NO_SV, SveProblem, decide_singular_interval


def _problem(A, guide, delta=0.9, t1=0.5, t2=0.7):
    return SveProblem(matrix=A, guide=exact_sampler(guide), t1=t1, t2=t2,
                      theta1=0.1, theta2=0.1, delta=delta)


def test_has_sv_diagonal():
    A = SparseMatrix.from_dense(np.diag([0.6, 0.1]))
    res = decide_singular_interval(_problem(A, np.eye(2)[0]), seed=1)
    assert res.decision == HAS_SV


def test_no_sv_diagonal():
    A = SparseMatrix.from_dense(np.diag([0.2, 0.1]))
    res = decide_singular_interval(_problem(A, np.eye(2)[0]), seed=2)
    assert res.decision == NO_SV


def test_decision_threshold_margins():
    # the proof bounds 2 delta^2/3 and delta^2/3 sit at least eps = delta^2/7
    # away from the midpoint cut delta^2/2
    for delta in (0.3, 0.6, 1.0):
        gap_hi = 2 * delta ** 2 / 3 - delta ** 2 / 2
        gap_lo = delta ** 2 / 2 - delta ** 2 / 3
        assert gap_hi >= delta ** 2 / 7 - 1e-15
        assert gap_lo >= delta ** 2 / 7 - 1e-15


def test_planted_instances_decided_and_separated(rng):
    t1, t2, theta, delta = 0.5, 0.7, 0.1, 0.6
    correct = 0
    for k in range(10):
        case = "inside" if k % 2 == 0 else "outside"
        A, guide, sig = planted_sve_instance(rng, 32, t1, t2, theta, theta,
                                             delta, case)
        problem = SveProblem(matrix=A, guide=exact_sampler(guide), t1=t1,
                             t2=t2, theta1=theta, theta2=theta, delta=delta)
        # deterministic heart of the proof, before any sampling
        P = build_threshold_cached(problem.threshold_spec())
        exact = exact_bilinear(A.to_dense(), P, guide, guide).real
        if case == "inside":
            assert exact >= 2 * delta ** 2 / 3 - 1e-9
        else:
            assert exact <= delta ** 2 / 3 + 1e-9
        res = decide_singular_interval(problem, fail_prob=0.01, seed=100 + k)
        want = HAS_SV if case == "inside" else NO_SV
        correct += res.decision == want
        assert abs(res.estimate.imag) < problem.eps
    assert correct == 10


def test_overlap_monotonicity(rng):
    # replacing noise mass with in-subspace mass never lowers the
    # deterministic value below a correct HAS_SV level
    t1, t2, theta = 0.5, 0.7, 0.1
    A, guide, sig = planted_sve_instance(rng, 24, t1, t2, theta, theta,
                                         0.5, "inside")
    problem = SveProblem(matrix=A, guide=exact_sampler(guide), t1=t1, t2=t2,
                         theta1=theta, theta2=theta, delta=0.5)
    P = build_threshold_cached(problem.threshold_spec())
    from svtkit.oracle import exact_projector
    proj = exact_projector(A.to_dense(), t1, t2)
    inside = proj @ guide
    inside /= np.linalg.norm(inside)
    prev = exact_bilinear(A.to_dense(), P, guide, guide).real
    for delta2 in (0.7, 0.9, 1.0):
        mixed = delta2 * inside + np.sqrt(1 - delta2 ** 2) * (guide - proj @ guide) \
            / max(np.linalg.norm(guide - proj @ guide), 1e-30)
        val = exact_bilinear(A.to_dense(), P, mixed, mixed).real
        assert val >= prev - 1e-9
        prev = val


def test_zeta_cap_enforced(rng):
    A, guide, _ = planted_sve_instance(rng, 16, 0.5, 0.7, 0.1, 0.1, 0.5,
                                       "inside")
    noisy = distorted_sampler(guide, 0.1, seed=1)  # 0.1 > delta^2/56
    with pytest.raises(ConfigError, match="zeta"):
        SveProblem(matrix=A, guide=noisy, t1=0.5, t2=0.7, theta1=0.1,
                   theta2=0.1, delta=0.5)


def test_interval_validation(rng):
    A, guide, _ = planted_sve_instance(rng, 16, 0.5, 0.7, 0.1, 0.1, 0.5,
                                       "inside")
    g = exact_sampler(guide)
    with pytest.raises(ConfigError):
        SveProblem(matrix=A, guide=g, t1=0.7, t2=0.5, theta1=0.1, theta2=0.1,
                   delta=0.5)
    with pytest.raises(ConfigError):
        SveProblem(matrix=A, guide=g, t1=0.5, t2=0.95, theta1=0.1,
                   theta2=0.1, delta=0.5)
    with pytest.raises(ConfigError):
        SveProblem(matrix=A, guide=g, t1=0.5, t2=0.7, theta1=0.1, theta2=0.1,
                   delta=1.5)


def test_result_reports_degree_and_samples(rng):
    A, guide, _ = planted_sve_instance(rng, 16, 0.5, 0.7, 0.1, 0.1, 0.6,
                                       "inside")
    problem = SveProblem(matrix=A, guide=exact_sampler(guide), t1=0.5, t2=0.7,
                         theta1=0.1, theta2=0.1, delta=0.6)
    res = decide_singular_interval(problem, seed=3)
    assert res.degree > 0
    assert res.estimator.total_samples == res.estimator.samples * res.estimator.batches
    assert res.decision_threshold == 0.6 ** 2 / 2


@pytest.mark.parametrize("contraction", ["exact", "sampled"])
def test_norm_above_one_raises_in_both_modes(contraction):
    # the gap decisions' degree-730 filter; ConfigError every time, so a
    # failed contraction is never cached, and no RuntimeWarning on the way
    u = np.ones(3) / np.sqrt(3.0)
    for top in (1.02, 1.5):
        A = SparseMatrix.from_dense(np.diag([top, 0.5, 0.2]))
        problem = SveProblem(matrix=A, guide=exact_sampler(u), t1=0.5,
                             t2=0.71875, theta1=0.5, theta2=0.03125, delta=0.5)
        for _ in range(2):
            with pytest.raises(ConfigError, match="exceeds 1"):
                decide_singular_interval(problem, contraction=contraction)


def test_norm_barely_above_one_passes_exact_mode_only():
    # sigma_max = 1 + 2.6e-5, where T_365(2 sigma^2 - 1) = 100, with guide
    # weight 1e-4: its share 1e-4 T_r^2 of ||T_r u||^2 reaches 1 by r = 365,
    # so the sampled path raises, but the moment pass only checks ||T_k u||^2 to
    # k = 183 and moments linear in T_r to r = 365, which stay inside the
    # bound, so exact mode returns the exact form of this A (documented
    # in decide_singular_interval)
    lam_top = np.cosh(np.arccosh(100.0) / 365)
    sigma = np.concatenate([[np.sqrt((lam_top + 1) / 2)],
                            np.linspace(0.1, 0.9, 15)])
    u = np.full(16, np.sqrt((1 - 1e-4) / 15))
    u[0] = 1e-2
    A = SparseMatrix.from_dense(np.diag(sigma))
    problem = SveProblem(matrix=A, guide=exact_sampler(u), t1=0.5,
                         t2=0.71875, theta1=0.5, theta2=0.03125, delta=0.5)
    P = build_threshold_cached(problem.threshold_spec())
    want = exact_bilinear(np.diag(sigma), P, u, u).real
    for _ in range(2):
        res = decide_singular_interval(problem)
        assert res.degree == 730
        assert abs(res.estimate.real - want) <= 1e-12
        with pytest.raises(ConfigError, match="exceeds 1"):
            decide_singular_interval(problem, contraction="sampled")


def test_unknown_contraction_is_rejected(rng):
    A, guide, _ = planted_sve_instance(rng, 16, 0.5, 0.7, 0.1, 0.1, 0.6,
                                       "inside")
    with pytest.raises(ConfigError, match="contraction"):
        decide_singular_interval(_problem(A, guide, delta=0.6),
                                 contraction="dense")


@pytest.mark.parametrize("contraction", ["exact", "sampled"])
def test_margin_sign_agrees_with_decision(rng, contraction):
    for k in range(6):
        case = "inside" if k % 2 == 0 else "outside"
        A, guide, _ = planted_sve_instance(rng, 24, 0.5, 0.7, 0.1, 0.1, 0.6,
                                           case)
        problem = _problem(A, guide, delta=0.6)
        res = decide_singular_interval(problem, seed=k, contraction=contraction)
        assert res.margin == ((res.estimate.real - problem.decision_threshold)
                              / problem.eps)
        assert (res.margin > 0) == (res.decision == HAS_SV)
        if contraction == "exact":  # the filter's separation, 7/6 eps each side
            assert abs(res.margin) >= 7 / 6 - 1e-9
            assert res.estimate.imag == 0.0 and not res.warnings


def _margin_floor(delta):
    """7/6, less what the certificate's tolerance on P can take off a
    margin in units of eps = delta^2 / 7."""
    return 7 / 6 - 7 * CERT_TOLERANCE / delta ** 2 - 1e-12


def _band_minimum(P, lo, hi):
    """The point of the open band (lo, hi) where P is smallest, on a grid."""
    xs = np.linspace(lo, hi, 2001)[1:-1]
    return xs[np.argmin(P(xs))]


@st.composite
def _promise_specs(draw):
    """(t1, t2, theta1, theta2, delta) with each theta in [0.03, 0.45]."""
    theta1, theta2 = draw(st.floats(0.03, 0.45)), draw(st.floats(0.03, 0.45))
    t1 = draw(st.floats(theta1, 1.0 - theta2))
    t2 = draw(st.floats(t1, 1.0 - theta2))
    return t1, t2, theta1, theta2, draw(st.floats(0.3, 1.0))


@settings(max_examples=40, deadline=None)
@given(spec=_promise_specs(), edge=st.sampled_from(["i-t1", "i-t2", "ii-lo", "ii-hi"]),
       n=st.integers(2, 64))
@example(spec=(0.3, 0.5, 0.3, 0.2, 0.7), edge="ii-lo", n=2)  # t1 - theta1 = 0
@example(spec=(0.3, 0.5, 0.3, 0.2, 0.7), edge="i-t1", n=2)
@example(spec=(0.4, 0.6, 0.1, 0.4, 0.7), edge="ii-hi", n=3)  # t2 + theta2 = 1
@example(spec=(0.4, 0.6, 0.1, 0.4, 0.7), edge="i-t2", n=3)
@example(spec=(0.1, 0.3, 0.1, 0.7, 0.6), edge="i-t1", n=4)  # needs the rescale
@example(spec=(0.2996968926280026, 0.828125, 0.03, 0.1640625, 0.8203125), edge="i-t1", n=2)
def test_exact_mode_decides_at_the_edges_of_the_promise(spec, edge, n):
    # diagonal A, so the singular values sit exactly where they are put;
    # padding zeros carry no guide weight and lie outside the open
    # interval (t1 - theta1, t2 + theta2) in either case
    t1, t2, theta1, theta2, delta = spec
    P = build_threshold_cached(SveProblem(
        matrix=SparseMatrix.from_dense(np.eye(1)), guide=exact_sampler([1.0]),
        t1=t1, t2=t2, theta1=theta1, theta2=theta2, delta=delta).threshold_spec())
    sigma, u = np.zeros(n), np.zeros(n)
    if edge.startswith("i-"):
        # overlap exactly delta at a plateau edge, the rest where P is
        # smallest in the transition bands
        sigma[0] = t1 if edge == "i-t1" else t2
        bands = [_band_minimum(P, t1 - theta1, t1), _band_minimum(P, t2, t2 + theta2)]
        sigma[1] = min(bands, key=P)
        u[0], u[1] = delta, np.sqrt(1.0 - delta ** 2)
    else:  # all weight on a singular value at an outer edge
        sigma[0] = t1 - theta1 if edge == "ii-lo" else t2 + theta2
        u[0] = 1.0
    A = SparseMatrix.from_dense(np.diag(sigma))
    res = decide_singular_interval(SveProblem(
        matrix=A, guide=exact_sampler(u), t1=t1, t2=t2, theta1=theta1,
        theta2=theta2, delta=delta))
    # the dense oracle confirms the promise, up to the rounding of its
    # SVD (which returns t2 = 0.634765625 as one ulp more), and the form
    dense, ulps = A.to_dense(), 1e-12
    if edge.startswith("i-"):
        inside = exact_projector(dense, t1 - ulps, t2 + ulps) @ u
        assert np.linalg.norm(inside) >= delta - 1e-12
    else:
        s = DenseSvd.compute(dense).sigma
        assert not np.any((s > t1 - theta1 + ulps) & (s < t2 + theta2 - ulps))
    assert abs(res.estimate.real - exact_bilinear(dense, P, u, u).real) <= 1e-12
    assert res.decision == (HAS_SV if edge.startswith("i-") else NO_SV)
    assert abs(res.margin) >= _margin_floor(delta)


@st.composite
def _glh_thresholds(draw):
    """(a, b) with b - a >= 0.12, so that theta2 = (b - a)/4 >= 0.03."""
    a = draw(st.floats(-1.0, 0.88))
    return a, draw(st.floats(a + 0.12, 1.0))


@settings(max_examples=20, deadline=None)
@given(ab=_glh_thresholds(), delta=st.floats(0.3, 1.0), at=st.sampled_from("ab"))
@example(ab=(-1.0, -0.75), delta=0.5, at="a")
@example(ab=(0.5, 1.0), delta=0.9, at="b")
def test_glh_decides_a_ground_energy_at_a_threshold(ab, delta, at):
    # one qubit, H = diag(lambda_H, mu): (H + 3I)/4 puts lambda_H = a at
    # sigma = (3 + a)/4 = t2 exactly, and lambda_H = b at t2 + theta2
    a, b = ab
    spec = SveProblem(matrix=SparseMatrix.from_dense(np.eye(1)),
                      guide=exact_sampler([1.0]), t1=0.5, t2=(3.0 + a) / 4.0,
                      theta1=0.5, theta2=(b - a) / 4.0, delta=delta).threshold_spec()
    P = build_threshold_cached(spec)
    if at == "a":  # overlap exactly delta, the rest where P is smallest above a
        mu = 4.0 * _band_minimum(P, spec.t2, spec.t2 + spec.theta2) - 3.0
        H = LocalHamiltonian(1, 1, [LocalTerm((1,), np.diag([a, mu]))])
        u = np.array([delta, np.sqrt(1.0 - delta ** 2)])
    else:
        H = LocalHamiltonian(1, 1, [LocalTerm((1,), np.diag([b, 1.0]))])
        u = np.array([1.0, 0.0])
    shifted = assemble_sparse(H, shift=True)
    if at == "a":
        assert shifted.to_dense()[0, 0] == spec.t2  # bit for bit
    d = decide_glh(GlhProblem(hamiltonian=H, guide=exact_sampler(u), delta=delta,
                              a=a, b=b))
    exact = exact_bilinear(shifted.to_dense(), P, u, u).real
    assert abs(d.sve.estimate.real - exact) <= 1e-12
    assert d.decision == (LOW if at == "a" else HIGH)
    assert abs(d.sve.margin) >= _margin_floor(delta)


def _binomial_cutoff(n, p, tail=1e-6):
    """Smallest m with P[Bin(n, p) >= m] <= tail, in exact arithmetic."""
    from fractions import Fraction
    from math import comb
    p = Fraction(p)
    left = Fraction(1)  # P[Bin(n, p) >= m] for m = 0, 1, ...
    for m in range(n + 1):
        if left <= tail:
            return m
        left -= comb(n, m) * p ** m * (1 - p) ** (n - m)
    return n + 1


def _rotated_edge_instance(rng, spec, edge, n):
    """(A, u) for an edge of the promise, as in the exact-mode test, with
    random unitary singular vectors so that the guide spreads over all n
    entries and its samples vary."""
    t1, t2, theta1, theta2, delta = spec
    P = build_threshold_cached(SveProblem(
        matrix=SparseMatrix.from_dense(np.eye(1)), guide=exact_sampler([1.0]),
        t1=t1, t2=t2, theta1=theta1, theta2=theta2, delta=delta).threshold_spec())
    sigma, weights = np.zeros(n), np.zeros(n)
    if edge.startswith("i-"):
        sigma[0] = t1 if edge == "i-t1" else t2
        bands = [_band_minimum(P, t1 - theta1, t1), _band_minimum(P, t2, t2 + theta2)]
        sigma[1] = min(bands, key=P)
        weights[0], weights[1] = delta, np.sqrt(1.0 - delta ** 2)
    else:
        sigma[0] = t1 - theta1 if edge == "ii-lo" else t2 + theta2
        weights[0] = 1.0
    U, V = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            for _ in range(2))
    return SparseMatrix.from_dense(U @ np.diag(sigma) @ V.conj().T), V @ weights, P


def test_sampled_mode_misdecides_within_a_binomial_bound(rng):
    # each sampled decision on an edge instance is wrong with probability
    # at most fail_prob, independently across seeds, so the count of
    # misdecisions over all of them reaches the cutoff m of
    # Bin(decisions, fail_prob) with probability at most 1e-6; fail_prob
    # 0.2 takes the median of 3 batches
    fail_prob, seeds = 0.2, 100
    specs = [(0.3, 0.5, 0.3, 0.2, 0.7),   # t1 - theta1 = 0
             (0.4, 0.6, 0.1, 0.4, 0.7)]   # t2 + theta2 = 1
    misses, decisions = 0, 0
    for spec in specs:
        t1, t2, theta1, theta2, delta = spec
        for edge in ("i-t1", "i-t2", "ii-lo", "ii-hi"):
            A, u, P = _rotated_edge_instance(rng, spec, edge, 16)
            dense = A.to_dense()
            # the dense oracle confirms the promise, with the exact form
            # at least 7/6 eps on the decided side
            if edge.startswith("i-"):
                inside = exact_projector(dense, t1 - 1e-12, t2 + 1e-12) @ u
                assert np.linalg.norm(inside) >= delta - 1e-12
            else:
                s = DenseSvd.compute(dense).sigma
                assert not np.any((s > t1 - theta1 + 1e-12) & (s < t2 + theta2 - 1e-12))
            problem = SveProblem(matrix=A, guide=exact_sampler(u), t1=t1, t2=t2,
                                 theta1=theta1, theta2=theta2, delta=delta)
            want = HAS_SV if edge.startswith("i-") else NO_SV
            exact = exact_bilinear(dense, P, u, u).real
            margin = (exact - problem.decision_threshold) / problem.eps
            assert (margin > 0) == (want == HAS_SV)
            assert abs(margin) >= _margin_floor(delta) - 1e-9
            for _ in range(seeds):
                res = decide_singular_interval(problem, fail_prob=fail_prob,
                                               seed=decisions,
                                               contraction="sampled")
                assert res.estimator.batches == 3
                misses += res.decision != want
                decisions += 1
    assert misses < _binomial_cutoff(decisions, fail_prob)
