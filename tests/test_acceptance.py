"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.  All seeds are fixed; every expected value comes from the
dense oracle or from explicit construction.
"""

import time

import numpy as np
import pytest

from svtkit.access import QueryVector, distorted_sampler, exact_sampler
from svtkit.cli import bench_point
from svtkit.hamiltonian import GlhProblem, estimate_ground_energy, ground_overlap
from svtkit.kitaev import (GATES, Circuit, Gate, build_gadget_pair,
                           build_terms, history_state, verify_gap_lemma)
from svtkit.oracle import exact_bilinear, exact_ground, exact_svt_apply
from svtkit.polynomial import (ThresholdSpec, build_threshold_cached,
                               verify_threshold)
from svtkit.rand import (planted_sve_instance, random_even_polynomial,
                         random_sparse_matrix, random_unit_vector)
from svtkit.sve import HAS_SV, NO_SV, SveProblem, decide_singular_interval
from svtkit.svt import (EstimatorConfig, chain_entry, estimate_bilinear,
                        sample_values, svt_entry)

from conftest import shifted_hamiltonian
from svtkit.rand import guide_with_ground_overlap


def _report(name, ok, detail):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_deterministic_core():
    """chain_entry and svt_entry match the dense oracle to 1e-10 relative
    error over >= 200 random instances (N <= 64, s <= 4, chains <= 8)."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    n_instances = 0
    for trial in range(120):  # chain instances
        n = int(rng.choice([8, 16, 32, 64]))
        s = int(rng.integers(2, 5))
        length = int(rng.integers(1, 9))
        mats = [random_sparse_matrix(rng, n, n, s) for _ in range(length)]
        u = random_unit_vector(rng, n)
        dense = mats[0].to_dense()
        for m in mats[1:]:
            dense = dense @ m.to_dense()
        expected = dense @ u
        scale = max(np.abs(expected).max(), 1e-30)
        uq = QueryVector(u)
        for i in rng.integers(1, n + 1, size=6):
            err = abs(chain_entry(mats, uq, int(i)) - expected[i - 1]) / scale
            worst = max(worst, err)
        n_instances += 1
    for trial in range(80):  # svt instances
        n = int(rng.choice([8, 16, 32, 64]))
        s = int(rng.integers(2, 5))
        d = int(rng.integers(0, 4))
        A = random_sparse_matrix(rng, n, n, s)
        u = random_unit_vector(rng, n)
        P = random_even_polynomial(rng, d)
        expected = exact_svt_apply(A.to_dense(), P, u)
        scale = max(np.abs(expected).max(), 1e-30)
        uq = QueryVector(u)
        for i in rng.integers(1, n + 1, size=6):
            err = abs(svt_entry(A, uq, P, int(i)) - expected[i - 1]) / scale
            worst = max(worst, err)
        n_instances += 1
    elapsed = time.time() - t0
    _report("criterion 1 (deterministic core)",
            worst <= 1e-10 and elapsed < 60 and n_instances == 200,
            f"{n_instances} instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_estimator_contract():
    """>= 99 of 100 estimates within eps = 0.1 of the dense bilinear value
    (N = 256, s = 4, d <= 6, zeta = 0, fail_prob = 0.01)."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    hits = 0
    worst = 0.0
    for trial in range(100):
        A = random_sparse_matrix(rng, 256, 256, 4)
        u = random_unit_vector(rng, 256)
        v = random_unit_vector(rng, 256)
        P = random_even_polynomial(rng, int(rng.integers(1, 7)))
        exact = exact_bilinear(A.to_dense(), P, u, v)
        cfg = EstimatorConfig.for_target(0.1, 0.01, seed=1000 + trial)
        res = estimate_bilinear(A, QueryVector(u), exact_sampler(v), P, cfg)
        err = abs(res.value - exact)
        worst = max(worst, err)
        hits += err <= 0.1
    elapsed = time.time() - t0
    _report("criterion 2 (estimator contract)",
            hits >= 99 and elapsed < 600,
            f"{hits}/100 within eps, worst err {worst:.3f}, {elapsed:.0f}s")


def test_criterion_3_bias_variance_bounds():
    """Adversarial zeta = eps/8 sampler: single-sample mean within
    7 zeta + 3 SE of exact; per-component variance <= (1+7 zeta)^2 1.05."""
    eps = 0.1
    zeta = eps / 8.0
    count = 1_000_000
    rng = np.random.default_rng(303)
    bias_ok = var_ok = True
    worst_bias_margin = -np.inf
    worst_var = 0.0
    for trial in range(10):
        n = int(rng.choice([16, 32, 64]))
        A = random_sparse_matrix(rng, n, n, 4)
        u = random_unit_vector(rng, n)
        v = random_unit_vector(rng, n)
        P = random_even_polynomial(rng, int(rng.integers(1, 4)))
        vd = distorted_sampler(v, zeta, seed=7000 + trial)
        exact = exact_bilinear(A.to_dense(), P, u, v)
        draws = sample_values(A, QueryVector(u), vd, P,
                              np.random.default_rng(500 + trial), count)
        se = np.sqrt(draws.real.var() + draws.imag.var()) / np.sqrt(count)
        bias = abs(draws.mean() - exact)
        bias_ok &= bias <= 7 * zeta + 3 * se
        worst_bias_margin = max(worst_bias_margin, bias - 7 * zeta)
        bound = (1 + 7 * zeta) ** 2 * 1.05
        vre, vim = draws.real.var(), draws.imag.var()
        var_ok &= vre <= bound and vim <= bound
        worst_var = max(worst_var, vre, vim)
    _report("criterion 3 (bias/variance bounds)", bias_ok and var_ok,
            f"worst bias-7zeta {worst_bias_margin:.2e}, worst var {worst_var:.3f} "
            f"vs bound {(1 + 7 * zeta) ** 2 * 1.05:.3f}")


SWEEP = [ThresholdSpec(0.5, 0.7, 0.1, 0.1, chi)
         for chi in (0.2, 0.1, 0.05, 0.01)] + \
        [ThresholdSpec(0.4, 0.6, 0.2, 0.2, chi)
         for chi in (0.2, 0.1, 0.05, 0.01)] + \
        [ThresholdSpec(0.45, 0.55, 0.3, 0.3, chi)
         for chi in (0.2, 0.1, 0.05, 0.01)]

DEGREE_CONSTANT = 8.0


def test_criterion_4_threshold_certification():
    """12-point sweep (including (0.5, 0.7, 0.1, 0.1, 0.01)): zero grid
    violations beyond 1e-9 and degree <= C (1/theta1 + 1/theta2) log(1/chi)
    for the single constant C = 8."""
    assert ThresholdSpec(0.5, 0.7, 0.1, 0.1, 0.01) in SWEEP
    worst_violation = -np.inf
    worst_ratio = 0.0
    for spec in SWEEP:
        P = build_threshold_cached(spec)
        report = verify_threshold(P, spec, grid=10_000)
        worst_violation = max(worst_violation, report.bound_violation,
                              report.plateau_violation, report.outer_violation)
        budget = (1 / spec.theta1 + 1 / spec.theta2) * np.log(1 / spec.chi)
        worst_ratio = max(worst_ratio, P.degree / budget)
    _report("criterion 4 (threshold certification)",
            worst_violation <= 1e-9 and worst_ratio <= DEGREE_CONSTANT,
            f"12 specs, worst violation {worst_violation:.2e}, "
            f"measured degree constant {worst_ratio:.2f} <= {DEGREE_CONSTANT}")


def _criterion_5(contraction):
    rng = np.random.default_rng(505)
    t0 = time.time()
    t1v, t2v, theta, delta = 0.5, 0.7, 0.1, 0.6
    P = build_threshold_cached(ThresholdSpec(t1v, t2v, theta, theta,
                                             delta ** 2 / 3))
    correct = 0
    separation_ok = True
    for k in range(100):
        case = "inside" if k < 50 else "outside"
        A, guide, _ = planted_sve_instance(rng, 64, t1v, t2v, theta, theta,
                                           delta, case)
        exact = exact_bilinear(A.to_dense(), P, guide, guide).real
        if case == "inside":
            separation_ok &= exact >= 2 * delta ** 2 / 3 - 1e-9
        else:
            separation_ok &= exact <= delta ** 2 / 3 + 1e-9
        problem = SveProblem(matrix=A, guide=exact_sampler(guide), t1=t1v,
                             t2=t2v, theta1=theta, theta2=theta, delta=delta)
        res = decide_singular_interval(problem, fail_prob=0.01, seed=9000 + k,
                                       contraction=contraction)
        correct += res.decision == (HAS_SV if case == "inside" else NO_SV)
    elapsed = time.time() - t0
    _report(f"criterion 5 (SVE decisions, {contraction})",
            correct >= 99 and separation_ok,
            f"{correct}/100 correct, separation holds on all, {elapsed:.0f}s")


def test_criterion_5_sve_decisions():
    """50 planted HAS + 50 planted NO instances (N = 64, delta = 0.6,
    theta = 0.1) decided with >= 99% accuracy by the paper's sampled
    contraction; the deterministic value obeys the 2 delta^2/3 vs
    delta^2/3 separation on every instance."""
    _criterion_5("sampled")


def test_criterion_5_sve_decisions_exact():
    """Criterion 5 on the same instances with the exact moment
    contraction, the default of decide_singular_interval."""
    _criterion_5("exact")


def _criterion_6(contraction):
    rng = np.random.default_rng(606)
    t0 = time.time()
    hits = 0
    for trial in range(40):
        n = int(rng.choice([4, 5, 6]))
        H = shifted_hamiltonian(rng, n, 2, int(rng.integers(3, 7)))
        lam = float(np.linalg.eigvalsh(H.to_dense())[0])
        guide = guide_with_ground_overlap(rng, H, 0.5)
        problem = GlhProblem(hamiltonian=H, guide=exact_sampler(guide),
                             delta=0.5, eps=0.25)
        est = estimate_ground_energy(problem, fail_prob=0.05,
                                     seed=4000 + trial, contraction=contraction)
        hits += abs(est.value - lam) <= 0.25
    elapsed = time.time() - t0
    _report(f"criterion 6 (GLH estimation, {contraction})",
            hits >= 38 and elapsed < 900,
            f"{hits}/40 within eps, {elapsed:.0f}s")


def test_criterion_6_glh_estimation():
    """40 random 2-local Hamiltonians (n <= 6), guides at overlap 0.5,
    eps = 0.25: estimates by the paper's sampled contraction within eps
    of the dense ground energy in >= 95% of runs."""
    _criterion_6("sampled")


def test_criterion_6_glh_estimation_exact():
    """Criterion 6 on the same instances with the exact moment
    contraction, the default of estimate_ground_energy."""
    _criterion_6("exact")


def test_criterion_7_kitaev_identities():
    """Generated instances: history zero energy, guide overlap
    N/(2(M+1)), NO-case block identities, gap lemma, all to 1e-10."""
    x_circ = Circuit(1, 1, [Gate("X", (2,), GATES["X"])])
    z_circ = Circuit(1, 1, [Gate("Z", (2,), GATES["Z"])])
    idle = Circuit(1, 1, [])
    two_wire = Circuit(2, 1, [Gate("CNOT", (1, 3), GATES["CNOT"]),
                              Gate("H", (2,), GATES["H"])])
    checks = []

    pairs = [build_gadget_pair(x_circ, "0", idle, "0", 1, delta_weight=1.0),
             build_gadget_pair(x_circ, "0", z_circ, "0", 2, delta_weight=1.0)]
    instances = [inst for pair in pairs for inst in pair]

    for circ, x, n_idle in ((x_circ, "0", 1), (z_circ, "0", 2),
                            (idle, "1", 4), (two_wire, "10", 2)):
        h_in, h_prop, h_out, h_stab = build_terms(circ, x, n_idle)
        psi = history_state(circ, x, n_idle)
        zero = abs(np.vdot(psi, (h_in.to_dense() + h_prop.to_dense()
                                 + h_stab.to_dense()) @ psi))
        checks.append(("history zero energy", zero <= 1e-10, zero))
        gap = verify_gap_lemma(circ, x, n_idle)  # raises if bound violated
        checks.append(("gap lemma", gap > 0, gap))

    for inst in instances:
        ov = abs(np.vdot(inst.guide.base.dense(),
                         inst.history_with_flag())) ** 2
        err = abs(ov - inst.guide_overlap_target)
        checks.append(("guide overlap identity", err <= 1e-10, err))

    for _, no_inst in pairs:
        assert no_inst.no_case
        lam, _ = exact_ground(no_inst.hamiltonian.to_dense())
        err = abs(lam * no_inst.normalization - no_inst.zero_block_level)
        checks.append(("NO-case ground level", err <= 1e-10, err))
        ov = abs(np.vdot(no_inst.no_block_ground(),
                         no_inst.guide.base.dense()))
        err2 = abs(ov - 1 / np.sqrt(2))
        checks.append(("NO-case 0-block overlap", err2 <= 1e-10, err2))

    bad = [c for c in checks if not c[1]]
    _report("criterion 7 (clock-construction identities)", not bad,
            f"{len(checks)} identities checked, failures: {bad}")


def test_criterion_8_cost_scaling():
    """svt_entry query counts fit <= C s^(2d) across s in {2,3,4},
    d in {1,2,3} for the single constant C = 8."""
    rows = []
    for s in (2, 3, 4):
        for d in (1, 2, 3):
            rows.append(bench_point(s, d, 64, seed=11))
    worst = max(r["ratio"] for r in rows)
    _report("criterion 8 (query-cost scaling)", worst <= 8.0,
            f"9 sweep points, measured constant {worst:.2f} <= 8")
