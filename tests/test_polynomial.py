import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval
from numpy.testing import assert_allclose

from svtkit.errors import ConstructionError, ParseError
from svtkit.polynomial import (EvenPolynomial, OddPolynomial, ThresholdSpec,
                               _clenshaw, _erfinv, _even_interpolant,
                               _shifted_sum, build_sign_approx,
                               build_threshold, load_polynomial,
                               save_polynomial, verify_threshold)

SPEC = ThresholdSpec(0.5, 0.7, 0.1, 0.1, 0.01)


def test_eval_constant_and_square():
    one = EvenPolynomial.from_even_coeffs([1.0])
    assert one(0.7) == 1.0
    sq = EvenPolynomial.from_even_coeffs([0.0, 1.0])
    assert abs(sq(-0.5) - 0.25) < 1e-15


def test_eval_matches_naive_monomial_sum(rng):
    coeffs = rng.normal(size=5)  # degree 8
    P = EvenPolynomial.from_even_coeffs(coeffs)
    xs = rng.uniform(-1, 1, size=100)
    naive = sum(c * xs ** (2 * r) for r, c in enumerate(coeffs))
    assert_allclose(P(xs), naive, rtol=1e-13)


@st.composite
def _points(draw):
    """A Python float, a 0-d array, or a grid of 1-20,000 points of [-1, 1]
    that starts with as many of -1, 0 and 1 as it has room for."""
    kind = draw(st.sampled_from(["scalar", "0-d", "grid"]))
    if kind != "grid":
        x = draw(st.floats(-1.0, 1.0))
        return x if kind == "scalar" else np.asarray(x)
    size = draw(st.integers(1, 20_000))
    rest = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 1.0, max(size - 3, 0))
    return np.concatenate([[-1.0, 0.0, 1.0][:size], rest])


@settings(max_examples=60, deadline=None)
@given(x=_points(), count=st.integers(1, 800), seed=st.integers(0, 2**32 - 1))
@example(x=np.linspace(-1.0, 1.0, 19_999), count=800, seed=0)
@example(x=np.linspace(-1.0, 1.0, 10_001), count=366, seed=1)  # degree 730
def test_clenshaw_kernel_equals_chebval_bit_for_bit(x, count, seed):
    c = np.random.default_rng(seed).standard_normal(count)
    assert np.array_equal(_clenshaw(x, c), chebval(x, c))
    assert np.array_equal(EvenPolynomial(c)(x), chebval(2.0 * x * x - 1.0, c))
    odd = c.copy()
    odd[0::2] = 0.0
    assert np.array_equal(OddPolynomial(c)(2.0 * x), chebval(x, odd))


def test_evenness_is_structural(rng):
    P = build_threshold(SPEC)
    xs = rng.uniform(-1, 1, size=1000)
    assert np.all(P(xs) == P(-xs))


def test_oddness_is_structural(rng):
    P = build_sign_approx(0.5, 0.1)
    xs = rng.uniform(-2, 2, size=1000)
    assert np.all(P(xs) == -P(-xs))
    assert P(0.0) == 0.0


def test_sign_approx_boxes_hold_on_grid():
    eta, xi = 0.5, 0.1
    P = build_sign_approx(eta, xi)
    xs = np.linspace(-2, 2, 10_000)
    vals = P(xs)
    assert np.abs(vals).max() <= 1 + 1e-9
    assert vals[xs >= eta].min() >= 1 - xi - 1e-9
    assert vals[xs <= -eta].max() <= -1 + xi + 1e-9


def test_sign_approx_degree_bound():
    # measured implementation constant: degree <= C log(1/xi) / eta, C = 6
    eta, xi = 0.25, 0.01
    P = build_sign_approx(eta, xi)
    assert P.degree <= 6.0 * math.log(1.0 / xi) / eta


def test_sign_approx_validates_parameters():
    with pytest.raises(ValueError):
        build_sign_approx(0.0, 0.1)
    with pytest.raises(ValueError):
        build_sign_approx(0.5, 0.7)


def test_sign_approx_cap_raises():
    with pytest.raises(ConstructionError):
        build_sign_approx(0.001, 0.001, degree_cap=64)


def test_threshold_certifies_on_grid():
    P = build_threshold(SPEC)
    report = verify_threshold(P, SPEC)
    assert report.passed
    assert report.bound_violation <= 1e-9
    assert report.plateau_violation <= 1e-9
    assert report.outer_violation <= 1e-9


def test_threshold_plateau_midpoint():
    P = build_threshold(SPEC)
    mid = (SPEC.t1 + SPEC.t2) / 2
    assert P(mid) >= 1 - SPEC.chi


def test_threshold_outer_at_zero():
    P = build_threshold(SPEC)
    assert 0 <= P(0.0) <= SPEC.chi


def test_threshold_sup_norm_bound():
    xs = np.linspace(-1, 1, 20_001)
    for chi in (0.2, 0.05, 0.01):
        P = build_threshold(ThresholdSpec(0.4, 0.6, 0.15, 0.15, chi))
        assert np.abs(P(xs)).max() <= 1 + 1e-9


def test_verify_threshold_rejects_wrong_polynomials():
    sq = EvenPolynomial.from_even_coeffs([0.0, 1.0])
    report = verify_threshold(sq, SPEC)
    assert not report.passed
    assert report.plateau_violation > 0.5  # 0.6^2 = 0.36 << 0.99
    one = EvenPolynomial.from_even_coeffs([1.0])
    assert verify_threshold(one, SPEC).outer_violation > 0.9


def test_verify_threshold_grid_floor():
    with pytest.raises(ValueError):
        verify_threshold(EvenPolynomial.from_even_coeffs([1.0]), SPEC, grid=10)


def test_combination_intermediate_bounds():
    # before symmetrization: Q in [1-xi, 1] on the plateau and
    # [0, 3 xi / 2] on the outer regions
    xi = SPEC.chi / 3.0
    p1 = build_sign_approx(SPEC.theta1 / 2, xi)
    q = _shifted_sum(p1, p1, SPEC, xi)
    plateau = q(np.linspace(SPEC.t1, SPEC.t2, 4000))
    assert plateau.min() >= 1 - xi - 1e-9 and plateau.max() <= 1 + 1e-9
    outer = np.concatenate([
        q(np.linspace(0.0, SPEC.t1 - SPEC.theta1, 4000)),
        q(np.linspace(SPEC.t2 + SPEC.theta2, 1.0, 4000))])
    assert outer.min() >= -1e-9 and outer.max() <= 1.5 * xi + 1e-9


CRITERION_4_SPECS = [ThresholdSpec(t1, t2, th, th, chi)
                     for t1, t2, th in ((0.5, 0.7, 0.1), (0.4, 0.6, 0.2),
                                        (0.45, 0.55, 0.3))
                     for chi in (0.2, 0.1, 0.05, 0.01)]
SCAN_SPEC = ThresholdSpec(0.5, 0.71875, 0.5, 0.03125, 1 / 12)  # degree 730


@pytest.mark.parametrize("spec, cap", [(spec, 512) for spec in CRITERION_4_SPECS]
                         + [(SCAN_SPEC, 4096)])
def test_even_interpolant_is_exact_symmetrization(rng, spec, cap):
    # the interpolant in w = 2x^2 - 1 reproduces (Q(x) + Q(-x)) / (1 + xi)
    # itself, at degree n - 1 for the larger sign-approximation degree n
    xi = spec.chi / 3.0
    p1 = build_sign_approx(spec.theta1 / 2, xi, degree_cap=cap)
    p2 = build_sign_approx(spec.theta2 / 2, xi, degree_cap=cap)
    P = EvenPolynomial(_even_interpolant(p1, p2, spec, xi))
    assert P.degree == max(p1.degree, p2.degree) - 1
    q = _shifted_sum(p1, p2, spec, xi)
    xs = rng.uniform(-1, 1, size=2000)
    assert_allclose(P(xs), (q(xs) + q(-xs)) / (1 + xi), rtol=0, atol=1e-12)


def test_sign_approx_is_memoized_and_read_only():
    P = build_sign_approx(0.3, 0.05)
    assert build_sign_approx(0.3, 0.05) is P
    assert not P._c.flags.writeable
    with pytest.raises(ValueError):
        P._c[1] = 0.0


def test_building_a_filter_leaves_scipy_special_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import svtkit
    env = dict(os.environ)
    src = str(Path(svtkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, svtkit\n"
            "from svtkit.polynomial import ThresholdSpec, build_threshold\n"
            "build_threshold(ThresholdSpec(0.5, 0.7, 0.1, 0.1, 0.2))\n"
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_erfinv_matches_scipy_over_the_tau_range():
    # build_sign_approx inverts erf at 1 - tau with tau = xi / 3 < 1/6
    from scipy.special import erfinv
    for tau in np.geomspace(1e-12, 1.0 / 6.0, 400):
        want = float(erfinv(1.0 - tau))
        assert abs(_erfinv(1.0 - tau) - want) <= 1e-14 * want


def test_threshold_degree_monotone_in_chi():
    degrees = [build_threshold(ThresholdSpec(0.5, 0.7, 0.1, 0.1, chi)).degree
               for chi in (0.3, 0.1, 0.03, 0.01)]
    assert degrees == sorted(degrees)


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec(0.7, 0.5, 0.1, 0.1, 0.01)  # t1 > t2
    with pytest.raises(ValueError):
        ThresholdSpec(0.05, 0.7, 0.1, 0.1, 0.01)  # theta1 > t1
    with pytest.raises(ValueError):
        ThresholdSpec(0.5, 0.95, 0.1, 0.1, 0.01)  # t2 > 1 - theta2
    with pytest.raises(ValueError):
        ThresholdSpec(0.5, 0.7, 0.1, 0.1, 1.5)
    # degenerate single-point plateau is allowed (scan edge case)
    ThresholdSpec(0.5, 0.5, 0.5, 0.25, 0.1)


def test_degenerate_plateau_builds():
    spec = ThresholdSpec(0.5, 0.5, 0.5, 0.25, 0.1)
    P = build_threshold(spec)
    assert verify_threshold(P, spec).passed


def test_monomial_conversion_round_trip(rng):
    coeffs = rng.normal(size=4)
    P = EvenPolynomial.from_even_coeffs(coeffs)
    xs = rng.uniform(-1, 1, size=50)
    naive = sum(a * xs ** (2 * k) for k, a in enumerate(coeffs))
    assert_allclose(P(xs), naive, atol=1e-12)


@pytest.mark.parametrize("bad", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        EvenPolynomial(bad)
    with pytest.raises(ValueError, match="finite"):
        EvenPolynomial.from_even_coeffs(bad)


def test_polynomial_file_round_trip(tmp_path, rng):
    P = EvenPolynomial.from_even_coeffs(rng.normal(size=4))
    path = tmp_path / "p.poly"
    save_polynomial(path, P)
    Q = load_polynomial(path)
    assert Q.degree == P.degree
    assert np.array_equal(Q.cheb_even(), P.cheb_even())


def test_low_degree_monomial_polynomial_saves_as_even_cheb(tmp_path):
    path = tmp_path / "p.poly"
    P = EvenPolynomial.from_even_coeffs([0.3, 0.5])
    save_polynomial(path, P)
    c0, c1 = P.cheb_even()
    assert path.read_text() == f"EVEN_CHEB 2\n{float(c0)!r}\n{float(c1)!r}\n"
    legacy = tmp_path / "legacy.poly"
    legacy.write_text("EVEN 2\n0.3\n0.0\n0.5\n")  # EVEN is still read
    assert np.array_equal(load_polynomial(legacy).cheb_even(), P.cheb_even())


@pytest.mark.parametrize("P", [
    EvenPolynomial.from_even_coeffs(np.full(16, 1 / 16)),  # degree 30
    EvenPolynomial.from_even_coeffs(np.full(17, 1 / 17)),  # degree 32
    EvenPolynomial([0.5, 0.5]),
])
def test_every_polynomial_saves_as_even_cheb(tmp_path, P):
    path = tmp_path / "p.poly"
    save_polynomial(path, P)
    assert path.read_text().split()[0] == "EVEN_CHEB"
    assert np.array_equal(load_polynomial(path).cheb_even(), P.cheb_even())


def test_high_degree_filter_saves_as_even_cheb(tmp_path):
    P = build_threshold(SPEC)
    path = tmp_path / "filter.poly"
    save_polynomial(path, P)
    Q = load_polynomial(path)
    assert path.read_text().startswith(f"EVEN_CHEB {P.degree}\n")
    assert np.array_equal(Q.cheb_even(), P.cheb_even())
    assert verify_threshold(Q, SPEC).passed


coefficient_lists = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(coeffs=coefficient_lists, monomial=st.booleans())
def test_polynomial_file_round_trip_is_exact(tmp_path_factory, coeffs, monomial):
    P = (EvenPolynomial.from_even_coeffs(coeffs) if monomial
         else EvenPolynomial(coeffs))
    path = tmp_path_factory.mktemp("poly") / "p.poly"
    save_polynomial(path, P)
    Q = load_polynomial(path)
    assert path.read_text().split()[0] == "EVEN_CHEB"
    assert Q.degree == P.degree
    assert np.array_equal(Q.cheb_even(), P.cheb_even())


@pytest.mark.parametrize("text, line", [
    ("EVEN_CHEB 3\n1.0\n0.5\n", 1),        # odd degree
    ("EVEN_CHEB -2\n1.0\n", 1),            # negative degree
    ("EVEN_CHEB two\n1.0\n0.5\n", 1),      # degree not an integer
    ("EVEN_CHEB 2 0\n1.0\n0.5\n", 1),      # extra header token
    ("even_cheb 2\n1.0\n0.5\n", 1),        # unknown format name
    ("EVEN_CHEB 4\n1.0\n0.5\n", 3),        # missing coefficient line
    ("EVEN_CHEB 2\n1.0\nabc\n", 3),        # unparsable coefficient
    ("EVEN_CHEB 2\n1.0\nnan\n", 3),        # non-finite coefficient
    ("EVEN 2\n1.0\n0.0\ninf\n", 4),        # non-finite coefficient
    ("EVEN_CHEB 2\n1.0\n0.5\n0.25\n", 4),  # line past the count
])
def test_polynomial_loader_rejects_malformed_files(tmp_path, text, line):
    path = tmp_path / "bad.poly"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^line {line}:"):
        load_polynomial(path)


def test_polynomial_loader_rejects_odd_coefficients(tmp_path):
    path = tmp_path / "bad.poly"
    path.write_text("EVEN 2\n1.0\n0.5\n2.0\n")
    with pytest.raises(Exception, match="a_1"):
        load_polynomial(path)
