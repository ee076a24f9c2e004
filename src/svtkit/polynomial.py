"""Even polynomials and certified threshold-filter construction.

The central object is an even real polynomial P with |P(x)| <= 1 on
[-1, 1] that sits near 1 on a target interval [t1, t2] and near 0 on
[0, t1 - theta1] and [t2 + theta2, 1].  It is assembled from two odd
sign approximations (truncated Chebyshev expansions of an error
function whose steepness is set by the transition width), shifted and
averaged; the even part of the sum is interpolated exactly in 2x^2 - 1.
Every construction is certified on a grid; nothing is trusted from the
analytic derivation alone.

Polynomials are stored in the Chebyshev basis for numerical stability.
An even polynomial of degree 2d is kept as the coefficients c_r of
P(x) = sum_r c_r T_r(2 x^2 - 1), which evaluates through x^2 only and
is therefore structurally even.  Monomial coefficients a_0, a_2, ...,
a_{2d} are accepted as input and converted to that basis once; nothing
converts back.

Every evaluation of a Chebyshev series here, of filters, sign
approximations and their candidates alike, goes through the one
in-place Clenshaw kernel ``_clenshaw``, whose results equal numpy's
``chebval`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.chebyshev import (Chebyshev, chebinterpolate, chebval,
                                        poly2cheb)

from .errors import ConstructionError, ParseError, reject_trailing

__all__ = [
    "EvenPolynomial",
    "OddPolynomial",
    "ThresholdSpec",
    "ThresholdReport",
    "build_sign_approx",
    "build_threshold",
    "build_threshold_cached",
    "verify_threshold",
    "load_polynomial",
    "save_polynomial",
]

CERT_TOLERANCE = 1e-9
DEFAULT_GRID = 10_000
DEFAULT_DEGREE_CAP = 512

# math.erf elementwise; importing scipy.special for it would add about 5 MB
# of resident memory to every process that imports svtkit.
_erf = np.frompyfunc(math.erf, 1, 1)


def _clenshaw(x, c) -> np.ndarray:
    """sum_r c_r T_r(x), equal bit for bit to ``chebval(x, c)``.

    Clenshaw's recurrence with chebval's operations in chebval's order,
    written in place into two buffers that swap roles instead of three
    fresh arrays per coefficient.  Fewer than 3 coefficients take
    chebval itself.
    """
    c = np.asarray(c, dtype=float)
    if c.size < 3:
        return chebval(x, c)
    x = np.asarray(x, dtype=float)
    x2 = 2.0 * x
    c0 = np.full(x.shape, c[-2])
    c1 = np.full(x.shape, c[-1])
    spare = np.empty(x.shape)
    for i in range(3, c.size + 1):
        # c0, c1 = c[-i] - c1, c0 + c1 * x2
        np.subtract(c[-i], c1, out=spare)
        np.multiply(c1, x2, out=c1)
        np.add(c0, c1, out=c1)
        c0, spare = spare, c0
    np.multiply(c1, x, out=c1)
    return np.add(c0, c1, out=c1)


def _erfinv(y: float) -> float:
    """x with erf(x) = y, for y in [1/2, 1).

    Newton steps on erfc(x) = 1 - y, which is exact in floating point
    there and keeps full relative precision as y approaches 1.  erfc is
    decreasing and convex on x > 0, so after the first step the iterates
    rise monotonically to the root.
    """
    t = 1.0 - y
    x = math.sqrt(-math.log(t))
    for _ in range(100):
        step = (math.erfc(x) - t) * (math.sqrt(math.pi) / 2.0) * math.exp(x * x)
        x += step
        if abs(step) <= 1e-15 * x:
            break
    return x


class EvenPolynomial:
    """Even real polynomial P(x) = sum_r c_r T_r(2 x^2 - 1) of degree 2d."""

    def __init__(self, cheb_even, threshold_spec=None):
        cr = np.atleast_1d(np.asarray(cheb_even, dtype=float))
        if cr.ndim != 1 or cr.size == 0:
            raise ValueError("expected a nonempty coefficient array")
        if not np.all(np.isfinite(cr)):
            raise ValueError("polynomial coefficients must be finite")
        self._cr = cr.copy()
        self._cr.flags.writeable = False
        self.threshold_spec = threshold_spec

    @classmethod
    def from_even_coeffs(cls, even_coeffs) -> "EvenPolynomial":
        """Build from monomial coefficients [a_0, a_2, ..., a_{2d}]."""
        a = np.atleast_1d(np.asarray(even_coeffs, dtype=float))
        if a.size == 0:
            raise ValueError("expected at least one coefficient")
        if not np.all(np.isfinite(a)):
            raise ValueError("polynomial coefficients must be finite")
        # P(x) = G(x^2); re-expand G on y in [0, 1] in the variable w = 2y - 1,
        # i.e. compose G with y = 0.5 + 0.5 w.
        g_in_w = Polynomial(a)(Polynomial([0.5, 0.5])).coef
        return cls(poly2cheb(g_in_w))

    @property
    def degree(self) -> int:
        return 2 * (self._cr.size - 1)

    def cheb_even(self) -> np.ndarray:
        """Coefficients c_r of P(x) = sum_r c_r T_r(2 x^2 - 1)."""
        return self._cr.copy()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = _clenshaw(2.0 * x * x - 1.0, self._cr)
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"EvenPolynomial(degree={self.degree})"


class OddPolynomial:
    """Odd real polynomial stored as a Chebyshev series on [-2, 2]."""

    def __init__(self, cheb_coef):
        c = np.atleast_1d(np.asarray(cheb_coef, dtype=float)).copy()
        c[0::2] = 0.0  # structural oddness
        self._c = c
        self._c.flags.writeable = False

    @property
    def degree(self) -> int:
        nz = np.flatnonzero(self._c)
        return int(nz[-1]) if nz.size else 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = _clenshaw(0.5 * x, self._c)
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"OddPolynomial(degree={self.degree})"


@dataclass(frozen=True)
class ThresholdSpec:
    """Target boxes for a threshold polynomial.

    Requires theta1 <= t1 <= t2 <= 1 - theta2 and 0 < chi < 1.  The
    degenerate case t1 == t2 (a single-point plateau) is allowed; the
    ground-energy gap decision produces it at threshold a = -1.
    """

    t1: float
    t2: float
    theta1: float
    theta2: float
    chi: float

    def __post_init__(self):
        if not (0.0 < self.chi < 1.0):
            raise ValueError("chi must lie in (0, 1)")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise ValueError("theta1 and theta2 must be positive")
        if not (self.theta1 <= self.t1 <= self.t2 <= 1.0 - self.theta2):
            raise ValueError(
                "need theta1 <= t1 <= t2 <= 1 - theta2, got "
                f"t1={self.t1}, t2={self.t2}, theta1={self.theta1}, "
                f"theta2={self.theta2}"
            )


@dataclass
class ThresholdReport:
    """Signed worst-case box violations; negative values mean margin."""

    bound_violation: float      # max |P| - 1 on [-1, 1]
    plateau_violation: float    # max deviation below 1-chi / above 1 on [t1, t2]
    outer_violation: float      # max deviation above chi / below 0 outside

    @property
    def passed(self) -> bool:
        worst = max(self.bound_violation, self.plateau_violation,
                    self.outer_violation)
        return worst <= CERT_TOLERANCE


def _certify_sign_boxes(xs, vals, eta, xi):
    """Worst box violation of a sign approximation with values ``vals``
    on the grid ``xs`` of [-2, 2]."""
    sup = np.abs(vals).max() - 1.0
    hi = vals[xs >= eta]
    lo = vals[xs <= -eta]
    plateau = max((1.0 - xi) - hi.min(initial=1.0), hi.max(initial=0.0) - 1.0,
                  lo.max(initial=-1.0) - (-1.0 + xi), (-1.0) - lo.min(initial=0.0))
    return max(sup, plateau)


@lru_cache(maxsize=64)
def build_sign_approx(eta: float, xi: float,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> OddPolynomial:
    """Odd polynomial close to sign(x) away from the origin.

    Returns P' with P'(x) in [-1, 1] on [-2, 2], in [1-xi, 1] on [eta, 2]
    and in [-1, -1+xi] on [-2, -eta], certified on a DEFAULT_GRID-point
    grid.  Built as a truncated Chebyshev expansion of erf(k x) with k
    set from eta, with the degree doubled on certification failure up to
    ``degree_cap``.  Memoized on (eta, xi, degree_cap): repeat calls
    share one read-only result.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not (0.0 < xi < 0.5):
        raise ValueError("xi must lie in (0, 1/2)")
    tau = xi / 3.0
    k = _erfinv(1.0 - tau) / eta
    n = int(math.ceil(3.2 * k * math.sqrt(math.log(1.0 / xi)))) + 16
    n |= 1
    xs = np.linspace(-2.0, 2.0, DEFAULT_GRID)
    attempts = []
    while True:
        n_try = min(n, degree_cap)
        ch = Chebyshev.interpolate(lambda x: _erf(k * x).astype(float), deg=n_try,
                                   domain=[-2.0, 2.0])
        coef = ch.coef.copy()
        coef[0::2] = 0.0
        # one evaluation per candidate serves the sup and the certificate
        vals = _clenshaw(0.5 * xs, coef)
        sup = np.abs(vals).max()
        if sup > 1.0:
            scale = sup * (1.0 + 1e-12)
            coef = coef / scale
            vals = vals / scale
        violation = _certify_sign_boxes(xs, vals, eta, xi)
        attempts.append((n_try, violation))
        if violation <= CERT_TOLERANCE:
            return OddPolynomial(coef)
        if n_try >= degree_cap:
            raise ConstructionError(
                f"sign approximation failed certification at the degree cap "
                f"{degree_cap} (eta={eta}, xi={xi}; attempts={attempts})"
            )
        n = 2 * n_try


def _shifted_sum(p1: OddPolynomial, p2: OddPolynomial, spec: ThresholdSpec,
                 xi: float):
    """The intermediate Q(x) = (1-xi)(P1'(x-t1+th1/2) + P2'(-x+t2+th2/2))/2 + xi
    as a callable."""
    c1 = spec.t1 - spec.theta1 / 2.0
    c2 = spec.t2 + spec.theta2 / 2.0
    return lambda x: (1.0 - xi) * (p1(x - c1) + p2(c2 - x)) / 2.0 + xi


def _even_interpolant(p1: OddPolynomial, p2: OddPolynomial,
                      spec: ThresholdSpec, xi: float) -> np.ndarray:
    """Coefficients c_r of (Q(x) + Q(-x)) / (1 + xi) as T_r(2x^2-1).

    With n the larger sign-approximation degree, the even part of Q has
    degree at most n - 1, so G(w) = (Q(x) + Q(-x)) / (1 + xi) at
    x = sqrt((w + 1) / 2) is a polynomial of degree n // 2 in w, and
    interpolating it at n // 2 + 1 Chebyshev points is exact up to
    rounding.
    """
    q = _shifted_sum(p1, p2, spec, xi)

    def g(w):
        x = np.sqrt((w + 1.0) / 2.0)
        return (q(x) + q(-x)) / (1.0 + xi)

    return chebinterpolate(g, max(p1.degree, p2.degree) // 2)


def verify_threshold(P: EvenPolynomial, spec: ThresholdSpec,
                     grid: int = DEFAULT_GRID) -> ThresholdReport:
    """Grid certificate for the threshold boxes.

    Each region is sampled uniformly with ``grid`` points; the report
    carries the signed worst violation per region and passes when all
    are within the 1e-9 tolerance.
    """
    if grid < 1000:
        raise ValueError("grid must have at least 1000 points")
    xs = np.linspace(-1.0, 1.0, grid)
    bound = float(np.abs(P(xs)).max() - 1.0)

    plateau_x = np.linspace(spec.t1, spec.t2, grid)
    pv = P(plateau_x)
    plateau = float(max((1.0 - spec.chi) - pv.min(), pv.max() - 1.0))

    outer_parts = []
    if spec.t1 - spec.theta1 >= 0.0:
        outer_parts.append(np.linspace(0.0, spec.t1 - spec.theta1, grid))
    if spec.t2 + spec.theta2 <= 1.0:
        outer_parts.append(np.linspace(spec.t2 + spec.theta2, 1.0, grid))
    outer = -np.inf
    for part in outer_parts:
        ov = P(part)
        outer = max(outer, float(ov.max() - spec.chi), float(-ov.min()))
    return ThresholdReport(bound, plateau, outer)


def build_threshold(spec: ThresholdSpec,
                    degree_cap: int = DEFAULT_DEGREE_CAP) -> EvenPolynomial:
    """Certified even threshold polynomial for ``spec``.

    Two odd sign approximations (transition widths theta1/2 and theta2/2)
    are shifted to the interval edges and averaged; the even part of that
    sum is interpolated exactly in w = 2x^2 - 1, then sup-normalized over
    [-1, 1] and certified by verify_threshold, both on DEFAULT_GRID points.
    The internal sign-approximation accuracy starts at chi/3 and is
    tightened if the final certificate fails.  Raises ConstructionError
    when no attempt certifies.
    """
    last_report = None
    xi = spec.chi / 3.0
    for _ in range(4):
        eta1 = spec.theta1 / 2.0
        eta2 = spec.theta2 / 2.0
        p1 = build_sign_approx(eta1, xi, degree_cap=degree_cap)
        p2 = p1 if eta2 == eta1 else build_sign_approx(
            eta2, xi, degree_cap=degree_cap)
        cr = _even_interpolant(p1, p2, spec, xi)
        xs = np.linspace(0.0, 1.0, DEFAULT_GRID)  # even: [0,1] determines the sup
        sup = np.abs(_clenshaw(2.0 * xs * xs - 1.0, cr)).max()
        if sup > 1.0:
            cr = cr / (sup * (1.0 + 1e-12))
        candidate = EvenPolynomial(cr, threshold_spec=spec)
        report = verify_threshold(candidate, spec)
        if report.passed:
            return candidate
        last_report = report
        xi /= 2.0
    raise ConstructionError(
        f"threshold polynomial failed certification for {spec}: {last_report}"
    )


@lru_cache(maxsize=64)
def _threshold_cache(t1, t2, theta1, theta2, chi, degree_cap):
    return build_threshold(ThresholdSpec(t1, t2, theta1, theta2, chi),
                           degree_cap=degree_cap)


def build_threshold_cached(spec: ThresholdSpec,
                           degree_cap: int = DEFAULT_DEGREE_CAP) -> EvenPolynomial:
    """Memoized build_threshold; repeated decisions reuse filters."""
    return _threshold_cache(spec.t1, spec.t2, spec.theta1, spec.theta2,
                            spec.chi, degree_cap)


# ---------------------------------------------------------------------------
# Text formats.  "EVEN_CHEB 2d", then the d+1 coefficients c_0 ... c_d of
# P(x) = sum_r c_r T_r(2 x^2 - 1) one per line; or, read only, "EVEN 2d",
# then the 2d+1 monomial coefficients a_0 ... a_{2d} one per line (odd
# positions must be zero).
# ---------------------------------------------------------------------------


def save_polynomial(path, P: EvenPolynomial):
    """Write ``P`` as EVEN_CHEB, which stores cheb_even() exactly at any
    degree."""
    with open(path, "w") as fh:
        fh.write(f"EVEN_CHEB {P.degree}\n")
        for c in P.cheb_even():
            fh.write(f"{float(c)!r}\n")


def load_polynomial(path) -> EvenPolynomial:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty polynomial file", line=1)
    head = lines[0].split()
    if len(head) != 2 or head[0] not in ("EVEN", "EVEN_CHEB"):
        raise ParseError("header must be 'EVEN <degree>' or "
                         "'EVEN_CHEB <degree>'", line=1)
    try:
        deg = int(head[1])
    except ValueError:
        raise ParseError("degree must be an integer", line=1) from None
    if deg % 2 != 0 or deg < 0:
        raise ParseError("degree must be even and nonnegative", line=1)
    count = deg + 1 if head[0] == "EVEN" else deg // 2 + 1
    if len(lines) < count + 1:
        raise ParseError(f"expected {count} coefficient lines", line=len(lines))
    coeffs = np.empty(count)
    for k in range(count):
        try:
            coeffs[k] = float(lines[k + 1])
        except ValueError:
            raise ParseError("could not parse coefficient", line=k + 2) from None
        if not math.isfinite(coeffs[k]):
            raise ParseError("coefficient must be finite", line=k + 2)
    reject_trailing(lines, count + 1)
    if head[0] == "EVEN_CHEB":
        return EvenPolynomial(coeffs)
    if np.any(coeffs[1::2] != 0.0):
        bad = 1 + 2 * int(np.flatnonzero(coeffs[1::2])[0])
        raise ParseError(f"odd coefficient a_{bad} must be zero", line=bad + 2)
    return EvenPolynomial.from_even_coeffs(coeffs[0::2])
