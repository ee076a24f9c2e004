"""Singular-value interval decision from a guide vector.

Given an s-sparse A with ||A|| <= 1 and sampling-access to a guide u,
decide between (i) A has a singular value in [t1, t2] and the guide has
overlap at least delta with the corresponding right subspace, and
(ii) A has no singular value in (t1 - theta1, t2 + theta2).

A threshold filter built at accuracy chi = delta^2 / 3 maps case (i) to
u-dagger P(sqrt(A-dagger A)) u >= 2 delta^2 / 3 and case (ii) to
<= delta^2 / 3; estimating that form to eps = delta^2 / 7 and cutting
at the midpoint delta^2 / 2 separates the cases with margin.

The form is contracted in one of two modes.  "exact" (the default)
computes it from the Chebyshev moments of (A, u), which stay cached per
thread, so decisions that share the matrix and the guide reuse one
moment pass as long as the filter degree does not grow.  "sampled" is the paper's
estimator, the median of batch means over draws from the guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .access import SampledVector, SparseMatrix
from .errors import ConfigError
from .polynomial import ThresholdSpec, build_threshold_cached
from .svt import (EstimateResult, EstimatorConfig, estimate_bilinear,
                  moment_contraction)

__all__ = ["SveProblem", "SveResult", "decide_singular_interval", "HAS_SV", "NO_SV"]

HAS_SV = "HAS_SV"
NO_SV = "NO_SV"
_CONTRACTIONS = ("exact", "sampled")


@dataclass
class SveProblem:
    """Interval-decision instance.

    The promise (case (i) or (ii) above) is assumed, never checked:
    inputs outside it still get a decision, flagged as best-effort.
    """

    matrix: SparseMatrix
    guide: SampledVector
    t1: float
    t2: float
    theta1: float
    theta2: float
    delta: float

    def __post_init__(self):
        if self.matrix.ncols != self.guide.dim:
            raise ConfigError("matrix and guide have incompatible dimensions")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("delta must lie in (0, 1]")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise ConfigError("theta1 and theta2 must be positive")
        if not (self.theta1 <= self.t1 <= self.t2 <= 1.0 - self.theta2):
            raise ConfigError(
                "need theta1 <= t1 <= t2 <= 1 - theta2, got "
                f"[{self.t1}, {self.t2}] with theta=({self.theta1}, {self.theta2})")
        if self.guide.zeta > self.delta ** 2 / 56.0:
            raise ConfigError(
                f"guide distortion zeta={self.guide.zeta} exceeds "
                f"delta^2/56={self.delta ** 2 / 56.0}")

    @property
    def chi(self) -> float:
        return self.delta ** 2 / 3.0

    @property
    def eps(self) -> float:
        return self.delta ** 2 / 7.0

    @property
    def decision_threshold(self) -> float:
        return self.delta ** 2 / 2.0

    def threshold_spec(self) -> ThresholdSpec:
        return ThresholdSpec(self.t1, self.t2, self.theta1, self.theta2, self.chi)


@dataclass
class SveResult:
    decision: str
    estimate: complex
    decision_threshold: float
    degree: int
    estimator: EstimateResult
    warnings: list[str] = field(default_factory=list)

    @property
    def margin(self) -> float:
        """(estimate.real - decision_threshold) / eps: positive exactly
        when the decision is HAS_SV, and at least 7/6 in magnitude for
        an exact contraction under the promise."""
        return ((self.estimate.real - self.decision_threshold)
                / self.estimator.eps)


def decide_singular_interval(problem: SveProblem, fail_prob: float = 0.01,
                             seed: int = 0, contraction: str = "exact") -> SveResult:
    """Decide HAS_SV / NO_SV for ``problem`` with failure probability
    ``fail_prob`` under the promise.

    ``contraction="exact"`` computes u-dagger P u from the cached
    Chebyshev moments of (matrix, guide) (svt.moment_contraction); it is
    real, draws no samples and ignores ``seed``.  ``"sampled"`` estimates
    it by svt.estimate_bilinear, whose value is real up to sampling
    noise: its imaginary part is reported as a sanity diagnostic and
    flagged when it exceeds the estimator precision.  Both modes check
    the same preconditions and raise ConfigError when ||A|| > 1 shows,
    but not equally far.  On an eigenvalue lambda = 2 sigma^2 - 1 > 1 of
    S = 2 A-dagger A - I, the sampled path checks ||T_r(S) u||^2, which
    grows like T_r(lambda)^2, up to r = D/2 for a degree-D filter.  The
    exact path checks ||T_k(S) u||^2 only up to k = ceil(D/4), and the
    moments u-dagger T_r(S) u, which are linear in T_r(lambda), up to
    r = D/2.  So a singular value just above 1 that carries little guide
    weight can pass in exact mode where sampled mode raises; exact mode
    then returns the exact form u-dagger P u of that A.
    """
    if contraction not in _CONTRACTIONS:
        raise ConfigError(f"contraction must be one of {_CONTRACTIONS}, "
                          f"got {contraction!r}")
    P = build_threshold_cached(problem.threshold_spec())
    cfg = EstimatorConfig.for_target(problem.eps, fail_prob,
                                     zeta=problem.guide.zeta, seed=seed)
    if contraction == "exact":
        est = moment_contraction(problem.matrix, problem.guide, P, cfg)
    else:
        est = estimate_bilinear(problem.matrix, problem.guide.base,
                                problem.guide, P, cfg)
    warnings = []
    if abs(est.value.imag) >= problem.eps:
        warnings.append(
            f"imaginary part {est.value.imag:.3e} exceeds precision "
            f"{problem.eps:.3e}; u-dagger P u should be real")
    decision = HAS_SV if est.value.real > problem.decision_threshold else NO_SV
    return SveResult(decision=decision, estimate=est.value,
                     decision_threshold=problem.decision_threshold,
                     degree=P.degree, estimator=est, warnings=warnings)
