"""Singular-value interval decision from a guide vector.

Given an s-sparse A with ||A|| <= 1 and sampling-access to a guide u,
decide between (i) A has a singular value in [t1, t2] and the guide has
overlap at least delta with the corresponding right subspace, and
(ii) A has no singular value in (t1 - theta1, t2 + theta2).

A threshold filter built at accuracy chi = delta^2 / 3 maps case (i) to
u-dagger P(sqrt(A-dagger A)) u >= 2 delta^2 / 3 and case (ii) to
<= delta^2 / 3; estimating that form to eps = delta^2 / 7 and cutting
at the midpoint delta^2 / 2 separates the cases with margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .access import SampledVector, SparseMatrix
from .errors import ConfigError
from .polynomial import (DEFAULT_DEGREE_CAP, ThresholdSpec,
                         build_threshold_cached)
from .svt import EstimateResult, EstimatorConfig, estimate_bilinear

__all__ = ["SveProblem", "SveResult", "decide_singular_interval", "HAS_SV", "NO_SV"]

HAS_SV = "HAS_SV"
NO_SV = "NO_SV"


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


def decide_singular_interval(problem: SveProblem, fail_prob: float = 0.01,
                             seed: int = 0,
                             degree_cap: int = DEFAULT_DEGREE_CAP) -> SveResult:
    """Decide HAS_SV / NO_SV for ``problem`` with failure probability
    ``fail_prob`` under the promise.

    The estimate u-dagger P u is a real number up to sampling noise; its
    imaginary part is reported as a sanity diagnostic and flagged when it
    exceeds the estimator precision.
    """
    P = build_threshold_cached(problem.threshold_spec(), degree_cap=degree_cap)
    cfg = EstimatorConfig.for_target(problem.eps, fail_prob,
                                     zeta=problem.guide.zeta, seed=seed)
    est = estimate_bilinear(problem.matrix, problem.guide.base, problem.guide,
                            P, cfg)
    warnings = []
    if abs(est.value.imag) >= problem.eps:
        warnings.append(
            f"imaginary part {est.value.imag:.3e} exceeds precision "
            f"{problem.eps:.3e}; u-dagger P u should be real")
    decision = HAS_SV if est.value.real > problem.decision_threshold else NO_SV
    return SveResult(decision=decision, estimate=est.value,
                     decision_threshold=problem.decision_threshold,
                     degree=P.degree, estimator=est, warnings=warnings)
