"""Classical singular value transformation toolkit for sparse matrices.

Per-entry evaluation of even-polynomial SVT through sparse recursion,
sampling-based bilinear-form estimation, singular-value interval
decisions, guided ground-energy estimation for local Hamiltonians, a
circuit-to-Hamiltonian instance generator, and a dense brute-force
oracle everything is validated against.
"""

from .access import (AdjointView, QueryVector, SampledVector, SparseMatrix,
                     distorted_sampler, exact_sampler)
from .errors import (ConfigError, ConstructionError, InconsistencyError,
                     InvalidSamplerError, ParseError, ShapeError, SizeError)
from .hamiltonian import (GlhProblem, LocalHamiltonian, LocalTerm,
                          assemble_sparse, decide_glh, estimate_ground_energy,
                          ground_overlap)
from .kitaev import Circuit, Gate, KitaevInstance, build_gadget
from .polynomial import (EvenPolynomial, OddPolynomial, ThresholdSpec,
                         build_sign_approx, build_threshold, verify_threshold)
from .sve import SveProblem, decide_singular_interval
from .svt import EstimatorConfig, chain_entry, estimate_bilinear, svt_entry

__version__ = "0.1.0"

__all__ = [
    "AdjointView", "QueryVector", "SampledVector", "SparseMatrix",
    "distorted_sampler", "exact_sampler",
    "ConfigError", "ConstructionError", "InconsistencyError",
    "InvalidSamplerError", "ParseError", "ShapeError", "SizeError",
    "GlhProblem", "LocalHamiltonian", "LocalTerm", "assemble_sparse",
    "decide_glh", "estimate_ground_energy", "ground_overlap",
    "Circuit", "Gate", "KitaevInstance", "build_gadget",
    "EvenPolynomial", "OddPolynomial", "ThresholdSpec", "build_sign_approx",
    "build_threshold", "verify_threshold",
    "SveProblem", "decide_singular_interval",
    "EstimatorConfig", "chain_entry", "estimate_bilinear", "svt_entry",
]
