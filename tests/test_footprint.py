"""What importing and running svtkit loads, each check in a fresh interpreter.

scipy.sparse (about 20 MB and 0.2 s to import) is loaded only by sparse
contractions, by ``SparseMatrix.csr()`` and by Lanczos; these tests pin
the density rule of ``svt._contraction`` from both sides.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import svtkit


def _loads_scipy_sparse(code: str) -> bool:
    """Whether running ``code`` after ``import sys, numpy as np`` in a
    fresh interpreter that imports this svtkit loads scipy.sparse."""
    env = dict(os.environ)
    src = str(Path(svtkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    program = ("import sys\nimport numpy as np\n" + code
               + "\nprint('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", program], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {"True": True, "False": False}[out.strip().splitlines()[-1]]


def test_import_leaves_scipy_sparse_unloaded():
    assert not _loads_scipy_sparse("import svtkit")


def test_sve_decision_at_n64_leaves_scipy_sparse_unloaded():
    assert not _loads_scipy_sparse(
        "from svtkit.access import exact_sampler\n"
        "from svtkit.rand import planted_sve_instance\n"
        "from svtkit.sve import SveProblem, decide_singular_interval\n"
        "rng = np.random.default_rng(1)\n"
        "A, guide, _ = planted_sve_instance(rng, 64, 0.5, 0.7, 0.08, 0.08, 0.8, 'inside')\n"
        "problem = SveProblem(matrix=A, guide=exact_sampler(guide), t1=0.5, t2=0.7,\n"
        "                     theta1=0.08, theta2=0.08, delta=0.8)\n"
        "print(decide_singular_interval(problem, seed=1).decision)")


@pytest.mark.parametrize("n, support", [(6, None), (8, None), (8, (1, 2))])
def test_ground_energy_estimate_leaves_scipy_sparse_unloaded(n, support):
    # the glh workload's Hamiltonians: 3 random 2-local terms at norm 0.5
    # plus an identity shift; with all three on one qubit pair, A has 4
    # nonzeros per row, the sparsest contraction the workload can draw
    assert not _loads_scipy_sparse(
        "from svtkit.access import exact_sampler\n"
        "from svtkit.hamiltonian import (GlhProblem, LocalHamiltonian, LocalTerm,\n"
        "                                estimate_ground_energy)\n"
        "from svtkit.rand import guide_with_ground_overlap, random_local_hamiltonian\n"
        "rng = np.random.default_rng(2)\n"
        f"H = random_local_hamiltonian(rng, {n}, 2, 3)\n"
        f"terms = [LocalTerm({support!r} or t.qubits, t.block) for t in H.terms]\n"
        f"scale = 0.5 / LocalHamiltonian({n}, 2, terms).operator_norm()\n"
        "terms = [t.scaled(scale) for t in terms] + [LocalTerm((1,), 0.2 * np.eye(2))]\n"
        f"H = LocalHamiltonian({n}, 2, terms)\n"
        "guide = exact_sampler(guide_with_ground_overlap(rng, H, 0.5))\n"
        "problem = GlhProblem(hamiltonian=H, guide=guide, delta=0.5, eps=0.25)\n"
        "print(estimate_ground_energy(problem).value)")


def test_sparse_bilinear_estimate_loads_scipy_sparse():
    # N = 256 with s = 4: sum_i L_i^2 is about 0.03 N^2, far below the rule
    assert _loads_scipy_sparse(
        "from svtkit.access import QueryVector, exact_sampler\n"
        "from svtkit.rand import random_even_polynomial, random_sparse_matrix, random_unit_vector\n"
        "from svtkit.svt import EstimatorConfig, estimate_bilinear\n"
        "rng = np.random.default_rng(3)\n"
        "A = random_sparse_matrix(rng, 256, 256, 4)\n"
        "u, v = random_unit_vector(rng, 256), random_unit_vector(rng, 256)\n"
        "P = random_even_polynomial(rng, 3)\n"
        "cfg = EstimatorConfig.for_target(0.1, 0.01, seed=1)\n"
        "print(estimate_bilinear(A, QueryVector(u), exact_sampler(v), P, cfg).value)")
