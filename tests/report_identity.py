"""Check that two source trees print the same CLI reports for fixed seeds.

    python tests/report_identity.py BASE_SRC HEAD_SRC [EXPECTED_DIFF]

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  The
script writes fixed inputs with the generators of ``svtkit.rand`` and the
``save_*`` writers (imported from HEAD_SRC) into a temporary directory,
then runs the ``estimate``, ``sve``, ``glh-decide``, ``glh-estimate`` and
``bench`` commands through ``python -m svtkit.cli`` against each tree.  The
``wall_time_s=`` lines are dropped; any other difference in a command's
stdout or exit code is printed as a ``DIFFERENT:`` line and a unified
diff, and the script exits 1.

A change that alters reports on purpose (a new RNG stream, the last
digits of a value) declares the alteration in EXPECTED_DIFF: the script
then prints each diff without context lines and exits 0 only when all of
them together, ``DIFFERENT:`` lines included, equal that file exactly.
The file is what the script prints in this mode minus the ``same:`` lines
and the closing verdict; an empty file declares that no report changes.
pytest does not collect this file: its name does not match ``test_*.py``.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def write_inputs(folder: Path) -> list:
    """Write the inputs into ``folder``; return the CLI argument lists."""
    import numpy as np

    from svtkit.access import save_matrix, save_vector
    from svtkit.hamiltonian import LocalHamiltonian, LocalTerm, save_hamiltonian
    from svtkit.polynomial import ThresholdSpec, build_threshold, save_polynomial
    from svtkit.rand import (guide_with_ground_overlap, planted_sve_instance,
                             random_even_polynomial, random_local_hamiltonian,
                             random_sparse_matrix, random_unit_vector)

    def path(name):
        return str(folder / name)

    rng = np.random.default_rng(20261018)
    save_matrix(path("a.mat"), random_sparse_matrix(rng, 32, 32, 3))
    save_vector(path("u.vec"), random_unit_vector(rng, 32))
    save_vector(path("v.vec"), random_unit_vector(rng, 32))
    save_polynomial(path("low.poly"), random_even_polynomial(rng, 3))
    save_polynomial(path("filter.poly"),
                    build_threshold(ThresholdSpec(0.4, 0.6, 0.1, 0.1, 0.1)))
    for case in ("inside", "outside"):
        A, guide, _ = planted_sve_instance(rng, 48, 0.4, 0.6, 0.08, 0.08, 0.8,
                                           case)
        save_matrix(path(f"sve-{case}.mat"), A)
        save_vector(path(f"sve-{case}.vec"), guide)
    H = random_local_hamiltonian(rng, 6, 2, 8, norm=0.6)
    save_hamiltonian(path("h.ham"), H)
    save_vector(path("h.vec"), guide_with_ground_overlap(rng, H, 0.9))
    lam = float(np.linalg.eigvalsh(H.to_dense())[0])
    # 0.6 Z1 Z2 + 0.6 X2 X3 + 0.1 Z4: its Weyl bound over the term blocks is
    # 1.3, so assemble_sparse falls back to the eigen-solve (norm 0.95)
    Z = np.diag([1.0, -1.0]).astype(complex)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    F = LocalHamiltonian(4, 2, [LocalTerm((1, 2), 0.6 * np.kron(Z, Z)),
                                LocalTerm((2, 3), 0.6 * np.kron(X, X)),
                                LocalTerm((4,), 0.1 * Z)])
    save_hamiltonian(path("f.ham"), F)
    save_vector(path("f.vec"), guide_with_ground_overlap(rng, F, 0.9))

    estimate = ["estimate", "--matrix", path("a.mat"), "--u", path("u.vec"),
                "--v", path("v.vec"), "--eps", "0.2", "--seed", "5"]
    runs = [estimate + ["--poly", path("low.poly")],
            estimate + ["--poly", path("filter.poly")],
            estimate + ["--poly", path("low.poly"), "--zeta", "0.02"]]
    for case in ("inside", "outside"):
        runs.append(["sve", "--matrix", path(f"sve-{case}.mat"), "--guide",
                     path(f"sve-{case}.vec"), "--t1", "0.4", "--t2", "0.6",
                     "--theta1", "0.08", "--theta2", "0.08", "--delta", "0.8",
                     "--seed", "3"])
    # thresholds 0.1 and 0.35 above the ground energy (LOW), then below (HIGH)
    for a, b in ((lam + 0.1, lam + 0.35), (lam - 0.35, lam - 0.1)):
        runs.append(["glh-decide", "--hamiltonian", path("h.ham"), "--guide",
                     path("h.vec"), "--a", f"{a:.4f}", "--b", f"{b:.4f}",
                     "--delta", "0.9", "--seed", "4"])
    for name in ("h", "f"):
        runs.append(["glh-estimate", "--hamiltonian", path(f"{name}.ham"),
                     "--guide", path(f"{name}.vec"), "--eps", "0.1",
                     "--delta", "0.9", "--seed", "2"])
    runs.append(["bench", "--seed", "11"])
    return runs


def report(src: str, argv: list) -> list:
    """Exit code and stdout lines of one CLI run, without ``wall_time_s``.
    An input or internal error (exit code 2 or 3) raises instead, since
    two trees that fail alike show nothing."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "svtkit.cli", *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{src}: {' '.join(argv)} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = [ln for ln in proc.stdout.splitlines()
             if not ln.startswith("wall_time_s=")]
    return [f"exit={proc.returncode}"] + lines


def main(argv) -> int:
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    base, head = (str(Path(p).resolve()) for p in argv[1:3])
    expected = Path(argv[3]).read_text() if len(argv) == 4 else None
    for src in (base, head):  # a run that imports another tree shows nothing
        env = dict(os.environ, PYTHONPATH=src)
        where = subprocess.run(
            [sys.executable, "-c", "import svtkit; print(svtkit.__file__)"],
            env=env, capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(src):
            raise RuntimeError(f"PYTHONPATH={src} imports svtkit from {where}")
    sys.path.insert(0, head)
    produced = []
    with tempfile.TemporaryDirectory() as tmp:
        for args in write_inputs(Path(tmp)):
            name = " ".join(a.replace(tmp + os.sep, "") for a in args)
            old, new = report(base, args), report(head, args)
            if old == new:
                print(f"same: {name}")
                continue
            block = [f"DIFFERENT: {name}\n"] + list(difflib.unified_diff(
                [ln + "\n" for ln in old], [ln + "\n" for ln in new],
                fromfile="base", tofile="head", n=3 if expected is None else 0))
            sys.stdout.writelines(block)
            produced += block
    if expected is None:
        return 1 if produced else 0
    if "".join(produced) == expected:
        print(f"every difference is declared in {argv[3]}, and nothing more")
        return 0
    print(f"the differences are not the ones declared in {argv[3]}:")
    sys.stdout.writelines(difflib.unified_diff(
        expected.splitlines(keepends=True), produced,
        fromfile="declared", tofile="produced"))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
