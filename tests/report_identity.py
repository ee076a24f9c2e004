"""Check that two source trees print the same CLI reports for fixed seeds.

    python tests/report_identity.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  The
script writes fixed inputs with the generators of ``svtkit.rand`` and the
``save_*`` writers (imported from HEAD_SRC) into a temporary directory,
then runs the ``estimate``, ``sve``, ``glh-estimate`` and ``bench``
commands through ``python -m svtkit.cli`` against each tree.  The
``wall_time_s=`` lines are dropped; any other difference in a command's
stdout or exit code is printed as a unified diff, and the script exits 1.

A change that alters reports on purpose (a new RNG stream, a new report
key) fails this check and says so in its description.  pytest does not
collect this file: its name does not match ``test_*.py``.
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
    from svtkit.hamiltonian import save_hamiltonian
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
    runs.append(["glh-estimate", "--hamiltonian", path("h.ham"), "--guide",
                 path("h.vec"), "--eps", "0.1", "--delta", "0.9", "--seed", "2"])
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
    if len(argv) != 3:
        sys.exit(__doc__)
    base, head = (str(Path(p).resolve()) for p in argv[1:])
    for src in (base, head):  # a run that imports another tree shows nothing
        env = dict(os.environ, PYTHONPATH=src)
        where = subprocess.run(
            [sys.executable, "-c", "import svtkit; print(svtkit.__file__)"],
            env=env, capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(src):
            raise RuntimeError(f"PYTHONPATH={src} imports svtkit from {where}")
    sys.path.insert(0, head)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for args in write_inputs(Path(tmp)):
            name = " ".join(a.replace(tmp + os.sep, "") for a in args)
            old, new = report(base, args), report(head, args)
            if old == new:
                print(f"same: {name}")
                continue
            failed += 1
            print(f"DIFFERENT: {name}")
            sys.stdout.writelines(difflib.unified_diff(
                [ln + "\n" for ln in old], [ln + "\n" for ln in new],
                fromfile="base", tofile="head"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
