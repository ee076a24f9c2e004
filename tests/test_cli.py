import numpy as np
import pytest

from svtkit import cli, svt
from svtkit.access import SparseMatrix, save_matrix, save_vector
from svtkit.hamiltonian import load_hamiltonian
from svtkit.kitaev import GATES, Circuit, Gate, save_circuit
from svtkit.polynomial import EvenPolynomial, save_polynomial
from svtkit.rand import random_sparse_matrix, random_unit_vector


@pytest.fixture
def estimate_files(tmp_path):
    rng = np.random.default_rng(3)
    A = random_sparse_matrix(rng, 8, 8, 2)
    u = random_unit_vector(rng, 8)
    v = random_unit_vector(rng, 8)
    paths = {
        "matrix": tmp_path / "a.mat",
        "u": tmp_path / "u.vec",
        "v": tmp_path / "v.vec",
        "poly": tmp_path / "p.poly",
    }
    save_matrix(paths["matrix"], A)
    save_vector(paths["u"], u)
    save_vector(paths["v"], v)
    save_polynomial(paths["poly"], EvenPolynomial.from_even_coeffs([1.0]))
    return paths, u, v


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timing(text):
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("wall_time_s="))


def test_estimate_identity_polynomial(capsys, estimate_files):
    paths, u, v = estimate_files
    code, out, _ = run_cli(
        capsys, "estimate", "--matrix", str(paths["matrix"]), "--u",
        str(paths["u"]), "--v", str(paths["v"]), "--poly", str(paths["poly"]),
        "--eps", "0.2", "--seed", "1")
    assert code == 0
    re_part, im_part = (float(t) for t in out.splitlines()[0].split())
    exact = np.vdot(v, u)
    assert abs(complex(re_part, im_part) - exact) <= 0.2
    assert "samples_per_batch=" in out and "degree=0" in out


def test_estimate_deterministic_reports(capsys, estimate_files, tmp_path):
    paths, _, _ = estimate_files
    argv = ["estimate", "--matrix", str(paths["matrix"]), "--u",
            str(paths["u"]), "--v", str(paths["v"]), "--poly",
            str(paths["poly"]), "--eps", "0.3", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert strip_timing(out1) == strip_timing(out2)


def test_estimate_report_names_the_operator(capsys, estimate_files, tmp_path):
    paths, _, _ = estimate_files
    long_poly = tmp_path / "long.poly"
    # T_k(2x^2 - 1) with k = SHORT_PASS + 1: one step past the matrix-free passes
    save_polynomial(long_poly, EvenPolynomial([0.0] * (svt.SHORT_PASS + 1) + [1.0]))
    for poly, operator in ((paths["poly"], "matrix_free"), (long_poly, "formed")):
        code, out, _ = run_cli(
            capsys, "estimate", "--matrix", str(paths["matrix"]), "--u",
            str(paths["u"]), "--v", str(paths["v"]), "--poly", str(poly),
            "--eps", "0.3", "--seed", "2")
        assert code == 0
        assert f"operator={operator}" in out.splitlines()


def test_estimate_report_file(capsys, estimate_files, tmp_path):
    paths, _, _ = estimate_files
    out_file = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "estimate", "--matrix", str(paths["matrix"]), "--u",
        str(paths["u"]), "--v", str(paths["v"]), "--poly", str(paths["poly"]),
        "--eps", "0.3", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "command=estimate"


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "estimate", "--matrix", str(tmp_path / "nope.mat"), "--u",
        str(tmp_path / "u"), "--v", str(tmp_path / "v"), "--poly",
        str(tmp_path / "p"), "--eps", "0.2")
    assert code == 2
    assert "error:" in err


def test_malformed_file_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2 1 1\n1 1 oops 0.0\n")
    for name in ("u", "v", "p"):
        (tmp_path / name).write_text("1\n1.0 0.0\n")
    code, _, err = run_cli(
        capsys, "estimate", "--matrix", str(bad), "--u",
        str(tmp_path / "u"), "--v", str(tmp_path / "v"), "--poly",
        str(tmp_path / "p"), "--eps", "0.2")
    assert code == 2
    assert "line 2" in err


def test_non_finite_matrix_reports_line(capsys, tmp_path):
    bad = tmp_path / "nan.mat"
    bad.write_text("2 2 2 1\n1 1 nan 0\n2 2 0.5 0\n")
    for name in ("u", "v"):
        (tmp_path / name).write_text("2\n0.6 0.0\n0.8 0.0\n")
    save_polynomial(tmp_path / "p", EvenPolynomial.from_even_coeffs([0.0, 1.0]))
    code, _, err = run_cli(
        capsys, "estimate", "--matrix", str(bad), "--u",
        str(tmp_path / "u"), "--v", str(tmp_path / "v"), "--poly",
        str(tmp_path / "p"), "--eps", "0.2")
    assert code == 2
    assert "line 2: entry must be finite" in err


def test_gen_kitaev_then_glh_decide(capsys, tmp_path):
    circ_path = tmp_path / "x.circ"
    save_circuit(circ_path, Circuit(1, 1, [Gate("X", (2,), GATES["X"])]))
    code, out, _ = run_cli(
        capsys, "gen-kitaev", "--circuit", str(circ_path), "--input", "0",
        "--idle", "1", "--delta-weight", "1.0", "--out-prefix",
        str(tmp_path / "inst"))
    assert code == 0
    ham_path = tmp_path / "inst.ham"
    guide_path = tmp_path / "inst.guide"
    H = load_hamiltonian(ham_path)  # round-trips through the loader
    assert H.k == 6
    report = dict(ln.split("=", 1) for ln in out.splitlines())
    assert report["alpha"] == "1.0"

    # YES instance: ground energy 0; thresholds around it decide LOW
    code, out, _ = run_cli(
        capsys, "glh-decide", "--hamiltonian", str(ham_path), "--guide",
        str(guide_path), "--a", "0.02", "--b", "0.1", "--delta", "0.4",
        "--fail-prob", "0.05", "--seed", "3")
    assert code == 0
    assert out.splitlines()[0] == "LOW"


@pytest.fixture
def glh_estimate_argv(tmp_path):
    from svtkit.hamiltonian import LocalHamiltonian, LocalTerm, save_hamiltonian
    Z = np.diag([1.0, -1.0]).astype(complex)
    ham_path = tmp_path / "mz.ham"
    save_hamiltonian(ham_path, LocalHamiltonian(1, 1, [LocalTerm((1,), -Z)]))
    guide_path = tmp_path / "g.vec"
    save_vector(guide_path, np.array([1.0, 0.0]))  # -Z ground is |0>
    return ["glh-estimate", "--hamiltonian", str(ham_path), "--guide",
            str(guide_path), "--eps", "0.5", "--delta", "0.9", "--fail-prob",
            "0.05", "--seed", "2"]


def test_glh_estimate_cli(capsys, glh_estimate_argv):
    code, out, _ = run_cli(capsys, *glh_estimate_argv)
    assert code == 0
    assert abs(float(out.splitlines()[0]) - (-1.0)) <= 0.5


def _report_dict(out):
    return dict(ln.split("=", 1) for ln in out.splitlines()[1:])


def test_glh_estimate_report(capsys, glh_estimate_argv):
    code1, out1, _ = run_cli(capsys, *glh_estimate_argv)
    code2, out2, _ = run_cli(capsys, *glh_estimate_argv)
    assert code1 == code2 == 0
    assert strip_timing(out1) == strip_timing(out2)
    keys = [ln.split("=", 1)[0] for ln in out1.splitlines()[1:]]
    assert "workers" not in keys and "case" not in keys
    assert "scan_steps=3" in out1.splitlines()
    rep = _report_dict(out1)
    assert int(rep["degree"]) > 0 and float(rep["margin_min"]) >= 0.0
    with pytest.raises(SystemExit):
        cli.main(glh_estimate_argv + ["--workers", "4"])
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_sve_report_carries_margin(capsys, tmp_path):
    from svtkit.rand import planted_sve_instance
    rng = np.random.default_rng(12)
    for case in ("inside", "outside"):
        A, guide, _ = planted_sve_instance(rng, 16, 0.5, 0.7, 0.1, 0.1, 0.6,
                                           case)
        save_matrix(tmp_path / "a.mat", A)
        save_vector(tmp_path / "g.vec", guide)
        argv = ["sve", "--matrix", str(tmp_path / "a.mat"), "--guide",
                str(tmp_path / "g.vec"), "--t1", "0.5", "--t2", "0.7",
                "--theta1", "0.1", "--theta2", "0.1", "--delta", "0.6",
                "--seed", "4"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert strip_timing(out1) == strip_timing(out2)
        rep = _report_dict(out1)
        assert rep["decision"] == ("HAS_SV" if case == "inside" else "NO_SV")
        assert (float(rep["margin"]) > 0) == (rep["decision"] == "HAS_SV")
        assert rep["total_samples"] == "0"  # the exact contraction


def test_sve_accepts_a_wide_band_spec(capsys, tmp_path):
    # its filter (chi = 0.12) needs the build's rescale by the plateau maximum
    save_matrix(tmp_path / "a.mat", SparseMatrix.from_dense(np.diag([0.2, 0.05, 0.6])))
    save_vector(tmp_path / "g.vec", np.array([1.0, 0.0, 0.0]))
    code, out, err = run_cli(
        capsys, "sve", "--matrix", str(tmp_path / "a.mat"), "--guide",
        str(tmp_path / "g.vec"), "--t1", "0.1", "--t2", "0.3", "--theta1", "0.1",
        "--theta2", "0.7", "--delta", "0.6")
    assert code == 0, err
    assert _report_dict(out)["decision"] == "HAS_SV"


def test_oracle_check_pass_and_fail(capsys, tmp_path):
    rng = np.random.default_rng(8)
    fx = tmp_path / "fixtures"
    fx.mkdir()
    for stem in ("one", "two"):
        A = random_sparse_matrix(rng, 6, 6, 2)
        save_matrix(fx / f"{stem}.matrix", A)
        save_vector(fx / f"{stem}.u", random_unit_vector(rng, 6))
        save_polynomial(fx / f"{stem}.poly",
                        EvenPolynomial.from_even_coeffs([0.3, 0.5]))
    code, out, _ = run_cli(capsys, "oracle-check", "--fixtures", str(fx))
    assert code == 0
    assert "result=PASS" in out

    # corrupt one fixture: vector no longer matches the matrix dimension
    save_vector(fx / "one.u", random_unit_vector(rng, 5))
    code, _, err = run_cli(capsys, "oracle-check", "--fixtures", str(fx))
    assert code == 2  # shape mismatch is an input error


def test_bench_sweep(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--sweep", "s=2..3,d=1..2,n=16..16", "--seed", "1",
        "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "s,d,n,row_fetches,entry_probes,bound,ratio"
    assert len(lines) == 1 + 4
    assert "cost_constant=" in out
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert max(ratios) <= 8.0


def test_bad_sweep_grammar(capsys):
    code, _, err = run_cli(capsys, "bench", "--sweep", "q=1..2")
    assert code == 2
    assert "sweep" in err


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
