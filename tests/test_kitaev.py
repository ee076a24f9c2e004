import numpy as np
import pytest
from numpy.testing import assert_allclose

from svtkit.access import exact_sampler
from svtkit.errors import SizeError
from svtkit.hamiltonian import (GlhProblem, LocalHamiltonian, decide_glh,
                                ground_overlap)
from svtkit.kitaev import (GATES, Circuit, Gate, acceptance_probability,
                           build_gadget, build_gadget_pair, build_terms,
                           history_state, load_circuit, save_circuit,
                           semiclassical_guide, verify_gap_lemma)
from svtkit.oracle import exact_ground

X_CIRCUIT = Circuit(1, 1, [Gate("X", (2,), GATES["X"])])   # accepts
Z_CIRCUIT = Circuit(1, 1, [Gate("Z", (2,), GATES["Z"])])   # rejects
IDLE_CIRCUIT = Circuit(1, 1, [])                            # rejects


def test_acceptance_probability():
    assert acceptance_probability(X_CIRCUIT, "0") == 1.0
    assert acceptance_probability(Z_CIRCUIT, "0") == 0.0
    h_circ = Circuit(1, 1, [Gate("H", (2,), GATES["H"])])
    assert abs(acceptance_probability(h_circ, "0") - 0.5) < 1e-12


def test_gate_validation():
    with pytest.raises(ValueError, match="unitary"):
        Gate("bad", (1,), np.array([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        Gate("bad", (1, 1), np.eye(4))


def test_gate_ascending_swaps_cnot():
    g = Gate("CNOT", (2, 1), GATES["CNOT"])  # control 2, target 1
    wires, mat = g.ascending()
    assert wires == (1, 2)
    # |x y> -> |x xor y, y>: flips the first wire when the second is 1
    expected = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            expected[((x ^ y) << 1) | y, (x << 1) | y] = 1.0
    assert_allclose(mat.real, expected, atol=0)


def test_idle_only_prop_spectrum():
    # one idle gate: H_prop restricted to the clock is (I - X)/2 with
    # ground (|t0> + |t1>)/sqrt(2) and smallest nonzero eigenvalue 1
    h_in, h_prop, h_out, h_stab = build_terms(IDLE_CIRCUIT, "0", 1)
    prop = h_prop.to_dense()
    w = np.linalg.eigvalsh(prop)
    assert abs(w[w > 1e-12][0] - 1.0) < 1e-12
    psi = history_state(IDLE_CIRCUIT, "0", 1)
    assert abs(np.vdot(psi, prop @ psi)) < 1e-12


def test_terms_positive_semidefinite(rng):
    for circ, x in ((X_CIRCUIT, "0"), (Z_CIRCUIT, "0"),
                    (Circuit(2, 1, [Gate("CNOT", (1, 2), GATES["CNOT"]),
                                    Gate("H", (3,), GATES["H"])]), "10")):
        for block in build_terms(circ, x, 2):
            w = np.linalg.eigvalsh(block.to_dense())
            assert w[0] > -1e-10


def test_stab_zero_on_unary_strings():
    h_in, h_prop, h_out, h_stab = build_terms(X_CIRCUIT, "0", 2)
    m_total = 3
    dim_comp = 4
    stab = h_stab.to_dense()
    for t in range(m_total + 1):
        clock = int("1" * t + "0" * (m_total - t), 2) if t else 0
        for comp in range(dim_comp):
            idx = comp * 2 ** m_total + clock
            col = np.zeros(stab.shape[0])
            col[idx] = 1.0
            assert np.abs(stab @ col).max() < 1e-15


def test_history_state_zero_energy():
    h_in, h_prop, h_out, h_stab = build_terms(X_CIRCUIT, "0", 1)
    psi = history_state(X_CIRCUIT, "0", 1)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    energy = np.vdot(psi, (h_in.to_dense() + h_prop.to_dense()
                          + h_stab.to_dense()) @ psi)
    assert abs(energy) < 1e-10


def test_history_state_identity_circuit():
    psi = history_state(IDLE_CIRCUIT, "1", 2)
    # |x=1>|0>_B (x) uniform clock over t in {0, 1, 2}
    n_clock = 2
    comp = 1 << (2 + n_clock - 1)  # A-bit set, B zero
    expect = np.zeros(2 ** (2 + n_clock), dtype=complex)
    for t, clock in enumerate((0b00, 0b10, 0b11)):
        expect[comp | clock] = 1 / np.sqrt(3)
    assert_allclose(psi, expect, atol=1e-15)


def test_history_state_x_gate_two_step():
    # X on the input wire, no idling: (|0>|t=0> + |1>|t=1>)/sqrt(2) on A (x) C
    circ = Circuit(1, 1, [Gate("X", (1,), GATES["X"])])
    psi = history_state(circ, "0", 0)
    nz = np.flatnonzero(np.abs(psi) > 1e-14)
    assert list(nz) == [0, 5]  # |0,0,t=0> and |1,0,t=1>
    assert_allclose(psi[nz], [1 / np.sqrt(2)] * 2, atol=1e-15)


def test_semiclassical_guide_support_and_sampling(rng):
    guide = semiclassical_guide(X_CIRCUIT, "0", 1)
    vals = guide.base.dense()
    support = np.flatnonzero(np.abs(vals) > 0)
    assert support.size == 2  # N=1: flag 0 and flag 1
    assert_allclose(np.abs(vals[support]), 1 / np.sqrt(2), atol=1e-15)

    guide4 = semiclassical_guide(X_CIRCUIT, "0", 4)
    vals4 = guide4.base.dense()
    support4 = np.flatnonzero(np.abs(vals4) > 0)
    assert support4.size == 8  # 2 N strings
    draws = guide4.sample_many(rng, 100_000)
    freqs = np.bincount(draws)[support4 + 1] / draws.size
    assert np.all(np.abs(freqs - 1 / 8) < 0.01)


def test_semiclassical_guide_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        semiclassical_guide(X_CIRCUIT, "0", 3)


def test_guide_history_overlap_identity():
    for n_idle in (1, 2, 4):
        inst = build_gadget(X_CIRCUIT, "0", n_idle, delta_weight=1.0)
        got = abs(np.vdot(inst.guide.base.dense(), inst.history_with_flag())) ** 2
        assert abs(got - inst.guide_overlap_target) < 1e-10


def test_gadget_pair_no_case_identities():
    yes, no = build_gadget_pair(X_CIRCUIT, "0", IDLE_CIRCUIT, "0", 1,
                                delta_weight=1.0)
    assert no.no_case and not yes.no_case
    H = no.hamiltonian.to_dense()
    lam, proj = exact_ground(H)
    assert abs(lam * no.normalization - no.zero_block_level) < 1e-10
    g = no.guide.base.dense()
    assert abs(abs(np.vdot(no.no_block_ground(), g)) - 1 / np.sqrt(2)) < 1e-10


def test_gadget_yes_case_identities():
    yes, no = build_gadget_pair(X_CIRCUIT, "0", Z_CIRCUIT, "0", 1,
                                delta_weight=1.0)
    H = yes.hamiltonian.to_dense()
    hist = yes.history_with_flag()
    energy = np.vdot(hist, H @ hist).real * yes.normalization
    assert energy <= yes.alpha_prime + 1e-10


def test_gadget_block_structure():
    inst = build_gadget(X_CIRCUIT, "0", 1, delta_weight=1.0)
    H = inst.hamiltonian.to_dense()
    n = inst.hamiltonian.n
    p0 = np.kron(np.eye(2 ** (n - 1)), np.diag([1.0, 0.0]))
    assert np.abs(H @ p0 - p0 @ H).max() < 1e-12
    # the 0-block is exactly the scalar level
    zero_block = p0 @ H @ p0
    scaled = inst.zero_block_level / inst.normalization
    assert np.abs(zero_block - scaled * p0).max() < 1e-12


def test_gadget_normalized_to_unit_norm():
    inst = build_gadget(Z_CIRCUIT, "0", 2, delta_weight=1.0)
    w = np.linalg.eigvalsh(inst.hamiltonian.to_dense())
    assert max(abs(w[0]), abs(w[-1])) <= 1.0 + 1e-12
    assert inst.hamiltonian.k == 6


def test_gap_lemma_examples():
    gap = verify_gap_lemma(X_CIRCUIT, "0", 1)  # M = 2
    assert gap >= np.pi ** 2 / (64 * 8)
    assert gap > 0
    for circ, x, n_idle in ((Z_CIRCUIT, "0", 2), (IDLE_CIRCUIT, "1", 4)):
        verify_gap_lemma(circ, x, n_idle)


def test_gap_lemma_dense_cap_precedes_assembly(monkeypatch):
    # 2 wires + 1 gate + 10 idle steps = 13 A|B|C qubits, past the dense
    # cap; the SizeError must come before any sparse assembly
    def no_assembly(self):
        raise AssertionError("assembled past the dense cap")

    monkeypatch.setattr(LocalHamiltonian, "assemble_csr", no_assembly)
    with pytest.raises(SizeError):
        verify_gap_lemma(X_CIRCUIT, "0", 10)


def test_cap_enforced():
    with pytest.raises(SizeError):
        build_terms(X_CIRCUIT, "0", 32)


def test_pair_requires_separation():
    with pytest.raises(ValueError, match="not separated"):
        build_gadget_pair(Z_CIRCUIT, "0", IDLE_CIRCUIT, "0", 1,
                          delta_weight=1.0)


def test_end_to_end_pair_through_glh(rng):
    yes, no = build_gadget_pair(X_CIRCUIT, "0", IDLE_CIRCUIT, "0", 1,
                                delta_weight=1.0)
    lam_yes = exact_ground(yes.hamiltonian.to_dense())[0]
    lam_no = exact_ground(no.hamiltonian.to_dense())[0]
    gap = lam_no - lam_yes
    a, b = lam_yes + gap / 10, lam_no - gap / 10
    delta = 0.4
    assert ground_overlap(yes.hamiltonian, yes.guide.base.dense()) >= delta
    assert ground_overlap(no.hamiltonian, no.guide.base.dense()) >= delta
    for inst, want in ((yes, "LOW"), (no, "HIGH")):
        p = GlhProblem(hamiltonian=inst.hamiltonian, guide=inst.guide,
                       delta=delta, a=a, b=b)
        assert decide_glh(p, fail_prob=0.02).decision == want


def test_circuit_file_round_trip(tmp_path, rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    circ = Circuit(2, 1, [Gate("H", (1,), GATES["H"]),
                          Gate("CNOT", (1, 2), GATES["CNOT"]),
                          Gate("MAT2", (3,), q)])
    path = tmp_path / "c.circ"
    save_circuit(path, circ)
    loaded = load_circuit(path)
    assert loaded.n == 2 and loaded.p == 1 and loaded.n_gates == 3
    for ga, gb in zip(circ.gates, loaded.gates):
        assert ga.wires == gb.wires
        assert np.abs(ga.matrix - gb.matrix).max() < 1e-15


def test_circuit_loader_errors(tmp_path):
    path = tmp_path / "bad.circ"
    path.write_text("1 1 1\nFOO 1\n")
    from svtkit.errors import ParseError
    with pytest.raises(ParseError, match="unknown gate"):
        load_circuit(path)
