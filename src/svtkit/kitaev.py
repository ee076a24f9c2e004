"""Circuit-to-Hamiltonian instance generator.

Maps a small quantum circuit to a guided local-Hamiltonian instance
with analytically known properties, for end-to-end testing: the clock
construction (initialization, propagation, output and clock-stabilizer
terms over a unary clock register), pre-idling so the early time steps
dominate, and a flag-qubit gadget that pins the NO-case ground space to
an explicitly known subset state.

Register layout, qubit 1 = most significant bit of the basis index:

    A (n input qubits) | B (p ancillas) | C (M unary clock qubits) | D (flag)

Clock value t in {0, ..., M} is the string 1^t 0^(M-t) over the M clock
qubits; stabilizer terms penalize every "01" pattern, and the strings
without one are exactly the M+1 unary encodings, so there is no spare
zero-energy clock state.  All generated terms act on at most 5 qubits
before the flag, 6 with it.

The flag gadget is  H = L I (x) |0><0|_D + H' (x) |1><1|_D  with
H' = Delta (H_in + H_prop + H_stab) + H_out and L = (a' + b')/2.  The
levels a' (the YES-side history-state energy bound (1-alpha)/(M+1)) and
b' (the NO-side ground energy of H', computed exactly rather than from
an asymptotic bound) are shared between the two instances of a YES/NO
pair, which is what places the NO-case ground space entirely in the
0-block; single instances built in isolation take their own branch's
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .access import SampledVector, exact_sampler
from .errors import ParseError, SizeError, reject_trailing
from .hamiltonian import LocalHamiltonian, LocalTerm

__all__ = [
    "Gate",
    "Circuit",
    "KitaevInstance",
    "build_terms",
    "history_state",
    "semiclassical_guide",
    "build_gadget",
    "build_gadget_pair",
    "verify_gap_lemma",
    "load_circuit",
    "save_circuit",
    "GATES",
]

TOTAL_QUBIT_CAP = 18

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_FLIP10 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
_I2 = np.eye(2, dtype=complex)

GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    name: str
    wires: tuple
    matrix: np.ndarray

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(wires)
        if len(wires) not in (1, 2) or len(set(wires)) != len(wires):
            raise ValueError("gates act on one or two distinct wires")
        if m.shape != (dim, dim):
            raise ValueError(f"gate matrix must be {dim}x{dim}")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"gate {self.name} entries must be finite")
        if not np.abs(m @ m.conj().T - np.eye(dim)).max() <= 1e-12:
            raise ValueError(f"gate {self.name} is not unitary to 1e-12")
        object.__setattr__(self, "matrix", m)

    def ascending(self) -> tuple:
        """(sorted wires, matrix permuted to ascending wire order)."""
        if len(self.wires) == 1 or self.wires[0] < self.wires[1]:
            return self.wires, self.matrix
        return (self.wires[1], self.wires[0]), _SWAP @ self.matrix @ _SWAP


class Circuit:
    """1- and 2-qubit gates on n input wires and p ancilla wires.

    Wires are numbered 1..n for the input register and n+1..n+p for the
    ancillas; the designated output wire defaults to the first ancilla.
    """

    def __init__(self, n: int, p: int, gates, output_wire: int | None = None):
        if n < 1 or p < 1:
            raise ValueError("need at least one input and one ancilla wire")
        self.n = n
        self.p = p
        self.gates = tuple(gates)
        self.output_wire = output_wire if output_wire is not None else n + 1
        w = self.n_wires
        for g in self.gates:
            if min(g.wires) < 1 or max(g.wires) > w:
                raise ValueError(f"gate {g.name} on wires {g.wires} outside [1, {w}]")
        if not 1 <= self.output_wire <= w:
            raise ValueError("output wire out of range")

    @property
    def n_wires(self) -> int:
        return self.n + self.p

    @property
    def n_gates(self) -> int:
        return len(self.gates)


def _parse_input(circuit: Circuit, x) -> tuple:
    bits = tuple(int(b) for b in x)
    if len(bits) != circuit.n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"input must be {circuit.n} bits")
    return bits


def _apply_gate(state: np.ndarray, gate: Gate, n_wires: int) -> np.ndarray:
    k = len(gate.wires)
    psi = state.reshape([2] * n_wires)
    op = gate.matrix.reshape([2] * (2 * k))
    axes = [w - 1 for w in gate.wires]
    out = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), axes))
    out = np.moveaxis(out, list(range(k)), axes)
    return out.reshape(-1)


def _simulate(circuit: Circuit, bits) -> list:
    """States psi_t = U_t ... U_1 |x, 0...0> for t = 0..m (no pre-idling)."""
    w = circuit.n_wires
    idx = 0
    for q, b in enumerate(bits, start=1):
        idx |= b << (w - q)
    psi = np.zeros(2 ** w, dtype=complex)
    psi[idx] = 1.0
    states = [psi]
    for g in circuit.gates:
        states.append(_apply_gate(states[-1], g, w))
    return states


def acceptance_probability(circuit: Circuit, x) -> float:
    """Probability that the output wire measures 1 after the circuit."""
    bits = _parse_input(circuit, x)
    final = _simulate(circuit, bits)[-1]
    w = circuit.n_wires
    probs = np.abs(final.reshape([2] * w)) ** 2
    out_axis = circuit.output_wire - 1
    return float(np.take(probs, 1, axis=out_axis).sum())


def _clock_qubit(circuit: Circuit, j: int) -> int:
    return circuit.n_wires + j


def _clock_index(t: int, n_clock: int) -> int:
    """Basis index of the unary string 1^t 0^(n_clock - t)."""
    out = 0
    for j in range(1, t + 1):
        out |= 1 << (n_clock - j)
    return out


def _prop_clock_blocks(t: int, m_total: int):
    """Local clock operators for H_t: (clock qubit offsets, projector sum
    |t><t| + |t-1><t-1|, transition |t><t-1|), in the local encoding."""
    M = m_total
    if M == 1:
        # single clock qubit, t = 1
        return (1,), _I2.copy(), _FLIP10
    if t == 1:
        proj = np.kron(_P1, _P0) + np.kron(_P0, _I2)
        return (1, 2), proj, np.kron(_FLIP10, _P0)
    if t == M:
        proj = np.kron(_I2, _P1) + np.kron(_P1, _P0)
        return (M - 1, M), proj, np.kron(_P1, _FLIP10)
    proj = (np.kron(_I2, np.kron(_P1, _P0))
            + np.kron(_P1, np.kron(_P0, _I2)))
    return (t - 1, t, t + 1), proj, np.kron(_P1, np.kron(_FLIP10, _P0))


def _prop_term(circuit: Circuit, t: int, m_total: int,
               gate: Gate | None) -> LocalTerm:
    """H_t = 1/2 (|t><t| + |t-1><t-1|) - 1/2 (U_t (x) |t><t-1| + h.c.),
    with the clock dyads in their local 2- and 3-qubit encodings (exact
    on the unary subspace, positive semidefinite everywhere)."""
    offsets, proj, trans = _prop_clock_blocks(t, m_total)
    clock_q = tuple(_clock_qubit(circuit, j) for j in offsets)
    if gate is None:
        block = 0.5 * proj - 0.5 * (trans + trans.conj().T)
        return LocalTerm(clock_q, block)
    wires, u = gate.ascending()
    dim = u.shape[0]
    block = (0.5 * np.kron(np.eye(dim), proj)
             - 0.5 * (np.kron(u, trans) + np.kron(u.conj().T, trans.conj().T)))
    return LocalTerm((*wires, *clock_q), block)


def _local_terms(circuit: Circuit, x, n_idle: int):
    """The four clock-construction term groups for the pre-idled circuit.

    Initialization is penalized per qubit (wrong input bit, or ancilla
    not zero, each tensored with the t=0 clock projector); a combined
    projector over the whole A|B register would not be local.
    """
    bits = _parse_input(circuit, x)
    if n_idle < 0 or circuit.n_gates + n_idle < 1:
        raise ValueError("need at least one gate or idle step")
    m_total = circuit.n_gates + n_idle
    c1 = _clock_qubit(circuit, 1)

    h_in = []
    for q, b in enumerate(bits, start=1):
        wrong = _P1 if b == 0 else _P0
        h_in.append(LocalTerm((q, c1), np.kron(wrong, _P0)))
    for j in range(1, circuit.p + 1):
        h_in.append(LocalTerm((circuit.n + j, c1), np.kron(_P1, _P0)))

    gates_eff: list = [None] * n_idle + list(circuit.gates)
    h_prop = [_prop_term(circuit, t, m_total, g)
              for t, g in enumerate(gates_eff, start=1)]

    h_out = [LocalTerm((circuit.output_wire, _clock_qubit(circuit, m_total)),
                       np.kron(_P0, _P1))]

    h_stab = [LocalTerm(
        (_clock_qubit(circuit, j), _clock_qubit(circuit, j + 1)),
        np.kron(_P0, _P1)) for j in range(1, m_total)]
    return h_in, h_prop, h_out, h_stab


def _check_cap(circuit: Circuit, n_idle: int) -> int:
    m_total = circuit.n_gates + n_idle
    total = circuit.n_wires + m_total + 1
    if total > TOTAL_QUBIT_CAP:
        raise SizeError(f"instance needs {total} qubits (incl. flag), "
                        f"cap is {TOTAL_QUBIT_CAP}")
    return m_total


def build_terms(circuit: Circuit, x, n_idle: int):
    """SparseMatrix (H_in, H_prop, H_out, H_stab) over the A|B|C register
    for the pre-idled circuit (first ``n_idle`` gates are identities)."""
    n_abc = circuit.n_wires + _check_cap(circuit, n_idle)
    return tuple(LocalHamiltonian(n_abc, 5, g).assemble_csr()
                 for g in _local_terms(circuit, x, n_idle))


def history_state(circuit: Circuit, x, n_idle: int) -> np.ndarray:
    """(1/sqrt(M+1)) sum_t U_t...U_1 |x, 0> (x) |t> over A|B|C."""
    m_total = _check_cap(circuit, n_idle)
    bits = _parse_input(circuit, x)
    comp_states = _simulate(circuit, bits)
    n_clock = m_total
    out = np.zeros(2 ** (circuit.n_wires + n_clock), dtype=complex)
    dim_clock = 2 ** n_clock
    for t in range(m_total + 1):
        # pre-idled: steps 1..n_idle keep the initial state
        comp = comp_states[0] if t <= n_idle else comp_states[t - n_idle]
        clock = _clock_index(t, n_clock)
        base = np.arange(comp.size) * dim_clock + clock
        out[base] += comp
    return out / math.sqrt(m_total + 1)


def _guide_support(circuit: Circuit, bits, n_idle: int, m_total: int):
    """Full-register basis indices of |x>|0>_B |t> for t = 1..N, flag 0."""
    w = circuit.n_wires
    n_clock = m_total
    comp = 0
    for q, b in enumerate(bits, start=1):
        comp |= b << (w - q)
    return [(comp << (n_clock + 1)) | (_clock_index(t, n_clock) << 1)
            for t in range(1, n_idle + 1)]


def semiclassical_guide(circuit: Circuit, x, n_idle: int) -> SampledVector:
    """Subset state |x>|0>_B (clock uniform over t=1..N) |+>_D with exact
    sampling-access; N must be a power of two."""
    if n_idle < 1 or n_idle & (n_idle - 1):
        raise ValueError("idle count must be a power of two")
    m_total = _check_cap(circuit, n_idle)
    bits = _parse_input(circuit, x)
    vec = np.zeros(2 ** (circuit.n_wires + m_total + 1), dtype=complex)
    amp = 1.0 / math.sqrt(2 * n_idle)
    for base in _guide_support(circuit, bits, n_idle, m_total):
        vec[base] = amp       # flag 0
        vec[base | 1] = amp   # flag 1
    return exact_sampler(vec)


@dataclass
class KitaevInstance:
    """Guided Hamiltonian instance with analytically known structure."""

    circuit: Circuit
    x: tuple
    n_idle: int
    m_total: int
    delta_weight: float
    alpha: float
    alpha_prime: float
    beta_prime: float
    normalization: float
    hamiltonian: LocalHamiltonian
    history: np.ndarray
    guide: SampledVector
    no_case: bool

    @property
    def zero_block_level(self) -> float:
        """Unnormalized flag-0 energy (alpha' + beta') / 2."""
        return (self.alpha_prime + self.beta_prime) / 2.0

    @property
    def guide_overlap_target(self) -> float:
        """|<u | psi_hist (x) 1_D>|^2 = N / (2 (M+1))."""
        return self.n_idle / (2.0 * (self.m_total + 1))

    def history_with_flag(self) -> np.ndarray:
        """|psi_hist> (x) |1>_D in the full register."""
        return np.kron(self.history, np.array([0.0, 1.0], dtype=complex))

    def no_block_ground(self) -> np.ndarray:
        """|x>|0>_B (clock uniform over t=1..N) |0>_D, the explicit
        0-block ground state in the NO case."""
        vec = np.zeros(self.hamiltonian.dim, dtype=complex)
        for base in _guide_support(self.circuit, self.x, self.n_idle,
                                   self.m_total):
            vec[base] = 1.0
        return vec / np.linalg.norm(vec)


def _build_instance(circuit: Circuit, x, n_idle: int, delta_weight,
                    alpha_prime=None, beta_prime=None) -> KitaevInstance:
    m_total = _check_cap(circuit, n_idle)
    bits = _parse_input(circuit, x)
    alpha = acceptance_probability(circuit, x)
    if alpha_prime is None:
        alpha_prime = (1.0 - alpha) / (m_total + 1)
    if delta_weight is None:
        delta_weight = max(
            1.0, 10.0 * m_total ** 3 * alpha_prime / (math.pi ** 2 / 64.0))

    h_in, h_prop, h_out, h_stab = _local_terms(circuit, x, n_idle)
    weighted = [t.scaled(delta_weight)
                for t in (*h_in, *h_prop, *h_stab)] + list(h_out)
    n_abc = circuit.n_wires + m_total
    lo, hi = LocalHamiltonian(n_abc, 5, weighted).extremal_eigenvalues()
    if beta_prime is None:
        beta_prime = lo
    zero_level = (alpha_prime + beta_prime) / 2.0
    normalization = max(abs(zero_level), abs(lo), abs(hi))

    flag = n_abc + 1
    gadget_terms = [LocalTerm((flag,), _P0 * (zero_level / normalization))]
    for t in weighted:
        gadget_terms.append(
            LocalTerm((*t.qubits, flag), np.kron(t.block, _P1) / normalization))
    ham = LocalHamiltonian(n_abc + 1, 6, gadget_terms)

    return KitaevInstance(
        circuit=circuit, x=bits, n_idle=n_idle, m_total=m_total,
        delta_weight=delta_weight, alpha=alpha, alpha_prime=alpha_prime,
        beta_prime=beta_prime, normalization=normalization, hamiltonian=ham,
        history=history_state(circuit, x, n_idle),
        guide=semiclassical_guide(circuit, x, n_idle),
        no_case=beta_prime > alpha_prime and lo > zero_level)


def build_gadget(circuit: Circuit, x, n_idle: int,
                 delta_weight: float | None = None) -> KitaevInstance:
    """Gadget instance for a single circuit.

    Takes alpha' = (1 - alpha)/(M + 1) from the circuit's exact
    acceptance probability and beta' = the exact minimum eigenvalue of
    H'.  Fact-1 style bounds give lambda_min(H') <= alpha' for every
    circuit, so a rejecting circuit built in isolation has its ground
    state in the 1-block and ``no_case`` stays False; use
    :func:`build_gadget_pair` to pin the NO-case ground space to the
    0-block.
    """
    return _build_instance(circuit, x, n_idle, delta_weight)


def build_gadget_pair(yes_circuit: Circuit, yes_x, no_circuit: Circuit, no_x,
                      n_idle: int, delta_weight: float | None = None):
    """YES/NO instance pair sharing the gadget levels.

    alpha' is the YES branch's history-state energy bound and beta' the
    NO branch's exact ground energy of H', as in the hardness reduction
    where both are properties of the problem family.  Requires
    alpha' < beta', i.e. the branches must actually be separated.
    Returns (yes_instance, no_instance).
    """
    yes_probe = _build_instance(yes_circuit, yes_x, n_idle, delta_weight)
    no_probe = _build_instance(no_circuit, no_x, n_idle, delta_weight)
    alpha_prime = yes_probe.alpha_prime
    beta_prime = no_probe.beta_prime
    if alpha_prime >= beta_prime:
        raise ValueError(
            f"branches not separated: YES level {alpha_prime:.3e} >= "
            f"NO level {beta_prime:.3e}")
    yes_inst = _build_instance(yes_circuit, yes_x, n_idle,
                               yes_probe.delta_weight, alpha_prime,
                               beta_prime)
    no_inst = _build_instance(no_circuit, no_x, n_idle,
                              no_probe.delta_weight, alpha_prime,
                              beta_prime)
    return yes_inst, no_inst


def verify_gap_lemma(circuit: Circuit, x, n_idle: int) -> float:
    """Smallest nonzero eigenvalue of H_in + H_prop + H_stab, checked
    against the pi^2 / (64 M^3) lower bound."""
    m_total = _check_cap(circuit, n_idle)
    h_in, h_prop, h_out, h_stab = _local_terms(circuit, x, n_idle)
    # to_dense checks the dense cap before it assembles anything
    H = LocalHamiltonian(circuit.n_wires + m_total, 5, [*h_in, *h_prop, *h_stab])
    w = np.linalg.eigvalsh(H.to_dense())
    nonzero = w[w > 1e-10]
    if nonzero.size == 0:
        raise ValueError("no nonzero eigenvalues found")
    gap = float(nonzero[0])
    bound = math.pi ** 2 / (64.0 * m_total ** 3)
    if gap < bound * (1.0 - 1e-9):
        raise ValueError(
            f"smallest nonzero eigenvalue {gap:.3e} violates the "
            f"pi^2/(64 M^3) = {bound:.3e} bound")
    return gap


# ---------------------------------------------------------------------------
# Text format: header "n p m", then one gate per line: a named gate
# "NAME wire [wire2]", or "MAT2 wire" / "MAT4 wire1 wire2" followed on
# the same line by the 4 or 16 complex entries as "re im" pairs.
# ---------------------------------------------------------------------------


def save_circuit(path, circuit: Circuit):
    with open(path, "w") as fh:
        fh.write(f"{circuit.n} {circuit.p} {circuit.n_gates}\n")
        for g in circuit.gates:
            if g.name in GATES:
                fh.write(g.name + " " + " ".join(str(w) for w in g.wires) + "\n")
            else:
                tag = "MAT2" if len(g.wires) == 1 else "MAT4"
                nums = " ".join(f"{float(z.real)!r} {float(z.imag)!r}"
                                for z in g.matrix.ravel())
                fh.write(f"{tag} " + " ".join(str(w) for w in g.wires)
                         + " " + nums + "\n")


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty circuit file", line=1)
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header must be 'n p m'", line=1)
    try:
        n, p, m = (int(v) for v in head)
    except ValueError:
        raise ParseError("header must be three integers", line=1) from None
    if m < 0:
        raise ParseError("gate count must be nonnegative", line=1)
    gates = []
    for k in range(m):
        if k + 1 >= len(lines):
            raise ParseError(f"expected {m} gate lines", line=len(lines))
        parts = lines[k + 1].split()
        if not parts:
            raise ParseError("empty gate line", line=k + 2)
        name = parts[0].upper()
        try:
            if name in GATES:
                n_wires = 2 if name == "CNOT" else 1
                wires = tuple(int(v) for v in parts[1:1 + n_wires])
                if len(parts) != 1 + n_wires:
                    raise ValueError(f"{name} takes {n_wires} wire(s)")
                gates.append(Gate(name, wires, GATES[name]))
            elif name in ("MAT2", "MAT4"):
                n_wires = 1 if name == "MAT2" else 2
                dim = 2 ** n_wires
                wires = tuple(int(v) for v in parts[1:1 + n_wires])
                nums = [float(v) for v in parts[1 + n_wires:]]
                if len(nums) != 2 * dim * dim:
                    raise ValueError(f"{name} needs {2 * dim * dim} floats")
                if not all(map(math.isfinite, nums)):
                    raise ValueError(f"{name} entries must be finite")
                vals = np.array(nums).view(complex)  # keeps signed zeros
                gates.append(Gate(name, wires, vals.reshape(dim, dim)))
            else:
                raise ValueError(f"unknown gate '{name}'")
        except ValueError as exc:
            raise ParseError(str(exc), line=k + 2) from exc
    reject_trailing(lines, m + 1)
    try:
        return Circuit(n, p, gates)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
