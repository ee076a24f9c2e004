"""Save -> load round trips and malformed-input rejection for the vector,
matrix, Hamiltonian and circuit text formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svtkit.access import (SparseMatrix, load_matrix, load_vector, save_matrix,
                           save_vector)
from svtkit.errors import ParseError
from svtkit.hamiltonian import (LocalHamiltonian, LocalTerm, load_hamiltonian,
                                save_hamiltonian)
from svtkit.kitaev import GATES, Circuit, Gate, load_circuit, save_circuit

finite = st.floats(-1e6, 1e6)
complexes = st.builds(complex, finite, finite)
nonzero_complexes = complexes.filter(lambda z: z != 0)


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(1, nrows), st.integers(1, ncols))
    entries = draw(st.dictionaries(cells, nonzero_complexes, min_size=1,
                                   max_size=12))
    return SparseMatrix.from_entries(
        nrows, ncols, [(i, j, z) for (i, j), z in entries.items()])


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, 2)))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, k))
        qubits = draw(st.permutations(range(1, n + 1)))[:j]
        dim = 2 ** j
        m = np.array(draw(st.lists(complexes, min_size=dim * dim,
                                   max_size=dim * dim))).reshape(dim, dim)
        terms.append(LocalTerm(qubits, m + m.conj().T))  # exactly Hermitian
    return LocalHamiltonian(n, k, terms)


def _unitary(t, a, b):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -np.exp(1j * b) * s],
                     [np.exp(1j * a) * s, np.exp(1j * (a + b)) * c]])


@st.composite
def circuits(draw):
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    wires = st.integers(1, n + p)
    angles = st.floats(-math.pi, math.pi)
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["named", "CNOT", "MAT2", "MAT4"]))
        if kind == "named":
            name = draw(st.sampled_from(["H", "X", "Z", "T"]))
            gates.append(Gate(name, (draw(wires),), GATES[name]))
            continue
        pair = tuple(draw(st.permutations(range(1, n + p + 1)))[:2])
        if kind == "CNOT":
            gates.append(Gate("CNOT", pair, GATES["CNOT"]))
        elif kind == "MAT2":
            u = _unitary(draw(angles), draw(angles), draw(angles))
            gates.append(Gate("MAT2", pair[:1], u))
        else:
            u = np.kron(_unitary(draw(angles), draw(angles), draw(angles)),
                        _unitary(draw(angles), draw(angles), draw(angles)))
            gates.append(Gate("MAT4", pair, u))
    return Circuit(n, p, gates)


def _vectors():
    return st.lists(complexes, min_size=1, max_size=20).map(np.array)


FORMATS = {
    "vector": (_vectors(), save_vector, load_vector),
    "matrix": (matrices(), save_matrix, load_matrix),
    "hamiltonian": (hamiltonians(), save_hamiltonian, load_hamiltonian),
    "circuit": (circuits(), save_circuit, load_circuit),
}


def _same(kind, a, b):
    if kind == "vector":
        return np.array_equal(a, b)
    if kind == "matrix":
        return (a.s == b.s and a.nrows == b.nrows and a.ncols == b.ncols
                and np.array_equal(a.to_dense(), b.to_dense()))
    if kind == "hamiltonian":
        return ((a.n, a.k, a.num_terms) == (b.n, b.k, b.num_terms)
                and all(ta.qubits == tb.qubits
                        and np.array_equal(ta.block, tb.block)
                        for ta, tb in zip(a.terms, b.terms)))
    return ((a.n, a.p, a.n_gates) == (b.n, b.p, b.n_gates)
            and all(ga.wires == gb.wires and np.array_equal(ga.matrix, gb.matrix)
                    for ga, gb in zip(a.gates, b.gates)))


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_file_round_trip_is_exact(tmp_path_factory, kind, data):
    objects, save, load = FORMATS[kind]
    obj = data.draw(objects)
    path = tmp_path_factory.mktemp(kind) / "f.txt"
    save(path, obj)
    got = load(path)
    assert _same(kind, obj, got)
    text = path.read_text()
    save(path, got)
    assert path.read_text() == text


def _float_tokens(lines):
    """(line index, token index) of every float written by a saver: its
    repr holds a '.' or an exponent, while counts, indices and gate names
    hold neither."""
    return [(ln, t) for ln, line in enumerate(lines) if ln > 0
            for t, tok in enumerate(line.split()) if "." in tok or "e" in tok]


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), bad=st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999",
                                            "abc", "0x1p3", "1.0.0", ""]))
def test_loader_rejects_a_bad_float_at_its_line(tmp_path_factory, kind, data, bad):
    objects, save, load = FORMATS[kind]
    path = tmp_path_factory.mktemp(kind) / "f.txt"
    save(path, data.draw(objects))
    lines = path.read_text().splitlines()
    spots = _float_tokens(lines)
    if not spots:  # a Hamiltonian with no terms or a named-gate circuit
        return
    ln, t = data.draw(st.sampled_from(spots))
    tokens = lines[ln].split()
    tokens[t] = bad  # "" drops the token
    lines[ln] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {ln + 1}:"):
        load(path)


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_loader_rejects_a_truncated_file(tmp_path_factory, kind, data):
    objects, save, load = FORMATS[kind]
    path = tmp_path_factory.mktemp(kind) / "f.txt"
    save(path, data.draw(objects))
    lines = path.read_text().splitlines()
    if len(lines) == 1:  # nothing past the header to cut
        return
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="^line "):
        load(path)


@pytest.mark.parametrize("kind, text, line", [
    ("matrix", "2 2 2 1\n1 1 nan 0\n2 2 0.5 0\n", 2),
    ("vector", "1\ninf 0\n", 2),
    ("hamiltonian", "1 1 1\n1\n1.0 0.0 0.0 0.0\n0.0 0.0 inf 0.0\n", 4),
    ("circuit", "1 1 1\nMAT2 1 nan 0 0 0 0 0 1 0\n", 2),
    ("hamiltonian", "2 1 -1\n", 1),
    ("vector", "-1\n", 1),
    ("matrix", "2 2 -1 1\n", 1),
    ("circuit", "1 1 -1\n", 1),
])
def test_loaders_reject_non_finite_values(tmp_path, kind, text, line):
    path = tmp_path / kind
    path.write_text(text)
    # the line-1 rows declare a negative count, which the message names
    message = "must be nonnegative" if line == 1 else ""
    with pytest.raises(ParseError, match=f"^line {line}:.*{message}"):
        FORMATS[kind][2](path)


def test_constructors_reject_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix.from_dense(np.array([[np.nan, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix.from_entries(2, 2, [(1, 1, complex(np.inf)), (2, 2, 0.5)])
    with pytest.raises(ValueError, match="finite"):
        LocalTerm((1,), np.array([[1.0, 0.0], [0.0, np.inf]]))
    with pytest.raises(ValueError, match="finite"):
        LocalTerm((1,), np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        Gate("MAT2", (1,), np.array([[np.nan, 0.0], [0.0, 1.0]]))
