"""Reference operators and kernels for the tests, built independently of
the simulator: the simulator holds a CNOT as its (control, target) pair and
never builds its register-size matrix, and applies a one-qubit channel to
every qubit in one call, one gather per qubit, not by ``qubit_kernel``'s
term-by-term products (``every_qubit_kernel`` calls it per qubit).
``column`` renders a rotation column by one gather per qubit from a digit
table of every qubit, where the simulator multiplies the factors into one
outer product and reads it with one gather that also carries the CNOT run
after the column.  ``cnot_rows`` and ``cnot_chain_ptm`` build a CNOT run
by bit arithmetic and letter by letter, where the simulator composes one
two-digit table.  ``layer_ops`` and ``evolve`` assemble each layer on its
own, rendering its rotation columns with ``column`` as the layer is
reached, where the simulator renders every column of the circuit in one
call before the first layer; ``evolve`` allocates every product anew and
applies the layer noise by ``layer_channel``, where the simulator writes
each layer into stacks it holds for the whole call, and renders each
layer's first column on its own, where the simulator renders the first
columns of a stretch of layers in one call.  ``pauli_rows`` parses each
string's letters in Python, string by string, where the simulator reads
one array of byte codes through lookup tables.  ``random_two_local``
builds the drawn, the shifted and the final Hamiltonian in turn, each
from the strings built afresh, where the simulator builds the strings
and where they scatter once per width and no shifted Hamiltonian."""

from functools import lru_cache

import numpy as np

from nibp_lab import circuits
from nibp_lab.hamiltonians import Hamiltonian, two_local_strings
from nibp_lab.channels import _apply_kraus, transfer_matrix, unitary_channel
from nibp_lab.pauli import DensityMatrix, pauli_strings_by_weight

_FLIPS = str.maketrans("IXYZ", "0110")  # the letters that flip their qubit's bit
_SIGNS = str.maketrans("IXYZ", "0011")  # the letters that negate a set bit's row


def pauli_rows(strings):
    """``pauli.pauli_rows`` string by string: (flips, phases), row i of
    string t's matrix holding phases[t, i] at column i ^ flips[t]."""
    flips = np.array([int(s.translate(_FLIPS), 2) for s in strings])
    signed = np.array([int(s.translate(_SIGNS), 2) for s in strings])
    n = len(strings[0])
    set_bits = np.arange(2**n) & signed[:, None]
    # bit 0 of the XOR of every shift is the parity of the set bits
    parity = np.zeros_like(set_bits)
    for k in range(n):
        parity ^= set_bits >> k
    ys = np.array([(1, -1j, -1, 1j)[s.count("Y") % 4] for s in strings])
    return flips, np.where(parity & 1, -1.0, 1.0) * ys[:, None]


def random_two_local(n, seed):
    """``hamiltonians.random_two_local`` as three Hamiltonians: the drawn
    one, the one with its ground energy shifted into h0, and that one
    rescaled by its Hilbert-Schmidt norm."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    strings = two_local_strings(n)
    coeffs = rng.uniform(0.0, 1.0, size=len(strings))
    h = Hamiltonian(n=n, terms=tuple(zip(strings, coeffs)), h0=0.0)
    shifted = Hamiltonian(n=n, terms=h.terms, h0=-h.ground_energy() * np.sqrt(2**n))
    scale = shifted.hs_norm()
    return Hamiltonian(n=n, terms=tuple((s, c / scale) for s, c in shifted.terms),
                       h0=shifted.h0 / scale)


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def embed_unitary(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Lift a k-qubit operator to the full 2^n space on the given qubits
    (qubit 0 the most significant)."""
    k = len(targets)
    assert u.shape == (2**k, 2**k)
    others = [q for q in range(n) if q not in targets]
    inv = np.argsort(list(targets) + others)
    t = np.kron(u, np.eye(2 ** (n - k), dtype=complex)).reshape((2,) * (2 * n))
    t = t.transpose(list(inv) + [n + i for i in inv])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def gate_matrix(gate, n: int) -> np.ndarray:
    """A CNOT's or a fixed gate's full-register matrix."""
    return gate.matrix if gate.cnot is None else embed_unitary(CNOT, gate.cnot, n)


def qubit_kernel(channel, rho: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """The one-qubit ``channel`` on ``qubit`` of an n-qubit state (d x d or
    (B, d, d)), by the per-term kernel the simulator used before its
    gather form: each 2 x 2 Kraus operator is diag(k00, k11) plus
    diag(k01, k10) X; K on the row axis, then conj(K) on the column axis,
    one broadcast multiply per nonzero part (X a reversed view), summed
    into zeros in Kraus order."""
    terms = []
    for k in channel.kraus_ops:
        parts = tuple(
            (v[:, None], v.conj()[:, None]) if np.any(v) else None
            for v in (np.array([k[0, 0], k[1, 1]]), np.array([k[0, 1], k[1, 0]]))
        )
        if parts != (None, None):
            terms.append(parts)
    b = 2 ** (n - qubit - 1)
    rows = rho.reshape(-1, 2, b * 2**n)
    out = np.zeros_like(rho)
    for diag, anti in terms:
        left = _side(rows, diag, anti, 0)
        out += _side(left.reshape(-1, 2, b), diag, anti, 1).reshape(rho.shape)
    return out


def every_qubit_kernel(channel, rho: np.ndarray) -> np.ndarray:
    """``qubit_kernel`` on each qubit of a d x d state or (B, d, d) stack
    in turn, qubit 0 first: the noise after a layer, one qubit per call."""
    n = rho.shape[-1].bit_length() - 1
    for q in range(n):
        rho = qubit_kernel(channel, rho, q, n)
    return rho


def _side(x: np.ndarray, diag, anti, which: int) -> np.ndarray:
    """k x along axis 1 of x (which=0), or conj(k) x (which=1)."""
    if anti is None:
        return diag[which] * x
    swapped = anti[which] * x[:, ::-1]
    return swapped if diag is None else diag[which] * x + swapped


def column(qubits, factors: np.ndarray, n: int) -> np.ndarray:
    """The product of one-qubit factors on the distinct ``qubits`` (in gate
    order), ``factors[..., k, :, :]`` the base x base factor on its k-th
    qubit (2 x 2 operators or 4 x 4 Pauli transfer matrices): each
    factor's entries gathered at the digits of every row and column and
    multiplied in gate order, times the 0/1 mask of the entries that
    agree on every other qubit."""
    base = factors.shape[-1]
    factors = factors.reshape(factors.shape[:-2] + (base * base,))
    index = digit_index(n, base)
    qubits = list(qubits)
    out = factors[..., 0, :].take(index[qubits[0]], axis=-1)
    for k, q in enumerate(qubits[1:], start=1):
        out *= factors[..., k, :].take(index[q], axis=-1)
    if len(qubits) < n:
        # base * i_q + j_q is a multiple of base + 1 where i_q == j_q
        missing = [q for q in range(n) if q not in qubits]
        out *= (index[missing] % (base + 1) == 0).all(axis=0)
    return out


def digit_index(n: int, base: int) -> np.ndarray:
    """(n, D, D) array: entry [q, i, j] = base * i_q + j_q, the flat
    position in a base x base factor on qubit q of its entry at row i,
    column j.  Base 2: the 2^n basis states, i_q the bit of qubit q (qubit
    0 the most significant).  Base 4: the 4^n - 1 traceless Hamming-ordered
    Pauli strings, i_q the letter (I, X, Y, Z = 0..3) of string i on q."""
    if base == 2:
        digits = np.arange(2**n) // 2 ** np.arange(n - 1, -1, -1)[:, None] % 2
    else:
        strings = pauli_strings_by_weight(n)[1:]
        digits = np.array([["IXYZ".index(ch) for ch in s] for s in strings]).T
    return base * digits[:, :, None] + digits[:, None, :]


def cnot_rows(chain, n: int) -> np.ndarray:
    """The CNOTs ``chain`` ((control, target) in gate order) as a row
    permutation: their product applied to A is ``A[..., rows, :]``.  One
    CNOT flips the target bit of the basis states whose control bit is set
    (qubit 0 the most significant)."""
    states = np.arange(2**n)
    rows = states
    for c, t in chain:
        rows = rows[states ^ (((states >> (n - 1 - c)) & 1) << (n - 1 - t))]
    return rows


@lru_cache(maxsize=1)
def cnot_letters() -> dict:
    """CNOT (a b) CNOT = sign (a' b') for each two-letter Pauli string ab
    (control letter first), as {ab: (a'b', sign)}, read off the transfer
    matrix of the 4 x 4 CNOT."""
    t = transfer_matrix(unitary_channel(CNOT))
    strings = pauli_strings_by_weight(2)
    src = np.abs(t).argmax(axis=1)
    return {s: (strings[j], float(np.rint(t[i, j]))) for i, (s, j) in enumerate(zip(strings, src))}


def cnot_chain_ptm(chain, n: int):
    """The CNOTs ``chain`` as a signed permutation (src, sign) of the
    traceless Hamming-ordered Pauli strings: it acts on a matrix A as
    ``sign[:, None] * A[src]``.  String src[i] is sign[i] times string i
    conjugated by each CNOT of the chain, last gate first, letter pair by
    letter pair."""
    strings = pauli_strings_by_weight(n)[1:]
    position = {s: i for i, s in enumerate(strings)}
    table = cnot_letters()
    src, sign = np.empty(len(strings), dtype=np.intp), np.ones(len(strings))
    for i, s in enumerate(strings):
        letters = list(s)
        for c, t in reversed(chain):
            (letters[c], letters[t]), flip = table[letters[c] + letters[t]]
            sign[i] *= flip
        src[i] = position["".join(letters)]
    return src, sign


def layer_ops(circ, thetas, layer):
    """The layer's gates as an ordered list of Kraus sets.

    Each stretch of unitary runs is one product ``acc``: a rotation column
    enters as its ``column`` unitary followed by its chain's ``cnot_rows``,
    a CNOT run as a row permutation of ``acc``, any other gate as
    ``u @ acc``.  Each random-unitary mixture is its own set.  ``thetas``
    of shape (P,) gives d x d operators, (B, P) gives (B, d, d) stacks for
    the angle-dependent ones.
    """
    n = circ.n
    ops, acc = [], None
    for kind, run in circ.layer_runs(layer):
        if kind == "mixture":
            if acc is not None:
                ops.append([acc])
                acc = None
            index, spec = run
            ops.append(circuits._mixture_ops(spec, thetas[..., index]))
        elif kind == "cnots":
            rows = cnot_rows(run, n)
            acc = np.eye(2**n, dtype=complex)[rows] if acc is None else acc[..., rows, :]
        else:
            if kind == "column":
                angles = thetas[..., list(run.params)]
                factors = circuits._rotation(circuits._paulis_1q(run.letters), angles)
                u = column(run.qubits, factors, n)[..., cnot_rows(run.chain, n), :]
            else:
                u = circuits._gate_unitary(run, thetas)
            acc = u if acc is None else u @ acc
    if acc is not None:
        ops.append([acc])
    return ops


def evolve(circ, thetas, noise):
    """``circuits.evolve`` of a (B, P) angle stack with every layer built by
    ``layer_ops``."""
    n = circ.n
    rho = np.repeat(DensityMatrix.ground_state(n).data[None], len(thetas), axis=0)
    for layer, channel in enumerate(noise.per_layer(circ)):
        for ops in layer_ops(circ, thetas, layer):
            rho = _apply_kraus(rho, ops)
        rho = layer_channel(rho, channel)
    return rho


def layer_channel(rho: np.ndarray, channel) -> np.ndarray:
    """A layer entry on a (B, d, d) stack: None leaves it, a full-register
    channel is its Kraus sum, a one-qubit channel goes on every qubit by
    ``every_qubit_kernel``."""
    if channel is None:
        return rho
    if 2**channel.n == rho.shape[-1]:
        return _apply_kraus(rho, channel.kraus_ops)
    return every_qubit_kernel(channel, rho)
