"""Reference operators and kernels for the tests, built independently of
the simulator: the simulator holds a CNOT as its (control, target) pair and
never builds its register-size matrix, and applies a one-qubit channel by
one gather per qubit, not by ``qubit_kernel``'s term-by-term products."""

import numpy as np

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


def _side(x: np.ndarray, diag, anti, which: int) -> np.ndarray:
    """k x along axis 1 of x (which=0), or conj(k) x (which=1)."""
    if anti is None:
        return diag[which] * x
    swapped = anti[which] * x[:, ::-1]
    return swapped if diag is None else diag[which] * x + swapped
