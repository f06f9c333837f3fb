"""Dense reference operators for the tests, built independently of the
simulator: the simulator holds a CNOT as its (control, target) pair and
never builds its register-size matrix."""

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
