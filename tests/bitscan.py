"""Hash the outputs of 300 seeded random circuits into one sha256.

Run it on two source trees at the same seed; equal hashes mean the
simulator's outputs are bit for bit the same on both:

    PYTHONPATH=src python3 tests/bitscan.py 3

Each circuit has n = 1..4 qubits and L = 1..3 layers.  Its gates cover
every run kind: weight-1 rotations (columns), CNOTs, rotations of higher
weight, rotations with control noise, fixed unitaries and random-unitary
mixtures.  Its noise is none, a named channel on every qubit, a
full-register channel, or a per-layer tuple with gaps.  The hash covers
``evolve`` (one row and three), ``psr_gradient``, ``layer_unitary`` of
every layer, ``layer_affine_maps``, every fixed gate's matrix after those
calls, and the type and message of every refusal.  pytest does not
collect this file.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from nibp_lab.channels import named_channel, tensor_channel
from nibp_lab.circuits import (
    Circuit,
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    evolve,
    layer_unitary,
    perturbed_gate,
)
from nibp_lab.bounds import layer_affine_maps
from nibp_lab.gradients import psr_gradient
from nibp_lab.hamiltonians import Hamiltonian

CASES = 300
NAMED = ("depolarizing", "amplitude_damping", "bit_flip", "phase_flip", "flip_then_damp")
GATE_KINDS = ("rotation", "rotation", "rotation", "cnot", "cnot", "wide", "perturbed",
              "fixed", "mixture")
NOISE_KINDS = ("none", "named", "named", "register", "per_layer")


def _letters(rng: np.random.Generator, n: int, weight: int) -> str:
    qubits = set(rng.choice(n, size=weight, replace=False).tolist())
    return "".join(rng.choice(list("XYZ")) if q in qubits else "I" for q in range(n))


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def _gate(rng: np.random.Generator, n: int) -> Gate:
    kind = rng.choice([k for k in GATE_KINDS if n > 1 or k not in ("cnot", "wide")])
    if kind == "rotation":
        return Gate(generator=_letters(rng, n, 1))
    if kind == "cnot":
        c, t = rng.choice(n, size=2, replace=False).tolist()
        return Gate(cnot=(c, t))
    if kind == "wide":
        return Gate(generator=_letters(rng, n, int(rng.integers(2, n + 1))))
    if kind == "perturbed":
        return perturbed_gate(Gate(generator=_letters(rng, n, 1)),
                              {_letters(rng, n, 1): float(rng.uniform(-0.05, 0.05))})
    if kind == "fixed":
        return Gate(matrix=_unitary(rng, 2**n))
    k = int(rng.integers(1, 4))
    probs = rng.dirichlet(np.ones(k))
    probs = np.sort(probs)[::-1]
    probs[0] = 1.0 - probs[1:].sum()
    generators = tuple(_letters(rng, n, 1) for _ in range(k))
    return Gate(mixture=RandomUnitaryNoise(tuple(probs.tolist()), generators, 0))


def _channel(rng: np.random.Generator):
    return named_channel(str(rng.choice(NAMED)), float(rng.uniform(0.0, 1.0)))


def _noise(rng: np.random.Generator, n: int, depth: int) -> NoiseSpec:
    kind = rng.choice(NOISE_KINDS)
    if kind == "none":
        return NoiseSpec.none()
    if kind == "named":
        return NoiseSpec.uniform(_channel(rng))
    if kind == "register":
        return NoiseSpec.uniform(tensor_channel([_channel(rng) for _ in range(n)]))
    return NoiseSpec(tuple(None if rng.random() < 0.3 else _channel(rng) for _ in range(depth)))


def _hamiltonian(rng: np.random.Generator, n: int) -> Hamiltonian:
    strings = {_letters(rng, n, int(rng.integers(1, n + 1))) for _ in range(3)}
    return Hamiltonian(n=n, terms=tuple((s, float(rng.normal())) for s in sorted(strings)),
                       h0=float(rng.normal()))


class Digest:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def array(self, a) -> None:
        a = np.ascontiguousarray(a)
        self.sha.update(f"{a.dtype}{a.shape}".encode())
        self.sha.update(a.tobytes())

    def call(self, fn, *args) -> None:
        """Hash what ``fn(*args)`` returns, or the type and message of what it raises."""
        try:
            out = fn(*args)
        except (ValueError, TypeError) as exc:
            self.sha.update(f"{type(exc).__name__}: {exc}".encode())
            return
        for part in out if isinstance(out, (list, tuple)) else (out,):
            for a in part if isinstance(part, tuple) else (part,):
                self.array(getattr(a, "data", a))


def scan_case(digest: Digest, seed: int, case: int) -> None:
    rng = np.random.default_rng([seed, case])
    n, depth = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    layers = tuple(tuple(_gate(rng, n) for _ in range(int(rng.integers(1, 2 * n + 2))))
                   for _ in range(depth))
    circ = Circuit(n=n, layers=layers)
    noise = _noise(rng, n, depth)
    thetas = rng.uniform(0, 2 * np.pi, size=(3, circ.num_parameters))
    digest.call(evolve, circ, thetas[0], noise)
    digest.call(evolve, circ, thetas, noise)
    locations = circ.parameterized_locations()
    if locations:
        location = locations[int(rng.integers(len(locations)))]
        digest.call(psr_gradient, circ, thetas, noise, _hamiltonian(rng, n), location)
    for layer in range(depth):
        digest.call(layer_unitary, circ, thetas[0], layer)
    digest.call(layer_affine_maps, circ, thetas[0], noise)
    for gates in layers:
        for g in gates:
            if g.matrix is not None:
                digest.array(g.matrix)


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit(f"usage: {argv[0]} SEED")
    digest = Digest()
    for case in range(CASES):
        scan_case(digest, int(argv[1]), case)
    print(digest.sha.hexdigest())


if __name__ == "__main__":
    main(sys.argv)
