"""Hash the outputs of 390 seeded circuits, of the parts of a depth sweep
and of ``cost`` on small stacks, into one sha256.

Run it on two source trees at the same seed; equal hashes mean the
simulator's outputs are bit for bit the same on both.  On one tree:

    PYTHONPATH=src python3 tests/bitscan.py 3

On two trees at once, each scanned in a subprocess of its own: it prints
both hashes and exits with status 1 when they differ.

    python3 tests/bitscan.py 3 path/to/old/src src

The first 300 circuits are random: n = 1..4 qubits and L = 1..3 layers,
their gates covering every run kind: weight-1 rotations (columns), CNOTs,
rotations of higher weight, rotations with control noise, fixed unitaries
and random-unitary mixtures.  The last 90 are deep: n = 2..4 (half of
them 4) and L = 8..12, every layer but up to two a rotation column on
every qubit with the CNOT chain after it, so the first columns of
consecutive layers render together in stretches, which the default
budget splits at n = 4 for three rows (at 6 to 10 layers, by the noise)
and at n = 3 for the gate maps (from 4 layers): about 20 of the 90 for
each.  The other layers break a stretch (a fixed gate or
CNOT first, a column on other qubits, a column without its chain) or
ride in one (a mixture after the chain).
Every circuit's noise is none, a named channel on every qubit, a
full-register channel, or a per-layer tuple with gaps.  The hash covers
``evolve`` (one row and three), ``psr_gradient``, ``layer_unitary`` of
every layer, ``layer_affine_maps``, every fixed gate's matrix after those
calls, and the type and message of every refusal.  Then it hashes what a
depth sweep builds: 15 ``random_two_local`` draws (n = 2..6; their terms,
h0, matrix and ground energy), the plans of ``build_two_local`` at n = 2,
3, 5 and L = 1, 2, 6, 24 (parameter numbers, runs, column plan and
stretches), and the CSV of one small ``layers_sweep``.  Last it hashes
``cost`` on seeded stacks of one and three states at n = 2..4, each row
with a Hamiltonian of its own.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def compare(seed: str, trees: list[str]) -> int:
    """Scan each source tree in a subprocess; print both hashes; 1 if they differ."""
    hashes = []
    for tree in trees:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
        out = subprocess.run([sys.executable, __file__, seed], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout.strip()
        hashes.append(out)
        print(f"{out}  {tree}")
    return int(len(set(hashes)) != 1)


if __name__ == "__main__" and len(sys.argv) == 4:
    # the two-tree mode imports no simulator of its own
    sys.exit(compare(sys.argv[1], sys.argv[2:]))

from nibp_lab.channels import named_channel, tensor_channel
from nibp_lab.circuits import (
    Circuit,
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    evolve,
    layer_unitary,
    perturbed_gate,
)
from nibp_lab.bounds import layer_affine_maps
from nibp_lab.experiments import ExperimentConfig, run_experiment, write_csv
from nibp_lab.gradients import psr_gradient
from nibp_lab.hamiltonians import Hamiltonian, cost, random_two_local

CASES = 300
DEEP_CASES = 90
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


def _gate(rng: np.random.Generator, n: int, kind: str | None = None) -> Gate:
    if kind is None:
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


def _deep_layer(rng: np.random.Generator, n: int, odd: bool) -> tuple[Gate, ...]:
    """A rotation column on every qubit with the open CNOT chain after it,
    or, if ``odd``, a layer that breaks a stretch or rides in one."""
    kind = rng.choice(["fixed", "cnot", "other", "unchained", "mixture"]) if odd else "chain"
    qubits = range(1, n) if kind == "other" else range(n)
    layer = [Gate(generator=_letters_on(rng, n, q)) for q in qubits]
    if kind != "unchained":
        layer += [Gate(cnot=(q, q + 1)) for q in range(n - 1)]
    if kind == "fixed":
        layer.insert(0, Gate(matrix=_unitary(rng, 2**n)))
    elif kind == "cnot":
        layer.insert(0, Gate(cnot=(n - 1, 0)))
    elif kind == "mixture":
        layer.append(_gate(rng, n, "mixture"))
    return tuple(layer)


def _letters_on(rng: np.random.Generator, n: int, qubit: int) -> str:
    return "".join(rng.choice(list("XYZ")) if q == qubit else "I" for q in range(n))


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
    if case < CASES:
        n, depth = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        layers = tuple(tuple(_gate(rng, n) for _ in range(int(rng.integers(1, 2 * n + 2))))
                       for _ in range(depth))
    else:
        n, depth = int(rng.choice([2, 3, 4, 4])), int(rng.integers(8, 13))
        odd = rng.choice(depth, size=int(rng.integers(0, 3)), replace=False).tolist()
        layers = tuple(_deep_layer(rng, n, layer in odd) for layer in range(depth))
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


def scan_sweep(digest: Digest, seed: int) -> None:
    """The draws, circuit plans and one CSV of a depth sweep."""
    for n in range(2, 7):
        for k in range(3):
            H = random_two_local(n, np.random.default_rng([seed, n, k]))
            digest.sha.update(repr([s for s, _ in H.terms]).encode())
            digest.array(np.array([c for _, c in H.terms] + [H.h0]))
            digest.array(H.matrix())
            digest.array(np.float64(H.ground_energy()))
    for n in (2, 3, 5):
        for depth in (1, 2, 6, 24):
            circ = build_two_local(n, depth)
            letters, params, spans = circ.columns
            digest.sha.update(repr((sorted(circ.parameter_index.items()), circ.runs,
                                    letters, spans)).encode())
            digest.array(params)
            for stretch in circ.stretches:
                digest.sha.update(repr(None if stretch is None else stretch[0]).encode())
                if stretch is not None:
                    digest.array(stretch[1])
    cfg = ExperimentConfig(preset="layers_sweep", n_list=(2,), L_list=(2, 5), p_list=(0.2,),
                           noise_type="amplitude_damping", instances=2, thetas=2, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        digest.sha.update(write_csv(run_experiment(cfg), Path(out) / "sweep.csv").read_bytes())


def scan_cost(digest: Digest, seed: int) -> None:
    """``cost`` of seeded (B, d, d) stacks, B = 1 and 3, at n = 2..4."""
    for n in range(2, 5):
        for batch in (1, 3):
            rng = np.random.default_rng([seed, n, batch])
            a = rng.normal(size=(batch, 2**n, 2**n)) + 1j * rng.normal(size=(batch, 2**n, 2**n))
            rhos = a @ a.conj().swapaxes(1, 2)
            rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
            digest.call(cost, [_hamiltonian(rng, n) for _ in range(batch)], rhos)


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit(f"usage: {argv[0]} SEED [SRC_A SRC_B]")
    digest = Digest()
    for case in range(CASES + DEEP_CASES):
        scan_case(digest, int(argv[1]), case)
    scan_sweep(digest, int(argv[1]))
    scan_cost(digest, int(argv[1]))
    print(digest.sha.hexdigest())


if __name__ == "__main__":
    main(sys.argv)
