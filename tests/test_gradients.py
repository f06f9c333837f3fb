from dataclasses import replace

import numpy as np
import pytest

from nibp_lab.channels import amplitude_damping, depolarizing
from nibp_lab.circuits import (
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    perturbed_gate,
    single_ry_circuit,
)
from nibp_lab.gradients import (
    SweepSpec,
    coherence_gradient,
    control_noise_gradient,
    default_locations,
    fd_gradient,
    gradient_stats,
    psr_gradient,
    random_noise_gradient,
)
from nibp_lab.hamiltonians import Hamiltonian, h_norm, random_two_local
from nibp_lab.bounds import nibp_bound


Z1 = Hamiltonian(n=1, terms=(("Z", 1.0),))


def test_psr_analytic_single_qubit():
    circ = single_ry_circuit()
    # C(theta) = cos(theta) for H = Z on |0>
    assert abs(psr_gradient(circ, np.array([np.pi / 2]), None, Z1, (0, 0)) + 1.0) < 1e-12
    theta = np.array([0.7])
    assert abs(psr_gradient(circ, theta, None, Z1, (0, 0)) + np.sin(0.7)) < 1e-12


def test_psr_analytic_with_depolarizing():
    circ = single_ry_circuit()
    noise = NoiseSpec.uniform(depolarizing(0.3))
    theta = np.array([1.2])
    # noise scales the whole cost by (1 - 4p/3) = 0.6
    assert abs(psr_gradient(circ, theta, noise, Z1, (0, 0)) + 0.6 * np.sin(1.2)) < 1e-12


def test_psr_matches_finite_difference_under_layer_noise():
    rng = np.random.default_rng(40)
    circ = build_two_local(3, 3)
    for channel in (depolarizing(0.35), amplitude_damping(0.5)):
        noise = NoiseSpec.uniform(channel)
        H = random_two_local(3, rng)
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        for loc in default_locations(circ):
            g = psr_gradient(circ, theta, noise, H, loc)
            fd = fd_gradient(circ, theta, noise, H, loc)
            assert abs(g - fd) < 1e-8


def test_unparameterized_location_rejected():
    circ = build_two_local(2, 1)
    with pytest.raises(ValueError):
        psr_gradient(circ, np.zeros(2), None, random_two_local(2, 1), (0, 2))


def test_coherence_overlap_matches_psr():
    rng = np.random.default_rng(41)
    circ = build_two_local(2, 2)
    noise = NoiseSpec.uniform(amplitude_damping(0.3))
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    for loc in ((0, 0), (1, 1)):
        overlap = coherence_gradient(circ, theta, noise, H, loc)
        assert abs(overlap - abs(psr_gradient(circ, theta, noise, H, loc))) < 1e-12


def test_coherence_gradient_runs_past_the_affine_cap():
    # the coherence path needs only to_coherence, which works up to
    # MAX_QUBITS; it used to refuse n = 4
    rng = np.random.default_rng(42)
    circ = build_two_local(4, 2)
    noise = NoiseSpec.uniform(depolarizing(0.2))
    H = random_two_local(4, rng)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    for loc in ((0, 0), (1, 3)):
        overlap = coherence_gradient(circ, theta, noise, H, loc)
        assert abs(overlap - abs(psr_gradient(circ, theta, noise, H, loc))) < 1e-12


def test_control_noise_gradient_analytic():
    # over-rotation by (1+a): C = cos((1+a) theta), dC = -(1+a) sin((1+a) theta)
    circ = single_ry_circuit()
    a = {"Y": 0.15}
    theta = 0.9
    value, bound = control_noise_gradient(circ, np.array([theta]), a, Z1, (0, 0))
    expected = -(1.15) * np.sin(1.15 * theta)
    assert abs(value - expected) < 1e-12
    assert abs(value) <= bound + 1e-12


def test_control_noise_gradient_matches_finite_difference():
    rng = np.random.default_rng(42)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    noise = NoiseSpec.uniform(depolarizing(0.2))
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        loc = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        a = {"XI": float(rng.uniform(-0.1, 0.1)), "ZZ": float(rng.uniform(-0.1, 0.1))}
        value, bound = control_noise_gradient(circ, theta, a, H, loc, noise=noise)
        full = NoiseSpec(
            layer_channels=noise.layer_channels, control_noise={loc: a}
        )
        fd = fd_gradient(circ, theta, full, H, loc)
        assert abs(value - fd) < 1e-8
        assert abs(value) <= bound + 1e-10


def test_control_noise_zero_perturbation_reduces_to_psr():
    rng = np.random.default_rng(43)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    value, bound = control_noise_gradient(circ, theta, {}, H, (1, 0))
    assert abs(value - psr_gradient(circ, theta, None, H, (1, 0))) < 1e-12
    assert abs(value) <= bound + 1e-12


def test_random_noise_gradient_analytic():
    # Z branch never moves |0>, so only the intended branch contributes
    circ = single_ry_circuit()
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "Z"), intended=0)
    theta = 1.3
    value, bound = random_noise_gradient(circ, np.array([theta]), spec, Z1, (0, 0))
    assert abs(value - 0.9 * (-np.sin(theta))) < 1e-12
    assert abs(value) <= bound + 1e-12


def test_random_noise_gradient_matches_finite_difference():
    rng = np.random.default_rng(44)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    noise = NoiseSpec.uniform(amplitude_damping(0.25))
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
        loc = (1, int(rng.integers(0, 2)))
        gen = circ.gate_at(loc).generator
        other = "XX"
        spec = RandomUnitaryNoise(
            probs=(0.8, 0.2), generators=(gen, other), intended=0
        )
        value, bound = random_noise_gradient(circ, theta, spec, H, loc, noise=noise)
        full = NoiseSpec(
            layer_channels=noise.layer_channels, random_unitary={loc: spec}
        )
        fd = fd_gradient(circ, theta, full, H, loc)
        assert abs(value - fd) < 1e-8
        assert abs(value) <= bound + 1e-10


def test_gradient_stats_sine_mean():
    # |dC/dtheta| = |sin(theta)|, whose mean over uniform angles is 2/pi
    circ = single_ry_circuit()
    spec = SweepSpec(
        circuit=circ,
        noise=NoiseSpec.none(),
        locations=((0, 0),),
        num_hamiltonians=1,
        thetas_per_hamiltonian=10_000,
        seed=0,
        hamiltonian_factory=lambda rng: Z1,
    )
    stats = gradient_stats(spec)[(0, 0)]
    assert stats.samples == 10_000
    assert abs(stats.mean_abs - 2 / np.pi) < 0.02
    assert stats.max <= 1.0 + 1e-12


def test_gradient_stats_determinism_and_suppression():
    circ = build_two_local(2, 6)
    noise = NoiseSpec.uniform(depolarizing(0.4))
    spec = SweepSpec(
        circuit=circ,
        noise=noise,
        locations=((0, 0),),
        num_hamiltonians=3,
        thetas_per_hamiltonian=5,
        seed=1,
    )
    a = gradient_stats(spec)[(0, 0)]
    b = gradient_stats(spec)[(0, 0)]
    assert a == b
    # every sampled magnitude sits below the depth bound
    hmax = max(
        h_norm(random_two_local(2, np.random.default_rng([1, i]))) for i in range(3)
    )
    r = 1 - 4 * 0.4 / 3
    assert a.max <= nibp_bound(hmax, r, 6) + 1e-12


def test_gradient_stats_reports_the_h_norms_it_drew():
    circ = build_two_local(3, 4)
    spec = SweepSpec(
        circuit=circ,
        noise=NoiseSpec.uniform(depolarizing(0.2)),
        locations=default_locations(circ),
        num_hamiltonians=3,
        thetas_per_hamiltonian=1,
        seed=7,
    )
    stats = gradient_stats(spec)
    drawn = tuple(
        h_norm(random_two_local(3, np.random.default_rng([7, i]))) for i in range(3)
    )
    # one tuple per sweep, the same at every location
    assert all(s.h_norms == drawn for s in stats.values())



@pytest.mark.parametrize("source", ["spec", "placed"])
def test_shift_rules_refuse_a_gate_with_control_noise(source):
    # the two-point value is not the derivative of a perturbed gate
    # (0.0996 here against 0.1008 from control_noise_gradient), whether the
    # perturbation comes from the noise spec or from a gate placed with it
    rng = np.random.default_rng(45)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    loc, a = (1, 0), {"XI": 0.15}
    value, _ = control_noise_gradient(circ, theta, a, H, loc)
    if source == "spec":
        noise = NoiseSpec(control_noise={loc: a})
    else:
        circ, noise = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), a)), NoiseSpec.none()
    assert abs(value - fd_gradient(circ, theta, noise, H, loc)) < 1e-8
    with pytest.raises(ValueError, match="control_noise_gradient"):
        psr_gradient(circ, theta, noise, H, loc)
    with pytest.raises(ValueError, match="control_noise_gradient"):
        psr_gradient(circ, np.stack([theta, theta]), noise, H, [(0, 0), loc])
    with pytest.raises(ValueError, match="control_noise_gradient"):
        coherence_gradient(circ, theta, noise, H, loc)
    sweep = SweepSpec(circuit=circ, noise=noise, locations=(loc,),
                      num_hamiltonians=1, thetas_per_hamiltonian=1, seed=0)
    with pytest.raises(ValueError, match="control_noise_gradient"):
        gradient_stats(sweep)
    # other locations keep the two-point rule
    assert abs(psr_gradient(circ, theta, noise, H, (0, 0))
               - fd_gradient(circ, theta, noise, H, (0, 0))) < 1e-8
    # a mixture at the location replaces the perturbation, and the
    # two-point rule is exact on the mixture
    mixture = RandomUnitaryNoise(probs=(0.85, 0.15), generators=("YI", "XI"), intended=0)
    mixed = replace(noise, random_unitary={loc: mixture})
    assert abs(psr_gradient(circ, theta, mixed, H, loc)
               - fd_gradient(circ, theta, mixed, H, loc)) < 1e-8
