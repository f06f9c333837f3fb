import inspect
import re

import numpy as np
import pytest
from helpers import single_ry_circuit

from nibp_lab.channels import amplitude_damping, depolarizing
from nibp_lab.circuits import (
    Gate,
    NoiseSpec,
    RandomUnitaryNoise,
    build_two_local,
    perturbed_gate,
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
from nibp_lab import gradients


Z1 = Hamiltonian(n=1, terms=(("Z", 1.0),))


def test_psr_analytic_single_qubit():
    circ = single_ry_circuit()
    # C(theta) = cos(theta) for H = Z on |0>
    assert abs(psr_gradient(circ, np.array([np.pi / 2]), NoiseSpec(), Z1, (0, 0)) + 1.0) < 1e-12
    theta = np.array([0.7])
    assert abs(psr_gradient(circ, theta, NoiseSpec(), Z1, (0, 0)) + np.sin(0.7)) < 1e-12


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
        psr_gradient(circ, np.zeros(2), NoiseSpec(), random_two_local(2, 1), (0, 2))


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
    circ = circ.with_gate((0, 0), perturbed_gate(circ.gate_at((0, 0)), {"Y": 0.15}))
    theta = 0.9
    value, bound = control_noise_gradient(circ, np.array([theta]), NoiseSpec(), Z1, (0, 0))
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
        perturbed = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), a))
        value, bound = control_noise_gradient(perturbed, theta, noise, H, loc)
        fd = fd_gradient(perturbed, theta, noise, H, loc)
        assert abs(value - fd) < 1e-8
        assert abs(value) <= bound + 1e-10


def test_control_noise_zero_perturbation_reduces_to_psr():
    # a plain rotation gives the two-point value
    rng = np.random.default_rng(43)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    value, bound = control_noise_gradient(circ, theta, NoiseSpec(), H, (1, 0))
    assert abs(value - psr_gradient(circ, theta, NoiseSpec(), H, (1, 0))) < 1e-12
    assert abs(value) <= bound + 1e-12


def test_random_noise_gradient_analytic():
    # Z branch never moves |0>, so only the intended branch contributes
    spec = RandomUnitaryNoise(probs=(0.9, 0.1), generators=("Y", "Z"), intended=0)
    circ = single_ry_circuit().with_gate((0, 0), Gate(mixture=spec))
    theta = 1.3
    value, bound = random_noise_gradient(circ, np.array([theta]), NoiseSpec(), Z1, (0, 0))
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
        mixed = circ.with_gate(loc, Gate(mixture=spec))
        value, bound = random_noise_gradient(mixed, theta, noise, H, loc)
        fd = fd_gradient(mixed, theta, noise, H, loc)
        assert abs(value - fd) < 1e-8
        assert abs(value) <= bound + 1e-10


def test_gradient_stats_sine_mean(monkeypatch):
    # |dC/dtheta| = |sin(theta)|, whose mean over uniform angles is 2/pi;
    # the sweep always draws random_two_local, patched here to give Z1
    monkeypatch.setattr(gradients, "random_two_local", lambda n, rng: Z1)
    circ = single_ry_circuit()
    spec = SweepSpec(
        circuit=circ,
        noise=NoiseSpec.none(),
        locations=((0, 0),),
        num_hamiltonians=1,
        thetas_per_hamiltonian=10_000,
        seed=0,
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



def test_shift_rules_refuse_a_gate_with_control_noise():
    # the two-point value is not the derivative of a perturbed gate
    # (0.0996 here against 0.1008 from control_noise_gradient)
    rng = np.random.default_rng(45)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)
    loc, a = (1, 0), {"XI": 0.15}
    circ, noise = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), a)), NoiseSpec.none()
    value, _ = control_noise_gradient(circ, theta, noise, H, loc)
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
    # a mixture placed over the perturbed gate keeps the two-point rule,
    # which is exact on the mixture
    mixture = RandomUnitaryNoise(probs=(0.85, 0.15), generators=("YI", "XI"), intended=0)
    mixed = circ.with_gate(loc, Gate(mixture=mixture))
    assert abs(psr_gradient(mixed, theta, noise, H, loc)
               - fd_gradient(mixed, theta, noise, H, loc)) < 1e-8


def test_control_noise_gradient_refuses_a_gate_it_cannot_perturb():
    # the rule reads the perturbation the rotation carries: before, it took
    # the perturbation as an argument and silently replaced a placed one
    # (-0.33756, the derivative of the ZI-only gate, where the placed
    # circuit's finite difference is -0.34613)
    rng = np.random.default_rng(1)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, circ.num_parameters)
    loc, noise = (1, 0), NoiseSpec()
    placed = circ.with_gate(loc, perturbed_gate(circ.gate_at(loc), {"XI": 0.15}))
    value, _ = control_noise_gradient(placed, theta, noise, H, loc)
    assert abs(value - fd_gradient(placed, theta, noise, H, loc)) < 1e-8
    assert abs(value + 0.34613) < 1e-5
    # a CNOT slot and a mixture are refused by name
    mixture = RandomUnitaryNoise(probs=(0.8, 0.2), generators=("YI", "XI"), intended=0)
    mixed = circ.with_gate(loc, Gate(mixture=mixture))
    for c, at in ((circ, (0, 2)), (mixed, loc)):
        with pytest.raises(ValueError, match=rf"gate at \({at[0]}, {at[1]}\) is not a rotation"):
            control_noise_gradient(c, theta, noise, H, at)


def test_random_noise_gradient_refuses_a_location_without_a_mixture():
    # the rule reads the mixture the gate at the location is; before, a CNOT
    # slot ended in a bare KeyError
    rng = np.random.default_rng(46)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    theta = rng.uniform(0, 2 * np.pi, circ.num_parameters)
    noise = NoiseSpec()
    spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=("YI", "XI"), intended=0)
    perturbed = circ.with_gate((1, 0), perturbed_gate(circ.gate_at((1, 0)), {"XI": 0.05}))
    for c, at in ((circ, (0, 2)), (circ, (1, 0)), (perturbed, (1, 0))):
        with pytest.raises(ValueError, match=rf"gate at \({at[0]}, {at[1]}\) is not a random"):
            random_noise_gradient(c, theta, noise, H, at)
    random_noise_gradient(circ.with_gate((1, 0), Gate(mixture=spec)), theta, noise, H, (1, 0))


def test_random_noise_gradient_bounds_a_mixture_about_another_axis():
    # the bound's ideal term differentiates the mixture's intended rotation;
    # before, it differentiated the rotation the mixture replaced, and on
    # this scan 13 of 300 values exceeded their bound, by up to 0.045
    rng = np.random.default_rng(3)
    circ = build_two_local(2, 2)
    noise = NoiseSpec.uniform(depolarizing(0.1))
    for _ in range(300):
        theta = rng.uniform(0, 2 * np.pi, circ.num_parameters)
        H = random_two_local(2, rng)
        loc = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        q = int(rng.integers(0, 2))
        intended = "".join("XZ"[int(rng.integers(0, 2))] if k == q else "I" for k in range(2))
        other = "".join("IXYZ"[int(k)] for k in rng.integers(1, 4, 2))
        spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=(intended, other), intended=0)
        mixed = circ.with_gate(loc, Gate(mixture=spec))
        value, bound = random_noise_gradient(mixed, theta, noise, H, loc)
        assert abs(value) <= bound + 1e-12
        assert abs(value - fd_gradient(mixed, theta, noise, H, loc)) < 1e-8


DERIVATIVES = (psr_gradient, fd_gradient, coherence_gradient,
               control_noise_gradient, random_noise_gradient)


def test_the_derivatives_take_the_circuit_angles_noise_hamiltonian_and_location():
    # gate noise is read off the circuit, so no derivative takes it as an
    # argument or has an option
    for rule in DERIVATIVES:
        params = inspect.signature(rule).parameters.values()
        assert [p.name for p in params] == ["circ", "theta", "noise", "H", "location"], rule
        assert all(p.default is inspect.Parameter.empty for p in params), rule


def test_single_row_derivatives_refuse_a_stack_of_angles():
    # before, a (2, P) stack ended in a TypeError, an AttributeError or a
    # DimensionMismatchError that named neither the angles nor their shape
    rng = np.random.default_rng(47)
    circ = build_two_local(3, 2)
    H = random_two_local(3, rng)
    noise = NoiseSpec.uniform(depolarizing(0.1))
    spec = RandomUnitaryNoise(probs=(0.8, 0.2), generators=("YII", "XII"), intended=0)
    mixed = circ.with_gate((1, 0), Gate(mixture=spec))
    thetas = rng.uniform(0, 2 * np.pi, (2, circ.num_parameters))
    for rule, c in ((fd_gradient, circ), (coherence_gradient, circ),
                    (control_noise_gradient, circ), (random_noise_gradient, mixed)):
        for bad in (thetas, thetas[0, :-1]):
            with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
                rule(c, bad, noise, H, (1, 0))
    # psr_gradient keeps its stack of rows
    assert psr_gradient(circ, thetas, noise, H, (1, 0)).shape == (2,)


def test_every_derivative_refuses_a_location_the_circuit_lacks():
    # before, (5, 0) ended in a bare IndexError (a KeyError in fd_gradient)
    # and (-1, 0) in a KeyError, or in random_noise_gradient in a refusal
    # that read the last layer's gate; fd_gradient at a CNOT slot raised
    # KeyError
    rng = np.random.default_rng(53)
    circ = build_two_local(2, 2)
    H = random_two_local(2, rng)
    noise = NoiseSpec.uniform(amplitude_damping(0.2))
    theta = rng.uniform(0, 2 * np.pi, circ.num_parameters)
    for rule in (psr_gradient, fd_gradient, coherence_gradient,
                 control_noise_gradient, random_noise_gradient):
        for loc in ((5, 0), (-1, 0), (0, 9)):
            with pytest.raises(ValueError, match=re.escape(f"circuit has no gate at {loc}")):
                rule(circ, theta, noise, H, loc)
    with pytest.raises(ValueError, match=re.escape("gate at (0, 2) carries no parameter")):
        fd_gradient(circ, theta, noise, H, (0, 2))
