import numpy as np
import pytest
from helpers import single_ry_circuit

from nibp_lab.circuits import NoiseSpec, build_two_local, evolve
from nibp_lab.hamiltonians import Hamiltonian, cost, random_two_local
from nibp_lab.spsa import SpsaConfig, TrainTrace, spsa_minimize


def test_config_validation():
    with pytest.raises(ValueError):
        SpsaConfig(maxiter=0)
    with pytest.raises(ValueError):
        SpsaConfig(alpha=1.5)


def test_convex_quadratic_converges():
    trace = spsa_minimize(
        lambda x: float(x @ x),
        np.array([1.0, -0.8, 0.5]),
        SpsaConfig(maxiter=300, seed=0),
    )
    assert trace.final_cost < 1e-2
    assert not trace.aborted


def test_evaluation_count_and_trace_shape():
    cfg = SpsaConfig(maxiter=50, seed=1)
    trace = spsa_minimize(lambda x: float(x @ x), np.array([0.3, 0.4]), cfg)
    assert trace.evaluations == 2 * 50 + 1
    assert len(trace.costs) == 50
    assert len(trace.step_sizes) == 50


def test_determinism():
    cfg = SpsaConfig(maxiter=40, seed=7)
    x0 = np.array([0.2, -0.1, 0.9])
    a = spsa_minimize(lambda x: float(x @ x), x0, cfg)
    b = spsa_minimize(lambda x: float(x @ x), x0, cfg)
    assert a.costs == b.costs
    np.testing.assert_array_equal(a.final_theta, b.final_theta)


def test_final_cost_is_best_seen():
    cfg = SpsaConfig(maxiter=100, seed=3)
    trace = spsa_minimize(lambda x: float(x @ x), np.array([1.0, 1.0]), cfg)
    # reported final cost is an actual evaluation at the returned point
    assert abs(trace.final_cost - float(trace.final_theta @ trace.final_theta)) < 1e-12


def test_abort_on_nonfinite():
    def bad(x):
        return float("nan")

    trace = spsa_minimize(bad, np.array([0.1]), SpsaConfig(maxiter=10, seed=0))
    assert trace.aborted
    assert len(trace.costs) == 0


def test_noiseless_single_qubit_ground_state():
    # minimize <Z> over one RY angle: optimum -1 at theta = pi
    circ = single_ry_circuit()
    H = Hamiltonian(n=1, terms=(("Z", 1.0),))

    def objective(theta):
        return cost(H, evolve(circ, theta, NoiseSpec()))

    hits = 0
    for seed in range(10):
        trace = spsa_minimize(
            objective, np.array([2.0]), SpsaConfig(maxiter=150, seed=seed)
        )
        if trace.final_cost < -0.98:
            hits += 1
    assert hits >= 9


def test_noiseless_vqa_reaches_low_cost():
    rng = np.random.default_rng(60)
    circ = build_two_local(2, 3)
    H = random_two_local(2, rng)
    theta0 = rng.uniform(0, 2 * np.pi, size=circ.num_parameters)

    def objective(theta):
        return cost(H, evolve(circ, theta, NoiseSpec()))

    start = objective(theta0)
    trace = spsa_minimize(objective, theta0, SpsaConfig(maxiter=250, seed=0))
    # ground energy is 0 by construction; optimization should get close
    assert trace.final_cost < 0.2
    assert trace.final_cost < start
    assert min(trace.costs) >= trace.final_cost - 0.05
