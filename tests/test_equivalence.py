"""The three formulations trace identical z-trajectories."""

import numpy as np
import pytest

import drslab as dl
from drslab.equivalence import LIFTED, RECURSION, REDUCED


def test_trajectories_start_at_z0_and_have_right_shape():
    problem = dl.DrsProblem(A=dl.L1(1.0), B=dl.Quadratic(np.eye(1), np.array([-1.0])))
    trajs, path = dl.formulation_trajectories(problem, [0.5], iters=7)
    assert set(trajs) == {RECURSION, LIFTED, REDUCED}
    for name, arr in trajs.items():
        assert arr.shape == (8, 1)
        assert arr[0] == pytest.approx([0.5])
    assert path == dl.REDUCED_FALLBACK


def test_reduced_path_is_direct_for_invertible_linear_blocks():
    problem = dl.DrsProblem(
        A=dl.ScaledIdentity(2.0), B=dl.ScaledIdentity(1.0), tau=0.5
    )
    report = dl.compare_formulations(problem, [3.0], iters=50)
    assert report.reduced_path == dl.REDUCED_DIRECT
    assert report.max_deviation <= 1e-10


def test_reduced_path_is_direct_for_singular_blocks():
    # Zero has no inverse, but its graph pair (I, 0) makes the direct kernel the identity
    problem = dl.DrsProblem(A=dl.Zero(), B=dl.Zero())
    report = dl.compare_formulations(problem, [1.0, 2.0], iters=5)
    assert report.reduced_path == dl.REDUCED_DIRECT
    assert report.max_deviation == 0.0


def test_formulations_agree_on_catalog(catalog):
    # 100 seeded starts per stock problem, 100 iterations each
    rng = np.random.default_rng(501)
    for entry in catalog:
        worst = 0.0
        for _ in range(100):
            z0 = 2.0 * rng.standard_normal(entry.dim)
            report = dl.compare_formulations(entry.problem, z0, iters=100)
            worst = max(worst, report.max_deviation)
        assert worst <= 1e-10, (entry.name, worst)


def test_pairwise_keys_and_report_dict():
    problem = dl.DrsProblem(A=dl.ScaledIdentity(1.0), B=dl.ScaledIdentity(1.0))
    report = dl.compare_formulations(problem, [4.0], iters=10)
    assert set(report.pairwise) == {
        "recursion-lifted",
        "recursion-reduced",
        "lifted-reduced",
    }
    data = report.to_dict()
    assert data["iters"] == 10
    assert data["max_deviation"] == report.max_deviation


def test_formulation_trajectories_validation():
    problem = dl.DrsProblem(A=dl.ScaledIdentity(1.0), B=dl.ScaledIdentity(1.0))
    with pytest.raises(ValueError):
        dl.formulation_trajectories(problem, [1.0], iters=0)
    sized = dl.DrsProblem(A=dl.LinearRelation(np.eye(2)), B=dl.Zero())
    with pytest.raises(dl.DimensionMismatch):
        dl.formulation_trajectories(sized, [1.0, 2.0, 3.0], iters=3)


def test_reduced_leg_is_the_iterated_reduced_resolvent(catalog):
    # bit for bit: the direct path iterates the public reduced_resolvent_direct,
    # the fallback reduced_resolvent_via_drs, both in v = z / sqrt(tau)
    rng = np.random.default_rng(77)
    for entry in catalog:
        problem, n = entry.problem, entry.dim
        system = dl.BlockSystem(problem.A, problem.B, problem.tau, n)
        try:
            dl.graph_pair(problem.A, n), dl.graph_pair(problem.B, n)
            expected_path, reduced_step = dl.REDUCED_DIRECT, dl.reduced_resolvent_direct
        except dl.NotLinear:
            expected_path, reduced_step = dl.REDUCED_FALLBACK, dl.reduced_resolvent_via_drs
        z0 = 2.0 * rng.standard_normal(n)
        trajs, path = dl.formulation_trajectories(problem, z0, iters=40)
        assert path == expected_path, entry.name
        expected = [z0]
        v = z0 / system.root_tau
        for _ in range(40):
            v = reduced_step(system, v)
            expected.append(system.root_tau * v)
        assert np.array_equal(trajs[REDUCED], np.array(expected)), entry.name
