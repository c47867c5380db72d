"""The three formulations give the same step, and so trace the same z-trajectory."""

import numpy as np
import pytest

import drslab as dl
from drslab.equivalence import LIFTED, RECURSION, REDUCED
from helpers import formulation_trajectories, two_lines


def trajectory_gaps(problem, z0, iters):
    """Per pair of formulations, the largest gap between their own trajectories."""
    trajs, _ = formulation_trajectories(problem, z0, iters)
    gaps = {}
    for pair in ("recursion-lifted", "recursion-reduced", "lifted-reduced"):
        a, b = pair.split("-")
        gaps[pair] = float(np.max(np.linalg.norm(trajs[a] - trajs[b], axis=1)))
    return gaps, np.max(np.linalg.norm(trajs[RECURSION], axis=1))


def test_trajectories_start_at_z0_and_have_right_shape():
    problem = dl.DrsProblem(A=dl.L1(1.0), B=dl.Quadratic(np.eye(1), np.array([-1.0])))
    trajs, path = formulation_trajectories(problem, [0.5], iters=7)
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
    # 100 seeded starts per stock problem, 100 iterations each.  T is nonexpansive,
    # so each pair's drift bound is at or above the gap between the two forms
    # iterated on their own, up to rounding: a slack of 2 eps times the trajectory's
    # largest norm (the worst shortfall over these 2,400 pairs is 0.44 eps times
    # its largest entry)
    rng = np.random.default_rng(501)
    eps = np.finfo(float).eps
    for entry in catalog:
        worst = 0.0
        for _ in range(100):
            z0 = 2.0 * rng.standard_normal(entry.dim)
            report = dl.compare_formulations(entry.problem, z0, iters=100)
            worst = max(worst, report.max_deviation)
            gaps, scale = trajectory_gaps(entry.problem, z0, 100)
            for pair, gap in gaps.items():
                assert gap <= report.pairwise[pair] + 2.0 * eps * scale, (entry.name, pair)
                assert report.step_defects[pair] <= report.pairwise[pair]
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
        formulation_trajectories(problem, [1.0], iters=0)
    sized = dl.DrsProblem(A=dl.LinearRelation(np.eye(2)), B=dl.Zero())
    with pytest.raises(dl.DimensionMismatch):
        formulation_trajectories(sized, [1.0, 2.0, 3.0], iters=3)


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
        trajs, path = formulation_trajectories(problem, z0, iters=40)
        assert path == expected_path, entry.name
        expected = [z0]
        v = z0 / system.root_tau
        for _ in range(40):
            v = reduced_step(system, v)
            expected.append(system.root_tau * v)
        assert np.array_equal(trajs[REDUCED], np.array(expected)), entry.name


def test_slow_two_lines_trajectory_drifts_while_each_step_agrees():
    # at theta = 1e-3 the trajectory crawls: the gap grows with the length,
    # while every step agrees to rounding
    problem = two_lines(1e-3)
    report = dl.compare_formulations(problem, [1.0, 1.0], iters=20_000)
    gaps, _ = trajectory_gaps(problem, [1.0, 1.0], 20_000)
    assert all(d <= 1e-15 for d in report.step_defects.values()), report.step_defects
    assert all(gaps[pair] <= drift for pair, drift in report.pairwise.items()), (gaps, report.pairwise)
    assert gaps["recursion-reduced"] > 1e-13  # the drift is real, not a rounding of zero


def test_step_defects_are_the_one_step_defects_at_the_recursions_points(catalog_map):
    # per point through the public single-step paths: the stacked evaluation
    # may round differently (gemm against gemv), hence the 1e-15
    entry = catalog_map["random_monotone_5d"]
    problem, z0 = entry.problem, np.linspace(-1.0, 1.0, entry.dim)
    report = dl.compare_formulations(problem, z0, iters=30)
    zs = formulation_trajectories(problem, z0, iters=30)[0][RECURSION]
    system = dl.BlockSystem(problem.A, problem.B, problem.tau, entry.dim)
    rt = system.root_tau
    images = {
        RECURSION: zs[1:],
        LIFTED: np.array([dl.ppa_step(system, dl.initial_state(system, z)).z for z in zs[:-1]]),
        REDUCED: np.array([rt * dl.reduced_resolvent_direct(system, z / rt) for z in zs[:-1]]),
    }
    for pair in report.pairwise:
        a, b = pair.split("-")
        deltas = np.linalg.norm(images[a] - images[b], axis=1)
        assert report.pairwise[pair] == pytest.approx(deltas.sum(), abs=1e-15), pair
        assert report.step_defects[pair] == pytest.approx(deltas.max(), abs=1e-15), pair
    assert report.max_deviation == max(report.pairwise.values())
