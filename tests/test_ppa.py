"""Lifted 4-variable proximal-point form of the splitting step."""

import numpy as np
import pytest

import drslab as dl
from helpers import monotone_matrix, rotation, spd_matrix


def l1_quadratic_system():
    return dl.PpaSystem(dl.L1(1.0), dl.Quadratic(np.array([[1.0]]), np.array([-1.0])), 1.0, 1)


# ---------------------------------------------------------------------------
# single steps


def test_ppa_step_zero_pair_keeps_z():
    sys = dl.PpaSystem(dl.Zero(), dl.Zero(), 1.0, 2)
    state = dl.initial_state(sys, [3.0, -1.0])
    nxt = dl.ppa_step(sys, state)
    # inverse of the zero operator resolves to 0, so z never moves
    assert np.array_equal(nxt.u, [0.0, 0.0])
    assert np.array_equal(nxt.s, [0.0, 0.0])
    assert np.array_equal(nxt.z, [3.0, -1.0])


def test_ppa_step_identity_pair_example():
    sys = dl.PpaSystem(dl.ScaledIdentity(1.0), dl.ScaledIdentity(1.0), 1.0, 1)
    nxt = dl.ppa_step(sys, dl.initial_state(sys, [4.0]))
    assert nxt.u == pytest.approx([2.0])
    assert nxt.s == pytest.approx([0.0])
    assert nxt.z == pytest.approx([2.0])


def test_ppa_step_l1_quadratic_frozen_values():
    sys = l1_quadratic_system()
    nxt = dl.ppa_step(sys, dl.initial_state(sys, [0.0]))
    assert nxt.u == pytest.approx([-0.5], abs=1e-15)
    assert nxt.s == pytest.approx([1.0], abs=1e-15)
    assert nxt.z == pytest.approx([-0.5], abs=1e-15)


def test_ppa_z_matches_drs_step():
    rng = np.random.default_rng(211)
    problems = [
        (dl.L1(0.7), dl.Quadratic(spd_matrix(rng, 3), rng.standard_normal(3)), 0.5, 3),
        (dl.LinearRelation(monotone_matrix(rng, 2)), dl.Box([-1.0, -1.0], [1.0, 1.0]), 2.0, 2),
    ]
    for A, B, tau, n in problems:
        sys = dl.PpaSystem(A, B, tau, n)
        problem = dl.DrsProblem(A=A, B=B, tau=tau)
        for _ in range(20):
            z = 2.0 * rng.standard_normal(n)
            lifted = dl.ppa_step(sys, dl.initial_state(sys, z))
            assert np.max(np.abs(lifted.z - dl.drs_step(problem, z))) <= 1e-12


def test_ppa_step_ignores_auxiliary_components():
    sys = l1_quadratic_system()
    rng = np.random.default_rng(223)
    z = np.array([0.8])
    base = dl.ppa_step(sys, dl.PpaState(np.zeros(1), np.zeros(1), z))
    for _ in range(5):
        noisy = dl.PpaState(rng.standard_normal(1), rng.standard_normal(1), z)
        out = dl.ppa_step(sys, noisy)
        assert np.array_equal(out.u, base.u)
        assert np.array_equal(out.s, base.s)
        assert np.array_equal(out.z, base.z)


def test_ppa_step_dimension_check():
    sys = dl.PpaSystem(dl.Zero(), dl.Zero(), 1.0, 2)
    with pytest.raises(dl.DimensionMismatch):
        dl.ppa_step(sys, dl.PpaState(np.zeros(3), np.zeros(3), np.zeros(3)))
    with pytest.raises(dl.DimensionMismatch):
        dl.initial_state(sys, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# step inclusion residuals


def test_inclusion_residual_zero_on_exact_steps():
    for sys in [
        dl.PpaSystem(dl.Zero(), dl.Zero(), 1.0, 2),
        dl.PpaSystem(dl.ScaledIdentity(1.0), dl.ScaledIdentity(1.0), 1.0, 1),
        l1_quadratic_system(),
    ]:
        state = dl.initial_state(sys, np.linspace(1.0, 2.0, sys.n))
        nxt = dl.ppa_step(sys, state)
        assert dl.ppa_inclusion_residual(sys, state, nxt) <= 1e-12


def test_inclusion_residual_detects_perturbation():
    sys = l1_quadratic_system()
    state = dl.initial_state(sys, [0.0])
    nxt = dl.ppa_step(sys, state)
    bad = dl.PpaState(nxt.u, nxt.s, nxt.z + 0.1)
    assert dl.ppa_inclusion_residual(sys, state, bad) >= 0.09


def test_inclusion_residual_along_trajectories():
    rng = np.random.default_rng(227)
    systems = [
        dl.PpaSystem(dl.L1(0.5), dl.Box([-2.0], [2.0]), 1.5, 1),
        dl.PpaSystem(
            dl.LinearRelation(monotone_matrix(rng, 3)),
            dl.Quadratic(spd_matrix(rng, 3), rng.standard_normal(3)),
            0.75,
            3,
        ),
    ]
    for sys in systems:
        for _ in range(100):
            state = dl.initial_state(sys, 3.0 * rng.standard_normal(sys.n))
            for _ in range(3):
                nxt = dl.ppa_step(sys, state)
                assert dl.ppa_inclusion_residual(sys, state, nxt) <= 1e-8
                state = nxt


def test_inclusion_residual_across_catalog(catalog):
    # one step from 100 seeded starts on every stock problem
    for i, entry in enumerate(catalog):
        sys = dl.PpaSystem(entry.problem.A, entry.problem.B, entry.problem.tau, entry.dim)
        rng = np.random.default_rng(500 + i)
        for z0 in 3.0 * rng.standard_normal((100, entry.dim)):
            state = dl.initial_state(sys, z0)
            nxt = dl.ppa_step(sys, state)
            assert dl.ppa_inclusion_residual(sys, state, nxt) <= 1e-8


# ---------------------------------------------------------------------------
# degenerate metric


def test_metric_matrix_is_factor_gram():
    sys = dl.PpaSystem(dl.Zero(), dl.Zero(), 0.5, 3)
    D = sys.metric_factor()
    Q = sys.metric_matrix()
    assert D.shape == (9, 3)
    assert np.array_equal(Q, D @ D.T)


def test_metric_rank_is_ambient_dimension():
    for tau, n in [(1.0, 1), (0.5, 2), (2.0, 4)]:
        sys = dl.PpaSystem(dl.Zero(), dl.Zero(), tau, n)
        Q = sys.metric_matrix()
        eigs = np.linalg.eigvalsh(Q)
        assert np.sum(eigs > 1e-12) == n
        assert np.sum(np.abs(eigs) <= 1e-12) == 2 * n
        # nonzero eigenvalues all equal 1/tau
        assert np.allclose(eigs[-n:], 1.0 / tau, rtol=1e-12)


def test_metric_kernel_contains_auxiliary_directions():
    sys = dl.PpaSystem(dl.Zero(), dl.Zero(), 2.0, 2)
    Q = sys.metric_matrix()
    for vec in (np.r_[1.0, -2.0, 0, 0, 0, 0], np.r_[0, 0, 3.0, 1.0, 0, 0]):
        assert np.array_equal(Q @ vec, np.zeros(6))


def test_lifted_matrix_structure():
    sys = dl.PpaSystem(dl.ScaledIdentity(2.0), dl.ScaledIdentity(4.0), 0.5, 1)
    got = sys.lifted_matrix()
    expected = np.array(
        [
            [0.25, -0.5, -1.0],
            [0.5, 0.5, -1.0],
            [1.0, 1.0, 0.0],
        ]
    )
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# reduction to the one-variable coordinate


def test_reduction_commutes_with_steps():
    # reduce(ppa_step(b)) equals the reduced resolvent applied to reduce(b),
    # where reduce(b) = z / sqrt(tau) is the reduced coordinate of b
    rng = np.random.default_rng(229)
    pairs = [
        (dl.L1(1.0), dl.Quadratic(np.array([[1.0]]), np.array([-1.0])), 1.0, 1),
        (dl.LinearRelation(monotone_matrix(rng, 2)), dl.ScaledIdentity(0.5), 0.5, 2),
        (dl.Box([-1.0] * 3, [1.0] * 3), dl.LinearRelation(spd_matrix(rng, 3)), 2.0, 3),
    ]
    for A, B, tau, n in pairs:
        lifted = dl.PpaSystem(A, B, tau, n)
        block = dl.BlockSystem(A, B, tau, n)
        for _ in range(35):
            state = dl.initial_state(lifted, 2.0 * rng.standard_normal(n))
            left = dl.ppa_step(lifted, state).z / lifted.root_tau
            right = dl.reduced_resolvent_via_drs(block, state.z / lifted.root_tau)
            assert np.max(np.abs(left - right)) <= 1e-10


def test_ppa_state_round_trip():
    state = dl.PpaState([1.0, 2.0], [0.5, -0.5], [0.0, 3.0])
    clone = dl.PpaState.from_dict(state.to_dict())
    assert np.array_equal(clone.u, state.u)
    assert np.array_equal(clone.s, state.s)
    assert np.array_equal(clone.z, state.z)


def test_ppa_state_validation():
    with pytest.raises(dl.DimensionMismatch):
        dl.PpaState([1.0], [1.0, 2.0], [1.0])
