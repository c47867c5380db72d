"""Reduced resolvent paths on the lifted block system."""

import numpy as np
import pytest

import drslab as dl
from helpers import monotone_matrix, reduced_resolvent_fukushima, rotation, sample_points, spd_matrix


def identity_pair(n=1, tau=1.0):
    return dl.BlockSystem(dl.ScaledIdentity(1.0), dl.ScaledIdentity(1.0), tau, n)


# ---------------------------------------------------------------------------
# splitting-step path


def test_via_drs_zero_pair_is_identity():
    sys = dl.BlockSystem(dl.Zero(), dl.Zero(), 1.0, 2)
    v = np.array([1.0, 2.0])
    assert np.array_equal(dl.reduced_resolvent_via_drs(sys, v), v)


def test_via_drs_identity_pair_halves():
    got = dl.reduced_resolvent_via_drs(identity_pair(), np.array([4.0]))
    assert got == pytest.approx([2.0])


def test_via_drs_skew_zero_example():
    # B = 0 makes the reduced map collapse to (I + M)^{-1}
    sys = dl.BlockSystem(dl.LinearRelation(rotation()), dl.Zero(), 1.0, 2)
    got = dl.reduced_resolvent_via_drs(sys, np.array([1.0, 0.0]))
    oracle = np.linalg.solve(np.eye(2) + rotation(), np.array([1.0, 0.0]))
    assert np.allclose(got, oracle, atol=1e-15)
    assert np.allclose(got, [0.5, -0.5], atol=1e-15)


def test_via_drs_batch_layout():
    sys = identity_pair(n=3, tau=0.5)
    V = np.arange(12.0).reshape(4, 3)
    out = dl.reduced_resolvent_via_drs(sys, V)
    assert out.shape == (4, 3)
    assert np.array_equal(out[1], dl.reduced_resolvent_via_drs(sys, V[1]))


# ---------------------------------------------------------------------------
# dense direct path


def test_lifted_graph_pair_identity_pair():
    # L = [[I^{-1}, -I], [I, I^{-1}]] is read as a graph pair, never inverted
    P, Q, p, q = dl.graph_pair(identity_pair().L, 2)
    assert np.array_equal(P, np.eye(2))
    assert np.array_equal(Q, np.array([[1.0, -1.0], [1.0, 1.0]]))
    assert not np.any(p) and not np.any(q)


def test_direct_identity_pair_matches_hand_solve():
    sys = identity_pair()
    # W = K L^{-1} K^T = 1, so (I + W)^{-1} 4 = 2
    W = dl.coupling_gram(sys)
    assert W == pytest.approx(np.array([[1.0]]))
    got = dl.reduced_resolvent_direct(sys, np.array([4.0]))
    assert got == pytest.approx([2.0])


def test_direct_scaled_identities_frozen_value():
    sys = dl.BlockSystem(dl.ScaledIdentity(2.0), dl.ScaledIdentity(2.0), 1.0, 1)
    got = dl.reduced_resolvent_direct(sys, np.array([1.0]))
    # splitting chain: x = 1/3, w = -1/9, update 1 - 1/3 - 1/9 = 5/9
    assert got == pytest.approx([5.0 / 9.0], abs=1e-14)
    assert np.allclose(dl.reduced_resolvent_via_drs(sys, np.array([1.0])), got, atol=1e-14)


def test_direct_covers_singular_blocks():
    # a Zero block has no inverse, but its graph pair (I, 0) gives the direct
    # path the same map as the splitting step: here (I + M)^{-1}
    sys = dl.BlockSystem(dl.LinearRelation(rotation()), dl.Zero(), 1.0, 2)
    got = dl.reduced_resolvent_direct(sys, np.array([1.0, 0.0]))
    assert np.allclose(got, [0.5, -0.5], atol=1e-15)
    V = sample_points(np.random.default_rng(71), 20, 2)
    assert np.max(np.abs(dl.reduced_resolvent_direct(sys, V) - dl.reduced_resolvent_via_drs(sys, V))) <= 1e-14


def test_lifted_paths_reject_prox_operators():
    sys = dl.BlockSystem(dl.L1(1.0), dl.ScaledIdentity(1.0), 1.0, 2)
    with pytest.raises(dl.NotLinear, match="^L1 is not affine"):
        dl.coupling_gram(sys)
    with pytest.raises(dl.NotLinear, match="^L1 is not affine"):
        reduced_resolvent_fukushima(sys, np.ones(2))


def test_coupling_gram_refuses_an_offset():
    # a Quadratic's offset makes K L^{-1} K^T affine, not a matrix; the
    # complement form carries the offset (tests/test_complement_form.py)
    sys = dl.BlockSystem(dl.Quadratic(np.eye(2), [1.0, -2.0]), dl.Zero(), 0.5, 2)
    with pytest.raises(dl.NotLinear, match="^L has a nonzero offset"):
        dl.coupling_gram(sys)


def test_coupling_gram_singular_lifted_matrix():
    # both blocks a quarter turn at tau = 1 makes L itself singular
    M = rotation()
    sys = dl.BlockSystem(dl.LinearRelation(M), dl.LinearRelation(M), 1.0, 2)
    with pytest.raises(dl.SingularSystem):
        dl.coupling_gram(sys)


# ---------------------------------------------------------------------------
# complement form


def test_fukushima_identity_pair_hand_solve():
    sys = identity_pair()
    P, Q, _, _ = dl.graph_pair(sys.L, 2)
    K = np.array([[1.0, 1.0]])
    G = Q + K.T @ K @ P
    assert np.array_equal(G, np.array([[2.0, 0.0], [2.0, 2.0]]))
    # G w = K^T 4 = (4, 4) gives w = (2, 0), so the value is 4 - K w = 2
    w = np.linalg.solve(G, np.array([4.0, 4.0]))
    assert np.allclose(w, [2.0, 0.0])
    got = reduced_resolvent_fukushima(sys, np.array([4.0]))
    assert got == pytest.approx([2.0])


def test_three_paths_agree_on_linear_systems():
    rng = np.random.default_rng(101)
    systems = [
        identity_pair(),
        dl.BlockSystem(dl.ScaledIdentity(2.0), dl.ScaledIdentity(0.5), 0.5, 3),
        dl.BlockSystem(
            dl.LinearRelation(monotone_matrix(rng, 4)),
            dl.LinearRelation(monotone_matrix(rng, 4)),
            2.0,
            4,
        ),
        dl.BlockSystem(
            dl.LinearRelation(spd_matrix(rng, 5)),
            dl.LinearRelation(monotone_matrix(rng, 5)),
            0.7,
            5,
        ),
    ]
    for sys in systems:
        V = sample_points(rng, 100, sys.n)
        a = dl.reduced_resolvent_via_drs(sys, V)
        b = dl.reduced_resolvent_direct(sys, V)
        c = reduced_resolvent_fukushima(sys, V)
        assert np.max(np.abs(a - b)) <= 1e-10
        assert np.max(np.abs(b - c)) <= 1e-10
        assert np.max(np.abs(a - c)) <= 1e-10


def test_via_drs_map_is_firmly_nonexpansive():
    rng = np.random.default_rng(211)
    systems = [
        identity_pair(),
        dl.BlockSystem(
            dl.L1(0.7), dl.Quadratic(spd_matrix(rng, 3), rng.standard_normal(3)), 1.5, 3
        ),
        dl.BlockSystem(
            dl.Box([-1.0, -1.0], [1.0, 1.0]),
            dl.LinearRelation(monotone_matrix(rng, 2)),
            0.5,
            2,
        ),
        dl.BlockSystem(
            dl.LinearRelation(monotone_matrix(rng, 4)),
            dl.LinearRelation(spd_matrix(rng, 4)),
            2.0,
            4,
        ),
    ]
    for sys in systems:
        V = sample_points(rng, 60, sys.n)
        W = sample_points(rng, 60, sys.n)
        diff = dl.reduced_resolvent_via_drs(sys, V) - dl.reduced_resolvent_via_drs(sys, W)
        lhs = np.einsum("ij,ij->i", diff, diff)
        rhs = np.einsum("ij,ij->i", diff, V - W)
        assert np.all(lhs <= rhs + 1e-10)


def complement(sys, v):
    """The complementary resolvent v - reduced_resolvent_via_drs(sys, v)."""
    return v - dl.reduced_resolvent_via_drs(sys, v)


def test_moreau_complement_examples():
    sys = dl.BlockSystem(dl.Zero(), dl.Zero(), 1.0, 1)
    assert complement(sys, np.array([3.0])) == pytest.approx([0.0])
    assert complement(identity_pair(), np.array([4.0])) == pytest.approx([2.0])
    skew = dl.BlockSystem(dl.LinearRelation(rotation()), dl.Zero(), 1.0, 2)
    got = complement(skew, np.array([1.0, 0.0]))
    assert np.allclose(got, [0.5, 0.5], atol=1e-15)


def test_moreau_complement_satisfies_linear_inclusion():
    # on invertible linear systems the complement equals W @ resolvent
    rng = np.random.default_rng(107)
    sys = dl.BlockSystem(
        dl.LinearRelation(monotone_matrix(rng, 3)),
        dl.LinearRelation(spd_matrix(rng, 3)),
        0.8,
        3,
    )
    W = dl.coupling_gram(sys)
    V = sample_points(rng, 40, 3)
    r = dl.reduced_resolvent_via_drs(sys, V)
    c = V - r
    assert np.max(np.abs(c - r @ W.T)) <= 1e-10


# ---------------------------------------------------------------------------
# structural facts about block matrices


def test_congruence_preserves_monotonicity():
    rng = np.random.default_rng(127)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m + 1))
        M = monotone_matrix(rng, m, floor=0.0)
        while True:
            P = rng.standard_normal((n, m))
            s = np.linalg.svd(P, compute_uv=False)
            if s[-1] > 1e-8 * s[0]:
                break
        G = P @ M @ P.T
        eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
        scale = max(1.0, float(np.max(np.abs(eigs)))) if eigs.size else 1.0
        assert eigs.min() >= -1e-10 * scale


def test_block_matrix_symmetric_part_is_block_diagonal():
    rng = np.random.default_rng(131)
    MA = monotone_matrix(rng, 2)
    MB = monotone_matrix(rng, 3)
    C = rng.standard_normal((3, 2))
    S = np.block([[MA, -C.T], [C, MB]])
    sym = 0.5 * (S + S.T)
    expected = np.zeros((5, 5))
    expected[:2, :2] = 0.5 * (MA + MA.T)
    expected[2:, 2:] = 0.5 * (MB + MB.T)
    assert np.array_equal(sym, expected)
    assert np.linalg.eigvalsh(sym).min() >= -1e-12


# ---------------------------------------------------------------------------
# construction and serialization


def test_block_system_validation():
    with pytest.raises(ValueError):
        dl.BlockSystem(dl.Zero(), dl.Zero(), 0.0, 1)
    with pytest.raises(ValueError):
        dl.BlockSystem(dl.Zero(), dl.Zero(), 1.0, 0)
    with pytest.raises(dl.DimensionMismatch):
        dl.BlockSystem(dl.LinearRelation(np.eye(2)), dl.Zero(), 1.0, 3)


def test_block_system_round_trip():
    sys = dl.BlockSystem(dl.L1(0.3), dl.ScaledIdentity(2.0), 1.25, 4)
    clone = dl.BlockSystem.from_dict(sys.to_dict())
    assert clone.tau == sys.tau
    assert clone.n == sys.n
    v = np.linspace(-1.0, 1.0, 4)
    assert np.array_equal(
        dl.reduced_resolvent_via_drs(sys, v), dl.reduced_resolvent_via_drs(clone, v)
    )
