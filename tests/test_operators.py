"""Operator variants: resolvents, graph membership, inversion, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from helpers import linear_matrix, operator_zoo, rotation, sample_points, spd_matrix


def prox_grid_oracle(fun, tau, x, lo=-6.0, hi=6.0, num=240001):
    """Brute-force 1-D proximal point: minimize 0.5*(p-x)^2 + tau*fun(p) on a grid."""
    grid = np.linspace(lo, hi, num)
    vals = 0.5 * (grid - x) ** 2 + tau * fun(grid)
    return grid[np.argmin(vals)]


# ---------------------------------------------------------------------------
# resolvents, checked against independent oracles first


def test_l1_resolvent_matches_grid_oracle():
    op = dl.L1(1.0)
    for tau, x in [(1.0, 1.5), (1.0, -0.3), (0.5, 2.0), (2.0, 0.9)]:
        oracle = prox_grid_oracle(np.abs, tau, x)
        got = dl.resolve(op, tau, np.array([x]))[0]
        assert abs(got - oracle) < 1e-4


def test_l1_resolvent_frozen_value():
    got = dl.resolve(dl.L1(1.0), 1.0, np.array([1.5]))
    assert got == pytest.approx([0.5], abs=1e-15)


def test_l1_shrinks_componentwise():
    got = dl.resolve(dl.L1(0.5), 2.0, np.array([3.0, -0.2, 1.0]))
    # threshold tau*weight = 1
    assert np.allclose(got, [2.0, 0.0, 0.0], atol=1e-15)


def test_scaled_identity_resolvent():
    got = dl.resolve(dl.ScaledIdentity(1.0), 1.0, np.array([2.0]))
    assert got == pytest.approx([1.0])
    got = dl.resolve(dl.ScaledIdentity(3.0), 0.5, np.array([5.0, -5.0]))
    assert np.allclose(got, [2.0, -2.0])


def test_quadratic_resolvent_matches_grid_oracle():
    Q = np.array([[2.0]])
    q = np.array([-1.0])
    op = dl.Quadratic(Q, q)

    def fun(p):
        return 0.5 * 2.0 * p**2 - p

    for tau, x in [(1.0, 0.0), (0.5, 3.0), (2.0, -1.2)]:
        oracle = prox_grid_oracle(fun, tau, x)
        got = dl.resolve(op, tau, np.array([x]))[0]
        assert abs(got - oracle) < 1e-4


def test_quadratic_resolvent_satisfies_optimality():
    # p solves p + tau*(Q p + q) = x exactly up to roundoff
    rng = np.random.default_rng(5)
    Q = spd_matrix(rng, 4)
    q = rng.standard_normal(4)
    op = dl.Quadratic(Q, q)
    x = rng.standard_normal(4)
    p = dl.resolve(op, 0.7, x)
    assert np.linalg.norm(p + 0.7 * (Q @ p + q) - x) < 1e-12


def test_linear_relation_resolvent_satisfies_inclusion():
    M = rotation()
    op = dl.LinearRelation(M)
    x = np.array([1.0, 0.0])
    p = dl.resolve(op, 1.0, x)
    assert np.linalg.norm(p + M @ p - x) < 1e-15
    # (I + M)^{-1} for the quarter-turn is 0.5*[[1, 1], [-1, 1]]
    assert np.allclose(p, [0.5, -0.5], atol=1e-15)


def test_box_resolvent_clamps():
    op = dl.Box([-1.0, 0.0], [1.0, 2.0])
    got = dl.resolve(op, 7.3, np.array([5.0, -5.0]))
    assert np.array_equal(got, [1.0, 0.0])
    inside = np.array([0.25, 1.5])
    assert np.array_equal(dl.resolve(op, 1.0, inside), inside)


def test_affine_constraint_resolvent_is_projection():
    rng = np.random.default_rng(11)
    E = rng.standard_normal((2, 5))
    e = rng.standard_normal(2)
    op = dl.AffineConstraint(E, e)
    x = rng.standard_normal(5)
    p = dl.resolve(op, 0.9, x)
    # feasibility and stationarity: p - x lies in the row space of E
    assert np.linalg.norm(E @ p - e) < 1e-12
    coeffs, residual, *_ = np.linalg.lstsq(E.T, p - x, rcond=None)
    assert np.linalg.norm(E.T @ coeffs - (p - x)) < 1e-12
    # projections ignore the step size
    assert np.array_equal(p, dl.resolve(op, 123.0, x))


def test_inverse_resolvent_identity_example():
    got = dl.resolve(dl.Inverse(dl.ScaledIdentity(1.0)), 1.0, np.array([2.0]))
    assert got == pytest.approx([1.0])


def test_inverse_resolvent_scaled_identity():
    # inverse of 2*I is 0.5*I, so J_1 divides by 1.5
    got = dl.resolve(dl.Inverse(dl.ScaledIdentity(2.0)), 1.0, np.array([3.0]))
    assert got == pytest.approx([2.0], abs=1e-14)


def test_inverse_resolvent_linear_agrees_with_matrix_inverse():
    rng = np.random.default_rng(17)
    M = spd_matrix(rng, 3)
    direct = dl.LinearRelation(np.linalg.inv(M))
    wrapped = dl.Inverse(dl.LinearRelation(M))
    X = sample_points(rng, 20, 3)
    for tau in (0.1, 1.0, 10.0):
        assert np.allclose(
            dl.resolve(direct, tau, X), dl.resolve(wrapped, tau, X), atol=1e-10
        )


def test_block2x2_resolvent_satisfies_coupled_inclusion():
    rng = np.random.default_rng(23)
    C = rng.standard_normal((2, 3))
    op = dl.Block2x2(
        dl.LinearRelation(spd_matrix(rng, 3)), dl.ScaledIdentity(0.25), C
    )
    S = linear_matrix(op, 5)
    x = rng.standard_normal(5)
    p = dl.resolve(op, 0.6, x)
    assert np.linalg.norm(p + 0.6 * S @ p - x) < 1e-12


def test_block2x2_prox_blocks_resolvent_unsupported():
    op = dl.Block2x2(dl.L1(1.0), dl.Zero(), np.array([[1.0]]))
    with pytest.raises(dl.NotLinear, match="^L1 is not affine"):
        dl.resolve(op, 1.0, np.zeros(2))


def test_zero_resolvent_is_identity():
    x = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(dl.resolve(dl.Zero(), 42.0, x), x)


def test_resolve_preserves_batch_layout():
    X = np.arange(6.0).reshape(2, 3)
    out = dl.resolve(dl.L1(1.0), 1.0, X)
    assert out.shape == (2, 3)
    single = dl.resolve(dl.L1(1.0), 1.0, X[0])
    assert single.shape == (3,)
    assert np.array_equal(out[0], single)


def test_a_zero_dimensional_point_is_read_as_a_vector():
    got = dl.resolve(dl.L1(1.0), 1.0, 2.5)
    assert got.shape == (1,) and got[0] == 1.5


def test_resolve_rejects_bad_tau_and_dim():
    with pytest.raises(ValueError):
        dl.resolve(dl.Zero(), 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        dl.resolve(dl.Zero(), -1.0, np.zeros(2))
    with pytest.raises(dl.DimensionMismatch):
        dl.resolve(dl.LinearRelation(np.eye(2)), 1.0, np.zeros(3))


# ---------------------------------------------------------------------------
# graph membership


def test_graph_member_l1_subgradient_interval():
    op = dl.L1(1.0)
    assert dl.graph_member(op, np.array([0.0]), np.array([0.7]))
    assert dl.graph_member(op, np.array([0.0]), np.array([-1.0]))
    assert not dl.graph_member(op, np.array([0.0]), np.array([1.2]))
    assert dl.graph_member(op, np.array([2.0]), np.array([1.0]))
    assert not dl.graph_member(op, np.array([2.0]), np.array([0.5]))


def test_graph_member_zero_and_linear():
    assert dl.graph_member(dl.Zero(), np.array([5.0]), np.array([0.0]))
    assert not dl.graph_member(dl.Zero(), np.array([5.0]), np.array([0.1]))
    M = rotation()
    y = np.array([1.0, 2.0])
    assert dl.graph_member(dl.LinearRelation(M), y, M @ y)
    assert not dl.graph_member(dl.LinearRelation(M), y, M @ y + 0.01)


def test_graph_member_inverse_swaps_pairs():
    op = dl.L1(1.0)
    inv = dl.Inverse(op)
    y = np.array([2.0])
    u = np.array([1.0])
    assert dl.graph_member(op, y, u)
    assert dl.graph_member(inv, u, y)
    assert not dl.graph_member(inv, np.array([0.5]), y)


def test_graph_member_block2x2_prox_blocks():
    C = np.array([[1.0]])
    op = dl.Block2x2(dl.L1(1.0), dl.Zero(), C)
    # (y1, y2) = (0, 3): u1 in [-1,1] - C^T y2, u2 = C y1
    assert dl.graph_member(op, np.array([0.0, 3.0]), np.array([-2.5, 0.0]))
    assert not dl.graph_member(op, np.array([0.0, 3.0]), np.array([-2.5, 0.5]))


def test_graph_residual_length_check():
    with pytest.raises(dl.DimensionMismatch):
        dl.graph_residual(dl.Zero(), np.zeros(2), np.zeros(3))


def test_resolvent_output_is_graph_member():
    # p = J_tau(x)  implies  (p, (x - p)/tau) lies on the graph
    rng = np.random.default_rng(29)
    for name, op, dim in operator_zoo():
        if name == "block2x2":
            continue  # coupled resolvent exists but exercise it separately
        X = sample_points(rng, 25, dim)
        for tau in (0.1, 1.0, 10.0):
            P = dl.resolve(op, tau, X)
            for p, x in zip(P, X):
                assert dl.graph_member(op, p, (x - p) / tau, tol=1e-8), name


def test_resolvent_inclusion_block2x2():
    rng = np.random.default_rng(31)
    op = operator_zoo()[-1][1]
    X = sample_points(rng, 25, 4)
    P = dl.resolve(op, 1.0, X)
    for p, x in zip(P, X):
        assert dl.graph_member(op, p, x - p, tol=1e-8)


# ---------------------------------------------------------------------------
# firm nonexpansiveness of every resolvent


def test_resolvents_are_firmly_nonexpansive():
    rng = np.random.default_rng(37)
    for name, op, dim in operator_zoo():
        X = sample_points(rng, 120, dim)
        Y = sample_points(rng, 120, dim)
        for tau in (0.1, 1.0, 10.0):
            PX = dl.resolve(op, tau, X)
            PY = dl.resolve(op, tau, Y)
            D = PX - PY
            lhs = np.einsum("ij,ij->i", D, D)
            rhs = np.einsum("ij,ij->i", D, X - Y)
            assert np.all(lhs <= rhs + 1e-10), (name, tau)


# ---------------------------------------------------------------------------
# Moreau decomposition


def test_moreau_residual_l1_halving_example():
    op = dl.L1(1.0)
    x = np.array([0.4])
    assert dl.resolve(op, 1.0, x) == pytest.approx([0.0])
    assert dl.resolve(dl.Inverse(op), 1.0, x) == pytest.approx([0.4])
    assert dl.moreau_residual(op, 1.0, x) < 1e-12


def test_moreau_residual_skew_matrix_oracle():
    # for linear M: (I+M)^{-1} + (I+M^{-1})^{-1} = I, assembled explicitly
    M = rotation()
    lhs = np.linalg.inv(np.eye(2) + M) + np.linalg.inv(np.eye(2) + np.linalg.inv(M))
    assert np.allclose(lhs, np.eye(2), atol=1e-15)
    op = dl.LinearRelation(M)
    x = np.array([0.3, -1.1])
    assert dl.moreau_residual(op, 1.0, x) < 1e-12


def test_moreau_residual_small_on_all_variants():
    rng = np.random.default_rng(41)
    for name, op, dim in operator_zoo():
        X = sample_points(rng, 15, dim)
        for tau in (0.1, 1.0, 10.0):
            for x in X:
                assert dl.moreau_residual(op, tau, x) <= 1e-10, (name, tau)


# ---------------------------------------------------------------------------
# inversion


def test_inverse_involution():
    rng = np.random.default_rng(43)
    for name, op, dim in operator_zoo():
        twice = dl.Inverse(dl.Inverse(op))
        X = sample_points(rng, 10, dim)
        for tau in (0.5, 1.0, 2.0):
            a = dl.resolve(op, tau, X)
            b = dl.resolve(twice, tau, X)
            assert np.max(np.abs(a - b)) <= 1e-10, name


def test_inverse_is_subdifferential_flag_propagates():
    assert dl.Inverse(dl.L1(1.0)).is_subdifferential
    assert not dl.Inverse(dl.LinearRelation(rotation())).is_subdifferential


# ---------------------------------------------------------------------------
# construction-time monotonicity checks


def test_negative_scaled_identity_rejected():
    with pytest.raises(dl.NonMonotone):
        dl.ScaledIdentity(-0.5)


def test_linear_relation_rejects_nonmonotone_matrix():
    with pytest.raises(dl.NonMonotone):
        dl.LinearRelation(-np.eye(2))
    with pytest.raises(dl.NonMonotone):
        dl.LinearRelation(np.diag([1.0, -1e-8]))
    # tiny negative eigenvalues inside the relative tolerance are accepted
    dl.LinearRelation(np.diag([1.0, -1e-11]))


def test_quadratic_rejects_asymmetric_or_indefinite():
    with pytest.raises(ValueError):
        dl.Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(dl.NonMonotone):
        dl.Quadratic(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(dl.DimensionMismatch):
        dl.Quadratic(np.eye(2), np.zeros(3))


def test_l1_and_box_validation():
    with pytest.raises(ValueError):
        dl.L1(0.0)
    with pytest.raises(ValueError):
        dl.L1(-1.0)
    with pytest.raises(ValueError):
        dl.Box([0.0, 0.0], [1.0, -1.0])
    with pytest.raises(dl.DimensionMismatch):
        dl.Box([0.0], [1.0, 2.0])
    for lo, hi in (([np.nan], [1.0]), ([0.0], [np.nan]), ([np.nan], [np.nan])):
        with pytest.raises(ValueError, match="NaN"):
            dl.Box(lo, hi)
    # infinite bounds stay allowed: a half-line or the whole line
    assert dl.resolve(dl.Box([-np.inf, 0.0], [np.inf, np.inf]), 1.0, [-3.0, -3.0]).tolist() == [-3.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field, build",
    [
        ("M", lambda v: dl.LinearRelation([[v, 0.0], [0.0, 1.0]])),
        ("Q", lambda v: dl.Quadratic([[v]], [0.0])),
        ("q", lambda v: dl.Quadratic([[1.0]], [v])),
        ("E", lambda v: dl.AffineConstraint([[1.0, v]], [0.0])),
        ("e", lambda v: dl.AffineConstraint([[1.0, 0.0]], [v])),
        ("C", lambda v: dl.Block2x2(dl.Zero(), dl.Zero(), [[v]])),
    ],
)
def test_non_finite_coefficients_are_rejected(field, build, bad):
    # a NaN passes every comparison of the monotonicity and rank checks
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got a NaN or infinite entry$"):
            build(bad)


def test_affine_constraint_requires_full_row_rank():
    E = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        dl.AffineConstraint(E, np.zeros(2))


def test_block2x2_dimension_checks():
    C = np.zeros((2, 3))
    with pytest.raises(dl.DimensionMismatch):
        dl.Block2x2(dl.LinearRelation(np.eye(2)), dl.Zero(), C)
    with pytest.raises(dl.DimensionMismatch):
        dl.Block2x2(dl.Zero(), dl.LinearRelation(np.eye(3)), C)


# ---------------------------------------------------------------------------
# linear representability


def test_linear_matrix_assembles_block_operator():
    rng = np.random.default_rng(47)
    MA = spd_matrix(rng, 2)
    C = rng.standard_normal((3, 2))
    op = dl.Block2x2(dl.LinearRelation(MA), dl.ScaledIdentity(2.0), C)
    S = linear_matrix(op, 5)
    expected = np.block([[MA, -C.T], [C, 2.0 * np.eye(3)]])
    assert np.array_equal(S, expected)


def test_linear_matrix_rejects_prox_variants():
    with pytest.raises(dl.NotLinear):
        linear_matrix(dl.L1(1.0), 2)
    with pytest.raises(dl.NotLinear):
        linear_matrix(dl.Quadratic(np.eye(1), np.array([1.0])), 1)


# ---------------------------------------------------------------------------
# serialization


def test_operator_json_round_trip():
    for name, op, dim in operator_zoo():
        spec = op.to_dict()
        # must survive an actual JSON encode
        clone = dl.operator_from_dict(json.loads(json.dumps(spec)))
        assert clone.to_dict() == spec, name
        x = np.linspace(-1.0, 1.0, dim)
        assert np.array_equal(dl.resolve(op, 0.8, x), dl.resolve(clone, 0.8, x))


def test_operator_from_dict_rejects_unknown_tag():
    with pytest.raises(ValueError):
        dl.operator_from_dict({"type": "mystery"})
    with pytest.raises(ValueError):
        dl.operator_from_dict({})
    block = {"type": "block2x2", "A": {"type": "linear"}, "B": {"type": "zero"}, "C": [[0.0]]}
    cases = [
        ({"type": "mystery"}, "unknown operator type 'mystery'"),
        ({"type": []}, "unknown operator type []"),
        ({}, "operator document needs a 'type' tag"),
        ({"type": "scaled_identity"}, "operator 'scaled_identity' is missing field 'alpha'"),
        ({"type": "prox_quadratic", "Q": [[1.0]]}, "operator 'prox_quadratic' is missing field 'q'"),
        (block, "operator 'linear' is missing field 'M'"),
        ({"type": "inverse", "inner": 5}, "operator document needs a 'type' tag"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError) as info:
            dl.operator_from_dict(data)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# property-based checks on the 1-D soft threshold


@settings(max_examples=60, deadline=None)
@given(
    weight=st.floats(0.01, 10.0),
    tau=st.floats(0.01, 10.0),
    x=st.floats(-100.0, 100.0),
)
def test_soft_threshold_inclusion_property(weight, tau, x):
    op = dl.L1(weight)
    p = dl.resolve(op, tau, np.array([x]))
    assert dl.graph_member(op, p, (np.array([x]) - p) / tau, tol=1e-8)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0))
def test_soft_threshold_is_nonexpansive_property(x, y):
    op = dl.L1(1.0)
    px = dl.resolve(op, 1.0, np.array([x]))[0]
    py = dl.resolve(op, 1.0, np.array([y]))[0]
    assert abs(px - py) <= abs(x - y) + 1e-12
