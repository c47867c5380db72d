"""Cycle sums, the skew witness construction, sampling, classification."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from helpers import linear_matrix, monotone_matrix, operator_zoo, rotation, spd_matrix


# ---------------------------------------------------------------------------
# cycle sums


def test_cycle_sum_identical_points_vanishes():
    x = np.array([1.0, -2.0])
    assert dl.cycle_sum([x, x], [np.array([3.0, 4.0]), np.array([-1.0, 0.0])]) == 0.0


def test_cycle_sum_identity_operator_two_cycle():
    # points 0 and 1 on the graph of the identity: sum is -1
    got = dl.cycle_sum([np.array([0.0]), np.array([1.0])], [np.array([0.0]), np.array([1.0])])
    assert got == pytest.approx(-1.0)


def test_cycle_sum_skew_three_points_hand_value():
    points = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
    values = [np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    assert dl.cycle_sum(points, values) == pytest.approx(2.0, abs=1e-14)


def test_cycle_sum_input_validation():
    with pytest.raises(dl.LengthMismatch):
        dl.cycle_sum([np.zeros(1)], [np.zeros(1)])
    with pytest.raises(dl.LengthMismatch):
        dl.cycle_sum([np.zeros(1), np.zeros(1)], [np.zeros(1)])
    with pytest.raises(dl.DimensionMismatch):
        dl.cycle_sum([np.zeros(2), np.zeros(2)], [np.zeros(2), np.zeros(3)])


@settings(max_examples=40, deadline=None)
@given(
    shift=st.integers(0, 5),
    data=st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=6
    ),
)
def test_cycle_sum_invariant_under_rotation(shift, data):
    points = [np.array([p]) for p, _ in data]
    values = [np.array([v]) for _, v in data]
    base = dl.cycle_sum(points, values)
    k = shift % len(points)
    rotated = dl.cycle_sum(points[k:] + points[:k], values[k:] + values[:k])
    assert rotated == pytest.approx(base, abs=1e-9)


def test_two_cycles_never_violate_for_monotone_operators():
    # monotonicity is exactly the two-point case of the cycle inequality
    rng = np.random.default_rng(401)
    ops = [
        dl.L1(0.8),
        dl.LinearRelation(rotation()),
        dl.LinearRelation(monotone_matrix(rng, 3)),
        dl.Box([-1.0, 0.0], [1.0, 2.0]),
    ]
    for op in ops:
        d = op.dim if op.dim is not None else 2
        for _ in range(50):
            w1, w2 = rng.standard_normal((2, d))
            p1 = dl.resolve(op, 1.0, w1)
            p2 = dl.resolve(op, 1.0, w2)
            assert dl.cycle_sum([p1, p2], [w1 - p1, w2 - p2]) <= 1e-10


# ---------------------------------------------------------------------------
# skew witness construction


def test_skew_three_cycle_scalar_frozen():
    witness = dl.skew_three_cycle(np.array([[1.0]]), np.array([1.0]), np.array([0.0]))
    assert witness.n == 3
    assert witness.xi == pytest.approx(2.0, abs=1e-14)
    assert witness.cycle_sum == pytest.approx(2.0, abs=1e-14)
    assert witness.certifies
    expected_points = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    expected_values = [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    for got, want in zip(witness.points, expected_points):
        assert np.array_equal(got, want)
    for got, want in zip(witness.values, expected_values):
        assert np.array_equal(got, want)


def test_skew_three_cycle_closed_form_matches_brute_force():
    rng = np.random.default_rng(403)
    for _ in range(100):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        C = rng.standard_normal((n2, n1))
        a1 = rng.standard_normal(n1)
        b1 = rng.standard_normal(n2)
        witness = dl.skew_three_cycle(C, a1, b1)
        assert abs(witness.xi - witness.cycle_sum) <= 1e-10
        if np.linalg.norm(C @ a1) > 1e-12:
            assert witness.xi > 0.0
            assert witness.certifies


def test_skew_three_cycle_points_lie_on_coupling_graph():
    rng = np.random.default_rng(405)
    C = rng.standard_normal((2, 3))
    op = dl.Block2x2(dl.Zero(), dl.Zero(), C)
    witness = dl.skew_three_cycle(C, rng.standard_normal(3), rng.standard_normal(2))
    for p, u in zip(witness.points, witness.values):
        assert dl.graph_member(op, p, u, tol=1e-10)


def test_skew_three_cycle_zero_inputs_do_not_certify():
    witness = dl.skew_three_cycle(np.array([[1.0]]), np.array([0.0]), np.array([0.0]))
    assert witness.xi == 0.0
    assert not witness.certifies


def test_skew_three_cycle_rejects_zero_coupling():
    with pytest.raises(dl.ZeroCoupling):
        dl.skew_three_cycle(np.zeros((2, 2)), np.zeros(2), np.zeros(2))


def test_skew_three_cycle_dimension_checks():
    C = np.ones((2, 3))
    with pytest.raises(dl.DimensionMismatch):
        dl.skew_three_cycle(C, np.zeros(2), np.zeros(2))
    with pytest.raises(dl.DimensionMismatch):
        dl.skew_three_cycle(C, np.zeros(3), np.zeros(3))


def test_cycle_witness_validates_xi():
    pts = (np.zeros(1), np.ones(1))
    vals = (np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        dl.CycleWitness(pts, vals, cycle_sum=0.0, xi=5.0)


def test_cycle_witness_rejects_a_stored_sum_its_points_do_not_show():
    points, values = [[1.0], [2.0]], [[0.5], [0.25]]  # cycle sum 0.25
    message = r"^cycle_sum 7.0 disagrees with the sum 0.25 of its points$"
    with pytest.raises(ValueError, match=message):
        dl.CycleWitness(points, values, 7.0)
    document = dl.CycleWitness(points, values, 0.25).to_dict()
    with pytest.raises(ValueError, match=message):
        dl.CycleWitness.from_dict(dict(document, cycle_sum=7.0))
    # rounding of another summation order is not a disagreement
    assert dl.CycleWitness(points, values, 0.25 + 1e-12).certifies


@pytest.mark.filterwarnings("error")
def test_cycle_witness_names_an_overflowing_sum():
    # finite points whose differences overflow once warned, then blamed the stated sum
    message = r"^the cycle sum of the witness's points overflows to nan$"
    with pytest.raises(ValueError, match=message):
        dl.CycleWitness([[1e308], [-1e308]], [[1.0], [1.0]], 0.0)


@pytest.mark.filterwarnings("error")
def test_cycle_witness_names_a_sum_that_overflows_to_infinity():
    # both terms overflow to -inf, so the sum is infinite, not nan
    message = r"^the cycle sum of the witness's points overflows to -inf$"
    with pytest.raises(ValueError, match=message):
        dl.CycleWitness([[1e308], [-1e308]], [[1.0], [-1.0]], 0.0)


@pytest.mark.parametrize("seed", (409, 411, 413))
def test_a_skew_witness_stores_the_bits_of_cycle_sum(seed):
    # the witness sums unchecked, in cycle_sum's order, so its stored sum is bit-equal
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((2, 3))
    witness = dl.skew_three_cycle(C, rng.standard_normal(3), rng.standard_normal(2))
    assert witness.cycle_sum == dl.cycle_sum(witness.points, witness.values)


def test_cycle_witness_round_trip():
    witness = dl.skew_three_cycle(np.array([[2.0]]), np.array([1.0]), np.array([0.5]))
    clone = dl.CycleWitness.from_dict(witness.to_dict())
    assert clone.cycle_sum == witness.cycle_sum
    assert clone.xi == witness.xi
    for a, b in zip(clone.points, witness.points):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# random search


def test_sample_cycles_finds_nothing_on_subdifferentials():
    assert dl.sample_cycles(dl.L1(1.0), n_max=4, trials=2000, seed=0, dim=2) is None
    assert dl.sample_cycles(dl.Box([-1.0], [1.0]), n_max=4, trials=2000, seed=1) is None
    rng = np.random.default_rng(407)
    quad = dl.Quadratic(spd_matrix(rng, 3), rng.standard_normal(3))
    assert dl.sample_cycles(quad, n_max=3, trials=1000, seed=2) is None
    sym = dl.LinearRelation(spd_matrix(rng, 2))
    assert dl.sample_cycles(sym, n_max=3, trials=1000, seed=3) is None


def test_sample_cycles_catches_pure_skew():
    op = dl.LinearRelation(rotation())
    witness = dl.sample_cycles(op, n_max=6, trials=1000, seed=7)
    assert witness is not None
    assert witness.certifies
    # two-point cycles cannot violate for a monotone operator
    assert witness.n >= 3
    for p, u in zip(witness.points, witness.values):
        assert dl.graph_member(op, p, u, tol=1e-8)


def test_sample_cycles_block_coupling_sampled_blockwise():
    op = dl.Block2x2(dl.Zero(), dl.Zero(), np.array([[1.0]]))
    witness = dl.sample_cycles(op, n_max=6, trials=1000, seed=7)
    assert witness is not None
    assert witness.certifies
    for p, u in zip(witness.points, witness.values):
        assert dl.graph_member(op, p, u, tol=1e-8)


def test_sample_cycles_block_with_prox_blocks():
    # blockwise sampling works even though the coupled resolvent does not
    op = dl.Block2x2(dl.L1(1.0), dl.Box([-1.0], [1.0]), np.array([[1.0]]))
    with pytest.raises(dl.NotLinear, match="^L1 is not affine"):
        dl.resolve(op, 1.0, np.zeros(2))
    witness = dl.sample_cycles(op, n_max=6, trials=2000, seed=11)
    assert witness is not None and witness.certifies


def test_sample_cycles_clean_on_decoupled_blocks():
    # zero coupling splits the graph; subdifferential blocks stay cyclic
    rng = np.random.default_rng(5)
    op = dl.Block2x2(
        dl.L1(1.0),
        dl.Quadratic(spd_matrix(rng, 3), np.zeros(3)),
        np.zeros((3, 3)),
    )
    assert dl.sample_cycles(op, n_max=6, trials=10_000, seed=0) is None


def test_sample_cycles_coupled_psd_blocks_violate():
    # symmetric PSD blocks, but the coupling makes the composite asymmetric
    op = dl.Block2x2(dl.ScaledIdentity(0.1), dl.ScaledIdentity(0.1), np.array([[1.0]]))
    witness = dl.sample_cycles(op, n_max=6, trials=10_000, seed=0)
    assert witness is not None
    assert witness.certifies
    assert witness.n >= 3
    for p, u in zip(witness.points, witness.values):
        assert dl.graph_member(op, p, u, tol=1e-8)


def test_sample_cycles_is_deterministic():
    op = dl.LinearRelation(rotation())
    w1 = dl.sample_cycles(op, n_max=5, trials=500, seed=42)
    w2 = dl.sample_cycles(op, n_max=5, trials=500, seed=42)
    assert w1 is not None and w2 is not None
    assert w1.cycle_sum == w2.cycle_sum
    for a, b in zip(w1.points, w2.points):
        assert np.array_equal(a, b)


def test_sample_cycles_unsupported_graph():
    op = dl.Inverse(dl.Block2x2(dl.L1(1.0), dl.Zero(), np.array([[1.0]])))
    with pytest.raises(dl.UnsupportedSampling):
        dl.sample_cycles(op, n_max=3, trials=10, seed=0, dim=2)


def test_sample_cycles_argument_validation():
    op = dl.LinearRelation(rotation())
    with pytest.raises(dl.DimensionMismatch):
        dl.sample_cycles(op, n_max=3, trials=10, seed=0, dim=3)
    with pytest.raises(ValueError):
        dl.sample_cycles(op, n_max=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        dl.sample_cycles(op, n_max=3, trials=0, seed=0)


# ---------------------------------------------------------------------------
# the splitting map as a matrix


def test_drs_map_matrix_zero_problem_is_identity():
    problem = dl.DrsProblem(A=dl.Zero(), B=dl.Zero())
    assert np.array_equal(dl.drs_map_matrix(problem, dim=3), np.eye(3))


def test_drs_map_matrix_identity_pair():
    problem = dl.DrsProblem(A=dl.ScaledIdentity(1.0), B=dl.ScaledIdentity(1.0))
    T = dl.drs_map_matrix(problem, dim=1)
    assert T == pytest.approx(np.array([[0.5]]))


def test_drs_map_matrix_skew_is_rotation_resolvent():
    problem = dl.DrsProblem(A=dl.LinearRelation(rotation()), B=dl.Zero())
    T = dl.drs_map_matrix(problem)
    expected = np.linalg.inv(np.eye(2) + rotation())
    assert np.max(np.abs(T - expected)) <= 1e-14
    assert np.allclose(T, 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0]]))


def test_drs_map_matrix_argument_handling():
    free = dl.DrsProblem(A=dl.ScaledIdentity(1.0), B=dl.Zero())
    with pytest.raises(ValueError):
        dl.drs_map_matrix(free)
    sized = dl.DrsProblem(A=dl.LinearRelation(rotation()), B=dl.Zero())
    with pytest.raises(dl.DimensionMismatch):
        dl.drs_map_matrix(sized, dim=3)


def test_drs_map_matrix_rejects_nonlinear_maps():
    problem = dl.DrsProblem(A=dl.L1(1.0), B=dl.Quadratic(np.eye(1), np.array([-1.0])))
    with pytest.raises(dl.NotLinear):
        dl.drs_map_matrix(problem, dim=1)


# ---------------------------------------------------------------------------
# classification


def test_classify_scalar_resolvent_is_proximal():
    got = dl.classify_resolvent(np.array([[0.5]]))
    assert got.verdict == dl.PROXIMAL
    assert got.recovered_M == pytest.approx(np.array([[1.0]]))
    assert got.symmetry_defect == 0.0


def test_classify_identity_resolvent():
    got = dl.classify_resolvent(np.eye(3))
    assert got.verdict == dl.PROXIMAL
    assert np.array_equal(got.recovered_M, np.zeros((3, 3)))


def test_classify_skew_resolvent_frozen():
    T = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    got = dl.classify_resolvent(T)
    assert got.verdict == dl.NOT_PROXIMAL
    # ||M - M^T||_F / ||M||_F = sqrt(8)/sqrt(2) = 2 for the quarter turn
    assert got.symmetry_defect == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(got.recovered_M - rotation())) <= 1e-10


def test_classify_coupled_catalog_problem_not_proximal(catalog_map):
    # asymmetric dynamics in dimension 5, so the map cannot be a prox
    entry = catalog_map["random_monotone_5d"]
    result = dl.classify_resolvent(dl.drs_map_matrix(entry.problem, dim=entry.dim))
    assert result.verdict == dl.NOT_PROXIMAL
    assert result.symmetry_defect > 1e-6


def test_classify_gap_verdict_is_inconclusive():
    M = np.array([[1.0, 1e-7], [0.0, 1.0]])
    got = dl.classify_resolvent(np.linalg.inv(np.eye(2) + M))
    assert got.verdict == dl.INCONCLUSIVE


def test_classify_rejects_singular_and_expanding():
    with pytest.raises(dl.SingularMatrix):
        dl.classify_resolvent(np.zeros((2, 2)))
    # T = 2I would come from M = -I/2, which is not monotone
    with pytest.raises(dl.NonMonotone):
        dl.classify_resolvent(2.0 * np.eye(2))
    with pytest.raises(dl.DimensionMismatch):
        dl.classify_resolvent(np.zeros((2, 3)))


LINEAR_ENTRIES = ("zero_zero_1d", "zero_zero_2d", "identity_pair_1d", "scaled_identities_3d",
                  "skew_zero_2d", "random_monotone_5d")

# an asymmetric generator, and the same one scaled so far up that its
# Frobenius norm overflows unless the verdict rescales it first
ASYMMETRIC = np.array([[1e5, 1e3], [-1e3, 1e5]])


@pytest.mark.parametrize("M", [ASYMMETRIC, 1e150 * ASYMMETRIC], ids=["small", "overflowing"])
def test_an_asymmetric_generator_reads_not_proximal_at_any_scale(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no norm may overflow
        got = dl.ResolventClassification(M)
        back = dl.ResolventClassification.from_dict(json.loads(json.dumps(got.to_dict())))
    assert got.verdict == dl.NOT_PROXIMAL
    # ||M - M^T|| / ||M|| = 2e3 sqrt(2) / sqrt(2e10 + 2e6)
    assert got.symmetry_defect == pytest.approx(2e3 * np.sqrt(2.0) / np.sqrt(2e10 + 2e6), rel=1e-14)
    assert back.to_dict() == got.to_dict()


@pytest.mark.parametrize("entry", LINEAR_ENTRIES, ids=LINEAR_ENTRIES)
def test_verdict_bytes_are_the_unscaled_formula_on_the_linear_catalog(catalog_map, entry):
    e = catalog_map[entry]
    got = dl.classify_resolvent(dl.drs_map_matrix(e.problem, dim=e.dim))
    M = got.recovered_M
    defect = float(np.linalg.norm(M - M.T) / max(1.0, float(np.linalg.norm(M))))
    verdict = dl.PROXIMAL if defect <= 1e-8 else dl.NOT_PROXIMAL if defect > 1e-6 else dl.INCONCLUSIVE
    assert (got.symmetry_defect.hex(), got.verdict) == (defect.hex(), verdict)


def test_classification_dict_form():
    got = dl.classify_resolvent(np.array([[0.5]]))
    data = got.to_dict()
    assert data["verdict"] == dl.PROXIMAL
    assert data["recovered_M"] == [[1.0]]


# ---------------------------------------------------------------------------
# the inverse of a gradient is a gradient: Inverse(Quadratic(M, 0)) of a
# symmetric positive definite M


def inverse_of_gradient(M):
    """The matrix of Inverse(Quadratic(M, 0)), after checking that the inverse
    is a subdifferential, is a symmetric monotone matrix itself (Quadratic
    accepts it) and shows no cycle witness."""
    n = M.shape[0]
    inverse = dl.Inverse(dl.Quadratic(M, np.zeros(n)))
    assert inverse.is_subdifferential
    M_inv = linear_matrix(inverse, n)
    dl.Quadratic(M_inv, np.zeros(n))
    assert dl.sample_cycles(inverse, 5, 500, 0) is None
    return M_inv


def test_inverse_of_gradient_identity():
    assert np.allclose(inverse_of_gradient(np.eye(4)), np.eye(4), atol=1e-15)


def test_inverse_of_gradient_hand_example():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected_inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert np.allclose(inverse_of_gradient(M), expected_inv, atol=1e-15)


def test_inverse_of_gradient_random_spd():
    rng = np.random.default_rng(409)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        M = spd_matrix(rng, n)
        assert np.allclose(inverse_of_gradient(M) @ M, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("name, op, dim", operator_zoo(), ids=[z[0] for z in operator_zoo()])
def test_no_resolvent_returns_its_input(name, op, dim):
    # sample_cycles overwrites its draw W with U = W - P, so P must not share it
    W = np.random.default_rng(3).standard_normal((5, dim))
    for X in (W, W[0], W[:, ::-1]):
        assert not np.shares_memory(dl.resolve(op, 1.0, X), X)
