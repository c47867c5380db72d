"""Graph pairs: every affine operator read as (P, Q, p, q), and the direct
reduced kernel that solves the lifted inclusion on them."""

import numpy as np
import pytest

import drslab as dl
from drslab.blocks import _direct_kernel
from helpers import TWO_LINES_GRID, linear_matrix, operator_zoo, two_lines

ZOO = operator_zoo()
NOT_AFFINE = {"l1", "box", "inverse_l1"}
AFFINE = [(name, op, dim) for name, op, dim in ZOO if name not in NOT_AFFINE]


@pytest.mark.parametrize("name, op, dim", ZOO, ids=[name for name, _, _ in ZOO])
def test_graph_pair_parameterizes_the_graph(name, op, dim):
    if name in NOT_AFFINE:
        with pytest.raises(dl.NotLinear, match="is not affine: it has no graph pair$"):
            dl.graph_pair(op, dim)
        return
    P, Q, p, q = dl.graph_pair(op, dim)
    assert {P.shape, Q.shape, p.shape, q.shape} <= {(dim, dim), (dim,)}
    rng = np.random.default_rng(61)
    for xi in 3.0 * rng.standard_normal((20, dim)):
        y, u = P @ xi + p, Q @ xi + q
        assert dl.graph_residual(op, y, u) <= 1e-12 * max(1.0, np.linalg.norm(y), np.linalg.norm(u))


@pytest.mark.parametrize("name, op, dim", AFFINE, ids=[name for name, _, _ in AFFINE])
def test_the_pair_of_an_inverse_is_the_swapped_pair(name, op, dim):
    P, Q, p, q = dl.graph_pair(op, dim)
    swapped = dl.graph_pair(dl.Inverse(op), dim)
    for got, want in zip(swapped, (Q, P, q, p)):
        assert np.array_equal(got, want)


def test_graph_pair_checks_the_dimension():
    with pytest.raises(dl.DimensionMismatch, match="^operator acts on dimension 2, not 3$"):
        dl.graph_pair(dl.LinearRelation(np.eye(2)), 3)
    with pytest.raises(dl.DimensionMismatch, match="^operator acts on dimension 2, not 3$"):
        linear_matrix(dl.LinearRelation(np.eye(2)), 3)


def test_linear_matrix_refuses_an_offset_and_a_multivalued_relation():
    with pytest.raises(dl.NotLinear, match="^AffineConstraint with a nonzero offset is affine, not linear$"):
        linear_matrix(dl.AffineConstraint([[1.0, 1.0]], [1.0]), 2)
    with pytest.raises(dl.NotLinear, match="^inverse of a singular matrix is a relation, not a map$"):
        linear_matrix(dl.AffineConstraint([[1.0, 1.0]], [0.0]), 2)


def _affine_zoo_systems():
    for name_a, A, dim in AFFINE:
        for name_b, B, _ in AFFINE:
            n = A.dim or B.dim or dim
            if B.dim in (None, n) and A.dim in (None, n):
                for tau in (0.3, 1.0, 2.5):
                    yield pytest.param(A, B, tau, n, id=f"{name_a}-{name_b}-{tau}")


@pytest.mark.parametrize("A, B, tau, n", list(_affine_zoo_systems()))
def test_direct_kernel_is_the_splitting_step(A, B, tau, n):
    # singular blocks (Zero, normal cones), quarter turns at tau = 1 (L itself
    # singular) and affine offsets included
    system = dl.BlockSystem(A, B, tau, n)
    kernel = _direct_kernel(system)
    problem = dl.DrsProblem(A, B, tau=tau)
    for z in 2.0 * np.random.default_rng(67).standard_normal((3, n)):
        want = dl.drs_step(problem, z)
        got = system.root_tau * kernel(z / system.root_tau)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_the_reduced_leg_falls_back_only_for_the_nonsmooth_entries(catalog):
    rng = np.random.default_rng(73)
    problems = [(e.name, e.problem, e.dim) for e in catalog]
    problems += [(f"two_lines_{theta}", two_lines(theta), 2) for theta, _ in TWO_LINES_GRID]
    for name, problem, dim in problems:
        report = dl.compare_formulations(problem, rng.standard_normal(dim), iters=50)
        fallback = name in ("l1_quadratic_1d", "box_quadratic_3d")
        assert report.reduced_path == (dl.REDUCED_FALLBACK if fallback else dl.REDUCED_DIRECT), name
        assert report.max_deviation <= 1e-10, name


def test_drs_map_matrix_reads_the_operators_not_the_seed():
    M = np.array([[1.0, -2.0], [2.0, 0.5]])
    maps = [dl.drs_map_matrix(dl.DrsProblem(dl.LinearRelation(M), dl.ScaledIdentity(0.5), seed=seed))
            for seed in (0, 12345)]
    assert np.array_equal(maps[0], maps[1])


@pytest.mark.parametrize("op", [dl.Quadratic(np.eye(2), [1.0, 0.0]),
                                dl.AffineConstraint([[1.0, 1.0]], [1.0])], ids=["quadratic", "affine_constraint"])
def test_drs_map_matrix_refuses_an_affine_map(op):
    problem = dl.DrsProblem(op, dl.ScaledIdentity(1.0))
    with pytest.raises(dl.NotLinear, match="^splitting map is affine, not linear: it moves 0 by "):
        dl.drs_map_matrix(problem, dim=2)



# coupled blocks whose blocks have no matrix: a normal cone (with and without
# an offset), a quadratic with an offset and the inverse of a singular map
COUPLED = {
    "normal_cone": dl.Block2x2(dl.AffineConstraint([[1.0, 1.0]], [0.0]), dl.ScaledIdentity(1.0), [[1.0, 0.0]]),
    "normal_cone_offset": dl.Block2x2(dl.AffineConstraint([[1.0, 1.0]], [2.0]), dl.ScaledIdentity(1.0),
                                      [[1.0, 0.0]]),
    "quadratic_offset": dl.Block2x2(dl.Quadratic([[2.0]], [1.0]), dl.ScaledIdentity(1.0), [[1.0]]),
    "inverse_zero": dl.Block2x2(dl.Inverse(dl.Zero()), dl.ScaledIdentity(1.0), [[1.0]]),
}


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("name", sorted(COUPLED))
def test_a_coupled_block_without_a_matrix_resolves_on_its_graph(name, tau):
    op = COUPLED[name]
    X = 3.0 * np.random.default_rng(79).standard_normal((5, op.dim))
    for x, p in [(X[0], dl.resolve(op, tau, X[0])), *zip(X, dl.resolve(op, tau, X))]:
        assert dl.graph_residual(op, p, (x - p) / tau) <= 1e-12


@pytest.mark.parametrize("name", sorted(COUPLED))
def test_a_coupled_block_without_a_matrix_takes_the_direct_reduced_path(name):
    op = COUPLED[name]
    z0 = np.random.default_rng(83).standard_normal(op.dim)
    report = dl.compare_formulations(dl.DrsProblem(op, dl.Zero()), z0, 20)
    assert report.reduced_path == dl.REDUCED_DIRECT
    assert report.max_deviation <= 1e-10


def test_moreau_residual_sees_a_wrong_affine_resolvent(monkeypatch):
    op = dl.AffineConstraint([[1.0, 1.0]], [0.0])
    x = np.array([0.5, -1.5])
    assert dl.moreau_residual(op, 0.7, x) <= 1e-12
    monkeypatch.setattr(dl.AffineConstraint, "_resolve", lambda self, tau, X: 7.0 * X + 3.0)
    assert dl.moreau_residual(op, 0.7, x) > 1.0


def test_moreau_residual_takes_a_dimension_free_operator_at_any_width():
    for op in (dl.Zero(), dl.ScaledIdentity(2.0)):
        for n in (2, 3, 2):
            assert dl.moreau_residual(op, 0.7, np.ones(n)) <= 1e-15
