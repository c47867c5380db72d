"""Splitting engine: steps, relaxation, the run driver, certificates, CSV."""

import io
import tracemalloc
import weakref

import numpy as np
import pytest

import drslab as dl
from helpers import block_end_runs, monotone_matrix, rotation


def identity_problem(**kwargs):
    return dl.DrsProblem(A=dl.ScaledIdentity(1.0), B=dl.ScaledIdentity(1.0), **kwargs)


def l1_quadratic_problem(**kwargs):
    return dl.DrsProblem(
        A=dl.L1(1.0), B=dl.Quadratic(np.array([[1.0]]), np.array([-1.0])), **kwargs
    )


# ---------------------------------------------------------------------------
# single steps


def test_drs_step_zero_pair_is_identity():
    problem = dl.DrsProblem(A=dl.Zero(), B=dl.Zero())
    z = np.array([5.0, -1.0])
    assert np.array_equal(dl.drs_step(problem, z), z)


def test_drs_step_identity_pair_halves():
    got = dl.drs_step(identity_problem(), np.array([4.0]))
    assert got == pytest.approx([2.0])


def test_drs_step_l1_quadratic_frozen_value():
    got = dl.drs_step(l1_quadratic_problem(), np.array([0.0]))
    assert got == pytest.approx([-0.5], abs=1e-15)


def test_drs_step_accepts_row_stacks():
    problem = identity_problem()
    Z = np.array([[4.0], [8.0]])
    out = dl.drs_step(problem, Z)
    assert out.shape == (2, 1)
    assert np.allclose(out, [[2.0], [4.0]])


def test_relaxed_step_blends():
    problem = identity_problem(gamma=1.5)
    got = dl.relaxed_step(problem, np.array([4.0]))
    # (1 - 1.5)*4 + 1.5*2 = 1
    assert got == pytest.approx([1.0])


def test_relaxed_step_keeps_fixed_points():
    problem = dl.DrsProblem(A=dl.Zero(), B=dl.Zero(), gamma=1.7)
    z = np.array([3.0, 0.25])
    assert np.allclose(dl.relaxed_step(problem, z), z)


def test_relaxed_step_gamma_one_is_plain_step():
    problem = l1_quadratic_problem()
    z = np.array([0.37])
    assert np.array_equal(dl.relaxed_step(problem, z), dl.drs_step(problem, z))


# ---------------------------------------------------------------------------
# problem validation


def test_problem_parameter_validation():
    for bad in ({"gamma": 0.0}, {"gamma": 2.5}, {"tau": -1.0}, {"max_iters": 0},
                {"stop_tol": 0.0}, {"seed": -1}):
        with pytest.raises(ValueError):
            identity_problem(**bad)


def test_gamma_two_warns_but_constructs():
    with pytest.warns(UserWarning):
        problem = identity_problem(gamma=2.0)
    assert problem.gamma == 2.0


def test_problem_dimension_consistency():
    with pytest.raises(dl.DimensionMismatch):
        dl.DrsProblem(A=dl.LinearRelation(np.eye(2)), B=dl.LinearRelation(np.eye(3)))
    problem = dl.DrsProblem(A=dl.L1(1.0), B=dl.LinearRelation(np.eye(3)))
    assert problem.dim == 3
    assert identity_problem().dim is None


def test_problem_round_trip():
    problem = l1_quadratic_problem(tau=0.5, gamma=1.5, max_iters=77, stop_tol=1e-9, seed=4)
    clone = dl.DrsProblem.from_dict(problem.to_dict())
    assert clone.to_dict() == problem.to_dict()


# ---------------------------------------------------------------------------
# the run driver


def test_run_zero_pair_converges_immediately():
    problem = dl.DrsProblem(A=dl.Zero(), B=dl.Zero())
    traj = dl.run(problem, [3.0, -1.0])
    assert traj.status == dl.CONVERGED
    assert len(traj) == 1
    assert np.array_equal(traj.z[0], [3.0, -1.0])
    assert np.array_equal(traj.x[0], [3.0, -1.0])
    assert traj.residual[0] == 0.0


def test_run_identity_pair_geometric_decay():
    problem = identity_problem()
    traj = dl.run(problem, [8.0])
    assert traj.status == dl.CONVERGED
    k = len(traj)
    expected = 8.0 * 0.5 ** np.arange(1, k + 1)
    assert np.array_equal(traj.z[:, 0], expected)
    # x^k = J(z^{k-1}) = z^k for this pair, and the residual matches it
    assert np.array_equal(traj.x, traj.z)
    assert np.array_equal(traj.residual, expected)
    assert traj.residual[-1] <= problem.stop_tol
    assert traj.residual[-2] > problem.stop_tol


def test_run_stops_at_max_iters():
    problem = identity_problem(max_iters=3)
    traj = dl.run(problem, [8.0])
    assert traj.status == dl.MAX_ITERS
    assert len(traj) == 3
    assert np.array_equal(traj.k, [1, 2, 3])


def disjoint_boxes(max_iters):
    """Two boxes one apart at n = 3: A + B has no zero, so a run takes every step."""
    return dl.DrsProblem(dl.Box([0.0] * 3, [1.0] * 3), dl.Box([2.0] * 3, [3.0] * 3),
                         max_iters=max_iters)


def test_final_rows_own_their_data():
    record = dl.run(disjoint_boxes(100), np.zeros(3))
    for name in ("z", "x"):
        row = getattr(record, f"final_{name}")
        assert row.base is None and not row.flags.writeable
        assert np.array_equal(row, getattr(record, name)[-1])
    final_x, x = record.final_x, weakref.ref(record.x)
    del record
    assert x() is None  # a kept final_x does not keep the (K, n) array alive
    assert final_x.shape == (3,)


@pytest.mark.parametrize("max_iters", [5, 200])  # one block of steps, and several concatenated
def test_run_record_fields_are_its_own_and_frozen(max_iters):
    record = dl.run(disjoint_boxes(max_iters), np.zeros(3))
    for name in ("k", "z", "x", "w", "residual"):
        arr = getattr(record, name)
        assert arr.base is None and not arr.flags.writeable, name


def test_a_record_leaves_the_callers_arrays_writeable():
    k, z, x, w, r = np.arange(1, 3), np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)), np.zeros(2)
    record = dl.TrajectoryRecord(z, x, w, r, "max_iters")
    z[0, 0], r[1], k[0] = 1.0, 5.0, 7  # each was read-only after the record froze it in place
    assert np.array_equal(record.z, np.zeros((2, 2))) and np.array_equal(record.residual, [0.0, 0.0])
    assert np.array_equal(record.k, [1, 2])
    for name, given in (("k", k), ("z", z), ("x", x), ("w", w), ("residual", r)):
        assert given.flags.writeable and not getattr(record, name).flags.writeable, name
    # an array the caller froze is already safe to share, as run's are: kept, not copied
    z.setflags(write=False)
    assert dl.TrajectoryRecord(z, x, w, r, "max_iters").z is z


def test_a_record_copies_a_read_only_view_of_a_writeable_array():
    # frozen, but not its own data: a write through the base once showed in the record
    base, x, r = np.zeros((2, 2)), np.ones((2, 2)), np.zeros(2)
    z = base.view()
    z.setflags(write=False)
    record = dl.TrajectoryRecord(z, x, x, r, "max_iters")
    base[0, 0] = 9.0
    assert record.z is not z and record.z[0, 0] == 0.0
    assert record.z.base is None and not record.z.flags.writeable


def test_a_long_run_keeps_little_more_than_its_data():
    # 20,000 steps at n = 3 hold 1.6 MB of data (3n + 1 floats a step); with
    # each step kept as objects until the run ended, the peak was about 10 MB
    problem = disjoint_boxes(20_000)
    dl.run(disjoint_boxes(2), np.zeros(3))  # first-call allocations
    tracemalloc.start()
    try:
        record = dl.run(problem, np.zeros(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (record.status, len(record)) == (dl.MAX_ITERS, 20_000)
    assert peak < 4_000_000


def test_a_short_run_keeps_one_small_block_of_step_objects(catalog_map):
    # box_quadratic_3d converges in about 150 steps from this start: 12 KB of
    # data at n = 3. Its peak is mostly one block of per-step objects, 27.8 KB
    # with 32-step blocks packed by their bytes; 64-step blocks packed by
    # np.array peaked at 37.7 KB
    problem = catalog_map["box_quadratic_3d"].problem
    z0 = 3.0 * np.random.default_rng(3).standard_normal(3)
    dl.run(problem, z0)  # first-call allocations
    tracemalloc.start()
    try:
        record = dl.run(problem, z0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.status == dl.CONVERGED and len(record) > 100
    assert peak < 32_000


def test_run_l1_quadratic_solves_inclusion():
    problem = l1_quadratic_problem()
    traj = dl.run(problem, [5.0])
    assert traj.status == dl.CONVERGED
    assert abs(traj.final_x[0]) <= 1e-8
    assert traj.final_z[0] == pytest.approx(-1.0, abs=1e-8)
    assert dl.solution_certificate(problem, traj.final_z, 100.0 * problem.stop_tol)


def test_run_rejects_bad_starts():
    problem = identity_problem()
    with pytest.raises(dl.DimensionMismatch):
        dl.run(problem, np.zeros((2, 2)))
    with pytest.raises(dl.DimensionMismatch):
        dl.run(dl.DrsProblem(A=dl.LinearRelation(np.eye(2)), B=dl.Zero()), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# certificates


def test_certificate_accepts_true_fixed_point():
    problem = l1_quadratic_problem()
    # x* = 0 with z* = -1: u = (z - x)/tau = -1 lands in both graphs
    assert dl.solution_certificate(problem, np.array([-1.0]), 1e-8)


def test_certificate_rejects_non_solution():
    problem = l1_quadratic_problem()
    assert not dl.solution_certificate(problem, np.array([0.0]), 1e-8)
    assert not dl.solution_certificate(problem, np.array([4.0]), 1e-8)


def test_converged_catalog_runs_pass_certificate(catalog):
    rng = np.random.default_rng(311)
    converged = 0
    for entry in catalog:
        traj = dl.run(entry.problem, 2.0 * rng.standard_normal(entry.dim))
        if traj.status == dl.CONVERGED:
            converged += 1
            tol = 100.0 * entry.problem.stop_tol
            assert dl.solution_certificate(entry.problem, traj.final_z, tol), entry.name
    assert converged >= 6


# ---------------------------------------------------------------------------
# contraction properties of the map


def test_drs_step_is_nonexpansive(catalog):
    rng = np.random.default_rng(307)
    for entry in catalog:
        dim = entry.dim
        X = 3.0 * rng.standard_normal((200, dim))
        Y = 3.0 * rng.standard_normal((200, dim))
        TX = dl.drs_step(entry.problem, X)
        TY = dl.drs_step(entry.problem, Y)
        lhs = np.linalg.norm(TX - TY, axis=1)
        rhs = np.linalg.norm(X - Y, axis=1)
        assert np.all(lhs <= rhs + 1e-10), entry.name


def test_relaxed_step_is_averaged(catalog):
    # gamma/2-averaged: ||Tx-Ty||^2 + (2/gamma - 1)||(I-T)x - (I-T)y||^2 <= ||x-y||^2
    rng = np.random.default_rng(311)
    for entry in catalog:
        for gamma in (0.5, 1.5):
            problem = dl.DrsProblem(
                A=entry.problem.A, B=entry.problem.B, tau=entry.problem.tau, gamma=gamma
            )
            X = 3.0 * rng.standard_normal((200, entry.dim))
            Y = 3.0 * rng.standard_normal((200, entry.dim))
            TX = dl.relaxed_step(problem, X)
            TY = dl.relaxed_step(problem, Y)
            D = TX - TY
            R = (X - TX) - (Y - TY)
            lhs = np.einsum("ij,ij->i", D, D) + (2.0 / gamma - 1.0) * np.einsum(
                "ij,ij->i", R, R
            )
            rhs = np.einsum("ij,ij->i", X - Y, X - Y)
            assert np.all(lhs <= rhs + 1e-10), (entry.name, gamma)


# ---------------------------------------------------------------------------
# CSV export


def test_csv_header_and_shape():
    traj = dl.run(identity_problem(max_iters=4), [8.0])
    lines = traj.to_csv_string().strip().split("\n")
    assert lines[0] == "k,z0,x0,w0,residual"
    assert len(lines) == len(traj) + 1


def test_csv_two_dimensional_header():
    problem = dl.DrsProblem(A=dl.Zero(), B=dl.LinearRelation(rotation()))
    traj = dl.run(problem, [1.0, 0.0])
    header = traj.to_csv_string().split("\n", 1)[0]
    assert header == "k,z0,z1,x0,x1,w0,w1,residual"


def test_csv_round_trips_floats_exactly():
    rng = np.random.default_rng(313)
    problem = dl.DrsProblem(
        A=dl.LinearRelation(monotone_matrix(rng, 2)), B=dl.L1(0.3), max_iters=6
    )
    traj = dl.run(problem, rng.standard_normal(2))
    lines = traj.to_csv_string().strip().split("\n")
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == traj.k[i]
        parsed = np.array([float(c) for c in cells[1:]])
        stored = np.concatenate([traj.z[i], traj.x[i], traj.w[i], [traj.residual[i]]])
        assert np.array_equal(parsed, stored)


def row_csv(traj):
    """The CSV writer as it was, one np.concatenate per row: the reference for its bytes."""
    n = traj.z.shape[1]
    cols = (
        ["k"]
        + [f"z{i}" for i in range(n)]
        + [f"x{i}" for i in range(n)]
        + [f"w{i}" for i in range(n)]
        + ["residual"]
    )
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for i in range(len(traj)):
        vals = np.concatenate([traj.z[i], traj.x[i], traj.w[i], [traj.residual[i]]])
        row = [str(int(traj.k[i]))] + [format(v, ".17g") for v in vals]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7])
def test_csv_bytes_are_the_row_writers_on_the_catalog(catalog, gamma):
    rng = np.random.default_rng(5)
    for entry in catalog:
        p = entry.problem
        problem = dl.DrsProblem(p.A, p.B, tau=p.tau, gamma=gamma, stop_tol=p.stop_tol)
        traj = dl.run(problem, 3.0 * rng.standard_normal(entry.dim))
        assert traj.to_csv_string() == row_csv(traj), entry.name


BLOCK_END_RUNS = block_end_runs()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite runs overflow
@pytest.mark.parametrize("run_id, problem, z0, status, steps", BLOCK_END_RUNS,
                         ids=[case[0] for case in BLOCK_END_RUNS])
def test_csv_bytes_are_the_row_writers_at_block_ends(run_id, problem, z0, status, steps):
    traj = dl.run(problem, z0)  # converged, max_iters and nonfinite ends (inf and nan cells)
    assert (traj.status, len(traj)) == (status, steps)
    assert traj.to_csv_string() == row_csv(traj)


def test_csv_bytes_are_the_row_writers_on_a_long_run_from_negative_zero():
    traj = dl.run(disjoint_boxes(20_000), np.full(3, -0.0))
    text = traj.to_csv_string()
    assert text == row_csv(traj)
    assert text.count("\n") == 20_001
