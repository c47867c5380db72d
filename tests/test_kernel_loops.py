"""The checked-once loops against the public per-step functions, bit for bit.

``run`` and the recursion and lifted legs of ``formulation_trajectories``
iterate unchecked kernels on a 1-D point.  These tests rebuild each loop
from the public, checked ``splitting_pass`` (on (1, n) rows for ``run``),
``drs_step`` and ``ppa_step`` and ask for exactly equal arrays, not just
close ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from helpers import BLOCK_ENDS, block_end_runs, operator_zoo, row_reference_run

ZOO = operator_zoo()

# Every ordered (A, B) pair of zoo operators that can act on one dimension,
# with that dimension.
PAIRS = [
    (f"{na}+{nb}", A, B, A.dim or B.dim or da)
    for na, A, da in ZOO
    for nb, B, db in ZOO
    if A.dim is None or B.dim is None or A.dim == B.dim
]

taus = st.floats(0.05, 20.0)
gammas = st.floats(0.0, 2.0, exclude_min=True)
seeds = st.integers(0, 2**32 - 1)

# gamma = 2 warns at construction; non-finite starts warn in numpy arithmetic
quiet = pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")


def assert_run_is_reference(problem, z0):
    record = dl.run(problem, z0)
    k, z, x, w, residual, status = row_reference_run(problem, z0)
    assert record.status == status
    for name, ref in (("k", k), ("z", z), ("x", x), ("w", w), ("residual", residual)):
        got = getattr(record, name)
        assert got.shape == ref.shape, name
        assert np.array_equal(got, ref, equal_nan=True), name
    return record


def start(rng, n, kind):
    z0 = 3.0 * rng.standard_normal(n)
    if kind == "nan":
        z0[rng.integers(n)] = np.nan
    elif kind == "huge":
        z0 = np.full(n, 1e308)
    return z0


@quiet
@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(PAIRS),
    tau=taus,
    gamma=gammas,
    max_iters=st.sampled_from([1, 3, 300, *BLOCK_ENDS]),
    kind=st.sampled_from(["finite", "finite", "nan", "huge"]),
    seed=seeds,
)
def test_run_equals_reference_loop(pair, tau, gamma, max_iters, kind, seed):
    _, A, B, n = pair
    problem = dl.DrsProblem(A, B, tau=tau, gamma=gamma, max_iters=max_iters, stop_tol=1e-8)
    assert_run_is_reference(problem, start(np.random.default_rng(seed), n, kind))


@quiet
@pytest.mark.parametrize(
    "entry, gamma, max_iters, kind, expected",
    [
        ("l1_quadratic_1d", 1.0, 1000, "finite", dl.CONVERGED),
        ("box_quadratic_3d", 1.6, 1000, "finite", dl.CONVERGED),
        ("random_monotone_5d", 0.7, 3, "finite", dl.MAX_ITERS),
        ("l1_quadratic_1d", 1.0, 1000, "nan", dl.NONFINITE),
        ("random_monotone_5d", 2.0, 1000, "huge", dl.NONFINITE),
    ],
)
def test_run_equals_reference_loop_for_each_status(catalog_map, entry, gamma, max_iters, kind, expected):
    e = catalog_map[entry]
    p = e.problem
    problem = dl.DrsProblem(p.A, p.B, tau=p.tau, gamma=gamma, max_iters=max_iters, stop_tol=p.stop_tol)
    z0 = start(np.random.default_rng(7), e.dim, kind)
    assert assert_run_is_reference(problem, z0).status == expected


BLOCK_END_RUNS = block_end_runs()


@quiet
@pytest.mark.parametrize("name, problem, z0, status, steps", BLOCK_END_RUNS,
                         ids=[run[0] for run in BLOCK_END_RUNS])
def test_run_equals_reference_loop_at_a_block_end(name, problem, z0, status, steps):
    record = assert_run_is_reference(problem, z0)
    assert (record.status, len(record)) == (status, steps)


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PAIRS), tau=taus, seed=seeds)
def test_trajectory_legs_equal_public_steps(pair, tau, seed):
    _, A, B, n = pair
    problem = dl.DrsProblem(A, B, tau=tau)
    z0 = 3.0 * np.random.default_rng(seed).standard_normal(n)
    iters = 25
    trajs, _ = dl.formulation_trajectories(problem, z0, iters)

    recursion = [z0]
    for _ in range(iters):
        recursion.append(dl.drs_step(problem, recursion[-1]))
    assert np.array_equal(trajs[dl.RECURSION], np.vstack(recursion))

    system = dl.PpaSystem(A, B, tau, n)
    state = dl.initial_state(system, z0.copy())
    lifted = [z0]
    for _ in range(iters):
        state = dl.ppa_step(system, state)
        lifted.append(state.z)
    assert np.array_equal(trajs[dl.LIFTED], np.vstack(lifted))
