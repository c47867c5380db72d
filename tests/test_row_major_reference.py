"""The kept-transposed resolvent product against the row-major one it replaced.

The kernels keep each resolvent matrix R as its C-ordered transpose Rt and
form ``(X - c).dot(Rt)``, where they used to form ``(X - c) @ R.T`` against
R's transposed view.  The two sum in different orders, so a dense product
moves in its last bits (``tests/test_kernel_bits.py`` pins the new bits).
Here the old form is a second reference: every dense resolve lies
elementwise within ``2 n eps |R| |X - c|`` of it, twice the classical bound
on one product's rounding, and ``run`` reaches the same status after the
same number of steps as the row-major loop, with a final z within 1e-14
relative.
"""

import numpy as np
import pytest

import drslab as dl
from drslab.operators import linear_matrix
from test_kernel_bits import (
    CATALOG,
    CATALOG_IDS,
    DENSE_200,
    TAUS,
    ZOO,
    layouts,
    plain_resolve,
    plain_run,
    row_major_product,
)
from test_monotone_certificate import load_workloads

EPS = np.finfo(float).eps
DENSE = [(name, op, dim) for name, op, dim in ZOO if name in
         ("linear_skew", "linear_monotone", "quadratic", "inverse_linear", "block2x2")]
DENSE += DENSE_200


def rounding_bound(op, tau, X):
    """2 n eps |R| |X - c| elementwise, for R = (I + tau*S)^{-1} and c = tau*q.

    For an Inverse, X - tau*J(1/tau, X/tau) carries its inner product's bound
    times tau, plus two units of rounding on each side of the difference.
    """
    n = X.shape[-1]
    if isinstance(op, dl.Inverse):
        Y = plain_resolve(op.inner, 1.0 / tau, X / tau, row_major_product)
        inner = rounding_bound(op.inner, 1.0 / tau, X / tau)
        return tau * inner + 2.0 * EPS * (tau * np.abs(Y) + np.abs(X - tau * Y))
    if isinstance(op, dl.Quadratic):
        S, X = op.Q, X - tau * op.q
    else:
        S = linear_matrix(op, n)
    R = np.linalg.inv(np.eye(n) + tau * S)
    return 2.0 * n * EPS * (np.abs(X) @ np.abs(R).T)


@pytest.mark.parametrize("name, op, dim", DENSE, ids=[name for name, _, _ in DENSE])
@pytest.mark.parametrize("tau", TAUS)
def test_dense_resolve_lies_within_the_rounding_bound_of_the_row_major_product(name, op, dim, tau):
    for X in layouts(np.random.default_rng(7), dim):
        got = dl.resolve(op, tau, X)
        ref = plain_resolve(op, tau, X, row_major_product)
        gap = np.abs(got - ref)
        assert np.all(gap <= rounding_bound(op, tau, X)), (X.shape, float(gap.max()))


def assert_run_matches_the_row_major_loop(problem, z0):
    record = dl.run(problem, z0)
    z, _, _, _, status = plain_run(problem, z0, row_major_product)
    assert (record.status, len(record)) == (status, len(z))
    gap = np.linalg.norm(record.final_z - z[-1])
    assert gap <= 1e-14 * np.linalg.norm(z[-1]), gap / np.linalg.norm(z[-1])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", CATALOG, ids=CATALOG_IDS)
@pytest.mark.parametrize("gamma", (0.5, 1.0, 1.7))
def test_run_matches_the_row_major_loop_on_the_catalog(entry, gamma):
    p = entry.problem
    problem = dl.DrsProblem(p.A, p.B, tau=p.tau, gamma=gamma, max_iters=500)
    z0 = 3.0 * np.random.default_rng(10).standard_normal(entry.dim)
    assert_run_matches_the_row_major_loop(problem, z0)


def test_run_matches_the_row_major_loop_at_n_200():
    (_, A, _), (_, B, _) = DENSE_200
    problem = dl.DrsProblem(A, B, stop_tol=1e-9, max_iters=300)
    assert_run_matches_the_row_major_loop(problem, np.random.default_rng(11).standard_normal(200))


@pytest.mark.parametrize("seed", (1, 7))
def test_run_matches_the_row_major_loop_on_the_dense_linear_inputs(monkeypatch, seed):
    # each solve of the benchmark's dense_linear workload is partial(solve, dl, problem, z0)
    for op in load_workloads(monkeypatch).build_dense_linear(dl, seed):
        assert_run_matches_the_row_major_loop(*op.call.args[1:])
