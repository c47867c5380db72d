"""Checks written once and shared: the cycle tuple, frozen arrays and the
singular-matrix policy, pinned by error type and exact text."""

import re

import numpy as np
import pytest

import drslab as dl
import helpers
from drslab import blocks
from helpers import linear_matrix, reduced_resolvent_fukushima

# ---------------------------------------------------------------------------
# the cycle tuple: cycle_sum and CycleWitness accept and reject alike

MALFORMED_CYCLES = [
    # broadcasting once made this a cycle sum of 0.0
    ([[0.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]], dl.DimensionMismatch,
     "all points and values must share one dimension"),
    ([[0.0, 1.0], [1.0, 0.0]], [[1.0], [1.0]], dl.DimensionMismatch,
     "all points and values must share one dimension"),
    ([[0.0], [1.0]], [[1.0]], dl.LengthMismatch, "2 points but 1 values"),
    ([[0.0]], [[1.0]], dl.LengthMismatch, "a cycle needs at least two points"),
    # (1, 2) points once ended in numpy's matmul ValueError
    ([[[1.0, 2.0]], [[3.0, 4.0]]], [[[1.0, 0.0]], [[0.0, 1.0]]], dl.DimensionMismatch,
     "points and values must be vectors, got shape (1, 2)"),
]


@pytest.mark.parametrize("points, values, error, message", MALFORMED_CYCLES)
def test_cycle_sum_and_witness_reject_the_same_tuples(points, values, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dl.cycle_sum(points, values)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dl.CycleWitness(points, values, 0.0)


def test_cycle_sum_leaves_the_callers_arrays_writeable():
    points = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    values = [np.array([1.0, 1.0]), np.array([-1.0, 2.0])]
    step = points[1] - points[0]
    assert dl.cycle_sum(points, values) == float(step @ values[0]) - float(step @ values[1])
    assert all(arr.flags.writeable for arr in points + values)


# ---------------------------------------------------------------------------
# frozen arrays


def test_documents_freeze_copies_of_their_arrays():
    M = np.eye(2)
    result = dl.ResolventClassification(M)
    assert not result.recovered_M.flags.writeable
    assert M.flags.writeable


# ---------------------------------------------------------------------------
# the singular-matrix policy: each site maps numpy's LinAlgError to its own
# error type and text.  Where no operator makes a site's matrix singular, the
# test replaces the function that feeds it, in the module that calls it.


def _quarter_turns():
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    return dl.BlockSystem(dl.LinearRelation(M), dl.LinearRelation(M), 1.0, 2)


def _identities():
    return dl.BlockSystem(dl.ScaledIdentity(1.0), dl.ScaledIdentity(2.0), 1.0, 2)


# monotone within TOL_PSD; at tau = 2^40, I + tau*M has an exact zero pivot
NEARLY_SINGULAR = np.diag([1.0, -(2.0**-40)])

# a graph pair of zeros, for any operator: every system matrix built from it
# is the zero matrix
ZERO_PAIR = ("graph_pair", lambda op, n: (np.zeros((n, n)),) * 2 + (np.zeros(n),) * 2)


SITES = {
    "resolvent_matrix": (
        lambda: dl.resolve(dl.LinearRelation(NEARLY_SINGULAR), 2.0**40, np.ones(2)),
        dl.SingularSystem,
        "P + tau*Q of the LinearRelation graph pair is singular for tau=1099511627776.0", None),
    "linear_matrix_inverse": (
        lambda: linear_matrix(dl.Inverse(dl.Zero()), 2), dl.NotLinear,
        "inverse of a singular matrix is a relation, not a map", None),
    "gram": (
        lambda: dl.coupling_gram(_quarter_turns()),
        dl.SingularSystem, "lifted block matrix L is singular", None),
    "reduced_direct": (
        lambda: dl.reduced_resolvent_direct(_identities(), np.ones(2)),
        dl.SingularSystem, "the reduced graph system G is singular", (blocks, *ZERO_PAIR)),
    "reduced_fukushima": (
        lambda: reduced_resolvent_fukushima(_identities(), np.ones(2)),
        dl.SingularSystem, "L + K^T K is singular", (helpers, *ZERO_PAIR)),
    "classify_resolvent": (
        lambda: dl.classify_resolvent(np.zeros((2, 2))),
        dl.SingularMatrix, "resolvent matrix is singular", None),
    "affine_constraint": (
        lambda: dl.AffineConstraint([[1.0, 0.0], [1.0, 0.0]], [0.0, 0.0]),
        ValueError, "E must have full row rank", None),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_singular_matrix_sites_keep_their_error_and_text(site, monkeypatch):
    call, error, message, patch = SITES[site]
    if patch is not None:
        monkeypatch.setattr(*patch)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


# a Zero block has no dense inverse, and the lifted paths once refused it with
# linear_matrix's text; read from L's graph pair, they agree with the direct
# kernel, which never needed the inverse


@pytest.mark.parametrize("side", ("A", "B"))
def test_lifted_paths_agree_with_the_direct_kernel_on_a_zero_block(side):
    one = dl.ScaledIdentity(1.0)
    A, B = (dl.Zero(), one) if side == "A" else (one, dl.Zero())
    system = dl.BlockSystem(A, B, 1.0, 2)
    V = np.random.default_rng(83).standard_normal((6, 2))
    direct = dl.reduced_resolvent_direct(system, V)
    via_gram = np.linalg.solve(np.eye(2) + dl.coupling_gram(system), V.T).T
    for got in (reduced_resolvent_fukushima(system, V), via_gram):
        assert np.max(np.abs(got - direct)) <= 1e-14 * max(1.0, np.max(np.abs(direct)))
