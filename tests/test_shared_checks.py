"""Checks written once and shared: the cycle tuple, frozen arrays and the
singular-matrix policy, pinned by error type and exact text."""

import re

import numpy as np
import pytest

import drslab as dl
from drslab import blocks
from drslab.operators import linear_matrix

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
# test replaces the blocks function that feeds it.


def _quarter_turns():
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    return dl.BlockSystem(dl.LinearRelation(M), dl.LinearRelation(M), 1.0, 2)


def _identities():
    return dl.BlockSystem(dl.ScaledIdentity(1.0), dl.ScaledIdentity(2.0), 1.0, 2)


# monotone within TOL_PSD; at tau = 2^40, I + tau*M has an exact zero pivot
NEARLY_SINGULAR = np.diag([1.0, -(2.0**-40)])

# K = [I I]; an L of -K^T K makes L + K^T K the zero matrix
K_SUM = np.hstack([np.eye(2)] * 2)

# linear_matrix's text for an Inverse of a singular matrix, which every dense
# path of blocks reaches through the catalog operator L
SINGULAR_INVERSE = "inverse of a singular matrix is a relation, not a map"


def _zero_block(side):
    """A system whose A or B block is Zero, which has no dense inverse."""
    one = dl.ScaledIdentity(1.0)
    A, B = (dl.Zero(), one) if side == "A" else (one, dl.Zero())
    return dl.BlockSystem(A, B, 1.0, 2)


SITES = {
    "resolvent_matrix": (
        lambda: dl.resolve(dl.LinearRelation(NEARLY_SINGULAR), 2.0**40, np.ones(2)),
        dl.SingularSystem, "I + tau*M is singular for tau=1099511627776.0", None),
    "linear_matrix_inverse": (
        lambda: linear_matrix(dl.Inverse(dl.Zero()), 2), dl.NotLinear, SINGULAR_INVERSE, None),
    "lifted_blocks_A": (
        lambda: dl.lifted_blocks(_zero_block("A")), dl.NotLinear, SINGULAR_INVERSE, None),
    "lifted_blocks_B": (
        lambda: dl.lifted_blocks(_zero_block("B")), dl.NotLinear, SINGULAR_INVERSE, None),
    "lifted_matrix": (
        lambda: _zero_block("A").lifted_matrix(), dl.NotLinear, SINGULAR_INVERSE, None),
    "gram_zero_block": (
        lambda: dl.coupling_gram(_zero_block("B")), dl.NotLinear, SINGULAR_INVERSE, None),
    "reduced_direct_zero_block": (
        lambda: dl.reduced_resolvent_direct(_zero_block("A"), np.ones(2)),
        dl.NotLinear, SINGULAR_INVERSE, None),
    "reduced_fukushima_zero_block": (
        lambda: dl.reduced_resolvent_fukushima(_zero_block("B"), np.ones(2)),
        dl.NotLinear, SINGULAR_INVERSE, None),
    "elimination_pair_zero_block": (
        lambda: dl.elimination_pair(_zero_block("A")), dl.NotLinear, SINGULAR_INVERSE, None),
    "gram": (
        lambda: dl.coupling_gram(_quarter_turns()),
        dl.SingularSystem, "lifted block matrix L is singular", None),
    "reduced_direct": (
        lambda: dl.reduced_resolvent_direct(_identities(), np.ones(2)),
        dl.SingularSystem, "I + K L^{-1} K^T is singular",
        ("coupling_gram", lambda sys: -np.eye(sys.n))),
    "reduced_fukushima": (
        lambda: dl.reduced_resolvent_fukushima(_identities(), np.ones(2)),
        dl.SingularSystem, "L + K^T K is singular",
        ("lifted_blocks", lambda sys: (-K_SUM.T @ K_SUM, K_SUM))),
    "elimination_pair": (
        lambda: dl.elimination_pair(_identities()),
        dl.SingularSystem, "K L^{-1} K^T is singular; no elimination pair exists",
        ("_gram", lambda L, K: np.zeros((2, 2)))),
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
        monkeypatch.setattr(blocks, *patch)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
