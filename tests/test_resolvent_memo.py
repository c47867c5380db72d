"""Factor-once resolvents: the kept matrix against independent references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from helpers import operator_zoo

# One shared zoo, so kept matrices carry over from one example to the next
# and every example also exercises a slot left behind at another tau.
ZOO = operator_zoo()
ZOO_IDS = [name for name, _, _ in ZOO]

taus = st.floats(0.05, 20.0)
seeds = st.integers(0, 2**32 - 1)


def dense_generator(op, n):
    """S with op(x) = S x (+ q for a Quadratic), from the operator's fields."""
    if isinstance(op, dl.Zero):
        return np.zeros((n, n))
    if isinstance(op, dl.ScaledIdentity):
        return op.alpha * np.eye(n)
    if isinstance(op, dl.LinearRelation):
        return np.array(op.M)
    if isinstance(op, dl.Quadratic):
        return np.array(op.Q)
    if isinstance(op, dl.Block2x2):
        top = np.hstack([dense_generator(op.A, op.n1), -op.C.T])
        bottom = np.hstack([op.C, dense_generator(op.B, op.n2)])
        return np.vstack([top, bottom])
    raise TypeError(f"no dense generator for {type(op).__name__}")


def reference_resolve(op, tau, X):
    """(I + tau*op)^{-1} on the rows of X, by a fresh solve or projection."""
    n = X.shape[1]
    if isinstance(op, dl.Quadratic):
        return np.linalg.solve(np.eye(n) + tau * op.Q, (X - tau * op.q).T).T
    if isinstance(op, dl.L1):
        return np.sign(X) * np.maximum(np.abs(X) - tau * op.weight, 0.0)
    if isinstance(op, dl.Box):
        return np.minimum(np.maximum(X, op.lo), op.hi)
    if isinstance(op, dl.AffineConstraint):
        mult = np.linalg.solve(op.E @ op.E.T, (X @ op.E.T - op.e).T).T
        return X - mult @ op.E
    if isinstance(op, dl.Inverse):
        return X - tau * reference_resolve(op.inner, 1.0 / tau, X / tau)
    return np.linalg.solve(np.eye(n) + tau * dense_generator(op, n), X.T).T


def assert_matches_reference(op, tau, X):
    got = dl.resolve(op, tau, X)
    ref = reference_resolve(op, tau, np.atleast_2d(X))
    scale = np.maximum(1.0, np.linalg.norm(np.atleast_2d(X), axis=1))
    err = np.linalg.norm(np.atleast_2d(got) - ref, axis=1)
    assert np.all(err <= 1e-12 * scale), float(np.max(err / scale))


DENSE_NAMES = ("linear_skew", "linear_monotone", "quadratic", "inverse_linear", "block2x2")
DENSE = [(name, op) for name, op, _ in ZOO if name in DENSE_NAMES]


@pytest.mark.parametrize("name, op, dim", ZOO, ids=ZOO_IDS)
@settings(max_examples=25, deadline=None)
@given(tau=taus, seed=seeds)
def test_resolve_matches_reference_on_point_and_stack(name, op, dim, tau, seed):
    rng = np.random.default_rng(seed)
    assert_matches_reference(op, tau, 3.0 * rng.standard_normal(dim))
    assert_matches_reference(op, tau, 3.0 * rng.standard_normal((1000, dim)))


@pytest.mark.parametrize("name, op, dim", ZOO, ids=ZOO_IDS)
@settings(max_examples=25, deadline=None)
@given(tau1=taus, tau2=taus, seed=seeds)
def test_alternating_tau_rekeys_the_slot(name, op, dim, tau1, tau2, seed):
    rng = np.random.default_rng(seed)
    for tau in (tau1, tau2, tau1):
        assert_matches_reference(op, tau, 3.0 * rng.standard_normal((5, dim)))


@pytest.mark.parametrize("name, op", DENSE, ids=[name for name, _ in DENSE])
@settings(max_examples=25, deadline=None)
@given(tau=taus)
def test_kept_matrix_is_keyed_and_read_only(name, op, tau):
    holder = op.inner if isinstance(op, dl.Inverse) else op
    key = 1.0 / tau if isinstance(op, dl.Inverse) else tau
    dl.resolve(op, tau, np.ones(op.dim))
    kept_tau, R = holder._resolvent[:2]  # a Quadratic also keeps tau*q
    assert kept_tau == key
    with pytest.raises(ValueError):
        R[0, 0] = 0.0
    n = R.shape[0]
    residual = R @ (np.eye(n) + key * dense_generator(holder, n)) - np.eye(n)
    assert np.max(np.abs(residual)) <= 1e-12


@pytest.mark.parametrize("name, op, dim", ZOO, ids=ZOO_IDS)
@settings(max_examples=25, deadline=None)
@given(tau=taus, seed=seeds)
def test_moreau_identity_with_warm_slot(name, op, dim, tau, seed):
    x = 3.0 * np.random.default_rng(seed).standard_normal(dim)
    dl.resolve(op, tau, x)
    assert dl.moreau_residual(op, tau, x) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(tau1=taus, tau2=taus)
def test_new_tau_refreshes_the_kept_matrix_and_shift_together(tau1, tau2):
    op = next(op for name, op in DENSE if name == "quadratic")
    for tau in (tau1, tau2, tau1):
        dl.resolve(op, tau, np.ones(op.dim))
        kept_tau, R, shift = op._resolvent
        assert kept_tau == tau
        assert shift.tobytes() == (tau * op.q).tobytes()
        with pytest.raises(ValueError):
            shift[0] = 0.0
        n = R.shape[0]
        assert np.max(np.abs(R @ (np.eye(n) + tau * op.Q) - np.eye(n))) <= 1e-12


def test_singular_factor_raises_every_time_and_is_not_kept():
    M = np.diag([1.0, -(2.0**-40)])  # monotone within TOL_PSD
    tau = 2.0**40  # I + tau*M has an exact zero pivot
    for op, what in ((dl.LinearRelation(M), "M"), (dl.Quadratic(M, [0.0, 0.0]), "Q")):
        for _ in range(2):
            with pytest.raises(dl.SingularSystem, match=rf"I \+ tau\*{what} is singular"):
                dl.resolve(op, tau, np.ones(2))
        assert not hasattr(op, "_resolvent")
        assert_matches_reference(op, 1.0, np.ones(2))


def test_coupled_nonlinear_block_raises_on_every_resolve():
    op = dl.Block2x2(dl.L1(1.0), dl.Zero(), np.array([[1.0]]))
    for tau in (1.0, 1.0, 2.0):
        with pytest.raises(dl.UnsupportedComposition, match="linear-representable blocks"):
            dl.resolve(op, tau, np.zeros(2))
