"""Factor-once resolvents: the kept matrix against independent references."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from drslab.blocks import _direct_kernel
from helpers import monotone_matrix, operator_zoo, spd_matrix

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


# p = 0 and c = tau*q; p and c both nonzero, on a normal cone in a coupled block
KEPT_OFFSETS = (
    next(op for name, op in DENSE if name == "quadratic"),
    dl.Block2x2(dl.AffineConstraint([[1.0, 1.0]], [2.0]), dl.ScaledIdentity(1.0), [[1.0, 0.0]]),
)


@pytest.mark.parametrize("op", KEPT_OFFSETS, ids=["quadratic", "affine_block"])
@settings(max_examples=25, deadline=None)
@given(tau1=taus, tau2=taus)
def test_new_tau_refreshes_the_kept_matrix_and_shift_together(op, tau1, tau2):
    P, Q, p, q = dl.graph_pair(op, op.dim)
    for tau in (tau1, tau2, tau1):
        dl.resolve(op, tau, np.ones(op.dim))
        kept_tau, R, kept_c, kept_p = op._resolvent
        assert kept_tau == tau
        assert kept_c.tobytes() == (p + tau * q).tobytes()
        # a zero offset is not kept
        assert kept_p is None if not np.any(p) else kept_p.tobytes() == p.tobytes()
        for arr in (R, kept_c, kept_p)[: 2 if kept_p is None else 3]:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.max(np.abs(R @ (P + tau * Q) - P)) <= 1e-12


def test_singular_factor_raises_every_time_and_is_not_kept():
    M = np.diag([1.0, -(2.0**-40)])  # monotone within TOL_PSD
    tau = 2.0**40  # I + tau*M has an exact zero pivot
    for op in (dl.LinearRelation(M), dl.Quadratic(M, [0.0, 0.0])):
        message = rf"^P \+ tau\*Q of the {type(op).__name__} graph pair is singular for tau=1099511627776.0$"
        for _ in range(2):
            with pytest.raises(dl.SingularSystem, match=message):
                dl.resolve(op, tau, np.ones(2))
        assert not hasattr(op, "_resolvent")
        assert_matches_reference(op, 1.0, np.ones(2))


def test_coupled_nonlinear_block_raises_on_every_resolve():
    op = dl.Block2x2(dl.L1(1.0), dl.Zero(), np.array([[1.0]]))
    for tau in (1.0, 1.0, 2.0):
        with pytest.raises(dl.NotLinear, match="^L1 is not affine: it has no graph pair$"):
            dl.resolve(op, tau, np.zeros(2))


# Kept matrices start on a 64-byte boundary, a cache line: a product with one
# 16 bytes off a 32-byte boundary is slower at BLAS sizes, with the same bits.
RNG_200 = np.random.default_rng(200)
LARGE = (
    ("linear_200", dl.LinearRelation(monotone_matrix(RNG_200, 200))),
    ("quadratic_200", dl.Quadratic(spd_matrix(RNG_200, 200), RNG_200.standard_normal(200))),
)
ALIGNED = (*DENSE, *LARGE, ("affine_block", KEPT_OFFSETS[1]))


def kept_matrix(op, tau):
    """The matrix op keeps after a resolve at tau, from its own slot or, for an
    Inverse, from the slot of the operator it inverts."""
    dl.resolve(op, tau, np.ones(op.dim))
    holder = op.inner if isinstance(op, dl.Inverse) else op
    return holder._resolvent[1]


@pytest.mark.parametrize("name, op", ALIGNED, ids=[name for name, _ in ALIGNED])
def test_kept_matrix_starts_on_a_cache_line(name, op):
    for tau in (0.7, 2.5, 0.7):  # 2.5 and the second 0.7 refill the slot
        R = kept_matrix(op, tau)
        assert R.ctypes.data % 64 == 0
        assert R.flags.c_contiguous and not R.flags.writeable


def test_affine_projector_starts_on_a_cache_line():
    for E in ([[1.0, 1.0]], np.random.default_rng(5).standard_normal((3, 200))):
        projector = dl.AffineConstraint(E, np.zeros(len(E)))._projector
        assert projector.ctypes.data % 64 == 0
        assert projector.flags.c_contiguous and not projector.flags.writeable


def test_direct_kernel_keeps_only_the_bottom_rows_of_the_inverse():
    n = 5
    A, B = dl.LinearRelation(monotone_matrix(RNG_200, n)), dl.Quadratic(np.eye(n), np.ones(n))
    system = dl.BlockSystem(A, B, 0.8, n)
    R = inspect.getclosurevars(_direct_kernel(system)).nonlocals["R"]
    assert R.shape == (n, n)
    assert R.base.shape == (n, 3 * n) and R.base.base is None
