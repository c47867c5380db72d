"""Point-shaped kernels: a 1-D point gives the bits of its (1, n) row.

Every ``_resolve`` takes a point ``(n,)`` or a row stack ``(m, n)`` and
returns the same layout, and ``run`` iterates a 1-D point.  These tests pin
that stepping a point changes no bit against stepping the (1, n) row, the
layout the loops used before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from helpers import operator_zoo, row_reference_run

# The zoo plus a zero-coupling block, whose resolvent splits the point.
KERNELS = operator_zoo() + [
    (
        "block2x2_split",
        dl.Block2x2(dl.L1(0.7), dl.Box([-1.0, 0.0, -0.5], [1.0, 0.5, 0.0]), np.zeros((3, 2))),
        5,
    )
]
KERNEL_IDS = [name for name, _, _ in KERNELS]

# Kernels that multiply by a kept matrix or projector.  numpy multiplies a
# stack by BLAS gemm and a point or a single row by gemv; the two sum in
# different orders, so for n >= 2 a point can differ from its row of a
# stack in the last bits.
PRODUCTS = {"linear_skew", "linear_monotone", "quadratic", "affine", "inverse_linear", "block2x2"}

EPS = np.finfo(float).eps
taus = st.floats(0.05, 20.0)
seeds = st.integers(0, 2**32 - 1)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stack_with_special_values(rng, dim):
    """Eight points: random ones and ones holding NaN, +-inf, +-0 and 1e308."""
    X = 3.0 * rng.standard_normal((8, dim))
    X[1, rng.integers(dim)] = np.nan
    X[2, rng.integers(dim)] = np.inf
    X[3, rng.integers(dim)] = -np.inf
    X[4] = 0.0
    X[5] = -0.0
    X[6] = 1e308
    return X


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, op, dim", KERNELS, ids=KERNEL_IDS)
@settings(max_examples=25, deadline=None)
@given(tau=taus, seed=seeds)
def test_point_resolve_has_the_bits_of_its_row(name, op, dim, tau, seed):
    X = stack_with_special_values(np.random.default_rng(seed), dim)
    stacked = op._resolve(tau, X)
    for i, x in enumerate(X):
        point = op._resolve(tau, x)
        assert point.shape == (dim,)
        assert same_bits(point, op._resolve(tau, X[i : i + 1])[0])
        if name not in PRODUCTS:
            assert same_bits(point, stacked[i])
        elif np.all(np.isfinite(x)) and np.max(np.abs(x)) < 1e300:
            # the tolerance of a reordered sum of n products, fixed from
            # the dtype: resolvent matrices and projectors have norm <= 1
            scale = (1.0 + tau) * max(1.0, float(np.abs(x).sum()))
            assert np.max(np.abs(point - stacked[i])) <= 16 * dim * EPS * scale


def test_box_clamp_has_the_bits_of_np_clip():
    edges = [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]
    pairs = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    box = dl.Box(lo, hi)
    values = [np.nan, -np.inf, -2.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf]
    X = np.repeat(np.array(values)[:, None], len(pairs), axis=1)
    assert same_bits(dl.resolve(box, 1.0, X), np.clip(X, lo, hi))
    for x in X:
        assert same_bits(dl.resolve(box, 1.0, x), np.clip(x, lo, hi))


def start(kind, n):
    if kind == "random":
        return 3.0 * np.random.default_rng(11).standard_normal(n)
    if kind == "nan":
        return np.full(n, np.nan)
    if kind == "huge":
        return np.full(n, 1e308)
    return np.full(n, 0.0 if kind == "zero" else -0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["random", "nan", "huge", "zero", "negative_zero"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.7])
def test_run_on_a_point_has_the_bits_of_the_row_loop(catalog, gamma, kind):
    for entry in catalog:
        p = entry.problem
        problem = dl.DrsProblem(p.A, p.B, tau=p.tau, gamma=gamma, max_iters=2000, stop_tol=p.stop_tol)
        z0 = start(kind, entry.dim)
        record = dl.run(problem, z0)
        *fields, status = row_reference_run(problem, z0)
        assert record.status == status, entry.name
        for name, ref in zip(("k", "z", "x", "w", "residual"), fields):
            assert same_bits(getattr(record, name), ref), (entry.name, name)
