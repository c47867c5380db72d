"""The Cholesky certificate of ``_check_monotone`` against the eigenvalue test.

``reference_check_monotone`` is the eigenvalue-only body the certificate
short-cuts.  On every input the two must accept the same matrices and reject
the others with the same ``NonMonotone`` text.
"""

import importlib.util
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from drslab import operators
from drslab.errors import NonMonotone
from drslab.operators import TOL_PSD, symmetric_part
from helpers import operator_zoo

ROOT = Path(__file__).resolve().parent.parent


def reference_check_monotone(M, name):
    lam = np.linalg.eigvalsh(symmetric_part(M))
    scale = float(np.max(np.abs(lam)))
    if float(lam[0]) < -TOL_PSD * scale:
        raise NonMonotone(
            f"{name} is not monotone: min symmetric eigenvalue {lam[0]:.3e}"
        )


def verdict(check, M):
    """None when check accepts M, else the text of its NonMonotone."""
    try:
        check(M, "M")
    except NonMonotone as exc:
        return str(exc)
    return None


def spd(rng, n):
    G = rng.standard_normal((n, n))
    return G @ G.T / n + 0.1 * np.eye(n)


def rank_deficient_psd(rng, n):
    G = rng.standard_normal((n, int(rng.integers(0, n))))
    return G @ G.T


def pure_skew(rng, n):
    H = rng.standard_normal((n, n))
    return H - H.T


def skew_plus_eps(rng, n):
    return pure_skew(rng, n) + float(rng.choice([-1e-9, -1e-12, 1e-12, 1e-9, 1e-3])) * np.eye(n)


def zero_diagonal_indefinite(rng, n):
    H = rng.standard_normal((n, n))
    S = H + H.T
    np.fill_diagonal(S, 0.0)
    return S + pure_skew(rng, n)


def with_min_eigenvalue(rng, n, s):
    """A symmetric matrix with eigenvalues s*TOL_PSD and 1 (for n >= 2), the
    rest between, so that lambda_min = s * TOL_PSD * max|lambda|."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(abs(s) * TOL_PSD, 1.0, size=n)
    lam[-1] = 1.0
    lam[0] = s * TOL_PSD
    return (Q * lam) @ Q.T


FAMILIES = {
    **{f.__name__: f for f in (spd, rank_deficient_psd, pure_skew, skew_plus_eps, zero_diagonal_indefinite)},
    **{f"min_eigenvalue_{s}": partial(with_min_eigenvalue, s=s) for s in (-4.0, -2.0, -0.5, 0.0, 0.5)},
}


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(1, 8),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_matches_the_eigenvalue_test(family, n, scale, seed):
    M = scale * FAMILIES[family](np.random.default_rng(seed), n)
    assert verdict(operators._check_monotone, M) == verdict(reference_check_monotone, M)


def test_every_family_reaches_both_verdicts():
    # the property above would say little if no family were ever rejected
    rng = np.random.default_rng(0)
    for family, accepted in [
        ("spd", True),
        ("pure_skew", True),
        ("min_eigenvalue_0.0", True),
        ("min_eigenvalue_-0.5", True),
        ("min_eigenvalue_-2.0", False),
        ("zero_diagonal_indefinite", False),
    ]:
        assert (verdict(operators._check_monotone, FAMILIES[family](rng, 6)) is None) == accepted


def outcome(check, M):
    """verdict(check, M), or the type and text of any other exception."""
    try:
        return verdict(check, M)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc).__name__, str(exc)


BIG = 1.5e308  # M[i, j] + M[j, i] overflows to inf


@pytest.mark.parametrize("M", [
    [[BIG, 0.0], [0.0, -1.0]],
    [[BIG, BIG], [BIG, BIG]],
    [[BIG, 1.0], [1.0, -BIG]],
    [[BIG, 0.0, 0.0], [0.0, 1.0, BIG], [0.0, BIG, 1.0]],
])
def test_overflowing_symmetric_part_is_left_to_the_eigenvalue_test(M):
    # a factor with an inf or NaN proves nothing; the last matrix's factor
    # has one, and eigvalsh raises "Eigenvalues did not converge" on it
    M = np.array(M)
    with np.errstate(all="ignore"):
        assert outcome(operators._check_monotone, M) == outcome(reference_check_monotone, M)


def load_workloads(monkeypatch):
    """perfbench/workloads.py, imported under the name ``workloads``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_certificate_matches_on_every_built_matrix(monkeypatch):
    """The matrices of the catalog, the test zoo and the benchmark inputs."""
    seen = []
    real = operators._check_monotone

    def recording(M, name):
        seen.append(np.array(M))
        return real(M, name)

    workloads = load_workloads(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_check_monotone", recording)
        dl.standard_catalog()
        operator_zoo()
        for build in workloads.WORKLOADS.values():
            for seed in (1, 7):
                build(dl, seed)
    assert len(seen) > 50
    assert max(M.shape[0] for M in seen) == workloads.DENSE_N
    for M in seen:
        assert verdict(operators._check_monotone, M) is None
        assert verdict(reference_check_monotone, M) is None


@pytest.mark.parametrize("build", [
    lambda A: dl.LinearRelation(A + pure_skew(np.random.default_rng(2), A.shape[0])),
    lambda A: dl.Quadratic(A, np.ones(A.shape[0])),
])
def test_positive_definite_operators_need_no_eigenvalues(monkeypatch, build):
    G = np.random.default_rng(1).standard_normal((200, 200))
    A = G @ G.T / 200 + 0.3 * np.eye(200)

    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("eigvalsh called on a positive definite symmetric part")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    assert build(A).dim == 200
