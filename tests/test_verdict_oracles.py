"""Closed-form oracles for the classifier's verdict.

For two symmetric PSD matrices A and B the splitting map is
T = 2 J_A J_B - J_A - J_B + I with symmetric resolvents J, so

    T - T^T = 2 (J_A J_B - J_B J_A),

and T is a proximal map exactly when the pair commutes.  For two lines
through the origin at angle theta, T = cos(theta) R(-theta), R a rotation:
symmetric, so proximal, only at theta = 0 and theta = pi/2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from helpers import TWO_LINES_GRID, two_lines


def psd_pair(seed, n):
    """(A, B, commuting): two symmetric PSD matrices with spread eigenvalues,
    sharing one eigenbasis for an even seed and in independent bases otherwise."""
    rng = np.random.default_rng(seed)
    commuting = seed % 2 == 0
    basis_a = np.linalg.qr(rng.standard_normal((n, n)))[0]
    basis_b = basis_a if commuting else np.linalg.qr(rng.standard_normal((n, n)))[0]

    def matrix(basis):
        eig = np.arange(n) + rng.uniform(0.0, 0.5, n)  # one may be zero: PSD, spaced by 0.5
        M = basis @ np.diag(rng.permutation(eig)) @ basis.T
        return 0.5 * M + 0.5 * M.T

    return matrix(basis_a), matrix(basis_b), commuting


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), log_tau=st.floats(-2.0, 2.0))
def test_symmetric_pairs_are_proximal_exactly_when_they_commute(seed, n, log_tau):
    A, B, commuting = psd_pair(seed, n)
    tau = math.exp(log_tau)
    problem = dl.DrsProblem(dl.Quadratic(A, np.zeros(n)), dl.Quadratic(B, np.zeros(n)), tau=tau)
    T = dl.drs_map_matrix(problem, dim=n)
    J_A, J_B = np.linalg.inv(np.eye(n) + tau * A), np.linalg.inv(np.eye(n) + tau * B)
    assert np.max(np.abs((T - T.T) - 2.0 * (J_A @ J_B - J_B @ J_A))) <= 1e-12
    verdict = dl.classify_resolvent(T).verdict
    assert (verdict == dl.PROXIMAL) == commuting, (verdict, commuting)


def _grid():
    for theta, verdict in TWO_LINES_GRID:
        marks = ()
        if theta >= math.pi / 2 - 1e-6:
            # ROADMAP item 3: the classifier inverts T, ill-conditioned near
            # pi/2 and singular at it, and calls a firmly nonexpansive map NonMonotone
            marks = pytest.mark.xfail(strict=True, raises=dl.NonMonotone,
                                      reason="item 3: the generator T^-1 - I is read near a singular T")
        yield pytest.param(theta, verdict, marks=marks, id=f"theta={theta:.7g}")


@pytest.mark.parametrize("theta, verdict", _grid())
def test_two_lines_verdict_matches_the_closed_form(theta, verdict):
    T = dl.drs_map_matrix(two_lines(theta), dim=2)
    c, s = math.cos(theta), math.sin(theta)
    assert np.max(np.abs(T - c * np.array([[c, s], [-s, c]]))) <= 1e-15
    assert dl.classify_resolvent(T).verdict == verdict
