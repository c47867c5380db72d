"""One system type and one lifted operator.

``PpaSystem`` is ``BlockSystem``, which builds the catalog operator L once.
The coupling Gram matrix K L^{-1} K^T is read from L's graph pair and held
with exact equality to an in-test assembly of that pair; the dense lifted
operator, which no path of the package forms, is assembled in the test from
the inverses of the blocks and holds the Gram matrix to rounding.
"""

import math

import numpy as np
import pytest

import drslab as dl
from drslab import blocks, ppa
from drslab.catalog import random_monotone_matrix
from helpers import formulation_trajectories, linear_matrix


# catalog entries with a zero block, which has no dense inverse
SINGULAR = ("zero_zero_1d", "zero_zero_2d", "skew_zero_2d")


def _reference_gram(A, B, tau, n):
    """K L^{-1} K^T from the graph pair (P, Q) = (diag(M_B, M_A),
    [[I, -tau M_A], [tau M_B, I]]) of L, assembled here: L^{-1} K^T = P xi
    with Q xi = K^T, as the package solves it."""
    MA, MB = linear_matrix(A, n), linear_matrix(B, n)
    eye, zero = np.eye(n), np.zeros((n, n))
    P = np.block([[MB, zero], [zero, MA]])
    Q = np.block([[eye, -tau * MA], [tau * MB, eye]])
    K = math.sqrt(tau) * np.hstack([eye, eye])
    X = np.linalg.solve(Q, K.T).T @ P.T  # the rows of L^{-1} K^T
    return K @ X.T


def _reference_lifted(A, B, tau, n):
    """The dense 3n x 3n lifted operator [[L, -E^T], [E, 0]], E = [I I], of
    invertible linear blocks, from np.linalg.inv of their matrices: no path
    of the package forms it."""
    inv_a = np.linalg.inv(linear_matrix(A, n))
    inv_b = np.linalg.inv(linear_matrix(B, n))
    eye = np.eye(n)
    return np.block([[inv_b, -tau * eye, -eye], [tau * eye, inv_a, -eye], [eye, eye, np.zeros((n, n))]])


def _seeded_pairs():
    rng = np.random.default_rng(2024)
    for n, tau in ((2, 0.4), (3, 1.0), (4, 2.5)):
        A = dl.LinearRelation(random_monotone_matrix(rng, n))
        B = dl.LinearRelation(random_monotone_matrix(rng, n))
        yield pytest.param(A, B, tau, n, id=f"seeded_monotone_{n}d")


def _linear_cases(singular=True):
    for entry in dl.standard_catalog():
        if entry.linear and (singular or entry.name not in SINGULAR):
            p = entry.problem
            yield pytest.param(p.A, p.B, p.tau, entry.dim, id=entry.name)
    yield from _seeded_pairs()


def test_ppa_system_is_block_system():
    assert dl.PpaSystem is dl.BlockSystem
    assert ppa.PpaSystem is blocks.BlockSystem


@pytest.mark.parametrize("A, B, tau, n", list(_linear_cases()))
def test_gram_matches_the_graph_pair_reference_exactly(A, B, tau, n):
    assert np.array_equal(dl.coupling_gram(dl.BlockSystem(A, B, tau, n)), _reference_gram(A, B, tau, n))


@pytest.mark.parametrize("A, B, tau, n", list(_linear_cases(singular=False)))
def test_lifted_reference_projects_to_the_gram(A, B, tau, n):
    # (D^T M^{-1} D)^{-1} = K L^{-1} K^T for the lifted matrix M and the metric
    # factor D: the Schur complement of M's zero block, rescaled by tau
    system = dl.BlockSystem(A, B, tau, n)
    D = system.metric_factor()
    core = D.T @ np.linalg.inv(_reference_lifted(A, B, tau, n)) @ D
    W = dl.coupling_gram(system)
    assert np.max(np.abs(np.linalg.inv(core) - W)) <= 1e-10 * max(1.0, np.max(np.abs(W)))


@pytest.mark.parametrize("A, B, tau, n", list(_linear_cases()))
def test_direct_path_applies_one_inverse_to_every_row(A, B, tau, n):
    # the kernel inverts I + K L^{-1} K^T once; each row of a stack, and each
    # point alone, gets what a solve of that system gives
    system = dl.BlockSystem(A, B, tau, n)
    V = np.random.default_rng(2025).standard_normal((4, n))
    G = np.eye(n) + dl.coupling_gram(system)
    reference = np.linalg.solve(G, V.T).T
    stacked = dl.reduced_resolvent_direct(system, V)
    assert stacked.shape == (4, n)
    assert np.max(np.abs(stacked - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
    for v, row in zip(V, stacked):
        alone = dl.reduced_resolvent_direct(system, v)
        assert alone.shape == (n,)
        assert np.max(np.abs(alone - row)) <= 1e-12 * max(1.0, np.max(np.abs(row)))


def _counted(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls; return the count list."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("name", ("random_monotone_5d", "l1_quadratic_1d"))
def test_only_the_system_builds_the_lifted_operator(catalog_map, name, monkeypatch):
    # the system builds L's two Inverse blocks; a lifted step builds none, and a
    # comparison of the formulations only those of the system it makes
    entry = catalog_map[name]
    p, n = entry.problem, entry.dim
    built = _counted(monkeypatch, dl.Inverse, "__post_init__")
    system = dl.BlockSystem(p.A, p.B, p.tau, n)
    assert len(built) == 2
    dl.ppa_step(system, dl.initial_state(system, np.ones(n)))
    assert len(built) == 2
    formulation_trajectories(p, np.ones(n), iters=10)
    assert len(built) == 4


def test_the_direct_reduced_leg_solves_nothing_per_step(monkeypatch):
    # fresh operators for each run, so no kept resolvent carries over
    counts = []
    for iters in (10, 100):
        problem = dl.catalog_by_name("random_monotone_5d").problem
        solves, inverses = _counted(monkeypatch, np.linalg, "solve"), _counted(monkeypatch, np.linalg, "inv")
        _, path = formulation_trajectories(problem, np.ones(5), iters)
        assert path == dl.REDUCED_DIRECT
        counts.append((len(solves), len(inverses)))
        monkeypatch.undo()
    assert counts[0] == counts[1]
