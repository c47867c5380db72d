"""One system type and one lifted-block assembly.

``PpaSystem`` is ``BlockSystem``, and the dense lifted operator and the
coupling Gram matrix both come from ``linear_matrix`` of the catalog
operator L that the system builds once.
Each is held to an in-test reference assembly with exact equality, so
sharing the assembly changes no bit.
"""

import math

import numpy as np
import pytest

import drslab as dl
from drslab import blocks, ppa
from drslab.catalog import random_monotone_matrix
from drslab.operators import linear_matrix


# catalog entries with a zero block, which has no dense inverse
SINGULAR = ("zero_zero_1d", "zero_zero_2d", "skew_zero_2d")


def _reference(A, B, tau, n):
    """(lifted, gram) assembled the long way, from np.linalg.inv."""
    inv_a = np.linalg.inv(linear_matrix(A, n))
    inv_b = np.linalg.inv(linear_matrix(B, n))
    eye = np.eye(n)
    lifted = np.block(
        [
            [inv_b, -tau * eye, -eye],
            [tau * eye, inv_a, -eye],
            [eye, eye, np.zeros((n, n))],
        ]
    )
    L = np.block([[inv_b, -tau * eye], [tau * eye, inv_a]])
    K = math.sqrt(tau) * np.hstack([eye, eye])
    gram = K @ np.linalg.solve(L, K.T)
    return lifted, gram


def _seeded_pairs():
    rng = np.random.default_rng(2024)
    for n, tau in ((2, 0.4), (3, 1.0), (4, 2.5)):
        A = dl.LinearRelation(random_monotone_matrix(rng, n))
        B = dl.LinearRelation(random_monotone_matrix(rng, n))
        yield pytest.param(A, B, tau, n, id=f"seeded_monotone_{n}d")


def _invertible_cases():
    for entry in dl.standard_catalog():
        if entry.linear and entry.name not in SINGULAR:
            p = entry.problem
            yield pytest.param(p.A, p.B, p.tau, entry.dim, id=entry.name)
    yield from _seeded_pairs()


def test_ppa_system_is_block_system():
    assert dl.PpaSystem is dl.BlockSystem
    assert ppa.PpaSystem is blocks.BlockSystem


@pytest.mark.parametrize("A, B, tau, n", list(_invertible_cases()))
def test_shared_assembly_matches_reference_exactly(A, B, tau, n):
    lifted, gram = _reference(A, B, tau, n)
    system = dl.BlockSystem(A, B, tau, n)
    assert np.array_equal(system.lifted_matrix(), lifted)
    assert np.array_equal(dl.coupling_gram(system), gram)


@pytest.mark.parametrize("A, B, tau, n", list(_invertible_cases()))
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


@pytest.mark.parametrize("name", SINGULAR)
def test_lifted_matrix_singular_block_raises_not_linear(catalog_map, name):
    entry = catalog_map[name]
    system = dl.PpaSystem(entry.problem.A, entry.problem.B, entry.problem.tau, entry.dim)
    with pytest.raises(dl.NotLinear, match="^inverse of a singular matrix is a relation, not a map$"):
        system.lifted_matrix()


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
    dl.formulation_trajectories(p, np.ones(n), iters=10)
    assert len(built) == 4


def test_the_direct_reduced_leg_solves_nothing_per_step(monkeypatch):
    # fresh operators for each run, so no kept resolvent carries over
    counts = []
    for iters in (10, 100):
        problem = dl.catalog_by_name("random_monotone_5d").problem
        solves, inverses = _counted(monkeypatch, np.linalg, "solve"), _counted(monkeypatch, np.linalg, "inv")
        _, path = dl.formulation_trajectories(problem, np.ones(5), iters)
        assert path == dl.REDUCED_DIRECT
        counts.append((len(solves), len(inverses)))
        monkeypatch.undo()
    assert counts[0] == counts[1]
