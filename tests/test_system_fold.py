"""One system type and one lifted-block assembly.

``PpaSystem`` is ``BlockSystem``, and the dense lifted operator, the
coupling Gram matrix and the elimination pair all come from the blocks
inverted once in ``lifted_blocks``.  Each is held to an in-test reference
assembly with exact equality, so sharing the assembly changes no bit.
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
    """(lifted, gram, R1, R2) assembled the long way, from np.linalg.inv."""
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
    R2 = np.linalg.solve(gram, eye / math.sqrt(tau))
    R1 = np.linalg.solve(L, K.T @ R2)
    return lifted, gram, R1, R2


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
    lifted, gram, R1, R2 = _reference(A, B, tau, n)
    system = dl.BlockSystem(A, B, tau, n)
    assert np.array_equal(system.lifted_matrix(), lifted)
    assert np.array_equal(dl.coupling_gram(system), gram)
    pair = dl.elimination_pair(system)
    assert np.array_equal(pair.R1, R1)
    assert np.array_equal(pair.R2, R2)


@pytest.mark.parametrize("name", SINGULAR)
def test_lifted_matrix_singular_block_raises_non_invertible(catalog_map, name):
    entry = catalog_map[name]
    system = dl.PpaSystem(entry.problem.A, entry.problem.B, entry.problem.tau, entry.dim)
    with pytest.raises(dl.NonInvertibleBlock):
        system.lifted_matrix()
