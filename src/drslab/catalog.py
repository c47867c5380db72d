"""Named benchmark problems exercised by the tests and demos.

The catalog spans the operator variants: trivial pairs whose splitting
map is known in closed form, a pure skew coupling whose map is a
resolvent but not a proximal mapping, random strictly monotone linear
pairs, and two nonsmooth problems (soft thresholding against a shifted
quadratic, and a box constraint against a quadratic).
"""

from __future__ import annotations

import numpy as np

from .drs import DrsProblem
from .operators import (
    Box,
    Document,
    L1,
    LinearRelation,
    Quadratic,
    ScaledIdentity,
    Zero,
)


class CatalogEntry(Document):
    """A named problem plus the ambient dimension to run it in."""

    name: str
    problem: DrsProblem
    dim: int
    linear: bool


def rotation_matrix():
    """The 2x2 skew generator [[0, -1], [1, 0]]."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def random_monotone_matrix(rng, n):
    """A random monotone matrix: PD symmetric part plus a skew part."""
    sym = random_spd_matrix(rng, n, 0.2)
    H = rng.standard_normal((n, n))
    return sym + 0.5 * (H - H.T)


def random_spd_matrix(rng, n, floor=0.3):
    """A random symmetric positive definite matrix."""
    G = rng.standard_normal((n, n))
    return G @ G.T / n + floor * np.eye(n)


def standard_catalog():
    """The standard list of benchmark problems, its random ones drawn at seed 1234."""
    rng = np.random.default_rng(1234)
    entries = [
        CatalogEntry("zero_zero_1d", DrsProblem(Zero(), Zero()), 1, True),
        CatalogEntry("zero_zero_2d", DrsProblem(Zero(), Zero()), 2, True),
        CatalogEntry(
            "identity_pair_1d",
            DrsProblem(ScaledIdentity(1.0), ScaledIdentity(1.0)),
            1,
            True,
        ),
        CatalogEntry(
            "scaled_identities_3d",
            DrsProblem(ScaledIdentity(1.0), ScaledIdentity(0.5), tau=0.75),
            3,
            True,
        ),
        CatalogEntry(
            "skew_zero_2d",
            DrsProblem(LinearRelation(rotation_matrix()), Zero(), tau=1.0),
            2,
            True,
        ),
        CatalogEntry(
            "random_monotone_5d",
            DrsProblem(
                LinearRelation(random_monotone_matrix(rng, 5)),
                LinearRelation(random_monotone_matrix(rng, 5)),
                tau=0.5,
            ),
            5,
            True,
        ),
        CatalogEntry(
            "l1_quadratic_1d",
            DrsProblem(L1(1.0), Quadratic([[1.0]], [-1.0])),
            1,
            False,
        ),
        CatalogEntry(
            "box_quadratic_3d",
            DrsProblem(
                Box([-0.5, -0.5, -0.5], [0.5, 0.5, 0.5]),
                Quadratic(random_spd_matrix(rng, 3), rng.standard_normal(3)),
                tau=2.0,
            ),
            3,
            False,
        ),
    ]
    return entries


def catalog_by_name(name):
    """Look up one catalog entry by name."""
    for entry in standard_catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")
