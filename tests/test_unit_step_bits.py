"""At the unit step the scalings by tau are skipped, with the bits unchanged.

At tau = 1, ``Inverse._resolve`` hands X itself to its inner operator,
``ppa._lifted_rows`` takes neither z/tau nor tau*(s+ + u+), and the one-step
reduced kernel neither multiplies nor divides by sqrt(tau).  Dividing or
multiplying by 1.0 is exact for every double, so this file writes each formula
out with its explicit ``/ 1.0`` and ``1.0 *`` and asks for byte-equal results on
inputs holding +-0, +-inf, a quiet NaN and a subnormal.  It also asks that no
result share memory with its input: ``cyclic._graph_points`` overwrites the
sampled block with the values after the resolve returns.
"""

import numpy as np
import pytest

import drslab as dl
from drslab.drs import _splitting_rows
from drslab.ppa import _lifted_rows
from helpers import operator_zoo
from test_point_kernels import same_bits

ZOO = operator_zoo()
ZOO_IDS = [name for name, _, _ in ZOO]
CATALOG = dl.standard_catalog()
CATALOG_IDS = [entry.name for entry in CATALOG]
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324)


def special_inputs(rng, dim):
    """Row stacks whose first rows each hold one special value, a clean stack,
    single points of both kinds, and a strided column slice of a wider stack."""
    X = 2.0 * rng.standard_normal((len(SPECIALS) + 4, dim))
    for i, value in enumerate(SPECIALS):
        X[i, i % dim] = value
    assert np.isnan(X).any() and np.signbit(X[X == 0.0]).any()
    wide = 2.0 * rng.standard_normal((9, dim + 2))
    wide[:len(SPECIALS), 1] = SPECIALS
    return [X, X[len(SPECIALS):], X[4], X[-1], wide[:, 1 : dim + 1]]


def plain_inverse(inner, tau, X):
    """The scaled Moreau identity with every scaling taken."""
    return X - tau * inner._resolve(1.0 / tau, X / tau)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, op, dim", ZOO, ids=ZOO_IDS)
def test_inverse_at_unit_step_has_the_bits_of_the_plain_formula(name, op, dim):
    inverse = dl.Inverse(op)
    for X in special_inputs(np.random.default_rng(31), dim):
        got = inverse._resolve(1.0, X)
        assert same_bits(got, plain_inverse(op, 1.0, X)), X.shape
        assert not np.shares_memory(got, X)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", CATALOG, ids=CATALOG_IDS)
def test_lifted_rows_at_unit_step_have_the_bits_of_the_plain_formula(entry):
    p = entry.problem
    system = dl.PpaSystem(p.A, p.B, 1.0, entry.dim)
    L, tau = system.L, 1.0
    for Z in special_inputs(np.random.default_rng(32), entry.dim):
        W = Z / tau
        U = plain_inverse(L.A.inner, 1.0 / tau, W)
        S = plain_inverse(L.B.inner, 1.0 / tau, W - (U + U))
        for got, ref in zip(_lifted_rows(L, tau, Z), (U, S, Z - tau * (S + U))):
            assert same_bits(got, ref), Z.shape
            assert not np.shares_memory(got, Z)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", CATALOG, ids=CATALOG_IDS)
def test_reduced_resolvent_via_drs_at_unit_step_has_the_bits_of_the_plain_formula(entry):
    p = entry.problem
    system = dl.PpaSystem(p.A, p.B, 1.0, entry.dim)
    rt = system.root_tau
    assert rt == 1.0
    for V in special_inputs(np.random.default_rng(33), entry.dim):
        got = dl.reduced_resolvent_via_drs(system, V)
        assert same_bits(got, _splitting_rows(p.A, p.B, 1.0, rt * V)[0] / rt), V.shape
        assert not np.shares_memory(got, V)
