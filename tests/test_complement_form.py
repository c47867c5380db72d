"""The complement form agrees with the direct kernel on every affine system.

``helpers.reduced_resolvent_fukushima``, the test suite's reference, solves
one 2n x 2n system on the graph pair of the lifted operator L;
``reduced_resolvent_direct`` eliminates one 3n x 3n system on the graph
pairs of A and B.  On the linear catalog entries, the two-lines grid and the
dimension-matched pairs of the operator zoo (offsets and singular blocks
included), each at three step sizes, both answer, and agree with each other
and with one splitting step to 1e-14 relative.  Only a system with an ``L1``
or ``Box`` operator, which has no graph pair, is refused with NotLinear.
"""

import numpy as np
import pytest

import drslab as dl
from helpers import TWO_LINES_GRID, operator_zoo, reduced_resolvent_fukushima, two_lines

TAUS = (0.3, 1.0, 2.5)

NO_PAIR = "^(L1|Box) is not affine: it has no graph pair$"


def _systems():
    """(id, A, B, n, affine) for every system of the three families."""
    for entry in dl.standard_catalog():
        if entry.linear:
            yield entry.name, entry.problem.A, entry.problem.B, entry.dim, True
    for theta, _ in TWO_LINES_GRID:
        p = two_lines(theta)
        yield f"two_lines-{theta:.6f}", p.A, p.B, 2, True
    zoo = operator_zoo()
    for name_a, A, dim_a in zoo:
        for name_b, B, dim_b in zoo:
            if dim_a == dim_b:
                affine = not {name_a, name_b} & {"l1", "box", "inverse_l1"}
                yield f"{name_a}-{name_b}", A, B, dim_a, affine


CASES = [pytest.param(A, B, n, tau, affine, id=f"{name}-tau={tau}")
         for name, A, B, n, affine in _systems() for tau in TAUS]


def _gap(got, ref):
    return np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("A, B, n, tau, affine", CASES)
def test_the_three_reduced_paths_agree_on_affine_systems(A, B, n, tau, affine):
    system = dl.BlockSystem(A, B, tau, n)
    V = 2.0 * np.random.default_rng(2028).standard_normal((8, n))
    via_drs = dl.reduced_resolvent_via_drs(system, V)
    if not affine:
        with pytest.raises(dl.NotLinear, match=NO_PAIR):
            dl.reduced_resolvent_direct(system, V)
        with pytest.raises(dl.NotLinear, match=NO_PAIR):
            reduced_resolvent_fukushima(system, V)
        return
    direct = dl.reduced_resolvent_direct(system, V)
    assert _gap(reduced_resolvent_fukushima(system, V), direct) <= 1e-14
    assert _gap(via_drs, direct) <= 1e-14
    for v, row in zip(V, direct):
        assert _gap(reduced_resolvent_fukushima(system, v), row) <= 1e-14
