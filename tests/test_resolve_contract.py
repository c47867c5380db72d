"""The layout every resolvent kernel returns, which ``run`` relies on.

``run`` packs a block of rows with ``b"".join(rows)``: one memcpy of each
row's buffer, which reads the bytes as they lie.  That keeps the bits only
when each row is a C-contiguous float64 array of the input's shape.  The
row must also be new, sharing no memory with its input, which
``cyclic._graph_points`` overwrites.  These tests hold every operator
variant's ``_resolve`` to that contract.
"""

import numpy as np
import pytest

from helpers import operator_zoo

ZOO = operator_zoo()


@pytest.mark.parametrize("tau", (1.0, 0.7))  # 1.0 takes the unit-step shortcuts
@pytest.mark.parametrize("name, op, dim", ZOO, ids=[name for name, _, _ in ZOO])
def test_resolve_returns_a_new_c_contiguous_float64_array(name, op, dim, tau):
    rng = np.random.default_rng(17)
    point = 2.0 * rng.standard_normal(dim)
    stack = 2.0 * rng.standard_normal((5, dim))
    for given in (point, stack):
        before = given.copy()
        out = op._resolve(tau, given)
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.flags.c_contiguous and out.shape == given.shape
        assert not np.shares_memory(out, given)
        assert np.array_equal(given, before)  # the input is read, not written
