"""The block-by-block cycle search against the one-shot search, bit for bit.

``sample_cycles`` draws, maps and scores its trials in blocks of about
``_BLOCK_ROWS`` graph points and stops at the first block that holds a
witness.  ``helpers.one_shot_sample_cycles`` is the search as it was
before: every trial of a cycle length at once.  Both must return the same
witness, or both None, with equal bits.  A block holds three working
blocks of graph points, and a coupled ``Block2x2`` samples on contiguous
copies of its columns with the bits of sampling on strided views.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from drslab import cyclic
from drslab.cyclic import _BLOCK_ROWS
from helpers import one_shot_sample_cycles, operator_zoo, rotation

# A rotation-like generator just past the 3-cycle threshold tan(pi/3): about
# one 3-cycle in 1,200 violates, so most of its witnesses sit past the first block.
NEAR_THRESHOLD = ("near_threshold", dl.LinearRelation([[1.0, -1.735], [1.735, 1.0]]), 2)
# a coupled block inside a coupled block: the recursion samples column copies of column copies
NESTED = (
    "nested_block2x2",
    dl.Block2x2(
        dl.Block2x2(dl.ScaledIdentity(0.5), dl.LinearRelation([[1.0, -2.0], [2.0, 0.5]]), [[1.0], [-0.5]]),
        dl.L1(0.7),
        [[0.3, -1.2, 0.8], [-0.6, 0.0, 1.5]],
    ),
    5,
)
OPERATORS = operator_zoo() + [NEAR_THRESHOLD, NESTED]


def strided_graph_points(op, W):
    """``cyclic._graph_points`` as it was before it copied columns: each side
    sampled and coupled in place on a strided column view of W, and the
    points joined by ``np.hstack``."""
    if isinstance(op, dl.Block2x2):
        n1 = op.n1
        P1, U1 = strided_graph_points(op.A, W[:, :n1])
        P2, U2 = strided_graph_points(op.B, W[:, n1:])
        U1 -= P2 @ op.C
        U2 += P1 @ op.C.T
        return np.hstack([P1, P2]), W
    P = dl.resolve(op, 1.0, W)
    return P, np.subtract(W, P, out=W)


def assert_same_witness(got, ref):
    assert (got is None) == (ref is None)
    if ref is None:
        return
    assert got.n == ref.n
    for a, b in zip(got.points + got.values, ref.points + ref.values):
        assert a.tobytes() == b.tobytes()
    assert np.float64(got.cycle_sum).tobytes() == np.float64(ref.cycle_sum).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    entry=st.sampled_from(OPERATORS),
    seed=st.integers(0, 2**32 - 1),
    n_max=st.integers(2, 6),
    edge_n=st.integers(2, 6),
    offset=st.sampled_from(["one", "block-1", "block", "block+1", "2*block+3", "1800"]),
)
def test_streamed_search_equals_one_shot(entry, seed, n_max, edge_n, offset):
    _, op, dim = entry
    # trials on either side of a block boundary of the length edge_n
    block = max(1, _BLOCK_ROWS // edge_n)
    trials = {
        "one": 1,
        "block-1": block - 1,
        "block": block,
        "block+1": block + 1,
        "2*block+3": 2 * block + 3,
        "1800": 1800,
    }[offset]
    got = dl.sample_cycles(op, n_max, trials, seed, dim=dim)
    assert_same_witness(got, one_shot_sample_cycles(op, n_max, trials, seed, dim=dim))


@pytest.mark.parametrize("seed", range(6))
def test_witness_past_the_first_block_equals_one_shot(seed):
    _, op, dim = NEAR_THRESHOLD
    got = dl.sample_cycles(op, 3, 5000, seed, dim=dim)
    assert got is not None and got.n == 3
    assert_same_witness(got, one_shot_sample_cycles(op, 3, 5000, seed, dim=dim))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("splits", [[1, 1], [5, 2047, 1], [682, 682, 682, 682], [1024, 1025]])
def test_block_draws_concatenate_to_one_draw(splits, d):
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((rows, d)) for rows in splits]
    tail = rng.standard_normal(3)
    whole_rng = np.random.default_rng(7)
    whole = whole_rng.standard_normal((sum(splits), d))
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    # the stream goes on where the one draw would have left it
    assert tail.tobytes() == whole_rng.standard_normal(3).tobytes()


def test_unsupported_graph_raises_at_the_first_block():
    op = dl.Inverse(dl.Block2x2(dl.L1(1.0), dl.Zero(), np.array([[1.0]])))
    # a one-shot draw of this many trials would not fit in memory
    with pytest.raises(dl.UnsupportedSampling):
        dl.sample_cycles(op, n_max=3, trials=10**12, seed=0, dim=2)


def test_search_stops_drawing_at_the_first_witness(monkeypatch):
    # a quarter rotation has no violating 2-cycle, and a violating 3-cycle in
    # its first block: two full blocks of 2-cycles, then one block of 3-cycles
    mapped = []

    def counting(op, W):
        mapped.append(len(W))
        return graph_points(op, W)

    graph_points = cyclic._graph_points
    monkeypatch.setattr(cyclic, "_graph_points", counting)
    w = dl.sample_cycles(dl.LinearRelation(rotation()), 6, 2000, 0)
    assert w is not None and w.n == 3
    assert mapped == [2 * (_BLOCK_ROWS // 2), 2 * (2000 - _BLOCK_ROWS // 2), 3 * (_BLOCK_ROWS // 3)]


def test_search_memory_does_not_grow_with_trials():
    tracemalloc.start()
    try:
        assert dl.sample_cycles(dl.L1(1.0), 6, 100_000, 0, dim=3) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of 2048 graph points in R^3 and its temporaries; the one-shot
    # search held about 82 MB here
    assert peak < 2_000_000


@pytest.mark.parametrize("entry", OPERATORS, ids=[name for name, _, _ in OPERATORS])
def test_column_copies_keep_the_bits_of_strided_views(entry):
    _, op, dim = entry
    W = np.random.default_rng(3).standard_normal((_BLOCK_ROWS - 1, dim))
    W[:2] = [[0.0], [-0.0]]  # signed zeros keep their sign through the copies
    P, U = cyclic._graph_points(op, W.copy())
    P_ref, U_ref = strided_graph_points(op, W.copy())
    assert (P.tobytes(), U.tobytes()) == (P_ref.tobytes(), U_ref.tobytes())


D4 = [(name, op) for name, op, dim in operator_zoo() if dim == 4]


@pytest.mark.parametrize("op", [op for _, op in D4], ids=[name for name, _ in D4])
def test_a_block_of_cycles_holds_three_working_blocks(op):
    # the draw (which the values overwrite), the points and the cyclic
    # differences; a resolve's own temporaries and numpy's buffers must fit
    # in the other half block
    dl.sample_cycles(op, 2, 4, 0, dim=4)  # the kept resolvent matrix is not a block
    tracemalloc.start()
    try:
        dl.sample_cycles(op, 2, _BLOCK_ROWS // 2, 1, dim=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * _BLOCK_ROWS * 4 * 8
