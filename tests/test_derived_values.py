"""Values derived from a record's fields: an operator's ``dim`` and
``is_subdifferential``, a block's ``n1`` and ``n2``, a problem's ``dim`` and a
witness's ``n`` and ``certifies``.

``__post_init__`` sets each once, after the checks that read its fields.  Each
equals its formula from the fields, survives a document round trip, and is not
a field: no document or ``repr`` shows it (a witness's document names its
cycle length on purpose), and it cannot be assigned.
"""

import re

import numpy as np
import pytest

import drslab as dl
from drslab.cyclic import TOL_VIOLATION
from helpers import operator_zoo, rotation

LEAF_DIMS = {
    dl.LinearRelation: lambda op: op.M.shape[0],
    dl.Quadratic: lambda op: op.Q.shape[0],
    dl.Box: lambda op: op.lo.shape[0],
    dl.AffineConstraint: lambda op: op.E.shape[1],
}


def expected(obj):
    """name -> value of each derived value of obj, worked out from its fields."""
    if isinstance(obj, dl.DrsProblem):
        return {"dim": obj.A.dim if obj.A.dim is not None else obj.B.dim}
    if isinstance(obj, dl.CycleWitness):
        return {"n": len(obj.points), "certifies": obj.cycle_sum > TOL_VIOLATION}
    if isinstance(obj, dl.Inverse):
        return {"dim": obj.inner.dim, "is_subdifferential": obj.inner.is_subdifferential}
    if isinstance(obj, dl.Block2x2):
        n2, n1 = obj.C.shape
        blockwise = obj.A.is_subdifferential and obj.B.is_subdifferential
        return {"n1": n1, "n2": n2, "dim": n1 + n2,
                "is_subdifferential": blockwise and not np.any(obj.C)}
    dim = LEAF_DIMS.get(type(obj))
    return {"dim": None if dim is None else dim(obj)}


def quadratic(n):
    return dl.Quadratic(np.eye(n), np.zeros(n))


COUPLED = dl.Block2x2(dl.ScaledIdentity(1.0), dl.Zero(), [[0.5, 1.0]])
CASES = [(name, op) for name, op, _ in operator_zoo()] + [
    ("inverse_inverse_l1", dl.Inverse(dl.Inverse(dl.L1(1.0)))),
    ("inverse_inverse_skew", dl.Inverse(dl.Inverse(dl.LinearRelation(rotation())))),
    ("inverse_coupled_block", dl.Inverse(COUPLED)),
    ("block_of_inverses", dl.Block2x2(dl.Inverse(quadratic(2)), dl.Inverse(dl.L1(1.0)), np.zeros((1, 2)))),
    ("uncoupled_subdifferentials", dl.Block2x2(quadratic(2), dl.Box([0.0], [1.0]), np.zeros((1, 2)))),
    ("coupled_subdifferentials", dl.Block2x2(quadratic(2), dl.Box([0.0], [1.0]), [[0.0, 0.5]])),
    ("problem_dim_on_a", dl.DrsProblem(dl.LinearRelation(rotation()), dl.Zero())),
    ("problem_dim_on_b", dl.DrsProblem(dl.L1(1.0), dl.Box([0.0] * 3, [1.0] * 3))),
    ("problem_dim_free", dl.DrsProblem(dl.Zero(), dl.ScaledIdentity(2.0))),
    ("skew_witness", dl.skew_three_cycle([[1.0, 2.0]], [1.0, 0.0], [0.5])),
    ("flat_witness", dl.CycleWitness(([0.0], [1.0]), ([0.0], [0.0]), 0.0)),
]


def test_the_compositions_reach_both_verdicts_and_every_dimension_source():
    found = {name: expected(obj) for name, obj in CASES}
    assert found["uncoupled_subdifferentials"]["is_subdifferential"] is True
    assert found["coupled_subdifferentials"]["is_subdifferential"] is False
    assert found["block_of_inverses"]["is_subdifferential"] is True
    assert found["inverse_coupled_block"] == {"dim": 3, "is_subdifferential": False}
    assert [found[f"problem_dim_{at}"]["dim"] for at in ("on_a", "on_b", "free")] == [2, 3, None]
    assert found["skew_witness"]["certifies"] and not found["flat_witness"]["certifies"]


@pytest.mark.parametrize("name, obj", CASES, ids=[name for name, _ in CASES])
def test_derived_values_are_set_once_from_the_fields(name, obj):
    values = expected(obj)
    for key, value in values.items():
        got = getattr(obj, key)
        assert got == value and type(got) is type(value), key
        assert not isinstance(getattr(type(obj), key, None), property), key
        assert key not in type(obj)._fields, key
        assert not re.search(rf"[(, ]{key}=", repr(obj)), key
        with pytest.raises(AttributeError):
            setattr(obj, key, value)
        assert getattr(obj, key) == value
    doc = obj.to_dict()
    named = {"n"} if isinstance(obj, dl.CycleWitness) else set()  # the witness's document names n
    assert values.keys() & doc.keys() == named
    back = type(obj).from_dict(doc)
    assert {key: getattr(back, key) for key in values} == values
