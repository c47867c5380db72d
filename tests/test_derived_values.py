"""Values derived from a record's fields: an operator's ``dim`` and
``is_subdifferential``, a block's ``n1`` and ``n2``, a problem's ``dim``, a
witness's ``n`` and ``certifies``, a trajectory record's ``k``, a
classification's ``symmetry_defect`` and ``verdict``, a report's
``max_deviation`` and a block system's ``root_tau`` and lifted operator ``L``.

``__post_init__`` sets each once, after the checks that read its fields.  Each
equals its formula from the fields, survives a document round trip, and is not
a field: no ``repr`` shows it, and it cannot be assigned.  The documents of
witnesses, records, classifications and reports carry theirs (``WRITTEN``),
and ``from_dict`` refuses one whose copy disagrees with the fields.
"""

import math
import re

import numpy as np
import pytest

import drslab as dl
from drslab.cyclic import INCONCLUSIVE, NOT_PROXIMAL, PROXIMAL, TOL_VIOLATION
from helpers import operator_zoo, rotation

#: The derived values a document carries after the fields.
WRITTEN = {"n", "k", "symmetry_defect", "verdict", "max_deviation"}

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
    if isinstance(obj, dl.TrajectoryRecord):
        return {"k": np.arange(1, len(obj.residual) + 1)}
    if isinstance(obj, dl.ResolventClassification):
        M = obj.recovered_M
        defect = float(np.linalg.norm(M - M.T) / max(1.0, float(np.linalg.norm(M))))
        verdict = PROXIMAL if defect <= 1e-8 else NOT_PROXIMAL if defect > 1e-6 else INCONCLUSIVE
        return {"symmetry_defect": defect, "verdict": verdict}
    if isinstance(obj, dl.EquivalenceReport):
        devs = list(obj.pairwise.values())
        return {"max_deviation": max(devs) if devs and all(map(math.isfinite, devs)) else math.nan}
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


def same(got, value):
    """got has value's type and equals it; an array equals entrywise, NaN equals NaN."""
    if type(got) is not type(value):
        return False
    if isinstance(value, np.ndarray):
        return got.dtype == value.dtype and np.array_equal(got, value)
    return got == value or (value != value and got != got)


def classified(M):
    return dl.classify_resolvent(np.linalg.inv(np.eye(len(M)) + np.asarray(M)))


def report(pairwise):
    return dl.EquivalenceReport(1, dl.REDUCED_FALLBACK, pairwise, pairwise)


SPLIT = dl.DrsProblem(dl.L1(1.0), dl.Quadratic([[1.0]], [-1.0]))
ZERO_RUN = np.zeros((2, 1))


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
    ("run_record", dl.run(SPLIT, [5.0])),
    ("one_row_record", dl.run(dl.DrsProblem(dl.Zero(), dl.Zero()), [1.0])),
    ("caller_record", dl.TrajectoryRecord(ZERO_RUN, ZERO_RUN, ZERO_RUN, [0.5, 0.0], "converged")),
    ("proximal", classified([[2.0, 1.0], [1.0, 3.0]])),
    ("not_proximal", classified(rotation())),
    ("inconclusive", dl.ResolventClassification([[1.0, 1e-7], [-1e-7, 1.0]])),
    ("report", dl.compare_formulations(dl.catalog_by_name("random_monotone_5d").problem, [1.0] * 5, 20)),
    ("report_not_finite", report({"recursion-lifted": 0.5, "recursion-reduced": math.inf})),
    ("report_without_pairs", report({})),
]


def test_the_compositions_reach_both_verdicts_and_every_dimension_source():
    found = {name: expected(obj) for name, obj in CASES}
    assert found["uncoupled_subdifferentials"]["is_subdifferential"] is True
    assert found["coupled_subdifferentials"]["is_subdifferential"] is False
    assert found["block_of_inverses"]["is_subdifferential"] is True
    assert found["inverse_coupled_block"] == {"dim": 3, "is_subdifferential": False}
    assert [found[f"problem_dim_{at}"]["dim"] for at in ("on_a", "on_b", "free")] == [2, 3, None]
    assert found["skew_witness"]["certifies"] and not found["flat_witness"]["certifies"]
    verdicts = [found[name]["verdict"] for name in ("proximal", "not_proximal", "inconclusive")]
    assert verdicts == [PROXIMAL, NOT_PROXIMAL, INCONCLUSIVE]
    assert found["report"]["max_deviation"] > 0.0
    assert math.isnan(found["report_not_finite"]["max_deviation"])
    assert [len(found[f"{name}_record"]["k"]) for name in ("one_row", "caller")] == [1, 2]


@pytest.mark.parametrize("name, obj", CASES, ids=[name for name, _ in CASES])
def test_derived_values_are_set_once_from_the_fields(name, obj):
    values = expected(obj)
    for key, value in values.items():
        got = getattr(obj, key)
        assert same(got, value), key
        assert not isinstance(getattr(type(obj), key, None), property), key
        assert key not in type(obj)._fields, key
        assert not re.search(rf"[(, ]{key}=", repr(obj)), key
        with pytest.raises(AttributeError):
            setattr(obj, key, value)
        assert same(getattr(obj, key), value), key
    doc = obj.to_dict()
    assert values.keys() & doc.keys() == values.keys() & WRITTEN
    # a document may leave its derived values out
    for back in (type(obj).from_dict(doc), type(obj).from_dict({k: doc[k] for k in doc.keys() - WRITTEN})):
        assert all(same(getattr(back, key), value) for key, value in values.items())


def test_k_is_a_read_only_integer_array_of_the_rows():
    k = dl.run(SPLIT, [5.0]).k
    assert k.dtype.kind == "i" and not k.flags.writeable
    assert k.tolist() == list(range(1, len(k) + 1))


RECORD = {"z": [[0.0]], "x": [[0.0]], "w": [[0.0]], "residual": [0.0], "status": "converged"}
SKEW_M = [[0.0, -1.0], [1.0, 0.0]]
PAIRS = {"recursion-lifted": 0.0, "recursion-reduced": 2e-16}
REPORT = {"iters": 1, "reduced_path": "drs", "pairwise": PAIRS, "step_defects": PAIRS}


@pytest.mark.parametrize("cls, doc, text", [
    (dl.TrajectoryRecord, {**RECORD, "k": [2]}, "'k' is [2] in the document, but its fields give [1]"),
    (dl.TrajectoryRecord, {**RECORD, "k": [1, 2]},
     "'k' is [1, 2] in the document, but its fields give [1]"),
    (dl.TrajectoryRecord, {**RECORD, "k": 1}, "'k' is 1 in the document, but its fields give [1]"),
    (dl.TrajectoryRecord, {**RECORD, "k": [True]}, "'k' must hold numbers, got [true]"),
    (dl.ResolventClassification, {"recovered_M": SKEW_M, "symmetry_defect": 0.0},
     "'symmetry_defect' is 0.0 in the document, but its fields give 2.0"),
    (dl.ResolventClassification, {"recovered_M": SKEW_M, "verdict": PROXIMAL},
     "'verdict' is \"Proximal\" in the document, but its fields give \"NotProximal\""),
    (dl.ResolventClassification, {"recovered_M": SKEW_M, "symmetry_defect": 2.0, "verdict": 2.0},
     "'verdict' is 2.0 in the document, but its fields give \"NotProximal\""),
    (dl.EquivalenceReport, {**REPORT, "max_deviation": 0.0},
     "'max_deviation' is 0.0 in the document, but its fields give 2e-16"),
    (dl.EquivalenceReport, {**REPORT, "max_deviation": math.nan},
     "'max_deviation' is NaN in the document, but its fields give 2e-16"),
    (dl.EquivalenceReport, {**REPORT, "pairwise": {}, "step_defects": {}, "max_deviation": 0.0},
     "'max_deviation' is 0.0 in the document, but its fields give NaN"),
    # its own to_dict wrote n, from_dict once ignored it and built a 2-point witness
    (dl.CycleWitness, {"n": 5, "points": [[0.0], [1.0]], "values": [[0.0], [0.0]], "cycle_sum": 0.0},
     "'n' is 5 in the document, but its fields give 2"),
], ids=["k", "k_rows", "k_scalar", "k_boolean", "defect", "verdict", "verdict_number",
        "max_deviation", "max_deviation_nan", "max_deviation_of_none", "n"])
def test_a_document_whose_derived_value_disagrees_is_refused(cls, doc, text):
    with pytest.raises(ValueError) as info:
        cls.from_dict(doc)
    assert (info.type, str(info.value)) == (ValueError, text)


SYSTEMS = [
    dl.BlockSystem(dl.LinearRelation(rotation()), dl.ScaledIdentity(2.0), 0.5, 2),
    dl.BlockSystem(dl.L1(1.0), dl.Zero(), 2.0, 3),
]


@pytest.mark.parametrize("system", SYSTEMS, ids=["linear", "nonsmooth"])
def test_a_system_derives_root_tau_and_its_lifted_operator_once(system):
    L = system.L
    assert system.root_tau == math.sqrt(system.tau)
    assert type(L) is dl.Block2x2 and type(L.A) is dl.Inverse and type(L.B) is dl.Inverse
    assert L.A.inner is system.B and L.B.inner is system.A
    assert same(L.C, system.tau * np.eye(system.n))
    for key, value in (("root_tau", system.root_tau), ("L", L)):
        assert key not in dl.BlockSystem._fields
        assert not re.search(rf"[(, ]{key}=", repr(system)), key
        with pytest.raises(AttributeError):
            setattr(system, key, value)
    doc = system.to_dict()
    assert doc.keys() == {"A", "B", "tau", "n"}
    back = dl.BlockSystem.from_dict(doc)
    assert back.root_tau == system.root_tau
    assert back.L.A.inner is back.B and back.L.B.inner is back.A
    assert back.L.to_dict() == L.to_dict()
