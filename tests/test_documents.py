"""The one document codec: pinned documents, JSON round trips, defaults."""

import json

import numpy as np
import pytest

import drslab as dl


def documents():
    """One instance of each operator tag and of each document type."""
    return {
        "zero": dl.Zero(),
        "scaled_identity": dl.ScaledIdentity(2.5),
        "linear": dl.LinearRelation([[1.0, -2.0], [2.0, 0.5]]),
        "prox_quadratic": dl.Quadratic([[2.0, 0.0], [0.0, 1.0]], [0.5, -1.0]),
        "prox_l1": dl.L1(0.7),
        "prox_box": dl.Box([-1.0, 0.0], [1.0, 0.25]),
        "prox_affine": dl.AffineConstraint([[1.0, 1.0]], [2.0]),
        "inverse": dl.Inverse(dl.L1(1.2)),
        "block2x2": dl.Block2x2(dl.ScaledIdentity(0.5), dl.LinearRelation([[1.0]]), [[0.5]]),
        "DrsProblem": dl.DrsProblem(
            dl.L1(1.0),
            dl.Quadratic([[1.0]], [-1.0]),
            tau=0.5,
            gamma=1.5,
            max_iters=20,
            stop_tol=1e-8,
            seed=3,
        ),
        "TrajectoryRecord": dl.TrajectoryRecord(
            k=np.array([1, 2]),
            z=np.array([[0.5], [0.25]]),
            x=np.array([[1.0], [0.5]]),
            w=np.array([[0.0], [0.0]]),
            residual=np.array([0.5, 0.25]),
            status="max_iters",
        ),
        "BlockSystem": dl.BlockSystem(dl.ScaledIdentity(1.0), dl.Zero(), 0.5, 2),
        "PpaState": dl.PpaState([1.0, 2.0], [0.0, -1.0], [3.0, 4.0]),
        "CycleWitness": dl.skew_three_cycle(np.array([[1.0]]), [1.0], [0.0]),
        "CycleWitness_no_xi": dl.CycleWitness([[1.0], [2.0]], [[0.5], [0.25]], 0.25),
        "ResolventClassification": dl.ResolventClassification(np.eye(2), 0.0, "Proximal"),
        "EquivalenceReport": dl.EquivalenceReport(
            1e-12, 10, "direct", {"lifted": 0.0, "reduced": 1e-12}
        ),
    }


# Each document as written before the codec was shared, key-sorted.  A field
# renamed on both the writing and the reading side would still round-trip,
# so the documents themselves are pinned.
PINNED = {
    "zero": '{"type": "zero"}',
    "scaled_identity": '{"alpha": 2.5, "type": "scaled_identity"}',
    "linear": '{"M": [[1.0, -2.0], [2.0, 0.5]], "type": "linear"}',
    "prox_quadratic": '{"Q": [[2.0, 0.0], [0.0, 1.0]], "q": [0.5, -1.0], "type": "prox_quadratic"}',
    "prox_l1": '{"type": "prox_l1", "weight": 0.7}',
    "prox_box": '{"hi": [1.0, 0.25], "lo": [-1.0, 0.0], "type": "prox_box"}',
    "prox_affine": '{"E": [[1.0, 1.0]], "e": [2.0], "type": "prox_affine"}',
    "inverse": '{"inner": {"type": "prox_l1", "weight": 1.2}, "type": "inverse"}',
    "block2x2": (
        '{"A": {"alpha": 0.5, "type": "scaled_identity"}, "B": {"M": [[1.0]], "type": "linear"}, '
        '"C": [[0.5]], "type": "block2x2"}'
    ),
    "DrsProblem": (
        '{"A": {"type": "prox_l1", "weight": 1.0}, '
        '"B": {"Q": [[1.0]], "q": [-1.0], "type": "prox_quadratic"}, '
        '"gamma": 1.5, "max_iters": 20, "seed": 3, "stop_tol": 1e-08, "tau": 0.5}'
    ),
    "TrajectoryRecord": (
        '{"k": [1, 2], "residual": [0.5, 0.25], "status": "max_iters", '
        '"w": [[0.0], [0.0]], "x": [[1.0], [0.5]], "z": [[0.5], [0.25]]}'
    ),
    "BlockSystem": (
        '{"A": {"alpha": 1.0, "type": "scaled_identity"}, "B": {"type": "zero"}, '
        '"n": 2, "tau": 0.5}'
    ),
    "PpaState": '{"s": [0.0, -1.0], "u": [1.0, 2.0], "z": [3.0, 4.0]}',
    "CycleWitness": (
        '{"cycle_sum": 2.0, "n": 3, "points": [[1.0, 0.0], [-0.0, 1.0], [-1.0, -0.0]], '
        '"values": [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "xi": 2.0}'
    ),
    "CycleWitness_no_xi": (
        '{"cycle_sum": 0.25, "n": 2, "points": [[1.0], [2.0]], "values": [[0.5], [0.25]]}'
    ),
    "ResolventClassification": (
        '{"recovered_M": [[1.0, 0.0], [0.0, 1.0]], "symmetry_defect": 0.0, "verdict": "Proximal"}'
    ),
    "EquivalenceReport": (
        '{"iters": 10, "max_deviation": 1e-12, "pairwise": {"lifted": 0.0, "reduced": 1e-12}, '
        '"reduced_path": "direct"}'
    ),
}


def test_every_tag_and_document_type_is_pinned():
    docs = documents()
    assert set(docs) == set(PINNED)
    tags = {name: doc.tag for name, doc in docs.items() if isinstance(doc, dl.MonotoneOperator)}
    assert len(tags) == 9
    assert all(tag == name for name, tag in tags.items())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_document_matches_pinned_text(name):
    doc = documents()[name]
    assert json.dumps(doc.to_dict(), sort_keys=True) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_document_json_round_trip(name):
    doc = documents()[name]
    data = doc.to_dict()
    # must survive an actual JSON encode
    text = json.loads(json.dumps(data))
    if isinstance(doc, dl.MonotoneOperator):
        clone = dl.operator_from_dict(text)
    else:
        clone = type(doc).from_dict(text)
    assert type(clone) is type(doc)
    assert clone.to_dict() == data


def test_problem_document_defaults_match_the_constructor():
    problem = dl.DrsProblem.from_dict({"A": {"type": "zero"}, "B": {"type": "prox_l1", "weight": 2.0}})
    expected = dl.DrsProblem(dl.Zero(), dl.L1(2.0))
    assert problem.to_dict() == expected.to_dict()
    settings = (problem.tau, problem.gamma, problem.max_iters, problem.stop_tol, problem.seed)
    assert settings == (1.0, 1.0, 100_000, 1e-10, 0)


def test_document_decoding_ignores_extra_keys_and_needs_required_ones():
    data = dict(documents()["PpaState"].to_dict(), note="ignored")
    assert dl.PpaState.from_dict(data).to_dict() == documents()["PpaState"].to_dict()
    with pytest.raises(KeyError):
        dl.BlockSystem.from_dict({"A": {"type": "zero"}, "B": {"type": "zero"}, "tau": 1.0})


def test_system_document_leaves_out_the_derived_root_tau():
    system = documents()["BlockSystem"]
    assert "root_tau" not in system.to_dict()
    assert dl.BlockSystem.from_dict(system.to_dict()).root_tau == system.root_tau
