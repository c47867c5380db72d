"""The constructors decide what a number and a monotone matrix are.

Every operator field goes through ``operators._numbers``, so a malformed
document ends in a ValueError or a DrslabError, never a TypeError, and the
CLI prints it as one ``error:`` line.  ``_check_monotone`` decides matrices
whose eigenvalues overflow, and ``classify_resolvent`` calls it with its own
tolerance, giving the verdicts and texts of its former inline test.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from drslab.cli import EXIT_ERROR, main
from drslab.cyclic import INCONCLUSIVE, NOT_PROXIMAL, PROXIMAL, ResolventClassification
from drslab.errors import DrslabError, NonMonotone, SingularMatrix
from drslab.operators import _check_square, _linalg, operator_from_dict, symmetric_part
from helpers import operator_zoo
from test_monotone_certificate import FAMILIES

ZOO = [(name, op.to_dict(), dim) for name, op, dim in operator_zoo()]

# a list where a scalar belongs is made from the number it replaces
NOT_NUMBERS = [None, True, "1.0", {}, "wrapped in a list"]


def number_paths(doc, path=()):
    """Key/index paths to every numeric field of an operator document and to
    every number inside one, nested operator documents included."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "type":
                yield from number_paths(value, path + (key,))
        return
    yield path
    if isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from number_paths(value, path + (i,))


def replaced(doc, path, bad):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = [parent[last]] if bad == "wrapped in a list" else bad
    return doc


def run_cli(tmp_dir, command, doc):
    """main on the document, in-process: (exit code, stdout, stderr)."""
    path = tmp_dir / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--problem", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    entry=st.sampled_from([(doc, dim, path) for _, doc, dim in ZOO for path in number_paths(doc)]),
    not_number=st.sampled_from(NOT_NUMBERS),
)
def test_a_non_number_field_is_a_value_error_everywhere(tmp_path_factory, entry, not_number):
    doc, dim, path = entry
    bad = replaced(doc, path, not_number)
    with pytest.raises((ValueError, DrslabError)):
        operator_from_dict(bad)
    tmp_dir = tmp_path_factory.getbasetemp()
    for command, problem in [
        ("run-drs", {"A": bad, "B": {"type": "zero"}, "dim": dim}),
        ("check-cycle", {"op": bad, "dim": dim}),
    ]:
        code, out, err = run_cli(tmp_dir, command, problem)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_every_numeric_field_of_the_zoo_is_reached():
    paths = {(name, path[0]) for name, doc, _ in ZOO for path in number_paths(doc)}
    assert {("scaled_identity", "alpha"), ("l1", "weight"), ("box", "lo"), ("box", "hi"),
            ("linear_skew", "M"), ("quadratic", "Q"), ("quadratic", "q"), ("affine", "E"),
            ("affine", "e"), ("inverse_l1", "inner"), ("block2x2", "A"), ("block2x2", "C")} <= paths


def problem(**settings):
    """A DrsProblem built from its document, with the given settings."""
    return dl.DrsProblem.from_dict({"A": {"type": "zero"}, "B": {"type": "zero"}, **settings})


def witness(**fields):
    """A CycleWitness built from its document, with the given fields."""
    return dl.CycleWitness.from_dict(
        {"points": [[1.0], [2.0]], "values": [[0.0], [0.0]], "cycle_sum": 0.0, **fields}
    )


@pytest.mark.parametrize("build, text", [
    (lambda: dl.L1(True), "'weight' must hold numbers, got true"),
    (lambda: dl.LinearRelation([[True]]), "'M' must hold numbers, got [[true]]"),
    (lambda: dl.ScaledIdentity("3"), "'alpha' must hold numbers, got \"3\""),
    (lambda: dl.Box([None], [1.0]), "'lo' must hold numbers, got [null]"),
    (lambda: dl.Quadratic([[1.0]], [{}]), "'q' must hold numbers, got [{}]"),
    (lambda: problem(tau="2.0"), "'tau' must hold numbers, got \"2.0\""),
    (lambda: problem(gamma=None), "'gamma' must hold numbers, got null"),
    (lambda: problem(stop_tol="1e-9"), "'stop_tol' must hold numbers, got \"1e-9\""),
    (lambda: problem(max_iters=True), "'max_iters' must hold numbers, got true"),
    (lambda: problem(max_iters=2.5), "'max_iters' must be an integer, got 2.5"),
    (lambda: problem(seed=2.7), "'seed' must be an integer, got 2.7"),
    (lambda: problem(seed=float("nan")), "'seed' must be an integer, got nan"),
    (lambda: witness(points=[["1.0"], [True]]), "'points' must hold numbers, got [\"1.0\"]"),
    (lambda: witness(values=[[0.0], [None]]), "'values' must hold numbers, got [null]"),
    (lambda: witness(cycle_sum="0"), "'cycle_sum' must hold numbers, got \"0\""),
    (lambda: dl.BlockSystem(dl.Zero(), dl.Zero(), "2.0", 1), "'tau' must hold numbers, got \"2.0\""),
    (lambda: dl.BlockSystem(dl.Zero(), dl.Zero(), 2.0, True), "'n' must hold numbers, got true"),
    (lambda: dl.BlockSystem(dl.Zero(), dl.Zero(), 2.0, 1.5), "'n' must be an integer, got 1.5"),
    (lambda: dl.resolve(dl.Zero(), "2.0", [1.0]), "'tau' must hold numbers, got \"2.0\""),
    (lambda: dl.resolve(dl.Zero(), True, [1.0]), "'tau' must hold numbers, got true"),
    (lambda: dl.splitting_pass(dl.Zero(), dl.Zero(), None, [1.0]), "'tau' must hold numbers, got null"),
    (lambda: dl.L1(10**400), "'weight' must hold numbers in the float range, got a larger integer"),
    (lambda: problem(tau=10**400), "'tau' must hold numbers in the float range, got a larger integer"),
])
def test_library_callers_get_the_cli_checks(build, text):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == text


@pytest.mark.parametrize("doc, text", [
    ({"A": {"type": "prox_l1", "weight": 10**400}, "B": {"type": "zero"}, "z0": [5.0]},
     "error: bad 'A' operator: 'weight' must hold numbers in the float range, got a larger integer\n"),
    ({"A": {"type": "zero"}, "B": {"type": "zero"}, "z0": [10**400]},
     "error: 'z0' must hold numbers in the float range, got a larger integer\n"),
    ({"A": {"type": "zero"}, "B": {"type": "zero"}, "z0": [5.0], "tau": 10**400},
     "error: 'tau' must be a number in the float range, got a larger integer\n"),
])
def test_an_integer_past_the_float_range_is_one_error_line(tmp_path, doc, text):
    assert run_cli(tmp_path, "run-drs", doc) == (EXIT_ERROR, "", text)


def test_numpy_numbers_pass_the_gate():
    assert dl.ScaledIdentity(np.float64(2.0)).alpha == 2.0
    assert dl.L1(np.array(0.5)).weight == 0.5
    assert dl.LinearRelation(np.eye(2, dtype=int)).M.dtype == float


def test_integral_settings_pass_the_gate():
    built = problem(tau=2, max_iters=3.0, seed=np.int64(7))
    assert (built.tau, built.max_iters, built.seed) == (2.0, 3, 7)
    assert type(built.max_iters) is int and type(built.seed) is int
    assert problem(seed=2**70 + 1).seed == 2**70 + 1  # not rounded through a float
    points = witness(points=[np.array([1.0]), [2]]).points
    assert [p.tolist() for p in points] == [[1.0], [2.0]]


OVERFLOWING = [
    # eigenvalues +-1.5e308; M + M^T overflows to inf
    [[1.0, 1.5e308], [1.5e308, 1.0]],
    [[1.5e308, 0.0, 0.0], [0.0, 1.0, 1.5e308], [0.0, 1.5e308, 1.0]],
    # eigenvalues 3.4e308 (past the float range), 0 and -1.7e308
    [[1.7e308, 1.7e308, 0.0], [1.7e308, 1.7e308, 0.0], [0.0, 0.0, -1.7e308]],
]


@pytest.mark.parametrize("M, lam", zip(OVERFLOWING, ["-1.500e+308", "-1.500e+308", "-1.700e+308"]))
def test_a_matrix_with_overflowing_eigenvalues_is_decided(M, lam):
    with pytest.raises(NonMonotone) as info:
        dl.LinearRelation(M)
    assert str(info.value) == f"M is not monotone: min symmetric eigenvalue {lam}"


def test_a_huge_monotone_matrix_is_accepted():
    assert dl.LinearRelation([[1.7e308, 1.7e308], [1.7e308, 1.7e308]]).dim == 2
    assert dl.LinearRelation([[1.7e308, -1.7e308], [1.7e308, 1.7e308]]).dim == 2


def test_check_cycle_rejects_an_overflowing_matrix(tmp_path):
    code, out, err = run_cli(tmp_path, "check-cycle", {"op": {"type": "linear", "M": OVERFLOWING[0]}})
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: bad 'op' operator: M is not monotone: min symmetric eigenvalue -1.500e+308\n"


def reference_classify_resolvent(T):
    """classify_resolvent with its former inline PSD step, kept verbatim."""
    T = np.asarray(T, dtype=float)
    _check_square(T, "T")
    T_inv = _linalg(np.linalg.inv, SingularMatrix, "resolvent matrix is singular", T)
    M = T_inv - np.eye(T.shape[0])
    lam = np.linalg.eigvalsh(symmetric_part(M))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if float(lam[0]) < -1e-8 * scale:
        raise NonMonotone(
            f"recovered generator is not monotone: min symmetric eigenvalue {lam[0]:.3e}"
        )
    defect = float(np.linalg.norm(M - M.T) / max(1.0, float(np.linalg.norm(M))))
    if defect <= 1e-8:
        verdict = PROXIMAL
    elif defect > 1e-6:
        verdict = NOT_PROXIMAL
    else:
        verdict = INCONCLUSIVE
    return ResolventClassification(M, defect, verdict)


def classification(classify, T):
    """The verdict, the defect and the generator's bits, or the error's type and text."""
    try:
        result = classify(T)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc).__name__, str(exc)
    return result.verdict, result.symmetry_defect, result.recovered_M.tobytes()


def resolvent_of(M):
    with np.errstate(all="ignore"):
        return np.linalg.inv(np.eye(M.shape[0]) + M)


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(1, 8),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_classifier_keeps_its_verdicts_and_texts(family, n, scale, seed):
    M = scale * FAMILIES[family](np.random.default_rng(seed), n)
    try:
        T = resolvent_of(M)
    except np.linalg.LinAlgError:
        return
    assert classification(dl.classify_resolvent, T) == classification(reference_classify_resolvent, T)


def test_classifier_families_reach_every_outcome():
    rng = np.random.default_rng(0)
    outcomes = {
        family: classification(dl.classify_resolvent, resolvent_of(FAMILIES[family](rng, 4)))[0]
        for family in ("spd", "pure_skew", "zero_diagonal_indefinite")
    }
    assert outcomes == {"spd": PROXIMAL, "pure_skew": NOT_PROXIMAL, "zero_diagonal_indefinite": "NonMonotone"}
