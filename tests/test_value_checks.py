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
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drslab as dl
from drslab.cli import EXIT_ERROR, main
from drslab.cyclic import INCONCLUSIVE, NOT_PROXIMAL, PROXIMAL, ResolventClassification
from drslab.errors import DimensionMismatch, DrslabError, LengthMismatch, NonMonotone, SingularMatrix
from drslab.operators import _check_square, _linalg, _points, operator_from_dict, symmetric_part
from helpers import operator_zoo, rotation
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


def system():
    """The one-dimensional system of two zero operators."""
    return dl.BlockSystem(dl.Zero(), dl.Zero(), 1.0, 1)


def record(**fields):
    """A TrajectoryRecord built from its document, with the given fields."""
    return dl.TrajectoryRecord.from_dict({"k": [1], "z": [[0.0]], "x": [[0.0]], "w": [[0.0]],
                                          "residual": [0.0], "status": "converged", **fields})


def report(**fields):
    """An EquivalenceReport built from its document, with the given fields."""
    return dl.EquivalenceReport.from_dict({"max_deviation": 0.0, "iters": 1, "reduced_path": "drs",
                                           "pairwise": {"recursion-lifted": 0.0},
                                           "step_defects": {"recursion-lifted": 0.0}, **fields})


def classified(**fields):
    """A ResolventClassification built from its document, with the given fields."""
    return ResolventClassification.from_dict({"recovered_M": [[1.0, 0.0], [0.0, 1.0]],
                                              "symmetry_defect": 0.0, "verdict": PROXIMAL, **fields})


SKEW = dl.LinearRelation(rotation())


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
    (lambda: dl.L1(np.array([True])), "'weight' must hold numbers, got \"array([ True])\""),
    (lambda: problem(tau=10**400), "'tau' must hold numbers in the float range, got a larger integer"),
    # every array a caller hands a library function is read by operators._points
    (lambda: dl.run(problem(), [None]), "'z0' must hold numbers, got [null]"),
    (lambda: dl.run(problem(), ["3.0"]), "'z0' must hold numbers, got [\"3.0\"]"),
    (lambda: dl.classify_resolvent([["0.5", 0], [0, True]]),
     "'T' must hold numbers, got [[\"0.5\", 0], [0, true]]"),
    (lambda: dl.skew_three_cycle([["1.0"]], [True], ["2"]), "'C' must hold numbers, got [[\"1.0\"]]"),
    (lambda: dl.skew_three_cycle([[1.0]], [True], [2.0]), "'a1' must hold numbers, got [true]"),
    (lambda: dl.skew_three_cycle([[1.0]], [1.0], ["2"]), "'b1' must hold numbers, got [\"2\"]"),
    (lambda: dl.PpaState(["1.0"], [True], [None]), "'u' must hold numbers, got [\"1.0\"]"),
    (lambda: dl.PpaState([1.0], [0.0], [None]), "'z' must hold numbers, got [null]"),
    (lambda: dl.resolve(dl.Zero(), 1.0, ["1"]), "'x' must hold numbers, got [\"1\"]"),
    (lambda: dl.splitting_pass(dl.Zero(), dl.Zero(), 1.0, [True]), "'z' must hold numbers, got [true]"),
    (lambda: dl.graph_residual(dl.Zero(), ["1"], [0.0]), "'y' must hold numbers, got [\"1\"]"),
    (lambda: dl.graph_residual(dl.Zero(), [1.0], [None]), "'u' must hold numbers, got [null]"),
    (lambda: dl.relaxed_step(problem(), ["1"]), "'z' must hold numbers, got [\"1\"]"),
    (lambda: dl.solution_certificate(problem(), ["1"], 1e-8), "'z' must hold numbers, got [\"1\"]"),
    (lambda: dl.moreau_residual(dl.Zero(), 1.0, ["1"]), "'x' must hold numbers, got [\"1\"]"),
    (lambda: dl.initial_state(system(), ["1"]), "'z0' must hold numbers, got [\"1\"]"),
    (lambda: dl.compare_formulations(problem(), ["1"]), "'z0' must hold numbers, got [\"1\"]"),
    (lambda: dl.reduced_resolvent_via_drs(system(), ["1"]), "'v' must hold numbers, got [\"1\"]"),
    (lambda: dl.symmetric_part([[1.0, None]]), "'M' must hold numbers, got [[1.0, null]]"),
    # counts and tolerances pass _count and _scalar
    (lambda: dl.compare_formulations(problem(), [1.0], True), "'iters' must hold numbers, got true"),
    (lambda: dl.compare_formulations(problem(), [1.0], "5"), "'iters' must hold numbers, got \"5\""),
    (lambda: dl.compare_formulations(problem(), [1.0], 2.5), "'iters' must be an integer, got 2.5"),
    (lambda: dl.sample_cycles(SKEW, 3, True, 0), "'trials' must hold numbers, got true"),
    (lambda: dl.sample_cycles(SKEW, True, 10, 0), "'n_max' must hold numbers, got true"),
    (lambda: dl.sample_cycles(SKEW, 3, 10, "0"), "'seed' must hold numbers, got \"0\""),
    (lambda: dl.sample_cycles(dl.Zero(), 3, 10, 0, dim=True), "'dim' must hold numbers, got true"),
    (lambda: dl.sample_cycles(SKEW, 3, 10, -1), "seed must be nonnegative, got -1"),
    (lambda: dl.graph_member(dl.Zero(), [0.0], [0.0], tol=True), "'tol' must hold numbers, got true"),
    (lambda: dl.graph_member(dl.Zero(), [0.0], [0.0], tol=0.0), "tol must be positive, got 0.0"),
    (lambda: dl.drs_map_matrix(problem(), dim=True), "'dim' must hold numbers, got true"),
    (lambda: dl.drs_map_matrix(problem(), dim=2.5), "'dim' must be an integer, got 2.5"),
    # Q's symmetry is read scale-free, so it holds where ||Q - Q^T|| and ||Q|| overflow
    *(pytest.param(lambda s=s: dl.Quadratic([[s, s], [-s, s]], [0.0, 0.0]),
                   "Q must be symmetric, relative asymmetry 1.414e+00",
                   marks=pytest.mark.filterwarnings("error"), id=f"asymmetric-Q-{s:g}")
      for s in (1e160, 1e300)),
    # a matrix with a NaN or infinite entry is no map: named as T, before any generator is read
    (lambda: dl.classify_resolvent([[float("inf"), 0.0], [0.0, 1.0]]),
     "T must be finite, got a NaN or infinite entry"),
    (lambda: dl.classify_resolvent([[float("nan"), 0.0], [0.0, 1.0]]),
     "T must be finite, got a NaN or infinite entry"),
    # the documents of records, reports and classifications
    (lambda: report(max_deviation="x"), "'max_deviation' must hold numbers, got \"x\""),
    (lambda: report(iters=True), "'iters' must hold numbers, got true"),
    (lambda: report(iters=0), "iters must be at least 1, got 0"),
    (lambda: report(iters=-5), "iters must be at least 1, got -5"),
    (lambda: report(reduced_path=3), "unknown reduced_path 3"),
    (lambda: report(pairwise=None), "pairwise must map pair names to numbers, got None"),
    (lambda: report(pairwise={"recursion-lifted": "0"}), "'recursion-lifted' must hold numbers, got \"0\""),
    (lambda: report(step_defects=None), "step_defects must map pair names to numbers, got None"),
    (lambda: report(step_defects={"recursion-lifted": "x"}), "'recursion-lifted' must hold numbers, got \"x\""),
    (lambda: report(step_defects={}), "step_defects must name the pairs of pairwise, got []"),
    (lambda: record(z=[["a"]]), "'z' must hold numbers, got [[\"a\"]]"),
    (lambda: record(residual=[None]), "'residual' must hold numbers, got [null]"),
    (lambda: record(k=[True]), "'k' must hold numbers, got [true]"),
    (lambda: record(k=[1.5]), "'k' is [1.5] in the document, but its fields give [1]"),
    (lambda: classified(symmetry_defect="0.5"), "'symmetry_defect' must hold numbers, got \"0.5\""),
    (lambda: classified(verdict="proximal"),
     "'verdict' is \"proximal\" in the document, but its fields give \"Proximal\""),
    # a generator is finite, as an operator's coefficients are: a NaN read Inconclusive
    (lambda: ResolventClassification([[float("nan")]]),
     "recovered_M must be finite, got a NaN or infinite entry"),
    (lambda: ResolventClassification([[1.0, float("inf")], [0.0, 1.0]]),
     "recovered_M must be finite, got a NaN or infinite entry"),
    (lambda: classified(recovered_M=[[1.0, 0.0], [0.0, float("nan")]]),
     "recovered_M must be finite, got a NaN or infinite entry"),
    # a record's verdict and worst deviation are the ones its own data give
    (lambda: classified(recovered_M=[[0.0, -1.0], [1.0, 0.0]]),
     "'symmetry_defect' is 0.0 in the document, but its fields give 2.0"),
    (lambda: report(reduced_path="direct", pairwise={"recursion-lifted": 5.0}),
     "'max_deviation' is 0.0 in the document, but its fields give 5.0"),
])
def test_library_callers_get_the_cli_checks(build, text):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == text


EMPTY_RECORD = {"k": [], "z": np.zeros((0, 1)), "x": np.zeros((0, 1)), "w": np.zeros((0, 1)), "residual": []}


@pytest.mark.parametrize("build, error, text", [
    # a record's fields agree in rows and width, and its status is one run gives
    (lambda: record(k=[1, 2]), ValueError, "'k' is [1, 2] in the document, but its fields give [1]"),
    (lambda: record(residual=[0.0, 0.0]), LengthMismatch,
     "record fields differ in row count: {'z': 1, 'x': 1, 'w': 1, 'residual': 2}"),
    (lambda: record(x=[[0.0, 1.0]]), DimensionMismatch,
     "z, x and w must have one width, got shapes (1, 1), (1, 2) and (1, 1)"),
    (lambda: record(w=[0.0]), DimensionMismatch, "w must be 2-D, got shape (1,)"),
    (lambda: record(k=[[1]]), ValueError, "'k' is [[1]] in the document, but its fields give [1]"),
    (lambda: record(**EMPTY_RECORD), DimensionMismatch,
     "residual must have at least one coordinate, got shape (0,)"),
    (lambda: record(**{**EMPTY_RECORD, "k": np.zeros(0, dtype=int)}), DimensionMismatch,
     "residual must have at least one coordinate, got shape (0,)"),
    (lambda: record(status="done"), ValueError, "unknown status 'done'"),
    # a record's k numbers its rows 1..K, as run writes them
    (lambda: record(k=[7]), ValueError, "'k' is [7] in the document, but its fields give [1]"),
    (lambda: record(k=[2, 1], z=[[0.0]] * 2, x=[[0.0]] * 2, w=[[0.0]] * 2, residual=[0.0] * 2), ValueError,
     "'k' is [2, 1] in the document, but its fields give [1, 2]"),
    # a classification's generator is square
    (lambda: classified(recovered_M=[[0.0, 1.0]]), DimensionMismatch,
     "recovered_M must be square, got shape (1, 2)"),
    # no point, matrix or problem has a dimension of 0
    (lambda: dl.run(problem(), []), DimensionMismatch, "z0 must have at least one coordinate, got shape (0,)"),
    (lambda: dl.compare_formulations(problem(), np.zeros(0)), DimensionMismatch,
     "z0 must have at least one coordinate, got shape (0,)"),
    (lambda: dl.resolve(dl.Zero(), 1.0, np.zeros((3, 0))), DimensionMismatch,
     "x must have at least one coordinate, got shape (3, 0)"),
    (lambda: dl.graph_residual(dl.Zero(), [], []), DimensionMismatch,
     "y must have at least one coordinate, got shape (0,)"),
    (lambda: dl.LinearRelation(np.zeros((0, 0))), DimensionMismatch,
     "M must have at least one coordinate, got shape (0, 0)"),
    (lambda: dl.Box([], []), DimensionMismatch, "lo must have at least one coordinate, got shape (0,)"),
    (lambda: dl.sample_cycles(dl.Zero(), 3, 10, 0, dim=0), ValueError, "dim must be at least 1, got 0"),
    (lambda: dl.drs_map_matrix(problem(), dim=0), ValueError, "dim must be at least 1, got 0"),
    # a vector or matrix of the wrong length or rank
    (lambda: dl.AffineConstraint([[1.0, 0.0]], [0.0, 1.0]), DimensionMismatch,
     "e has length 2 but E has 1 rows"),
    (lambda: dl.skew_three_cycle([1.0, 2.0], [1.0], [1.0]), DimensionMismatch,
     "C must be a matrix, got shape (2,)"),
    # no operator acts on R^0, nor has a block that does
    (lambda: dl.Block2x2(dl.Zero(), dl.Zero(), np.zeros((0, 0))), DimensionMismatch,
     "C must have at least one coordinate per block, got shape (0, 0)"),
    (lambda: dl.Block2x2(dl.Zero(), dl.Zero(), np.zeros((0, 2))), DimensionMismatch,
     "C must have at least one coordinate per block, got shape (0, 2)"),
    (lambda: dl.AffineConstraint(np.zeros((0, 0)), np.zeros(0)), DimensionMismatch,
     "E must have at least one coordinate, got shape (0, 0)"),
])
def test_a_record_or_a_problem_without_data_is_refused(build, error, text):
    with pytest.raises((ValueError, DrslabError)) as info:
        build()
    assert (info.type, str(info.value)) == (error, text)


@pytest.mark.parametrize("build, text", [
    (lambda: dl.Inverse(1.0), "inner must be a catalog operator"),
    (lambda: dl.Block2x2(1.0, dl.Zero(), [[1.0]]), "A must be a catalog operator"),
    (lambda: dl.Block2x2(dl.Zero(), None, [[1.0]]), "B must be a catalog operator"),
    (lambda: dl.DrsProblem("l1", dl.Zero()), "A must be a catalog operator"),
    # a class is not an operator: its dim would be the class value, not a number
    (lambda: dl.DrsProblem(dl.Zero, dl.Zero()), "A must be a catalog operator"),
    (lambda: dl.BlockSystem(dl.Zero(), 3, 1.0, 1), "B must be a catalog operator"),
], ids=["inverse", "block-A", "block-B", "problem-A", "problem-class", "system-B"])
def test_a_block_that_is_not_an_operator_is_a_type_error(build, text):
    # a library caller's mistake, read before any dimension is; documents
    # decode their blocks through operator_from_dict and never reach it
    with pytest.raises(TypeError) as info:
        build()
    assert (info.type, str(info.value)) == (TypeError, text)


def test_a_stack_with_no_rows_maps_to_no_rows():
    X = np.zeros((0, 3))
    assert dl.resolve(dl.L1(1.0), 1.0, X).shape == (0, 3)
    assert [a.shape for a in dl.splitting_pass(dl.Zero(), dl.L1(1.0), 1.0, X)] == [(0, 3)] * 3


@pytest.mark.parametrize("command", ["run-drs", "check-equivalence"])
def test_a_matrix_z0_is_one_error_line_on_every_command(tmp_path, command):
    doc = {"A": {"type": "zero"}, "B": {"type": "zero"}, "z0": [[1.0, 2.0]]}
    text = "error: DimensionMismatch: z0 must be a vector, got shape (1, 2)\n"
    assert run_cli(tmp_path, command, doc) == (EXIT_ERROR, "", text)


@pytest.mark.parametrize("doc, text", [
    ({"A": {"type": "prox_l1", "weight": 10**400}, "B": {"type": "zero"}, "z0": [5.0]},
     "error: bad 'A' operator: 'weight' must hold numbers in the float range, got a larger integer\n"),
    ({"A": {"type": "zero"}, "B": {"type": "zero"}, "z0": [10**400]},
     "error: 'z0' must hold numbers in the float range, got a larger integer\n"),
    ({"A": {"type": "zero"}, "B": {"type": "zero"}, "z0": [5.0], "tau": 10**400},
     "error: 'tau' must hold numbers in the float range, got a larger integer\n"),
])
def test_an_integer_past_the_float_range_is_one_error_line(tmp_path, doc, text):
    assert run_cli(tmp_path, "run-drs", doc) == (EXIT_ERROR, "", text)


def test_points_uses_a_float64_array_as_it_is():
    x = np.arange(6.0).reshape(2, 3)
    assert _points(x, "x") is x
    with warnings.catch_warnings():  # np.matrix is pending deprecation
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        matrix = np.matrix([0.0, 1.0, 2.0])
    for given in (np.arange(3), [0, 1, 2], np.arange(3, dtype=np.float32), matrix):
        got = _points(given, "x")
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.reshape(-1).tolist() == [0.0, 1.0, 2.0]


def test_an_integral_float_count_reads_as_the_integer():
    assert np.array_equal(dl.drs_map_matrix(problem(), dim=2.0), dl.drs_map_matrix(problem(), dim=2))
    assert dl.compare_formulations(problem(), [1.0], 3.0).iters == 3


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
    return SimpleNamespace(recovered_M=M, symmetry_defect=defect, verdict=verdict)


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
