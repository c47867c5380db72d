"""Failure modes that `run` and the CLI report instead of passing over."""

import json

import numpy as np
import pytest

import drslab as dl
from drslab.cli import EXIT_ERROR, EXIT_OK, main

L1_QUAD = {
    "A": {"type": "prox_l1", "weight": 1.0},
    "B": {"type": "prox_quadratic", "Q": [[1.0]], "q": [-1.0]},
    "tau": 1.0,
}

# A = 4*I, B = 0: the plain splitting map is z -> z / 5, so the relaxed map
# (1-gamma) + gamma/5 is negative for gamma = 1.9 and has no monotone generator.
SCALED_ZERO = {
    "A": {"type": "scaled_identity", "alpha": 4.0},
    "B": {"type": "zero"},
    "dim": 1,
}


def write_doc(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# non-finite iterates


# numpy warns about the non-finite arithmetic; the status is what is checked
ignore_nonfinite_warnings = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@ignore_nonfinite_warnings
@pytest.mark.parametrize("start", [np.nan, np.inf])
def test_run_stops_at_first_nonfinite_residual(start):
    problem = dl.DrsProblem(dl.L1(1.0), dl.Quadratic([[1.0]], [-1.0]))
    record = dl.run(problem, [start])
    assert record.status == dl.NONFINITE
    assert len(record) == 1
    assert not np.isfinite(record.residual[-1])


@ignore_nonfinite_warnings
def test_run_stops_when_a_finite_start_overflows():
    # with B = 0 the reflection 2x - z = 2z - z overflows for z near the max float
    problem = dl.DrsProblem(dl.Zero(), dl.Zero())
    record = dl.run(problem, [1.7e308])
    assert record.status == dl.NONFINITE
    assert len(record) == 1
    assert np.isinf(record.final_z[0])


@ignore_nonfinite_warnings
def test_run_drs_nonfinite_start_exits_with_error(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(L1_QUAD, z0=[float("nan")])))
    code = main(["run-drs", "--problem", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert "error: iterates became non-finite at iteration 1" in captured.err


# ---------------------------------------------------------------------------
# non-finite trajectories in the equivalence check

NONFINITE_STARTS = [
    ("random_monotone_5d", np.full(5, 1e308)),
    ("l1_quadratic_1d", np.array([np.nan])),
]


@ignore_nonfinite_warnings
@pytest.mark.parametrize("entry, z0", NONFINITE_STARTS)
def test_nonfinite_trajectories_do_not_read_as_agreement(catalog_map, entry, z0):
    report = dl.compare_formulations(catalog_map[entry].problem, z0, 100)
    assert all(np.isnan(d) for d in report.pairwise.values())
    assert all(np.isnan(d) for d in report.step_defects.values())
    assert np.isnan(report.max_deviation)


def test_max_deviation_is_the_largest_finite_pairwise_deviation(catalog_map):
    report = dl.compare_formulations(catalog_map["random_monotone_5d"].problem, np.ones(5), 50)
    assert report.max_deviation == max(report.pairwise.values())


@ignore_nonfinite_warnings
@pytest.mark.parametrize("entry, z0", NONFINITE_STARTS)
def test_check_equivalence_nonfinite_start_exits_with_error(tmp_path, capsys, catalog_map, entry, z0):
    doc = catalog_map[entry].problem.to_dict()
    doc["z0"] = [float(v) for v in z0]
    code = main(["check-equivalence", "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "max deviation nan" in captured.err
    assert "largest one-step defect nan" in captured.err


# ---------------------------------------------------------------------------
# classify-resolvent --gamma


def test_drs_map_matrix_is_relaxed_map(catalog_map):
    base = catalog_map["random_monotone_5d"].problem
    T1 = dl.drs_map_matrix(base)
    for gamma in (0.5, 1.5):
        relaxed = dl.DrsProblem(base.A, base.B, tau=base.tau, gamma=gamma, seed=base.seed)
        T = dl.drs_map_matrix(relaxed)
        assert np.allclose(T, (1.0 - gamma) * np.eye(5) + gamma * T1, rtol=0.0, atol=1e-14)


def test_classify_resolvent_honours_gamma(tmp_path, capsys):
    path = write_doc(tmp_path, SCALED_ZERO)
    outputs = {}
    for gamma in ("1.0", "0.5"):
        code = main(["classify-resolvent", "--problem", path, "--gamma", gamma])
        assert code == EXIT_OK
        outputs[gamma] = json.loads(capsys.readouterr().out)
    assert outputs["1.0"]["T"][0] == pytest.approx([0.2], abs=1e-15)
    assert outputs["0.5"]["T"][0] == pytest.approx([0.6], abs=1e-15)
    assert outputs["0.5"]["verdict"] == dl.PROXIMAL


def test_classify_resolvent_overrelaxed_nonmonotone_is_an_error_exit(tmp_path, capsys):
    path = write_doc(tmp_path, SCALED_ZERO)
    code = main(["classify-resolvent", "--problem", path, "--gamma", "1.9"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: NonMonotone:")
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# check-equivalence compares the unrelaxed map only


@pytest.mark.parametrize("gamma", [0.5, 1.5])
def test_compare_formulations_refuses_a_relaxed_problem(gamma):
    problem = dl.DrsProblem(dl.L1(1.0), dl.Quadratic([[1.0]], [-1.0]), gamma=gamma)
    with pytest.raises(ValueError, match=f"relaxed legs are not implemented.*got gamma = {gamma}$"):
        dl.compare_formulations(problem, [5.0])


def test_check_equivalence_with_gamma_is_one_error_line(tmp_path, capsys):
    code = main(["check-equivalence", "--problem", write_doc(tmp_path, dict(L1_QUAD, z0=[5.0], gamma=0.5))])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_ERROR, "")
    assert captured.err == (
        "error: relaxed legs are not implemented: the formulations are compared at gamma = 1, "
        "got gamma = 0.5\n"
    )


def test_check_equivalence_at_gamma_one_matches_the_default(tmp_path, capsys):
    runs = []
    for doc in (dict(L1_QUAD, z0=[5.0]), dict(L1_QUAD, z0=[5.0], gamma=1.0)):
        code = main(["check-equivalence", "--problem", write_doc(tmp_path, doc)])
        runs.append((code, capsys.readouterr()))
    assert runs[0][0] == runs[1][0] == EXIT_OK
    assert runs[0][1] == runs[1][1]


# ---------------------------------------------------------------------------
# tau = inf is not a step size

ZERO_ZERO = {"A": {"type": "zero"}, "B": {"type": "zero"}, "dim": 1, "z0": [1.0]}


@pytest.mark.parametrize("tau", [np.inf, np.nan, 0.0, -1.0])
def test_system_constructors_reject_nonpositive_or_nonfinite_tau(tau):
    for build in (
        lambda: dl.DrsProblem(dl.Zero(), dl.Zero(), tau=tau),
        lambda: dl.BlockSystem(dl.Zero(), dl.Zero(), tau, 1),
        lambda: dl.PpaSystem(dl.Zero(), dl.Zero(), tau, 1),
        lambda: dl.resolve(dl.Zero(), tau, [1.0]),
    ):
        with pytest.raises(ValueError, match="tau must be positive"):
            build()


@pytest.mark.parametrize("command", ["run-drs", "check-equivalence"])
def test_cli_infinite_tau_is_an_error_exit_naming_inf(tmp_path, capsys, command):
    path = write_doc(tmp_path, ZERO_ZERO)
    code = main([command, "--problem", path, "--tau", "inf"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert "tau must be positive" in captured.err
    assert "got inf" in captured.err


# ---------------------------------------------------------------------------
# frozen results leave the caller's arrays alone


def test_initial_state_leaves_the_start_writeable():
    z0 = np.array([1.0, 2.0])
    state = dl.initial_state(dl.PpaSystem(dl.Zero(), dl.Zero(), 1.0, 2), z0)
    assert z0.flags.writeable
    assert not state.z.flags.writeable
    z0[0] = 5.0
    assert state.z[0] == 1.0


def test_ppa_state_and_witness_copy_their_inputs():
    u, s, z = np.zeros(2), np.ones(2), np.array([1.0, -1.0])
    dl.PpaState(u, s, z)
    points = (np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    values = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    dl.CycleWitness(points, values, 2.0)
    for arr in (u, s, z) + points + values:
        assert arr.flags.writeable


def test_sampled_witness_owns_its_points():
    op = dl.LinearRelation(np.array([[0.0, -1.0], [1.0, 0.0]]))
    witness = dl.sample_cycles(op, n_max=6, trials=1000, seed=7)
    assert witness is not None
    for arr in witness.points + witness.values:
        assert arr.base is None
        assert not arr.flags.writeable
