"""Command line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import drslab as dl
from drslab.cli import EXIT_ERROR, EXIT_NO_CONVERGENCE, EXIT_OK, main

L1_QUAD = {
    "A": {"type": "prox_l1", "weight": 1.0},
    "B": {"type": "prox_quadratic", "Q": [[1.0]], "q": [-1.0]},
    "tau": 1.0,
}

SKEW = {
    "A": {"type": "linear", "M": [[0.0, -1.0], [1.0, 0.0]]},
    "B": {"type": "zero"},
    "tau": 1.0,
}

IDENTITY_PAIR = {
    "A": {"type": "scaled_identity", "alpha": 1.0},
    "B": {"type": "scaled_identity", "alpha": 1.0},
    "dim": 1,
}

ZERO_PAIR = {"A": {"type": "zero"}, "B": {"type": "zero"}}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# run-drs


def test_run_drs_csv_to_stdout(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0]))
    code = main(["run-drs", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.strip().split("\n")
    assert lines[0] == "k,z0,x0,w0,residual"
    final_x = float(lines[-1].split(",")[2])
    assert abs(final_x) <= 1e-8
    assert "status: converged" in captured.err
    assert "certificate: pass" in captured.err


def test_run_drs_json_format(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0]))
    code = main(["run-drs", "--problem", path, "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["status"] == "converged"
    assert payload["certificate"] is True
    assert abs(payload["x"][-1][0]) <= 1e-8


def test_run_drs_has_no_seed_flag_and_checks_the_document_seed(tmp_path, capsys):
    # run-drs draws nothing at random, so --seed is a usage error
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0]))
    with pytest.raises(SystemExit) as info:
        main(["run-drs", "--problem", path, "--seed", "1"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in captured.err
    assert captured.out == ""
    code = main(["run-drs", "--problem", write_doc(tmp_path, dict(L1_QUAD, z0=[5.0], seed=-1))])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == "error: seed must be nonnegative, got -1\n"
    assert captured.out == ""


def test_classify_resolvent_has_no_seed_flag_and_checks_the_document_seed(tmp_path, capsys):
    # the splitting map is read from the operators, not sampled, so --seed is a usage error
    with pytest.raises(SystemExit) as info:
        main(["classify-resolvent", "--problem", write_doc(tmp_path, SKEW), "--seed", "1"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in captured.err
    assert captured.out == ""
    code = main(["classify-resolvent", "--problem", write_doc(tmp_path, dict(SKEW, seed=-1))])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == "error: seed must be nonnegative, got -1\n"
    assert captured.out == ""


def test_run_drs_exit_two_when_capped(tmp_path, capsys):
    path = write_doc(tmp_path, dict(IDENTITY_PAIR, z0=[8.0]))
    code = main(["run-drs", "--problem", path, "--iters", "3"])
    capsys.readouterr()
    assert code == EXIT_NO_CONVERGENCE


def test_run_drs_flag_overrides_file(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0], tau=1.0))
    code = main(["run-drs", "--problem", path, "--tau", "0.5", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    # first x is J_B(0.5, 5) = (5 + 0.5)/1.5 = 22/6
    assert payload["x"][0][0] == pytest.approx(5.5 / 1.5)


def test_run_drs_writes_file(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0]))
    out = tmp_path / "traj.csv"
    code = main(["run-drs", "--problem", path, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == ""
    assert out.read_text().startswith("k,z0,x0,w0,residual")


# ---------------------------------------------------------------------------
# error paths


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["run-drs", "--problem", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "error:" in captured.err


def test_missing_operator_exits_one(tmp_path, capsys):
    path = write_doc(tmp_path, {"B": {"type": "zero"}, "z0": [1.0]})
    code = main(["run-drs", "--problem", str(path)])
    capsys.readouterr()
    assert code == EXIT_ERROR


def test_unknown_operator_tag_exits_one(tmp_path, capsys):
    path = write_doc(tmp_path, {"A": {"type": "mystery"}, "B": {"type": "zero"}, "z0": [1.0]})
    code = main(["run-drs", "--problem", path])
    capsys.readouterr()
    assert code == EXIT_ERROR


def test_missing_file_exits_one(tmp_path, capsys):
    code = main(["run-drs", "--problem", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert code == EXIT_ERROR


def test_underdetermined_dimension_exits_one(tmp_path, capsys):
    path = write_doc(tmp_path, {"A": {"type": "zero"}, "B": {"type": "zero"}})
    code = main(["run-drs", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "dim" in captured.err


@pytest.mark.parametrize("key", ["tau", "gamma", "max_iters", "stop_tol", "seed"])
def test_null_setting_exits_one_naming_the_key(tmp_path, capsys, key):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0], **{key: None}))
    code = main(["run-drs", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {key!r} must hold numbers, got null\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("run-drs", dict(L1_QUAD, z0=[5.0]), key)
        for key in ("tau", "gamma", "max_iters", "stop_tol", "seed")
    ]
    + [
        ("check-cycle", {"op": {"type": "zero"}}, "dim"),
        ("check-cycle", {"op": {"type": "zero"}, "dim": 1}, "seed"),
        ("moreau-check", {"op": {"type": "zero"}}, "dim"),
    ],
)
def test_boolean_setting_exits_one(tmp_path, capsys, command, doc, key, value):
    # a JSON boolean is not a number, though Python reads true as 1
    code = main([command, "--problem", write_doc(tmp_path, dict(doc, **{key: value}))])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {key!r} must hold numbers, got {json.dumps(value)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, doc",
    [
        ("check-equivalence", {"A": {"type": "zero"}, "B": {"type": "zero"}, "dim": None}),
        ("classify-resolvent", {"A": {"type": "zero"}, "B": {"type": "zero"}, "dim": None}),
        ("moreau-check", {"op": {"type": "zero"}, "dim": None}),
    ],
)
def test_null_dim_exits_one(tmp_path, capsys, command, doc):
    code = main([command, "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == "error: 'dim' must hold numbers, got null\n"


@pytest.mark.parametrize(
    "command, doc, err",
    [
        ("run-drs", dict(SKEW, dim=7), "dim=7 conflicts with problem dimension 2"),
        ("check-equivalence", dict(ZERO_PAIR, dim=2, z0=[1.0, 2.0, 3.0]), "dim=2 conflicts with z0 length 3"),
        ("classify-resolvent", dict(SKEW, dim=3), "dim=3 conflicts with problem dimension 2"),
        ("moreau-check", {"op": SKEW["A"], "dim": 5}, "dim=5 conflicts with operator dimension 2"),
    ],
)
def test_conflicting_dim_exits_one(tmp_path, capsys, command, doc, err):
    # a dim key that disagrees with what else fixes the dimension is refused,
    # not ignored in favour of the other dimension
    code = main([command, "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: DimensionMismatch: {err}\n"
    assert captured.out == ""


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("run-drs", ZERO_PAIR),
        ("check-equivalence", ZERO_PAIR),
        ("classify-resolvent", ZERO_PAIR),
        ("moreau-check", {"op": {"type": "zero"}}),
        ("check-cycle", {"op": {"type": "zero"}}),
    ],
)
def test_a_dim_below_one_reads_the_same_on_every_command(tmp_path, capsys, command, doc, dim):
    # where nothing else fixes the dimension, the key passes the package's
    # dimension gate, not numpy's array constructors or a z0 check
    code = main([command, "--problem", write_doc(tmp_path, dict(doc, dim=dim))])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert (captured.out, captured.err) == ("", f"error: dim must be at least 1, got {dim}\n")


def test_unhashable_operator_tag_exits_one(tmp_path, capsys):
    path = write_doc(tmp_path, {"A": {"type": []}, "B": {"type": "zero"}, "z0": [1.0]})
    code = main(["run-drs", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == "error: bad 'A' operator: unknown operator type []\n"


def test_unparsable_setting_keeps_its_message(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0], tau="abc"))
    code = main(["run-drs", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == "error: 'tau' must hold numbers, got \"abc\"\n"


@pytest.mark.parametrize(
    "command, doc, err",
    [
        ("run-drs", dict(L1_QUAD, z0=None), "'z0' must hold numbers, got null"),
        ("run-drs", dict(ZERO_PAIR, z0=[1.0, None]), "'z0' must hold numbers, got [1.0, null]"),
        ("check-equivalence", dict(L1_QUAD, z0=None), "'z0' must hold numbers, got null"),
        ("classify-resolvent", dict(SKEW, z0=[None, 1.0]), "'z0' must hold numbers, got [null, 1.0]"),
        ("witness-skew", {"C": None}, "'C' must hold numbers, got null"),
        ("witness-skew", {"C": [[1.0, None]]}, "'C' must hold numbers, got [[1.0, null]]"),
        ("witness-skew", {"C": [[1.0]], "a1": None}, "'a1' must hold numbers, got null"),
        ("witness-skew", {"C": [[1.0]], "b1": [None]}, "'b1' must hold numbers, got [null]"),
        ("witness-skew", {"C": [[1.0]], "a1": {"x": 1}}, "'a1' must hold numbers, got {\"x\": 1}"),
        # json.load reads NaN and Infinity; a witness of them printed NaN, and the second warned
        ("witness-skew", {"C": [[float("nan"), 1.0]]},
         "a witness's points, values, cycle_sum and xi must be finite"),
        ("witness-skew", {"C": [[1.0]], "a1": [float("inf")]},
         "a witness's points, values, cycle_sum and xi must be finite"),
    ],
)
def test_null_vector_exits_one_naming_the_key(tmp_path, capsys, command, doc, err):
    code = main([command, "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, doc, err",
    [
        ("run-drs", [1, 2], "problem file must hold a JSON object"),
        ("witness-skew", {"C": [1.0, 2.0]}, "'C' must be a matrix"),
        ("moreau-check", {"tau": 1.0, "dim": 2}, "moreau-check needs an 'op' or 'A'/'B' operator"),
    ],
)
def test_a_document_of_the_wrong_shape_exits_one(tmp_path, capsys, command, doc, err):
    code = main([command, "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "dim, err",
    [
        ("abc", "'dim' must hold numbers, got \"abc\""),
        ([2], "DimensionMismatch: dim must be 0-dimensional, got shape (1,)"),
        ({"n": 2}, "'dim' must hold numbers, got {\"n\": 2}"),
        (2.5, "'dim' must be an integer, got 2.5"),
    ],
)
def test_check_cycle_malformed_dim_exits_one(tmp_path, capsys, dim, err):
    doc = {"op": {"type": "zero"}, "dim": dim}
    code = main(["check-cycle", "--problem", write_doc(tmp_path, doc), "--trials", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {err}\n"
    # a null dim still means "no dim"
    doc["dim"] = None
    assert main(["check-cycle", "--problem", write_doc(tmp_path, doc), "--trials", "5"]) == EXIT_OK


@pytest.mark.parametrize(
    "command, doc, err",
    [
        ("run-drs", dict(L1_QUAD, z0=[5.0], max_iters=2.9), "'max_iters' must be an integer, got 2.9"),
        ("run-drs", dict(L1_QUAD, z0=[5.0], seed=1.5), "'seed' must be an integer, got 1.5"),
        # json writes and reads Infinity; int() of it used to raise OverflowError
        ("run-drs", dict(L1_QUAD, z0=[5.0], max_iters=float("inf")),
         "'max_iters' must be an integer, got inf"),
        ("moreau-check", {"op": {"type": "zero"}, "dim": 2.5}, "'dim' must be an integer, got 2.5"),
        ("classify-resolvent", dict(ZERO_PAIR, dim=2.5), "'dim' must be an integer, got 2.5"),
    ],
)
def test_non_integral_integer_setting_exits_one(tmp_path, capsys, command, doc, err):
    code = main([command, "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("run-drs", dict(L1_QUAD, z0=[5.0]), "max_iters"),
        ("check-cycle", {"op": {"type": "zero"}}, "dim"),
        ("moreau-check", {"op": {"type": "zero"}}, "dim"),
    ],
)
def test_integral_float_setting_reads_as_its_integer(tmp_path, capsys, command, doc, key):
    def run(value):
        code = main([command, "--problem", write_doc(tmp_path, dict(doc, **{key: value}))])
        return code, capsys.readouterr()

    assert run(3.0) == run(3)


def test_moreau_check_rejects_zero_trials(tmp_path, capsys):
    path = write_doc(tmp_path, {"op": {"type": "zero"}, "dim": 1})
    code = main(["moreau-check", "--problem", path, "--trials", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == "error: --trials must be at least 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, doc",
    [
        ("witness-skew", {"C": [[1.0, 2.0], [0.5, -1.0]]}),
        ("moreau-check", {"op": {"type": "linear", "M": [[1.0, -3.0], [3.0, 0.25]]}}),
        ("check-cycle", {"op": {"type": "linear", "M": [[0.0, -1.0], [1.0, 0.0]]}}),
    ],
)
def test_document_seed_is_read_and_the_flag_overrides_it(tmp_path, capsys, command, doc):
    def run(doc, *flags):
        code = main([command, "--problem", write_doc(tmp_path, doc), *flags])
        return code, capsys.readouterr().out

    seeded = run(dict(doc, seed=5))
    assert seeded[0] == EXIT_OK
    assert seeded == run(doc, "--seed", "5")
    assert run(dict(doc, seed=5), "--seed", "7") == run(doc, "--seed", "7")
    # the document's seed reaches the generator through the package's gate for a seed, not numpy's
    code = main([command, "--problem", write_doc(tmp_path, dict(doc, seed=-1))])
    assert (code, capsys.readouterr().err) == (EXIT_ERROR, "error: seed must be nonnegative, got -1\n")


@pytest.mark.parametrize(
    "command, doc, err",
    [
        ("check-equivalence", dict(L1_QUAD, z0=[5.0]), "the problem file gives z0"),
        ("witness-skew", {"C": [[1.0]], "a1": [1.0], "b1": [0.0]}, "the problem file gives a1 and b1"),
    ],
)
def test_a_seed_that_draws_nothing_exits_one(tmp_path, capsys, command, doc, err):
    # the seed draws only a missing start or witness point, so with each given in
    # the document --seed 0 and --seed 5 printed the same report and exited 0
    path = write_doc(tmp_path, doc)
    for seed in ("0", "5"):
        code = main([command, "--problem", path, "--seed", seed])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err == f"error: --seed draws nothing here: {err}\n"
        assert captured.out == ""
    assert main([command, "--problem", path]) == EXIT_OK  # the document alone still runs
    capsys.readouterr()


@pytest.mark.parametrize("seed", (0, 5))
def test_a_document_seed_that_draws_nothing_exits_one(tmp_path, capsys, seed):
    # with a1 and b1 given, seeds 0 and 5 printed the same witness and exited 0
    path = write_doc(tmp_path, {"C": [[1.0]], "a1": [1.0], "b1": [0.0], "seed": seed})
    assert main(["witness-skew", "--problem", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: 'seed' draws nothing here: the problem file gives a1 and b1\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# check-equivalence


def test_check_equivalence_nonlinear_fallback(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[1.0]))
    code = main(["check-equivalence", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["max_deviation"] <= 1e-8
    assert payload["reduced_path"] == "drs"
    assert payload["iters"] == 100


def test_check_equivalence_direct_path(tmp_path, capsys):
    doc = {
        "A": {"type": "linear", "M": [[1.0, 0.0], [0.0, 2.0]]},
        "B": {"type": "linear", "M": [[0.0, -1.0], [1.0, 0.5]]},
        "tau": 0.75,
        "z0": [1.0, -1.0],
    }
    code = main(["check-equivalence", "--problem", write_doc(tmp_path, doc), "--iters", "60"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["reduced_path"] == "direct"
    assert payload["iters"] == 60
    assert set(payload["pairwise"]) == set(payload["step_defects"]) == {
        "recursion-lifted",
        "recursion-reduced",
        "lifted-reduced",
    }
    assert max(payload["step_defects"].values()) <= 1e-15
    assert "largest one-step defect" in captured.err


def test_check_equivalence_iters_is_its_trajectory_length_not_an_iteration_cap(tmp_path, capsys):
    # --iters once also set the problem's max_iters, which only run-drs uses
    code = main(["check-equivalence", "--problem", write_doc(tmp_path, dict(L1_QUAD, z0=[1.0])),
                 "--iters", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert (captured.out, captured.err) == ("", "error: iters must be at least 1, got 0\n")


def test_check_equivalence_zero_pair_deviation_is_zero(tmp_path, capsys):
    doc = {"A": {"type": "zero"}, "B": {"type": "zero"}, "z0": [1.0, -2.0]}
    code = main(["check-equivalence", "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["max_deviation"] == 0.0


def test_check_equivalence_stock_problem_is_tight(tmp_path, capsys):
    path = write_doc(tmp_path, dict(SKEW, z0=[1.0, 0.0]))
    code = main(["check-equivalence", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["iters"] == 100
    assert payload["max_deviation"] <= 1e-10


# ---------------------------------------------------------------------------
# check-cycle


def test_check_cycle_finds_skew_violation(tmp_path, capsys):
    doc = {"op": {"type": "linear", "M": [[0.0, -1.0], [1.0, 0.0]]}}
    path = write_doc(tmp_path, doc)
    code = main(["check-cycle", "--problem", path, "--trials", "500", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["witness"] is not None
    assert payload["witness"]["cycle_sum"] > 1e-8
    assert payload["seed"] == 7


def test_check_cycle_clean_on_subdifferential(tmp_path, capsys):
    doc = {"op": {"type": "prox_l1", "weight": 1.0}, "dim": 2}
    path = write_doc(tmp_path, doc)
    code = main(["check-cycle", "--problem", path, "--trials", "200"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["witness"] is None


@pytest.mark.parametrize("lo, hi", [([float("nan")], [1.0]), ([0.0, 0.0], [1.0, float("nan")])])
def test_check_cycle_rejects_a_nan_box_bound(tmp_path, capsys, lo, hi):
    # a NaN bound maps every point to NaN, so no cycle sum could ever violate
    doc = {"op": {"type": "prox_box", "lo": lo, "hi": hi}}
    code = main(["check-cycle", "--problem", write_doc(tmp_path, doc), "--trials", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == (
        "error: bad 'op' operator: box requires lo <= hi componentwise, with no NaN bound\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, doc, err",
    [
        (
            "check-cycle",
            {"op": {"type": "linear", "M": [[float("nan"), 0.0], [0.0, 1.0]]}},
            "bad 'op' operator: M must be finite, got a NaN or infinite entry",
        ),
        (
            "run-drs",
            {"A": {"type": "linear", "M": [[float("inf")]]}, "B": {"type": "zero"}},
            "bad 'A' operator: M must be finite, got a NaN or infinite entry",
        ),
        (
            "run-drs",
            dict(L1_QUAD, B={"type": "prox_quadratic", "Q": [[1.0]], "q": [float("-inf")]}),
            "bad 'B' operator: q must be finite, got a NaN or infinite entry",
        ),
    ],
)
def test_non_finite_operator_exits_one(tmp_path, capsys, command, doc, err):
    # before, a NaN generator sampled NaN cycles that never violate, and an
    # infinite one "converged"
    code = main([command, "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "doc, err",
    [
        (
            dict(L1_QUAD, A={"type": "prox_l1", "weight": True}),
            "bad 'A' operator: 'weight' must hold numbers, got true",
        ),
        (dict(L1_QUAD, z0=[True]), "'z0' must hold numbers, got [true]"),
        (
            dict(L1_QUAD, B={"type": "prox_quadratic", "Q": [[False]], "q": [-1.0]}),
            "bad 'B' operator: 'Q' must hold numbers, got [[false]]",
        ),
        (
            dict(L1_QUAD, B={"type": "prox_quadratic", "Q": [[1.0]], "q": [None]}),
            "bad 'B' operator: 'q' must hold numbers, got [null]",
        ),
        (
            {
                "A": {
                    "type": "block2x2",
                    "A": {"type": "zero"},
                    "B": {"type": "scaled_identity", "alpha": True},
                    "C": [[1.0]],
                },
                "B": {"type": "zero"},
            },
            "bad 'A' operator: 'alpha' must hold numbers, got true",
        ),
        (
            {
                "A": {"type": "inverse", "inner": {"type": "linear", "M": [[1.0, True], [0.0, 1.0]]}},
                "B": {"type": "zero"},
            },
            "bad 'A' operator: 'M' must hold numbers, got [[1.0, true], [0.0, 1.0]]",
        ),
    ],
)
def test_boolean_or_null_in_a_document_exits_one(tmp_path, capsys, doc, err):
    # Python reads true as 1.0: before, these ran with weight 1 or z0 = [1]
    code = main(["run-drs", "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""


def test_check_cycle_accepts_a_key(tmp_path, capsys):
    path = write_doc(tmp_path, SKEW)
    code = main(["check-cycle", "--problem", path, "--trials", "500", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["witness"] is not None


@pytest.mark.parametrize(
    "command, doc, value",
    [("check-cycle", SKEW, "-5"), ("witness-skew", {"C": [[1.0]]}, "inf")],
)
def test_commands_without_a_step_size_reject_tau(tmp_path, capsys, command, doc, value):
    with pytest.raises(SystemExit) as info:
        main([command, "--problem", write_doc(tmp_path, doc), "--tau", value])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert f"unrecognized arguments: --tau {value}" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# witness-skew


def test_witness_skew_frozen_example(tmp_path, capsys):
    doc = {"C": [[1.0]], "a1": [1.0], "b1": [0.0]}
    code = main(["witness-skew", "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["xi"] == pytest.approx(2.0, abs=1e-12)
    assert payload["cycle_sum"] == pytest.approx(2.0, abs=1e-12)
    assert payload["n"] == 3


def test_witness_skew_seeded_draw(tmp_path, capsys):
    doc = {"C": [[1.0, 0.5], [0.0, 2.0]]}
    code = main(["witness-skew", "--problem", write_doc(tmp_path, doc), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["xi"] > 1e-8


def test_witness_skew_requires_coupling(tmp_path, capsys):
    code = main(["witness-skew", "--problem", write_doc(tmp_path, {"a1": [1.0]})])
    capsys.readouterr()
    assert code == EXIT_ERROR
    code = main(["witness-skew", "--problem", write_doc(tmp_path, {"C": [[0.0]]})])
    capsys.readouterr()
    assert code == EXIT_ERROR


# ---------------------------------------------------------------------------
# classify-resolvent


def test_classify_resolvent_skew(tmp_path, capsys):
    path = write_doc(tmp_path, SKEW)
    code = main(["classify-resolvent", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["verdict"] == "NotProximal"
    assert payload["symmetry_defect"] == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(payload["recovered_M"], [[0.0, -1.0], [1.0, 0.0]], atol=1e-10)
    assert np.allclose(payload["T"], [[0.5, 0.5], [-0.5, 0.5]], atol=1e-12)


def test_classify_resolvent_scalar(tmp_path, capsys):
    path = write_doc(tmp_path, IDENTITY_PAIR)
    code = main(["classify-resolvent", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(captured.out)["verdict"] == "Proximal"


def test_classify_resolvent_nonlinear_errors(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, dim=1))
    code = main(["classify-resolvent", "--problem", path])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "NotLinear" in captured.err


# ---------------------------------------------------------------------------
# moreau-check


def test_moreau_check_single_operator(tmp_path, capsys):
    doc = {"op": {"type": "prox_l1", "weight": 0.5}, "dim": 3, "tau": 2.0}
    code = main(["moreau-check", "--problem", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["ok"] is True
    assert payload["max_residual"] <= 1e-10
    assert payload["trials"] == 100


def test_moreau_check_problem_pair(tmp_path, capsys):
    path = write_doc(tmp_path, dict(SKEW))
    code = main(["moreau-check", "--problem", path, "--trials", "50"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert set(payload["per_operator"]) == {"A", "B"}
    assert payload["ok"] is True


def test_moreau_check_inverts_once_per_operator_whatever_the_trials(tmp_path, capsys, monkeypatch):
    doc = {"A": {"type": "linear", "M": [[1.0, -3.0], [3.0, 0.25]]},
           "B": {"type": "prox_quadratic", "Q": [[2.0, 0.5], [0.5, 1.0]], "q": [1.0, -1.0]}}
    path = write_doc(tmp_path, doc)
    inv, calls = np.linalg.inv, []

    def counted_inv(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    counts = []
    for trials in ("1", "40"):
        calls.clear()
        assert main(["moreau-check", "--problem", path, "--trials", trials]) == EXIT_OK
        counts.append(len(calls))
    capsys.readouterr()
    assert counts == [4, 4]  # J_A, J_B and the swapped pairs of A and B


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0]))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run-drs", "--problem", path, "--out", str(out1)]) == EXIT_OK
    assert main(["run-drs", "--problem", path, "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_check_cycle_repeat_runs_identical(tmp_path, capsys):
    path = write_doc(tmp_path, SKEW)
    outs = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        assert (
            main(["check-cycle", "--problem", path, "--trials", "300", "--out", str(out)])
            == EXIT_OK
        )
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_report_commands_repeat_byte_identical(tmp_path, capsys):
    eq_doc = write_doc(tmp_path, dict(SKEW, z0=[1.0, 0.5]), "eq.json")
    cl_doc = write_doc(tmp_path, SKEW, "cl.json")
    mo_doc = write_doc(
        tmp_path, {"op": {"type": "prox_l1", "weight": 0.5}, "dim": 3}, "mo.json"
    )
    for args in (
        ["check-equivalence", "--problem", eq_doc],
        ["classify-resolvent", "--problem", cl_doc],
        ["moreau-check", "--problem", mo_doc],
    ):
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main([*args, "--out", str(out)]) == EXIT_OK
            blobs.append(out.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]


def test_witness_skew_seeded_repeats_identical(tmp_path, capsys):
    path = write_doc(tmp_path, {"C": [[1.0, 0.5], [0.0, 2.0]]})
    blobs = []
    for name in ("w1.json", "w2.json"):
        out = tmp_path / name
        assert (
            main(["witness-skew", "--problem", path, "--seed", "9", "--out", str(out)])
            == EXIT_OK
        )
        blobs.append(out.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_smoke(tmp_path):
    path = write_doc(tmp_path, dict(L1_QUAD, z0=[5.0]))
    proc = subprocess.run(
        [sys.executable, "-m", "drslab.cli", "run-drs", "--problem", path, "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["status"] == "converged"
    assert "certificate: pass" in proc.stderr
