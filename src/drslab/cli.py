"""Command line front end.

Subcommands: run-drs, check-equivalence, check-cycle, witness-skew,
classify-resolvent, moreau-check.  Machine output (CSV or JSON) goes to
--out or stdout; human-readable summary lines go to stderr so stdout
stays parseable.  Exit codes: 0 success, 1 error (a run whose iterates
turn non-finite included), 2 non-convergence.

Problem files are JSON documents like

    {"A": {"type": "prox_l1", "weight": 1.0},
     "B": {"type": "prox_quadratic", "Q": [[1.0]], "q": [-1.0]},
     "tau": 1.0}

plus command-specific keys (z0, dim, op, C, a1, b1).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cyclic import classify_resolvent, drs_map_matrix, sample_cycles, skew_three_cycle
from .drs import (
    CONVERGED,
    NONFINITE,
    DrsProblem,
    _start_vector,
    run,
    solution_certificate,
)
from .equivalence import _worst_deviation, compare_formulations
from .errors import DrslabError
from .operators import Inverse, _count, _dimension, _moreau_defect, _numbers, _scalar, operator_from_dict

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2

EQUIVALENCE_TOL = 1e-8
MOREAU_TOL = 1e-10


class CliError(Exception):
    """Raised for malformed input; rendered on stderr with exit code 1."""


def _load_document(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("problem file must hold a JSON object")
    return doc


def _operator(doc, key):
    try:
        spec = doc[key]
    except KeyError:
        raise CliError(f"problem file is missing the {key!r} operator") from None
    try:
        return operator_from_dict(spec)
    except (ValueError, DrslabError) as exc:
        raise CliError(f"bad {key!r} operator: {exc}") from exc


def _setting(args, doc, key, default):
    """The flag of ``key`` when given, else the file's key (a null as it is, for
    the gate to name), else ``default``."""
    flag = getattr(args, key, None)
    return flag if flag is not None else doc.get(key, default)


def _seed(args, doc):
    """The seed setting, through the package's gate for a seed."""
    return _count(_setting(args, doc, "seed", 0), "seed", least=0)


def _vector(doc, key):
    """The numbers under the file's key as a float array of at least one dimension."""
    return np.atleast_1d(_numbers(doc[key], key))


#: Each problem setting: its document key, also the attribute of its flag.
_SETTINGS = ("tau", "gamma", "max_iters", "stop_tol", "seed")


def _build_problem(args, doc):
    """The problem of the file's operators and settings, which DrsProblem gates;
    a setting given nowhere takes DrsProblem's default."""
    settings = {key: _setting(args, doc, key, getattr(DrsProblem, key)) for key in _SETTINGS}
    return DrsProblem(_operator(doc, "A"), _operator(doc, "B"), **settings)


def _file_dim(doc, what, n):
    """The dimension n that ``what`` fixes (None: nothing fixes one), else the
    file's dim key, which passes the package's dimension gate against n."""
    return _dimension(doc["dim"], n, what) if "dim" in doc else n


def _problem_dim(problem, doc):
    """z0's length, else the operators' dimension, else the file's dim key;
    the key must agree with the first of the other two that is given."""
    if "z0" in doc:
        n = _file_dim(doc, "z0 length", len(_vector(doc, "z0")))
    else:
        n = _file_dim(doc, "problem dimension", problem.dim)
    if n is None:
        raise CliError("dimension cannot be inferred; add a 'dim' or 'z0' key")
    return n


def _unused_seed(args, reason, doc=()):
    """CliError when --seed or ``doc``'s "seed" is given but draws nothing, because ``reason``."""
    if getattr(args, "seed", None) is not None:
        raise CliError(f"--seed draws nothing here: {reason}")
    if "seed" in doc:
        raise CliError(f"'seed' draws nothing here: {reason}")


def _start_point(args, problem, doc, fill=np.zeros):
    """The file's z0, which a --seed then cannot draw, else ``fill(n)`` for the problem's dimension n."""
    n = _problem_dim(problem, doc)
    if "z0" not in doc:
        return fill(n)
    _unused_seed(args, "the problem file gives z0")
    return _start_vector(problem, doc["z0"])


def _emit(args, text):
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _say(message):
    print(message, file=sys.stderr)


def _format_vector(v):
    return "[" + ", ".join(format(x, ".12g") for x in np.atleast_1d(v)) + "]"


def cmd_run_drs(args, doc):
    problem = _build_problem(args, doc)
    record = run(problem, _start_point(args, problem, doc))
    if record.status == NONFINITE:
        _say(f"error: iterates became non-finite at iteration {len(record)}")
        return EXIT_ERROR
    certified = solution_certificate(problem, record.final_z, 100.0 * problem.stop_tol)
    if args.format == "json":
        payload = record.to_dict()
        payload["certificate"] = bool(certified)
        _emit_json(args, payload)
    else:
        _emit(args, record.to_csv_string())
    _say(f"status: {record.status} after {len(record)} iterations")
    _say(f"final x: {_format_vector(record.final_x)}")
    _say(f"certificate: {'pass' if certified else 'fail'}")
    if record.status != CONVERGED:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if certified else EXIT_NO_CONVERGENCE


def cmd_check_equivalence(args, doc):
    problem = _build_problem(args, doc)
    z0 = _start_point(args, problem, doc, np.random.default_rng(problem.seed).standard_normal)
    iters = {} if args.iters is None else {"iters": args.iters}
    report = compare_formulations(problem, z0, **iters)
    _emit_json(args, report.to_dict())
    ok = report.max_deviation <= EQUIVALENCE_TOL
    _say(
        f"max deviation {report.max_deviation:.3e} over {report.iters} iterations, largest one-step "
        f"defect {_worst_deviation(report.step_defects.values()):.3e} (reduced path: {report.reduced_path})"
    )
    return EXIT_OK if ok else EXIT_ERROR


def cmd_check_cycle(args, doc):
    key = "op" if "op" in doc else "A"
    op, seed = _operator(doc, key), _seed(args, doc)
    witness = sample_cycles(op, args.n_max, args.trials, seed, dim=doc.get("dim"))
    payload = {
        "n_max": args.n_max,
        "trials": args.trials,
        "seed": seed,
        "witness": witness.to_dict() if witness is not None else None,
    }
    _emit_json(args, payload)
    if witness is None:
        summary = f"no violation found in {key!r} up to cycles of length {args.n_max}"
    else:
        summary = f"violation found in {key!r}: cycle of length {witness.n}, sum {witness.cycle_sum:.6g}"
    _say(summary + (" ('B' is not sampled: give it as 'op')" if key == "A" and "B" in doc else ""))
    return EXIT_OK


def cmd_witness_skew(args, doc):
    if "C" not in doc:
        raise CliError("witness-skew needs a 'C' matrix in the problem file")
    C = _vector(doc, "C")
    if C.ndim != 2:
        raise CliError("'C' must be a matrix")
    n2, n1 = C.shape
    if "a1" in doc and "b1" in doc:
        _unused_seed(args, "the problem file gives a1 and b1", doc)
    rng = np.random.default_rng(_seed(args, doc))
    a1 = _vector(doc, "a1") if "a1" in doc else rng.standard_normal(n1)
    b1 = _vector(doc, "b1") if "b1" in doc else rng.standard_normal(n2)
    witness = skew_three_cycle(C, a1, b1)
    _emit_json(args, witness.to_dict())
    _say(f"xi = {witness.xi:.12g}, cycle sum = {witness.cycle_sum:.12g}")
    return EXIT_OK if witness.certifies else EXIT_ERROR


def cmd_classify_resolvent(args, doc):
    problem = _build_problem(args, doc)
    dim = _problem_dim(problem, doc)
    T = drs_map_matrix(problem, dim=dim)
    result = classify_resolvent(T)
    payload = result.to_dict()
    payload["T"] = T.tolist()
    _emit_json(args, payload)
    _say(f"verdict: {result.verdict} (symmetry defect {result.symmetry_defect:.3e})")
    return EXIT_OK


def cmd_moreau_check(args, doc):
    if "op" in doc:
        named = [("op", _operator(doc, "op"))]
    else:
        named = [(key, _operator(doc, key)) for key in ("A", "B") if key in doc]
    if not named:
        raise CliError("moreau-check needs an 'op' or 'A'/'B' operator")
    trials = _count(args.trials, "trials")
    tau = _scalar(_setting(args, doc, "tau", 1.0), "tau")
    rng = np.random.default_rng(_seed(args, doc))
    per_op = {}
    for key, op in named:
        d = _file_dim(doc, "operator dimension", op.dim) or 1
        inverse = Inverse(op)  # one inversion of the swapped graph pair for all trials
        residuals = [_moreau_defect(op, inverse, tau, rng.standard_normal(d)) for _ in range(trials)]
        per_op[key] = max(residuals)
    worst = max(per_op.values())
    payload = {
        "max_residual": worst,
        "per_operator": per_op,
        "tau": tau,
        "tolerance": MOREAU_TOL,
        "trials": trials,
        "ok": worst <= MOREAU_TOL,
    }
    _emit_json(args, payload)
    _say(f"max residual {worst:.3e} over {trials} points per operator")
    return EXIT_OK if worst <= MOREAU_TOL else EXIT_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drslab",
        description="Splitting runs, formulation checks, and monotonicity probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, iters_help, tau=True, seed=True, iters="iters"):
        p.add_argument("--problem", required=True, help="path to the problem JSON file")
        if tau:
            p.add_argument("--tau", type=float, default=None, help="step size (overrides the file)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for any randomness (default 0)")
        p.add_argument("--out", default=None, help="write machine output here instead of stdout")
        if iters_help:
            p.add_argument("--iters", dest=iters, metavar="ITERS", type=int, help=iters_help)

    p = sub.add_parser("run-drs", help="iterate the splitting and export the trajectory")
    common(p, "iteration cap", seed=False, iters="max_iters")  # run-drs draws nothing at random
    p.add_argument("--gamma", type=float, default=None, help="relaxation in (0, 2]")
    p.add_argument("--stop-tol", dest="stop_tol", type=float, default=None, help="stop tolerance")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="trajectory format")
    p.set_defaults(func=cmd_run_drs)

    p = sub.add_parser("check-equivalence", help="compare the three formulations")
    common(p, "iterations to compare (default 100)")
    p.set_defaults(func=cmd_check_equivalence)

    p = sub.add_parser("check-cycle", help="random search for a cyclic-monotonicity violation")
    common(p, None, tau=False)
    p.add_argument("--n-max", dest="n_max", type=int, default=6, help="largest cycle length")
    p.add_argument("--trials", type=int, default=1000, help="tuples per cycle length")
    p.set_defaults(func=cmd_check_cycle)

    p = sub.add_parser("witness-skew", help="deterministic three-point witness for a skew coupling")
    common(p, None, tau=False)
    p.set_defaults(func=cmd_witness_skew)

    p = sub.add_parser("classify-resolvent", help="classify the splitting map of a linear problem")
    common(p, None, seed=False)  # the map is read from the operators, not sampled
    p.add_argument("--gamma", type=float, default=None, help="relaxation in (0, 2]")
    p.set_defaults(func=cmd_classify_resolvent)

    p = sub.add_parser("moreau-check", help="sample the resolvent-complement identity")
    common(p, None)
    p.add_argument("--trials", type=int, default=100, help="points per operator")
    p.set_defaults(func=cmd_moreau_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _load_document(args.problem))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DrslabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
