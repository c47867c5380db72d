"""The three drslab workloads: inputs from a seed, operations and their gates.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  ``build(dl, seed)`` generates the inputs with
the benchmark's own numpy code and returns the operations of one *pass*, a
fixed list that the runner repeats.  The program only receives the generated
inputs.  ``cli_calls`` builds the in-process CLI calls that traced runs time
as a probe.

An operation's ``call`` runs drslab and returns a small outcome; its latency
is the time of ``call``.  Its ``gate`` checks the outcome with independent
numpy algebra where there is one; an operation that raises or fails its gate
is a failed operation.  Accuracy values are gates, never metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

#: dense_linear: dimension, problem instances and starts per instance.
DENSE_N = 200
DENSE_INSTANCES = 4
DENSE_STARTS = 2
DENSE_STOP_TOL = 1e-9
DENSE_REL_ERR = 1e-6

#: small_nonsmooth: (l1, box) solve pairs per pass.
NONSMOOTH_PAIRS = 100
NONSMOOTH_ENTRIES = ("l1_quadratic_1d", "box_quadratic_3d")

#: audit: 100 verdicts per pass.  Trajectory length compared, lifted steps
#: checked for the inclusion, starts per catalog entry, skew couplings, and
#: cycle searches per zoo operator with their size.  The zoo is fixed, as in
#: the tests, so that the seed changes draws but not the search cost; the
#: trial count makes the stacked search about a third of the pass.
AUDIT_ITERS = 100
AUDIT_LIFTED_STEPS = 10
AUDIT_TOL = 1e-8
AUDIT_STARTS = 3
AUDIT_COUPLINGS = 22
AUDIT_SEARCHES = 4
ZOO_SEED = 321
CYCLE_N_MAX = 4
CYCLE_TRIALS = 1800
TOL_VIOLATION = 1e-8
TOL_XI = 1e-10
EXPECTED_VERDICT = {
    "zero_zero_1d": "Proximal",
    "zero_zero_2d": "Proximal",
    "identity_pair_1d": "Proximal",
    "scaled_identities_3d": "Proximal",
    "skew_zero_2d": "NotProximal",
    "random_monotone_5d": "NotProximal",
}

#: CLI probe: (subcommand, catalog entry), called in-process.
CLI_CALLS = (
    ("run-drs", "l1_quadratic_1d"),
    ("run-drs", "box_quadratic_3d"),
    ("check-equivalence", "random_monotone_5d"),
    ("check-equivalence", "box_quadratic_3d"),
    ("classify-resolvent", "skew_zero_2d"),
    ("classify-resolvent", "random_monotone_5d"),
)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs the program, ``gate`` judges the outcome."""

    kind: str
    call: object
    gate: object
    counts: object = None


# ---------------------------------------------------------------- inputs


def spd_matrix(rng, n, floor=0.3):
    G = rng.standard_normal((n, n))
    return G @ G.T / n + floor * np.eye(n)


def monotone_matrix(rng, n, floor=0.2):
    H = rng.standard_normal((n, n))
    return spd_matrix(rng, n, floor) + 0.5 * (H - H.T)


def operator_zoo(dl, rng):
    """One instance of every operator variant, as (name, op, dim)."""
    E = rng.standard_normal((2, 4))
    return [
        ("zero", dl.Zero(), 3),
        ("scaled_identity_0", dl.ScaledIdentity(0.0), 2),
        ("scaled_identity", dl.ScaledIdentity(2.5), 2),
        ("linear_skew", dl.LinearRelation([[0.0, -1.0], [1.0, 0.0]]), 2),
        ("linear_monotone", dl.LinearRelation(monotone_matrix(rng, 4)), 4),
        ("quadratic", dl.Quadratic(spd_matrix(rng, 3), rng.standard_normal(3)), 3),
        ("l1", dl.L1(0.7), 3),
        ("box", dl.Box([-1.0, -0.5, 0.0], [1.0, 0.5, 0.25]), 3),
        ("affine", dl.AffineConstraint(E, rng.standard_normal(2)), 4),
        ("inverse_l1", dl.Inverse(dl.L1(1.2)), 2),
        ("inverse_linear", dl.Inverse(dl.LinearRelation(monotone_matrix(rng, 2))), 2),
        (
            "block2x2",
            dl.Block2x2(
                dl.ScaledIdentity(0.5),
                dl.LinearRelation(spd_matrix(rng, 2)),
                rng.standard_normal((2, 2)),
            ),
            4,
        ),
    ]


def cycle_sum(points, values):
    """The wraparound sum  sum_i <x_{i+1} - x_i, u_i>, recomputed here."""
    P = np.asarray(points, dtype=float)
    U = np.asarray(values, dtype=float)
    return float(np.sum((np.roll(P, -1, axis=0) - P) * U))


# ---------------------------------------------------------------- solves


@dataclass(frozen=True)
class Solve:
    status: str
    certified: bool
    final_x: np.ndarray
    iters: int


def solve(dl, problem, z0):
    record = dl.run(problem, z0)
    certified = dl.solution_certificate(problem, record.final_z, 100.0 * problem.stop_tol)
    return Solve(record.status, bool(certified), record.final_x, len(record))


def solved(outcome):
    return outcome.status == "converged" and outcome.certified


def dense_gate(x_ref, outcome):
    err = np.linalg.norm(outcome.final_x - x_ref) / max(1.0, float(np.linalg.norm(x_ref)))
    return solved(outcome) and err <= DENSE_REL_ERR


def iters_of(outcome):
    return {"iters": outcome.iters}


def build_dense_linear(dl, seed):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(DENSE_INSTANCES):
        M = monotone_matrix(rng, DENSE_N)
        Q = spd_matrix(rng, DENSE_N)
        q = rng.standard_normal(DENSE_N)
        problem = dl.DrsProblem(dl.LinearRelation(M), dl.Quadratic(Q, q), stop_tol=DENSE_STOP_TOL)
        x_ref = np.linalg.solve(M + Q, -q)
        for _ in range(DENSE_STARTS):
            z0 = rng.standard_normal(DENSE_N)
            ops.append(Op("solve", partial(solve, dl, problem, z0), partial(dense_gate, x_ref), iters_of))
    return ops


def solve_pair(dl, problems, starts):
    return [solve(dl, p, z0) for p, z0 in zip(problems, starts)]


def build_small_nonsmooth(dl, seed):
    rng = np.random.default_rng(seed)
    catalog = {e.name: e for e in dl.standard_catalog()}
    entries = [catalog[name] for name in NONSMOOTH_ENTRIES]
    problems = [e.problem for e in entries]
    ops = []
    for _ in range(NONSMOOTH_PAIRS):
        starts = [3.0 * rng.standard_normal(e.dim) for e in entries]
        ops.append(
            Op(
                "solve_pair",
                partial(solve_pair, dl, problems, starts),
                lambda out: all(solved(o) for o in out),
                lambda out: {"iters": sum(o.iters for o in out)},
            )
        )
    return ops


# ---------------------------------------------------------------- audit


def compare(dl, entry, z0):
    """Three-form deviation, plus the lifted inclusion on the first steps."""
    problem = entry.problem
    report = dl.compare_formulations(problem, z0, AUDIT_ITERS)
    system = dl.PpaSystem(problem.A, problem.B, problem.tau, entry.dim)
    state = dl.initial_state(system, z0)
    inclusion = 0.0
    for _ in range(AUDIT_LIFTED_STEPS):
        nxt = dl.ppa_step(system, state)
        inclusion = max(inclusion, dl.ppa_inclusion_residual(system, state, nxt))
        state = nxt
    return report.max_deviation, inclusion


def compare_gate(outcome):
    deviation, inclusion = outcome
    return deviation <= AUDIT_TOL and inclusion <= AUDIT_TOL


def classify(dl, entry):
    return dl.classify_resolvent(dl.drs_map_matrix(entry.problem, dim=entry.dim)).verdict


def skew(dl, C, a1, b1):
    w = dl.skew_three_cycle(C, a1, b1)
    return w.certifies, w.xi, w.points, w.values


def skew_gate(outcome):
    certifies, xi, points, values = outcome
    return certifies and abs(xi - cycle_sum(points, values)) <= TOL_XI * max(1.0, abs(xi))


def search(dl, op, dim, seed):
    w = dl.sample_cycles(op, CYCLE_N_MAX, CYCLE_TRIALS, seed, dim=dim)
    if w is None:
        return op.is_subdifferential, None
    return op.is_subdifferential, (w.points, w.values)


def search_gate(outcome):
    """No witness on a subdifferential; any witness found really violates."""
    is_subdifferential, witness = outcome
    if witness is None:
        return True
    return not is_subdifferential and cycle_sum(*witness) > TOL_VIOLATION


def build_audit(dl, seed):
    rng = np.random.default_rng(seed)
    catalog = dl.standard_catalog()
    ops = []
    for entry in catalog:
        for _ in range(AUDIT_STARTS):
            z0 = rng.standard_normal(entry.dim)
            ops.append(Op("compare", partial(compare, dl, entry, z0), compare_gate))
    for entry in catalog:
        if entry.linear:
            expected = EXPECTED_VERDICT[entry.name]
            ops.append(Op("classify", partial(classify, dl, entry), expected.__eq__))
    for _ in range(AUDIT_COUPLINGS):
        n2, n1 = rng.integers(1, 5, size=2)
        C = rng.standard_normal((n2, n1))
        a1 = rng.standard_normal(n1)
        b1 = rng.standard_normal(n2)
        ops.append(Op("skew", partial(skew, dl, C, a1, b1), skew_gate))
    for _, op, dim in operator_zoo(dl, np.random.default_rng(ZOO_SEED)):
        for _ in range(AUDIT_SEARCHES):
            search_seed = int(rng.integers(2**31))
            ops.append(Op("search", partial(search, dl, op, dim, search_seed), search_gate))
    return ops


# ---------------------------------------------------------------- cli


def in_process(dl, argv):
    """stdout of ``drslab.cli.main(argv)`` and its exit code, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dl.cli.main(argv)
    return code, out.getvalue().encode()


def in_process_gate(expected, outcome):
    code, out = outcome
    return code == 0 and out == expected


def cli_calls(dl, seed, workdir):
    """In-process ``drslab.cli.main`` calls on problem files written from
    catalog entries; each must print what it printed the first time."""
    importlib.import_module("drslab.cli")
    rng = np.random.default_rng(seed)
    catalog = {e.name: e for e in dl.standard_catalog()}
    ops = []
    for i, (command, name) in enumerate(CLI_CALLS):
        entry = catalog[name]
        doc = entry.problem.to_dict()
        doc["z0"] = (3.0 * rng.standard_normal(entry.dim)).tolist()
        path = Path(workdir) / f"problem-{i}.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--problem", str(path)]
        code, expected = in_process(dl, argv)
        if code != 0:
            raise RuntimeError(f"in-process {argv} exited with {code}")
        ops.append(Op(command, partial(in_process, dl, argv), partial(in_process_gate, expected)))
    return ops


WORKLOADS = {
    "dense_linear": build_dense_linear,
    "small_nonsmooth": build_small_nonsmooth,
    "audit": build_audit,
}


# ---------------------------------------------------------------- passes


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list
    ok: int
    failed: int
    counts: dict
    errors: list


def run_pass(ops, on_op=None):
    """Run every operation once, in order; count gate failures and exceptions."""
    latencies, counts, errors = [], {}, []
    ok = failed = 0
    start = perf_counter()
    for index, op in enumerate(ops):
        if on_op is not None:
            on_op(index)
        error = f"{op.kind}: gate failed"
        t0 = perf_counter()
        try:
            outcome = op.call()
            raised = False
        except Exception as exc:  # a raising operation is a failed one; keep going
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
            raised = True
        latencies.append(perf_counter() - t0)
        if not raised and op.gate(outcome):
            ok += 1
            if op.counts is not None:
                for key, value in op.counts(outcome).items():
                    counts[key] = counts.get(key, 0) + value
        else:
            failed += 1
            errors.append(error)
    return PassResult(perf_counter() - start, latencies, ok, failed, counts, errors)
