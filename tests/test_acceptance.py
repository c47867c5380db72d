"""Acceptance bench: nine pass/fail criteria over the whole package.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Each test prints its verdict before asserting so the line
appears whether or not the criterion holds.
"""

import time

import numpy as np

import drslab as dl
from helpers import operator_zoo, reduced_resolvent_fukushima, rotation, spd_matrix


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_formulation_equivalence(catalog):
    t0 = time.perf_counter()
    worst = 0.0
    for i, entry in enumerate(catalog):
        rng = np.random.default_rng(9000 + i)
        for _ in range(10):
            z0 = 2.0 * rng.standard_normal(entry.dim)
            report = dl.compare_formulations(entry.problem, z0, iters=100)
            worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - t0
    ok = len(catalog) >= 6 and worst <= 1e-8 and elapsed < 5.0
    _report(
        1,
        "three formulations trace one trajectory",
        ok,
        f"{len(catalog)} problems, max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_lifted_inclusion_and_metric_rank(catalog):
    worst = 0.0
    ranks_ok = True
    for i, entry in enumerate(catalog):
        sys = dl.PpaSystem(entry.problem.A, entry.problem.B, entry.problem.tau, entry.dim)
        rng = np.random.default_rng(1000 + i)
        for _ in range(3):
            state = dl.initial_state(sys, 2.0 * rng.standard_normal(entry.dim))
            for _ in range(60):
                nxt = dl.ppa_step(sys, state)
                worst = max(worst, dl.ppa_inclusion_residual(sys, state, nxt))
                state = nxt
        D = sys.metric_factor()
        eigs = np.linalg.eigvalsh(D @ D.T)
        rank = int(np.sum(eigs > 1e-12))
        kernel = int(np.sum(np.abs(eigs) <= 1e-12))
        ranks_ok = ranks_ok and rank == entry.dim and kernel == 2 * entry.dim
    ok = worst <= 1e-8 and ranks_ok
    _report(
        2,
        "lifted step inclusion and degenerate metric rank",
        ok,
        f"max step residual {worst:.3e}, rank n with 2n kernel on all systems",
    )


def test_criterion_3_resolvent_monotone_generator(catalog):
    min_eig = np.inf
    for entry in catalog:
        if not entry.linear:
            continue
        T = dl.drs_map_matrix(entry.problem, dim=entry.dim)
        M = np.linalg.inv(T) - np.eye(entry.dim)
        lam = np.linalg.eigvalsh(0.5 * (M + M.T))
        scale = max(1.0, float(np.max(np.abs(lam))))
        min_eig = min(min_eig, float(lam[0]) / scale)
    psd_ok = min_eig >= -1e-8

    firm_ok = True
    rng = np.random.default_rng(3000)
    for entry in catalog:
        X = 2.0 * rng.standard_normal((1000, entry.dim))
        Y = 2.0 * rng.standard_normal((1000, entry.dim))
        TX = dl.drs_step(entry.problem, X)
        TY = dl.drs_step(entry.problem, Y)
        D = TX - TY
        lhs = np.einsum("ij,ij->i", D, D)
        rhs = np.einsum("ij,ij->i", D, X - Y)
        firm_ok = firm_ok and bool(np.all(lhs <= rhs + 1e-10))
    ok = psd_ok and firm_ok
    _report(
        3,
        "splitting map is a monotone resolvent",
        ok,
        f"worst scaled generator eigenvalue {min_eig:.3e}, "
        "firmly nonexpansive on 1000 pairs per problem",
    )


def test_criterion_4_proximality_classification(catalog, catalog_map):
    skew = catalog_map["skew_zero_2d"]
    T = dl.drs_map_matrix(skew.problem, dim=skew.dim)
    result = dl.classify_resolvent(T)
    matrix_err = float(np.max(np.abs(result.recovered_M - rotation())))
    skew_ok = (
        result.verdict == dl.NOT_PROXIMAL
        and result.symmetry_defect >= 1.0
        and matrix_err <= 1e-10
    )

    one_d_ok = True
    for entry in catalog:
        if entry.dim != 1 or not entry.linear:
            continue
        verdict = dl.classify_resolvent(
            dl.drs_map_matrix(entry.problem, dim=1)
        ).verdict
        one_d_ok = one_d_ok and verdict == dl.PROXIMAL
    ok = skew_ok and one_d_ok
    _report(
        4,
        "skew map is NotProximal, scalar maps are Proximal",
        ok,
        f"defect {result.symmetry_defect:.3g}, recovered generator error {matrix_err:.1e}",
    )


def test_criterion_5_skew_witness_closed_form():
    witness = dl.skew_three_cycle(np.array([[1.0]]), np.array([1.0]), np.array([0.0]))
    base_ok = abs(witness.xi - 2.0) <= 1e-12 and abs(witness.cycle_sum - 2.0) <= 1e-12

    rng = np.random.default_rng(5000)
    worst_gap = 0.0
    positive_ok = True
    count = 0
    while count < 100:
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        C = rng.standard_normal((n2, n1))
        a1 = rng.standard_normal(n1)
        if np.linalg.norm(C @ a1) <= 1e-9:
            continue
        b1 = rng.standard_normal(n2)
        w = dl.skew_three_cycle(C, a1, b1)
        worst_gap = max(worst_gap, abs(w.xi - w.cycle_sum))
        positive_ok = positive_ok and w.xi > 0.0
        count += 1
    ok = base_ok and positive_ok and worst_gap <= 1e-10
    _report(
        5,
        "three-point skew witness has the closed-form sum",
        ok,
        f"unit case xi = {witness.xi}, max formula gap {worst_gap:.1e} over 100 draws",
    )


def test_criterion_6_cycle_search_dichotomy():
    rng = np.random.default_rng(6000)
    clean_specs = [
        ("l1", dl.L1(1.0), 3),
        ("box", dl.Box([-1.0] * 6, [1.0] * 6), 6),
        ("quadratic", dl.Quadratic(spd_matrix(rng, 4), rng.standard_normal(4)), 4),
        ("affine", dl.AffineConstraint(rng.standard_normal((2, 5)), rng.standard_normal(2)), 5),
        ("spd_linear", dl.LinearRelation(spd_matrix(rng, 6)), 6),
    ]
    clean_ok = True
    for name, op, d in clean_specs:
        dim = None if op.dim is not None else d
        found = dl.sample_cycles(op, n_max=6, trials=10_000, seed=0, dim=dim)
        clean_ok = clean_ok and found is None

    witness = dl.sample_cycles(
        dl.LinearRelation(rotation()), n_max=6, trials=1000, seed=7
    )
    skew_ok = witness is not None and witness.cycle_sum > 1e-8
    ok = clean_ok and skew_ok
    _report(
        6,
        "cycle search clean on subdifferentials, catches pure skew",
        ok,
        "no violation in 10^4 tuples per clean spec; "
        + (
            f"skew violation {witness.cycle_sum:.3g} at length {witness.n}"
            if witness is not None
            else "no skew violation found"
        ),
    )


def test_criterion_7_moreau_and_complement_identities(catalog):
    worst_moreau = 0.0
    rng = np.random.default_rng(7000)
    for name, op, d in operator_zoo():
        for tau in (0.1, 1.0, 10.0):
            for x in 2.0 * rng.standard_normal((20, d)):
                worst_moreau = max(worst_moreau, dl.moreau_residual(op, tau, x))

    worst_agree = 0.0
    compared = 0
    for entry in catalog:
        if not entry.linear:
            continue
        sys = dl.BlockSystem(entry.problem.A, entry.problem.B, entry.problem.tau, entry.dim)
        V = 2.0 * rng.standard_normal((100, entry.dim))
        gap = np.max(
            np.abs(
                reduced_resolvent_fukushima(sys, V)
                - dl.reduced_resolvent_via_drs(sys, V)
            )
        )
        worst_agree = max(worst_agree, float(gap))
        compared += 1
    ok = worst_moreau <= 1e-10 and worst_agree <= 1e-10 and compared == 6
    _report(
        7,
        "complement identities hold to 1e-10",
        ok,
        f"max resolvent-sum residual {worst_moreau:.1e}, "
        f"max complement-form gap {worst_agree:.1e} on {compared} linear systems",
    )


def test_criterion_8_relaxed_averagedness(catalog):
    rng = np.random.default_rng(8000)
    worst = -np.inf
    for entry in catalog:
        for gamma in (0.5, 1.0, 1.5, 1.9):
            problem = dl.DrsProblem(
                A=entry.problem.A,
                B=entry.problem.B,
                tau=entry.problem.tau,
                gamma=gamma,
            )
            X = 2.0 * rng.standard_normal((1000, entry.dim))
            Y = 2.0 * rng.standard_normal((1000, entry.dim))
            TX = dl.relaxed_step(problem, X)
            TY = dl.relaxed_step(problem, Y)
            D = TX - TY
            R = (X - TX) - (Y - TY)
            lhs = np.einsum("ij,ij->i", D, D) + (2.0 / gamma - 1.0) * np.einsum(
                "ij,ij->i", R, R
            )
            rhs = np.einsum("ij,ij->i", X - Y, X - Y)
            worst = max(worst, float(np.max(lhs - rhs)))
    ok = worst <= 1e-10
    _report(
        8,
        "relaxed map is gamma/2-averaged",
        ok,
        f"max inequality excess {worst:.3e} over 1000 pairs x 4 gammas per problem",
    )


def test_criterion_9_end_to_end_solve(catalog_map):
    entry = catalog_map["l1_quadratic_1d"]
    t0 = time.perf_counter()
    traj = dl.run(entry.problem, [5.0])
    elapsed = time.perf_counter() - t0
    certified = dl.solution_certificate(
        entry.problem, traj.final_z, 100.0 * entry.problem.stop_tol
    )
    ok = (
        traj.status == dl.CONVERGED
        and abs(float(traj.final_x[0])) <= 1e-8
        and certified
        and elapsed < 1.0
    )
    _report(
        9,
        "nonsmooth scalar problem solves end to end",
        ok,
        f"{len(traj)} iterations, |x - 0| = {abs(float(traj.final_x[0])):.2e}, "
        f"certificate {'pass' if certified else 'fail'}, {elapsed * 1000:.0f}ms",
    )
