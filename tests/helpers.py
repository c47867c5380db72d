"""Shared test fixtures: deterministic operators, sampling utilities and the
reference loop of ``run``."""

import math

import numpy as np

import drslab as dl


def rotation():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def spd_matrix(rng, n, floor=0.3):
    G = rng.standard_normal((n, n))
    return G @ G.T / n + floor * np.eye(n)


def monotone_matrix(rng, n, floor=0.2):
    H = rng.standard_normal((n, n))
    return spd_matrix(rng, n, floor) + 0.5 * (H - H.T)


def operator_zoo():
    """One deterministic instance of every operator variant.

    Returns a list of (name, op, dim) with dim usable for sampling even
    when the operator itself is dimension-free.
    """
    rng = np.random.default_rng(321)
    E = rng.standard_normal((2, 4))
    zoo = [
        ("zero", dl.Zero(), 3),
        ("scaled_identity_0", dl.ScaledIdentity(0.0), 2),
        ("scaled_identity", dl.ScaledIdentity(2.5), 2),
        ("linear_skew", dl.LinearRelation(rotation()), 2),
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
    return zoo


def sample_points(rng, count, dim, scale=2.0):
    return scale * rng.standard_normal((count, dim))


def row_reference_run(problem, z0):
    """``run`` written as a loop of the public ``splitting_pass`` on (1, n)
    rows, with the relaxed blend and ``np.linalg.norm`` for the residual.

    Returns (k, z, x, w, residual, status), one array per record field.
    """
    z = np.asarray(z0, dtype=float)[None, :]
    zs, xs, ws, rs = [], [], [], []
    status = dl.MAX_ITERS
    for _ in range(problem.max_iters):
        z_tilde, x, w = dl.splitting_pass(problem.A, problem.B, problem.tau, z)
        if problem.gamma == 1.0:
            z_next = z_tilde
        else:
            z_next = (1.0 - problem.gamma) * z + problem.gamma * z_tilde
        res = float(np.linalg.norm(z_next - z))
        zs.append(z_next)
        xs.append(x)
        ws.append(w)
        rs.append(res)
        z = z_next
        if res <= problem.stop_tol:
            status = dl.CONVERGED
            break
        if not math.isfinite(res):
            status = dl.NONFINITE
            break
    k = np.arange(1, len(rs) + 1)
    return k, np.concatenate(zs), np.concatenate(xs), np.concatenate(ws), np.array(rs), status
