"""Shared test fixtures: deterministic operators, sampling utilities, the
reference loops of ``run`` and ``sample_cycles``, and the independent
references the package's own paths are checked against: the three forms
iterated on their own, the complement form of the reduced resolvent, and the
matrix of a linear operator."""

import math

import numpy as np

import drslab as dl
from drslab.cyclic import TOL_VIOLATION, CycleWitness, _graph_points
from drslab.drs import _BLOCK_STEPS
from drslab.equivalence import LIFTED, RECURSION, REDUCED, _recursion, _trajectory
from drslab.errors import DimensionMismatch, NotLinear, SingularSystem
from drslab.operators import _linalg, _points, graph_pair
from drslab.ppa import _lifted_rows


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


def two_lines(theta):
    """The two-lines problem of Bauschke, Schaad & Wang (2018): the normal cones
    of the x-axis and of the line at angle theta through the origin."""
    return dl.DrsProblem(dl.AffineConstraint([[0.0, 1.0]], [0.0]),
                         dl.AffineConstraint([[-math.sin(theta), math.cos(theta)]], [0.0]))


#: (theta, closed-form verdict) of the two-lines grid: the splitting map is
#: symmetric, hence a proximal map, only where the lines coincide or are orthogonal
TWO_LINES_GRID = ((0.0, "Proximal"), (0.3, "NotProximal"), (0.7, "NotProximal"),
                  (math.pi / 4, "NotProximal"), (math.pi / 2 - 1e-6, "NotProximal"),
                  (math.pi / 2, "Proximal"))


def sample_points(rng, count, dim, scale=2.0):
    return scale * rng.standard_normal((count, dim))


def reference_residual(d):
    """``np.linalg.norm(d)`` as a float, rescaled by max|d| where only the
    norm of a finite d overflows: the residual ``run`` records."""
    res = float(np.linalg.norm(d))
    if not math.isfinite(res) and np.isfinite(d).all():
        scale = np.abs(d).max()
        res = float(scale * np.linalg.norm(d / scale))
    return res


def row_reference_run(problem, z0):
    """``run`` written as a loop of the public ``splitting_pass`` on (1, n)
    rows, with the relaxed blend and ``reference_residual``.

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
        res = reference_residual(z_next - z)
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


#: max_iters at and next to the first two block ends of ``run``, which packs
#: its per-step lists every ``drs._BLOCK_STEPS`` steps
BLOCK_ENDS = (_BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS, 2 * _BLOCK_STEPS + 1)


def linf_ball_overflowing_at(steps):
    """A 1-D problem whose run from 0 turns non-finite at exactly ``steps``.

    A is the normal cone of [-1, 1] (the inverse of the l1 subdifferential) and
    B the box [c, c + 1]: A + B has no zero, so z falls by c - 1 per step and
    the reflection fed to J_A grows.  At tau = 1e-306 that resolvent's x / tau
    overflows once its input passes about 180, and c places that step.
    """
    c = {32: 6.48, 64: 3.76, 128: 2.383}[steps]
    return dl.DrsProblem(dl.Inverse(dl.L1(1.0)), dl.Box([c], [c + 1.0]), tau=1e-306,
                         max_iters=1000)


def block_end_runs():
    """Runs of ``run`` that end at or next to one of its block ends, as
    (id, problem, z0, status, steps): two disjoint boxes at n = 3, which never
    converge, capped at each of BLOCK_ENDS; box_quadratic_3d converging at
    the first two block ends (its stop_tol is the reference loop's residual
    there, and its residuals fall strictly); and linf_ball_overflowing_at them."""
    boxes = (dl.Box([0.0] * 3, [1.0] * 3), dl.Box([2.0] * 3, [3.0] * 3))
    runs = [(f"boxes-{k}", dl.DrsProblem(*boxes, max_iters=k), np.zeros(3), dl.MAX_ITERS, k)
            for k in BLOCK_ENDS]
    p = next(e.problem for e in dl.standard_catalog() if e.name == "box_quadratic_3d")
    z0 = 3.0 * np.random.default_rng(7).standard_normal(3)
    residual = row_reference_run(dl.DrsProblem(p.A, p.B, tau=p.tau, stop_tol=1e-300, max_iters=200),
                                 z0)[4]
    ends = (_BLOCK_STEPS, 2 * _BLOCK_STEPS)
    for k in ends:
        problem = dl.DrsProblem(p.A, p.B, tau=p.tau, stop_tol=residual[k - 1], max_iters=1000)
        runs.append((f"converged-{k}", problem, z0, dl.CONVERGED, k))
    for k in ends:
        runs.append((f"nonfinite-{k}", linf_ball_overflowing_at(k), np.zeros(1), dl.NONFINITE, k))
    return runs


def one_shot_sample_cycles(op, n_max, trials, seed, dim=None):
    """``sample_cycles`` as it was before it drew in blocks: every trial of
    a cycle length drawn, mapped and scored at once."""
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if dim is not None and op.dim is not None and dim != op.dim:
        raise DimensionMismatch(f"dim={dim} conflicts with operator dimension {op.dim}")
    d = dim if dim is not None else (op.dim if op.dim is not None else 1)
    rng = np.random.default_rng(seed)
    for n in range(2, n_max + 1):
        W = rng.standard_normal((trials * n, d))
        P, U = _graph_points(op, W)
        P = P.reshape(trials, n, d)
        U = U.reshape(trials, n, d)
        sums = np.einsum("tnd,tnd->t", np.roll(P, -1, axis=1) - P, U)
        hits = np.nonzero(sums > TOL_VIOLATION)[0]
        if hits.size:
            t = int(hits[0])
            return CycleWitness(
                tuple(P[t]),
                tuple(U[t]),
                float(sums[t]),
            )
    return None


def formulation_trajectories(problem, z0, iters):
    """z-trajectories (iters+1 rows each) of the three formulations, each iterated
    on its own from z0.

    Returns (trajectories, reduced_path) where trajectories maps the
    formulation name to an array of shape (iters+1, n) starting at z0.
    Only the unrelaxed map is compared, here and in ``compare_formulations``:
    a problem with gamma != 1 raises ValueError until the relaxed legs exist.
    """
    zs, system, reduced_path, kernel = _recursion(problem, z0, iters)
    z0, iters, tau, rt = zs[0], len(zs) - 1, system.tau, system.root_tau
    # lifted 4-variable form, z component, on the ppa kernel and the system's L
    zl = _trajectory(lambda Z: _lifted_rows(system.L, tau, Z)[2], z0, iters)
    # reduced form, iterated in v coordinates and scaled back to z
    zr = rt * _trajectory(kernel, z0 / rt, iters)
    zr[0] = z0
    return {RECURSION: zs, LIFTED: zl, REDUCED: zr}, reduced_path


def reduced_resolvent_fukushima(sys, v):
    """Evaluate the reduced resolvent in complement form, v - K (L + K^T K)^{-1} K^T v,
    equal to the direct path by the Woodbury identity, from the graph pair of L;
    NotLinear for an operator with none, SingularSystem for a singular system.

    With K = sqrt(tau) [I I] and the graph pair (P, Q, p, q) of L, the rows x
    with K^T v in (L + K^T K) x are x = P xi + p,
    (Q + K^T K P) xi = K^T v - q - K^T K p: no block is inverted, so a
    singular one is no obstacle.
    """
    V = _points(v, "v", dim=sys.n)
    K = sys.root_tau * np.hstack([np.eye(sys.n)] * 2)
    P, Q, p, q = graph_pair(sys.L, 2 * sys.n)
    Y = V @ K - q
    KtK = K.T @ K
    Q, Y = Q + KtK @ P, Y - KtK @ p
    xi = _linalg(np.linalg.solve, SingularSystem, "L + K^T K is singular", Q, Y.T).T
    X = xi @ P.T + p
    return V - X @ K.T


def linear_matrix(op, n):
    """Dense matrix M with op(x) = M x, Q P^{-1} of the graph pair (P, Q, p, q),
    else NotLinear: for an offset, and for a singular P (a multivalued relation)."""
    P, Q, p, q = graph_pair(op, n)
    if np.any(p) or np.any(q):
        raise NotLinear(f"{type(op).__name__} with a nonzero offset is affine, not linear")
    return Q @ _linalg(np.linalg.inv, NotLinear, "inverse of a singular matrix is a relation, not a map", P)
