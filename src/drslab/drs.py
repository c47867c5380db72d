"""Douglas-Rachford splitting: step, relaxed step, driver, certificate.

The governing update for a pair (A, B) with step size tau is

    x+ = J_B(tau, z)
    w+ = J_A(tau, 2*x+ - z)
    z+ = z - x+ + w+

and the relaxed variant blends z+ with z:  (1-gamma)*z + gamma*z+.
For gamma in (0, 2) the relaxed map is gamma/2-averaged; gamma = 2 is
accepted but only nonexpansive, so the driver warns about it.

Cost model.  ``splitting_pass`` checks its inputs like ``resolve``, then
calls the unchecked kernel ``_splitting_rows`` on the point or row stack.
``run`` checks z0 once and iterates that kernel on the 1-D point: two
resolvent kernel calls (``op._resolve``) plus a few n-vector operations per
step (the reflection, the update, the relaxed blend and the residual).  At
small n each of these costs its numpy calls, so the reflection is
``X + X - Z`` (doubling is exact: the bits of ``2.0*X - Z``, without turning
2.0 into an array) and the residual is ``operators._norm`` (the bits of
``np.linalg.norm``).
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .operators import (
    Document,
    MonotoneOperator,
    _check_tau,
    _checked_points,
    _integer,
    _norm,
    _scalar,
    graph_member,
    resolve,
)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
NONFINITE = "nonfinite"

DEFAULT_STOP_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000


def _splitting_rows(A, B, tau, Z):
    """The splitting update on a point or a row stack Z, without input checks."""
    X = B._resolve(tau, Z)
    W = A._resolve(tau, X + X - Z)
    return Z - X + W, X, W


def splitting_pass(A, B, tau, z):
    """One raw splitting update; returns (z_next, x, w).

    Accepts a single point or a row stack, like ``resolve``.
    """
    tau, Z = _checked_points(tau, z, B, A)
    return _splitting_rows(A, B, tau, Z)


def _start_vector(problem, z0):
    """z0 as a float vector of the problem's dimension."""
    z = np.atleast_1d(np.asarray(z0, dtype=float))
    if z.ndim != 1:
        raise DimensionMismatch(f"z0 must be a vector, got shape {z.shape}")
    if problem.dim is not None and z.shape[0] != problem.dim:
        raise DimensionMismatch(
            f"z0 has dimension {z.shape[0]} but the problem expects {problem.dim}"
        )
    return z


def _relaxed(gamma, z, z_tilde):
    """The relaxed blend (1-gamma)*z + gamma*z_tilde; z_tilde itself at gamma = 1."""
    if gamma == 1.0:
        return z_tilde
    return (1.0 - gamma) * z + gamma * z_tilde


@dataclass(frozen=True, eq=False)
class DrsProblem(Document):
    """Immutable problem description consumed by the engine."""

    A: MonotoneOperator
    B: MonotoneOperator
    tau: float = 1.0
    gamma: float = 1.0
    max_iters: int = DEFAULT_MAX_ITERS
    stop_tol: float = DEFAULT_STOP_TOL
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _scalar(self.gamma, "gamma"))
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        object.__setattr__(self, "stop_tol", _scalar(self.stop_tol, "stop_tol"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "tau", _check_tau(self.tau))
        if not 0.0 < self.gamma <= 2.0:
            raise ValueError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.gamma == 2.0:
            warnings.warn(
                "gamma = 2 is only nonexpansive, not averaged; convergence is not guaranteed",
                stacklevel=2,
            )
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.stop_tol > 0.0:
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        da, db = self.A.dim, self.B.dim
        if da is not None and db is not None and da != db:
            raise DimensionMismatch(f"A acts on dimension {da} but B on {db}")

    @property
    def dim(self):
        """Intrinsic dimension, or None when both operators are dimension-free."""
        return self.A.dim if self.A.dim is not None else self.B.dim


@dataclass(frozen=True, eq=False)
class TrajectoryRecord(Document):
    """Dense record of a splitting run.

    Row k (1-based, contiguous) stores the new iterate z^k together with
    the intermediates x^k = J_B(tau, z^{k-1}), w^k = J_A(tau, 2x^k - z^{k-1})
    and the step residual ||z^k - z^{k-1}||.
    """

    k: np.ndarray
    z: np.ndarray
    x: np.ndarray
    w: np.ndarray
    residual: np.ndarray
    status: str

    def __post_init__(self):
        for name in ("k", "z", "x", "w", "residual"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return int(self.k.shape[0])

    @property
    def final_z(self):
        return self.z[-1]

    @property
    def final_x(self):
        return self.x[-1]

    def to_csv(self, target):
        """Write rows as CSV with header k,z*,x*,w*,residual at full precision."""
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        n = self.z.shape[1]
        cols = (
            ["k"]
            + [f"z{i}" for i in range(n)]
            + [f"x{i}" for i in range(n)]
            + [f"w{i}" for i in range(n)]
            + ["residual"]
        )
        target.write(",".join(cols) + "\n")
        for i in range(len(self)):
            vals = np.concatenate([self.z[i], self.x[i], self.w[i], [self.residual[i]]])
            row = [str(int(self.k[i]))] + [format(v, ".17g") for v in vals]
            target.write(",".join(row) + "\n")

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def drs_step(problem, z):
    """One plain splitting step for the problem's (A, B, tau)."""
    z_next, _, _ = splitting_pass(problem.A, problem.B, problem.tau, z)
    return z_next


def relaxed_step(problem, z):
    """One relaxed step (1-gamma)*z + gamma*drs_step(z)."""
    z = np.asarray(z, dtype=float)
    return _relaxed(problem.gamma, z, drs_step(problem, z))


def run(problem, z0):
    """Iterate the relaxed step from z0 until the residual test or max_iters.

    Stops when ||z^{k+1} - z^k|| <= stop_tol (status "converged"), at the
    first step whose residual is not finite (status "nonfinite", with that
    step as the last row), or after max_iters steps (status "max_iters").
    The residual is not monotone in general and is recorded as observed.
    """
    z = _start_vector(problem, z0)
    A, B, tau, gamma = problem.A, problem.B, problem.tau, problem.gamma
    zs, xs, ws, rs = [], [], [], []
    status = MAX_ITERS
    for _ in range(problem.max_iters):
        z_tilde, x, w = _splitting_rows(A, B, tau, z)
        z_next = _relaxed(gamma, z, z_tilde)
        d = z_next - z
        res = _norm(d)
        zs.append(z_next)
        xs.append(x)
        ws.append(w)
        rs.append(res)
        z = z_next
        if res <= problem.stop_tol:
            status = CONVERGED
            break
        if not math.isfinite(res):
            status = NONFINITE
            break
    # one array per field, so that keeping one field keeps no other alive;
    # each list is emptied once its array is built, not after all three
    fields = {}
    for name, rows in (("z", zs), ("x", xs), ("w", ws)):
        fields[name] = np.array(rows)
        rows.clear()
    return TrajectoryRecord(
        k=np.arange(1, len(rs) + 1),
        residual=np.array(rs, dtype=float),
        status=status,
        **fields,
    )


def solution_certificate(problem, z, tol):
    """Check that x = J_B(tau, z) solves 0 in A(x) + B(x).

    With u = (z - x) / tau, verifies u in B(x) and -u in A(x) through
    graph membership at the given tolerance.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = resolve(problem.B, problem.tau, z)
    u = (z - x) / problem.tau
    return graph_member(problem.B, x, u, tol) and graph_member(problem.A, x, -u, tol)
