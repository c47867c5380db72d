"""Douglas-Rachford splitting: step, relaxed step, driver, certificate.

The governing update for a pair (A, B) with step size tau is

    x+ = J_B(tau, z)
    w+ = J_A(tau, 2*x+ - z)
    z+ = z - x+ + w+

and the relaxed variant blends z+ with z:  (1-gamma)*z + gamma*z+.
For gamma in (0, 2) the relaxed map is gamma/2-averaged; gamma = 2 is
accepted but only nonexpansive, so the driver warns about it.

Kernels.  ``splitting_pass`` checks its inputs, then calls the unchecked
kernel ``_splitting_rows``; ``run`` checks z0 once and iterates that kernel
on the 1-D point.  The reflection ``X + X - Z`` has the bits of
``2.0*X - Z``, and the residual ``operators._norm`` those of ``np.linalg.norm``.

Records.  ``run`` packs its steps into bytes every ``_BLOCK_STEPS`` steps,
keeping every bit, and at the end copies each field's blocks into one owned,
frozen array (``_joined``).  A record's ``final_z`` and ``final_x`` own their
data, so keeping one does not keep the record's (K, n) arrays alive.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionMismatch, LengthMismatch
from .operators import (
    Document,
    MonotoneOperator,
    _check_operator,
    _check_tau,
    _count,
    _norm,
    _points,
    _scalar,
    graph_member,
    resolve,
)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
NONFINITE = "nonfinite"

DEFAULT_STOP_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000

# Steps that run keeps as per-step objects before packing them: fewer keep
# fewer objects alive, more add fewer block headers (README, Cost model).
_BLOCK_STEPS = 32


def _splitting_rows(A, B, tau, Z):
    """The splitting update on a point or a row stack Z, without input checks."""
    X = B._resolve(tau, Z)
    W = A._resolve(tau, X + X - Z)
    return Z - X + W, X, W


def splitting_pass(A, B, tau, z):
    """One raw splitting update; returns (z_next, x, w).

    Accepts a single point or a row stack, like ``resolve``.
    """
    tau, Z = _check_tau(tau), _points(z, "z", dim=B.dim)
    return _splitting_rows(A, B, tau, _points(Z, "z", dim=A.dim))


def _start_vector(problem, z0):
    """z0 as a float vector of the problem's dimension; words the CLI's z0 message."""
    z = _points(z0, "z0", ndim=1)
    if problem.dim is not None and z.shape[0] != problem.dim:
        message = f"z0 has dimension {z.shape[0]} but the problem expects {problem.dim}"
        raise DimensionMismatch(message)
    return z


def _relaxed(gamma, z, z_tilde):
    """The relaxed blend (1-gamma)*z + gamma*z_tilde; z_tilde itself at gamma = 1."""
    if gamma == 1.0:
        return z_tilde
    return (1.0 - gamma) * z + gamma * z_tilde


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
        object.__setattr__(self, "max_iters", _count(self.max_iters, "max_iters"))
        object.__setattr__(self, "stop_tol", _scalar(self.stop_tol, "stop_tol"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", least=0))
        object.__setattr__(self, "tau", _check_tau(self.tau))
        if not 0.0 < self.gamma <= 2.0:
            raise ValueError(f"gamma must lie in (0, 2], got {self.gamma}")
        if self.gamma == 2.0:
            warnings.warn(
                "gamma = 2 is only nonexpansive, not averaged; convergence is not guaranteed",
                stacklevel=2,
            )
        if not self.stop_tol > 0.0:
            raise ValueError(f"stop_tol must be positive, got {self.stop_tol}")
        _check_operator(self.A, "A")
        _check_operator(self.B, "B")
        da, db = self.A.dim, self.B.dim
        if da is not None and db is not None and da != db:
            raise DimensionMismatch(f"A acts on dimension {da} but B on {db}")
        # the intrinsic dimension, or None when both operators are dimension-free
        object.__setattr__(self, "dim", da if da is not None else db)


def _last_row(arr):
    """The last row as a read-only array of its own, which does not keep arr alive."""
    row = arr[-1].copy()
    row.setflags(write=False)
    return row


class TrajectoryRecord(Document):
    """Dense record of a splitting run.

    Row k (1-based, contiguous) stores the new iterate z^k together with
    the intermediates x^k = J_B(tau, z^{k-1}), w^k = J_A(tau, 2x^k - z^{k-1})
    and the step residual ||z^k - z^{k-1}||; ``k``, the row numbers 1..K, is
    derived and written to the document.
    """

    z: np.ndarray
    x: np.ndarray
    w: np.ndarray
    residual: np.ndarray
    status: str

    _written = ("k",)

    def __post_init__(self):
        # run's frozen arrays own their data and are kept as they are, a caller's writeable
        # array or view is copied; the point gate refuses an empty residual, so a record has rows
        for name, ndim in (("z", 2), ("x", 2), ("w", 2), ("residual", 1)):
            given = getattr(self, name)
            arr = _points(given, name)
            if arr.ndim != ndim:
                raise DimensionMismatch(f"{name} must be {ndim}-D, got shape {arr.shape}")
            if isinstance(given, np.ndarray) and (arr.flags.writeable or arr.base is not None):
                arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        K = len(self.residual)
        if not K == len(self.z) == len(self.x) == len(self.w):
            rows = {name: len(getattr(self, name)) for name in ("z", "x", "w", "residual")}
            raise LengthMismatch(f"record fields differ in row count: {rows}")
        if not self.z.shape[1] == self.x.shape[1] == self.w.shape[1]:
            shapes = f"{self.z.shape}, {self.x.shape} and {self.w.shape}"
            raise DimensionMismatch(f"z, x and w must have one width, got shapes {shapes}")
        if self.status not in (CONVERGED, MAX_ITERS, NONFINITE):
            raise ValueError(f"unknown status {self.status!r}")
        k = np.arange(1, K + 1)
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    def __len__(self):
        return int(self.k.shape[0])

    @property
    def final_z(self):
        return _last_row(self.z)

    @property
    def final_x(self):
        return _last_row(self.x)

    def to_csv_string(self):
        """The rows as CSV with header k,z*,x*,w*,residual at full precision."""
        n = range(self.z.shape[1])
        cols = ["k", *(f"{c}{i}" for c in "zxw" for i in n), "residual"]
        table = np.column_stack((self.z, self.x, self.w, self.residual)).tolist()
        rows = (",".join([str(k), *(format(v, ".17g") for v in vals)])
                for k, vals in zip(self.k.tolist(), table))
        return "\n".join([",".join(cols), *rows]) + "\n"


def drs_step(problem, z):
    """One plain splitting step for the problem's (A, B, tau)."""
    z_next, _, _ = splitting_pass(problem.A, problem.B, problem.tau, z)
    return z_next


def relaxed_step(problem, z):
    """One relaxed step (1-gamma)*z + gamma*drs_step(z)."""
    z = _points(z, "z")
    return _relaxed(problem.gamma, z, drs_step(problem, z))


def _joined(parts, shape):
    """The blocks' float64 bytes, in order, copied into one owned, frozen
    array of the given shape; each block is dropped once it is copied."""
    out = np.empty(shape)
    start = 0
    parts.reverse()
    with memoryview(out) as view, view.cast("B") as raw:
        while parts:
            block = parts.pop()
            raw[start:start + len(block)] = block
            start += len(block)
    out.setflags(write=False)  # the record's own, so it keeps it uncopied
    return out


def run(problem, z0):
    """Iterate the relaxed step from z0 until the residual test or max_iters.

    Stops when ||z^{k+1} - z^k|| <= stop_tol (status "converged"), at the
    first step whose residual is not finite even rescaled (status "nonfinite",
    with that step as the last row), or after max_iters steps ("max_iters").
    The residual is not monotone in general and is recorded as observed.
    """
    z = _start_vector(problem, z0)
    A, B, tau, gamma, stop_tol = problem.A, problem.B, problem.tau, problem.gamma, problem.stop_tol
    zs, xs, ws, rs = [], [], [], []
    blocks = {"z": [], "x": [], "w": [], "residual": []}
    steps = 0
    status = MAX_ITERS
    for start in range(0, problem.max_iters, _BLOCK_STEPS):
        for _ in range(min(_BLOCK_STEPS, problem.max_iters - start)):
            z_tilde, x, w = _splitting_rows(A, B, tau, z)
            z_next = _relaxed(gamma, z, z_tilde)
            d = z_next - z
            res = _norm(d)
            zs.append(z_next)
            xs.append(x)
            ws.append(w)
            rs.append(res)
            z = z_next
            if res <= stop_tol:
                status = CONVERGED
                break
            if not math.isfinite(res):
                scale = float(np.abs(d).max())  # finite only where z_next, x and w are
                res = rs[-1] = scale * _norm(d / scale) if math.isfinite(scale) else res
                if not math.isfinite(res):
                    status = NONFINITE
                    break
        # each field's rows become one bytes object, a memcpy of each row that
        # keeps every bit: the kernels return new C-contiguous float64 arrays
        steps += len(rs)
        for name, rows in (("z", zs), ("x", xs), ("w", ws)):
            blocks[name].append(b"".join(rows))
            rows.clear()
        blocks["residual"].append(np.array(rs, dtype=float).tobytes())
        rs.clear()
        if status != MAX_ITERS:
            break
    # one array per field, so that keeping one field keeps no other alive;
    # x and w have the shape of z, the kernels' contract
    shape = (steps, z.shape[0])
    fields = [_joined(blocks[name], shape) for name in ("z", "x", "w")]
    return TrajectoryRecord(*fields, _joined(blocks["residual"], steps), status)


def solution_certificate(problem, z, tol):
    """Check that x = J_B(tau, z) solves 0 in A(x) + B(x).

    With u = (z - x) / tau, verifies u in B(x) and -u in A(x) through
    graph membership at the given tolerance.
    """
    z = _points(z, "z", ndim=1)
    x = resolve(problem.B, problem.tau, z)
    u = (z - x) / problem.tau
    return graph_member(problem.B, x, u, tol) and graph_member(problem.A, x, -u, tol)
