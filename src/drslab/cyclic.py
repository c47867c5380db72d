"""Cyclic monotonicity checks and the resolvent-vs-prox classifier.

A monotone operator is the subdifferential of a convex function exactly
when its graph is cyclically monotone: every finite tuple of graph
points (x_i, u_i) satisfies

    sum_i <x_{i+1} - x_i, u_i>  <=  0      (indices wrap around).

For a linear operator this reduces to symmetry of the matrix, which is
what :func:`classify_resolvent` measures on the recovered generator
T^{-1} - I of a linear resolvent T.  :func:`skew_three_cycle` builds an
explicit three-point violation for a pure skew coupling, and
:func:`sample_cycles` searches graphs at random, block by block, until
the first witness.  A found witness is a certificate; absence of one
after any number of trials proves nothing.

Memory.  The search holds three working blocks of about ``_BLOCK_ROWS``
graph points: the draw W, which the values u overwrite, the points p, and
the cyclic differences, formed in place in a copy of p rotated by one
position.  Nothing else of block size stays alive (see ``_graph_points``).
"""

from __future__ import annotations

import numpy as np

from .drs import relaxed_step
from .errors import (
    DimensionMismatch,
    DrslabError,
    LengthMismatch,
    NotLinear,
    SingularMatrix,
    UnsupportedSampling,
    ZeroCoupling,
)
from .operators import (
    Block2x2,
    Document,
    _check_monotone,
    _check_square,
    _count,
    _dimension,
    _finite_array,
    _linalg,
    _numbers,
    _points,
    _scalar,
    graph_pair,
    resolve,
)

#: A cycle sum above this is treated as a genuine violation.
TOL_VIOLATION = 1e-8

#: Agreement required between a closed-form xi and the recomputed cycle sum.
TOL_XI = 1e-10

# Graph points sample_cycles draws, maps and scores at once (2048 measured fastest)
_BLOCK_ROWS = 2048

PROXIMAL = "Proximal"
NOT_PROXIMAL = "NotProximal"
INCONCLUSIVE = "Inconclusive"


class CycleWitness(Document):
    """A tuple of graph points with its cycle sum.

    The stored ``cycle_sum`` must agree with the sum recomputed from the
    points and values, so a witness read from a document certifies only
    what its points show.  ``xi`` carries the closed-form value when the
    witness comes from the skew construction; it must agree too.  All of them
    must be finite.  The document also carries ``n``, the cycle length.
    """

    points: tuple
    values: tuple
    cycle_sum: float
    xi: float | None = None

    _written = ("n",)

    def __post_init__(self):
        pts, vals = _cycle_arrays(self.points, self.values)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "cycle_sum", _scalar(self.cycle_sum, "cycle_sum"))
        if self.xi is not None:
            object.__setattr__(self, "xi", _scalar(self.xi, "xi"))
        sums = (self.cycle_sum, 0.0 if self.xi is None else self.xi)
        if not (np.isfinite((pts, vals)).all() and np.isfinite(sums).all()):
            raise ValueError("a witness's points, values, cycle_sum and xi must be finite")
        with np.errstate(all="ignore"):  # an overflow is refused below, by name
            total = _cycle_total(pts, vals)
        if not np.isfinite(total):
            raise ValueError(f"the cycle sum of the witness's points overflows to {total!r}")
        slack = TOL_XI * max(1.0, abs(total))
        if not abs(self.cycle_sum - total) <= slack:
            raise ValueError(
                f"cycle_sum {self.cycle_sum!r} disagrees with the sum {total!r} of its points"
            )
        object.__setattr__(self, "n", len(pts))
        # True when the witness actually proves a violation
        object.__setattr__(self, "certifies", self.cycle_sum > TOL_VIOLATION)
        if self.xi is not None and abs(self.xi - self.cycle_sum) > TOL_XI * max(1.0, abs(self.xi)):
            raise ValueError(f"xi {self.xi!r} disagrees with cycle sum {self.cycle_sum!r}")

    def to_dict(self):  # an absent xi is left out of the document
        return {key: v for key, v in super().to_dict().items() if key != "xi" or v is not None}


class ResolventClassification(Document):
    """Classifier output: the recovered generator, and the symmetry defect and verdict
    that ``classify_resolvent``'s rule gives for it, derived and written to the document."""

    recovered_M: np.ndarray

    _written = ("symmetry_defect", "verdict")

    def __post_init__(self):
        M = _finite_array(self.recovered_M, 2, "recovered_M")
        _check_square(M, "recovered_M")
        object.__setattr__(self, "recovered_M", M)
        defect, verdict = _symmetry_verdict(M)
        object.__setattr__(self, "symmetry_defect", defect)
        object.__setattr__(self, "verdict", verdict)


def _symmetry_verdict(M):
    """(defect, verdict) of a generator M: the symmetry defect
    ||M - M^T|| / max(1, ||M||) against the thresholds 1e-8 and 1e-6.  Where
    a norm could overflow, M is first scaled by an exact power of two, as in
    ``_check_monotone``; ||M|| > 1 there, so the ratio keeps its bits."""
    unit = 1.0
    if not float(np.abs(M).max(initial=0.0)) * len(M) < 2.0**500:
        unit = 2.0 ** (600 + len(M).bit_length())
        M = M / unit
    defect = float(np.linalg.norm(M - M.T) / max(1.0 / unit, float(np.linalg.norm(M))))
    return defect, PROXIMAL if defect <= 1e-8 else NOT_PROXIMAL if defect > 1e-6 else INCONCLUSIVE


def _cycle_arrays(points, values):
    """A cycle tuple as two tuples of read-only float copies, checked: as many
    values as points, at least two points, and one vector shape for all of them."""
    pts = tuple(np.atleast_1d(_numbers(p, "points")) for p in points)
    vals = tuple(np.atleast_1d(_numbers(v, "values")) for v in values)
    if len(pts) != len(vals):
        raise LengthMismatch(f"{len(pts)} points but {len(vals)} values")
    if len(pts) < 2:
        raise LengthMismatch("a cycle needs at least two points")
    if pts[0].ndim != 1:
        raise DimensionMismatch(f"points and values must be vectors, got shape {pts[0].shape}")
    for arr in pts + vals:
        if arr.shape != pts[0].shape:
            raise DimensionMismatch("all points and values must share one dimension")
        arr.setflags(write=False)
    return pts, vals


def cycle_sum(points, values):
    """The wraparound sum  sum_i <x_{i+1} - x_i, u_i>."""
    return _cycle_total(*_cycle_arrays(points, values))


def _cycle_total(pts, vals):
    """``cycle_sum`` of a tuple ``_cycle_arrays`` has already checked."""
    total, m = 0.0, len(pts)
    for i in range(m):
        total += float((pts[(i + 1) % m] - pts[i]) @ vals[i])
    return total


@np.errstate(all="ignore")  # a non-finite input or an overflow is the witness's to refuse
def skew_three_cycle(C, a1, b1):
    """Deterministic three-point cycle witness for the pure skew coupling.

    For S(a, b) = (-C^T b, C a) the points

        x1 = (a1, b1)
        x2 = (-C^T b1, C a1)
        x3 = (-C^T C a1, -C C^T b1)

    with values u_i = S(x_i) produce the cycle sum

        xi = ||C a1||^2 + ||C^T C a1||^2 + ||C^T b1||^2 + ||C C^T b1||^2,

    strictly positive whenever C a1 != 0.  Raises ZeroCoupling when C is
    the zero matrix.  A witness with xi = 0 (zero inputs) is returned
    but does not certify anything.
    """
    C = _points(C, "C")
    if C.ndim != 2:
        raise DimensionMismatch(f"C must be a matrix, got shape {C.shape}")
    if not np.any(C):
        raise ZeroCoupling("coupling matrix is identically zero")
    n2, n1 = C.shape
    a1 = _points(a1, "a1", dim=n1, ndim=1)
    b1 = _points(b1, "b1", dim=n2, ndim=1)

    Ca1 = C @ a1
    Ctb1 = C.T @ b1
    CtCa1 = C.T @ Ca1
    CCtb1 = C @ Ctb1

    blocks = [(a1, b1), (-Ctb1, Ca1), (-CtCa1, -CCtb1)]
    points = [np.concatenate(pair) for pair in blocks]
    values = [np.concatenate([-C.T @ b, C @ a]) for a, b in blocks]

    xi = float(Ca1 @ Ca1 + CtCa1 @ CtCa1 + Ctb1 @ Ctb1 + CCtb1 @ CCtb1)
    return CycleWitness(tuple(points), tuple(values), _cycle_total(points, values), xi=xi)


def _update_columns(ufunc, W, cols, T):
    """W[cols] = ufunc(W[cols], T), computed on a contiguous copy of the columns."""
    U = W[cols].copy()
    ufunc(U, T, out=U)
    W[cols] = U


def _graph_points(op, W):
    """Graph points (p, u) with u in op(p), one per row of W.

    Uses the resolvent parameterization p = J(1, w), u = w - p.  Coupled
    blocks are sampled blockwise, which reaches their whole graph even
    when the coupled resolvent itself is unavailable.

    W is the caller's own fresh draw and is overwritten: U is W itself.
    That is sound only because no resolvent kernel returns its input or a
    view of it.  The points are the one other block a call returns.  A
    coupled block samples A and B on contiguous copies of their columns, each
    written back into W as soon as it returns, then couples one side at a
    time, again on a contiguous copy: no ufunc runs on a strided column view
    of W, whose operands numpy would buffer, and a call holds at most W, the
    points of both sides, and one copied column block with its coupling
    product.
    """
    if isinstance(op, Block2x2):
        n1, C = op.n1, op.C
        P1, W[:, :n1] = _graph_points(op.A, W[:, :n1].copy())
        P2, W[:, n1:] = _graph_points(op.B, W[:, n1:].copy())
        _update_columns(np.subtract, W, np.s_[:, :n1], P2 @ C)
        _update_columns(np.add, W, np.s_[:, n1:], P1 @ C.T)
        return np.concatenate((P1, P2), axis=1), W
    try:
        P = resolve(op, 1.0, W)
    except DrslabError as exc:
        raise UnsupportedSampling(f"cannot sample the graph of {type(op).__name__}") from exc
    return P, np.subtract(W, P, out=W)


def sample_cycles(op, n_max, trials, seed, dim=None):
    """Random search for a cyclic-monotonicity violation.

    Draws ``trials`` tuples of graph points for every cycle length
    n = 2..n_max and returns the first witness whose cycle sum exceeds
    ``TOL_VIOLATION``, scanning lengths in increasing order and trials
    in draw order; returns None when no tuple violates.  ``dim`` fixes
    the ambient dimension for dimension-free operators (default 1).

    Trials are drawn and scored in blocks of about ``_BLOCK_ROWS`` graph
    points until the first witness, so memory does not grow with
    ``trials``; the witness is the one a single draw of all trials gives.
    """
    n_max, trials = _count(n_max, "n_max", least=2), _count(trials, "trials")
    rng = np.random.default_rng(_count(seed, "seed", least=0))
    d = (op.dim or 1) if dim is None else _dimension(dim, op.dim, "operator dimension")
    for n in range(2, n_max + 1):
        per_block = max(1, _BLOCK_ROWS // n)
        for start in range(0, trials, per_block):
            m = min(per_block, trials - start)
            P, U = _graph_points(op, rng.standard_normal((m * n, d)))
            P = P.reshape(m, n, d)
            U = U.reshape(m, n, d)
            D = np.concatenate((P[:, 1:], P[:, :1]), axis=1)
            D -= P
            sums = np.einsum("tnd,tnd->t", D, U)
            hits = np.nonzero(sums > TOL_VIOLATION)[0]
            if hits.size:
                t = int(hits[0])
                return CycleWitness(tuple(P[t]), tuple(U[t]), float(sums[t]))
            del P, U, D  # so that one block, not two, is alive while the next is drawn
    return None


def drs_map_matrix(problem, dim=None):
    """Dense matrix of the relaxed splitting map z -> relaxed_step(problem, z).

    That is (1-gamma)*I + gamma*T for the plain splitting map T.  Columns are
    the images of the basis vectors.  NotLinear unless both operators have a
    graph pair and the map, then affine, sends 0 to 0 (to 1e-10).
    """
    n = problem.dim if dim is None else _dimension(dim, problem.dim, "problem dimension")
    if n is None:
        raise ValueError("problem dimension cannot be inferred; pass dim=")
    graph_pair(problem.A, n)
    graph_pair(problem.B, n)
    shift = float(np.linalg.norm(relaxed_step(problem, np.zeros(n))))
    if shift > 1e-10:
        raise NotLinear(f"splitting map is affine, not linear: it moves 0 by {shift:.3e}")
    return relaxed_step(problem, np.eye(n)).T


def classify_resolvent(T):
    """Classify a nonsingular linear resolvent T by its generator.

    Recovers M = T^{-1} - I, rejects it outright when the symmetric part
    is indefinite (NonMonotone), and otherwise returns

    * "Proximal"     when the symmetry defect is at most 1e-8,
    * "NotProximal"  when it exceeds 1e-6,
    * "Inconclusive" in the gap between the two thresholds.

    One-dimensional inputs are always symmetric, hence "Proximal".
    """
    T = _points(T, "T")
    _check_square(T, "T")
    T_inv = _linalg(np.linalg.inv, SingularMatrix, "resolvent matrix is singular", T)
    M = T_inv - np.eye(T.shape[0])
    _check_monotone(M, "recovered generator", tol=1e-8, floor=1.0)
    return ResolventClassification(M)
