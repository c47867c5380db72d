"""Catalog of maximally monotone operators with exact resolvents.

Every variant evaluates its resolvent

    J(tau, x) = the unique p with  x in p + tau * op(p),

either in closed form or through a single dense matrix product.  Exactness
is the point: it lets the splitting identities implemented downstream be
checked to near machine precision instead of to solver tolerance.

Cost model.  The dense variants (``LinearRelation``, ``Quadratic`` and a
coupled ``Block2x2``) invert ``I + tau*S`` once, on their first resolve at a
given tau, and keep that one n x n matrix (n^2 floats) on the instance; a
resolve at the same tau is then a single product, and a resolve at a new tau
replaces the kept matrix.  ``Inverse`` resolves its inner operator at
``1/tau``, so calls through the Moreau identity share one matrix whenever
``1/(1/tau) == tau`` in floating point.  ``AffineConstraint`` builds its
projector once, at construction.

Construction.  Every coefficient matrix and vector must be finite.  A
``LinearRelation`` or ``Quadratic`` proves its matrix monotone with one
Cholesky factorization of its (slightly shifted) symmetric part, n^3/3
flops; eigenvalues are computed only to reject a matrix or to decide one
whose symmetric part is PSD but singular (``_check_monotone``).

Operators are immutable values; the kept matrix is a cache that never
changes a result.  Every kernel (``_resolve``) and ``resolve`` accept a
single point (shape ``(n,)``) or a stack of points (shape ``(m, n)``, one
point per row) and preserve the input layout.

Documents.  The JSON document format of the package lives here, in
``Document``: the operators, and the problems, systems, states, witnesses,
records and reports of the other modules, write each constructor field by
name (arrays as nested lists) and are rebuilt from those fields.  An
operator's document adds its ``type`` tag, from which ``operator_from_dict``
picks the class.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    NonMonotone,
    NotLinear,
    SingularSystem,
    UnsupportedComposition,
)

# Relative slack for the construction-time PSD checks, measured against
# the largest absolute eigenvalue of the symmetric part.
TOL_PSD = 1e-10
TOL_SYM = 1e-10


def symmetric_part(M):
    """Return (M + M^T) / 2."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def _frozen_array(values, ndim, name):
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _finite_array(values, ndim, name):
    """_frozen_array for an operator's coefficients, which must all be finite:
    a NaN passes every comparison of the checks that follow."""
    arr = _frozen_array(values, ndim, name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got a NaN or infinite entry")
    return arr


def _check_square(M, name):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")


def _check_monotone(M, name):
    """Raise NonMonotone unless the symmetric part S of M is PSD within tolerance.

    The test is ``lambda_min(S) >= -TOL_PSD * max|lambda(S)|``.  It is first
    tried as one Cholesky factorization (n^3/3 flops) of ``S + delta*I`` with
    ``delta = TOL_PSD/2 * max_i |S_ii|``.  A success with a finite factor is
    exact for ``S + delta*I + E``, ``||E||`` of order n*eps*||S||, so
    ``lambda_min(S) >= -delta - ||E||``.  As ``max_i |S_ii| <= max|lambda|``,
    delta is at most half the tolerance, and the other half absorbs ``||E||``
    while n*eps is far below TOL_PSD/2 (4e-14 at n = 200): a success accepts
    only what the eigenvalue test accepts.  Otherwise (an indefinite S, a
    PSD-singular one such as the zero part of a skew M, or a factor that is
    not finite) the eigenvalue test decides, and it alone rejects.
    """
    S = symmetric_part(M)
    delta = 0.5 * TOL_PSD * float(np.abs(S.diagonal()).max())
    shifted = S.copy()
    np.fill_diagonal(shifted, S.diagonal() + delta)
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        factor = None
    # a NaN pivot passes LAPACK's positivity test, so the factor must be finite
    if factor is not None and np.isfinite(factor).all():
        return
    lam = np.linalg.eigvalsh(S)
    scale = float(np.max(np.abs(lam)))
    if float(lam[0]) < -TOL_PSD * scale:
        raise NonMonotone(
            f"{name} is not monotone: min symmetric eigenvalue {lam[0]:.3e}"
        )


def _linalg(fn, error, message, *args):
    """fn(*args) for an ``np.linalg`` function; a LinAlgError becomes error(message).

    The package's one policy for a singular matrix: each caller names the
    error type and text its own callers see.
    """
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise error(message) from exc


def _resolvent_matrix(op, tau, S, singular_message):
    """Compute, keep and return the read-only matrix (I + tau*S)^{-1}.

    It is kept in the one slot ``op._resolvent = (tau, R)``, which a dense
    ``_resolve`` reads itself and refills here only for a new tau.
    ``singular_message`` may hold a ``{tau}`` field.
    """
    message = singular_message.format(tau=tau)
    R = _linalg(np.linalg.inv, SingularSystem, message, np.eye(S.shape[0]) + tau * S)
    R.flags.writeable = False
    object.__setattr__(op, "_resolvent", (tau, R))
    return R


def _encode(value):
    """A field value in its JSON-ready form."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Document):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


class Document:
    """Base class of the dataclasses that round-trip through JSON documents.

    A document holds every constructor field by name.  ``from_dict`` passes
    the fields back to the constructor in field order, decoding a field
    annotated ``MonotoneOperator`` with ``operator_from_dict``; a field with
    a default may be missing, and any other key is ignored.
    """

    def to_dict(self):
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self) if f.init}

    @classmethod
    def from_dict(cls, data):
        kwargs = {}
        for f in fields(cls):
            if f.init and (f.default is MISSING or f.name in data):
                value = data[f.name]
                if f.type == "MonotoneOperator":  # annotations are postponed: text
                    value = operator_from_dict(value)
                kwargs[f.name] = value
        return cls(**kwargs)


class MonotoneOperator(Document):
    """Base class for the operator variants.

    Subclasses implement ``_resolve`` on a point or a row stack, in the
    layout of the input, and may override ``_graph_residual`` when a sharper
    membership test than the generic resolvent characterization is available.
    Each variant names its document ``tag``; its document is
    ``{"type": tag, **fields}``.
    """

    #: True when the operator is the subdifferential of a convex function.
    is_subdifferential = False

    @property
    def dim(self):
        """Ambient dimension, or None when the operator works in any."""
        return None

    def _resolve(self, tau, X):
        raise NotImplementedError

    def _graph_residual(self, y, u):
        # u in op(y)  iff  y = J(1, y + u); firm nonexpansiveness makes
        # this residual a lower bound on the graph distance.
        return float(np.linalg.norm(y - self._resolve(1.0, y + u)))

    def to_dict(self):
        return {"type": self.tag, **super().to_dict()}


@dataclass(frozen=True, eq=False)
class Zero(MonotoneOperator):
    """The zero operator x -> {0}; its resolvent is the identity."""

    tag = "zero"

    def _resolve(self, tau, X):
        return X.copy()


@dataclass(frozen=True, eq=False)
class ScaledIdentity(MonotoneOperator):
    """x -> alpha * x with alpha >= 0; resolvent is x / (1 + tau*alpha)."""

    alpha: float

    tag = "scaled_identity"

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.alpha >= 0.0:
            raise NonMonotone(f"alpha must be nonnegative, got {self.alpha}")

    def _resolve(self, tau, X):
        return X / (1.0 + tau * self.alpha)

    def _graph_residual(self, y, u):
        return float(np.linalg.norm(self.alpha * y - u))


@dataclass(frozen=True, eq=False)
class LinearRelation(MonotoneOperator):
    """x -> M x for a monotone matrix M (symmetric part PSD).

    The resolvent is p = (I + tau*M)^{-1} x.
    """

    M: np.ndarray

    tag = "linear"

    def __post_init__(self):
        M = _finite_array(self.M, 2, "M")
        _check_square(M, "M")
        _check_monotone(M, "M")
        object.__setattr__(self, "M", M)

    @property
    def dim(self):
        return self.M.shape[0]

    def _resolve(self, tau, X):
        kept_tau, R = getattr(self, "_resolvent", (None, None))
        if kept_tau != tau:
            R = _resolvent_matrix(self, tau, self.M, "I + tau*M is singular for tau={tau}")
        return X @ R.T

    def _graph_residual(self, y, u):
        return float(np.linalg.norm(self.M @ y - u))


@dataclass(frozen=True, eq=False)
class Quadratic(MonotoneOperator):
    """Gradient of the convex quadratic 0.5*x^T Q x + q^T x.

    Q must be symmetric PSD.  The resolvent is
    p = (I + tau*Q)^{-1} (x - tau*q).
    """

    Q: np.ndarray
    q: np.ndarray

    tag = "prox_quadratic"
    is_subdifferential = True

    def __post_init__(self):
        Q = _finite_array(self.Q, 2, "Q")
        _check_square(Q, "Q")
        defect = np.linalg.norm(Q - Q.T)
        if defect > TOL_SYM * max(1.0, float(np.linalg.norm(Q))):
            raise ValueError(f"Q must be symmetric, asymmetry {defect:.3e}")
        _check_monotone(Q, "Q")
        q = _finite_array(self.q, 1, "q")
        if q.shape[0] != Q.shape[0]:
            raise DimensionMismatch(
                f"q has length {q.shape[0]} but Q is {Q.shape[0]}x{Q.shape[0]}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)

    @property
    def dim(self):
        return self.Q.shape[0]

    def _resolve(self, tau, X):
        kept_tau, R = getattr(self, "_resolvent", (None, None))
        if kept_tau != tau:
            R = _resolvent_matrix(self, tau, self.Q, "I + tau*Q is singular for tau={tau}")
        return (X - tau * self.q) @ R.T

    def _graph_residual(self, y, u):
        return float(np.linalg.norm(self.Q @ y + self.q - u))


@dataclass(frozen=True, eq=False)
class L1(MonotoneOperator):
    """Subdifferential of weight * ||x||_1; resolvent is soft thresholding."""

    weight: float

    tag = "prox_l1"
    is_subdifferential = True

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        if not self.weight > 0.0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    def _resolve(self, tau, X):
        t = tau * self.weight
        return np.sign(X) * np.maximum(np.abs(X) - t, 0.0)


@dataclass(frozen=True, eq=False)
class Box(MonotoneOperator):
    """Normal cone of the box [lo, hi]; resolvent clamps componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    tag = "prox_box"
    is_subdifferential = True

    def __post_init__(self):
        lo = _frozen_array(self.lo, 1, "lo")
        hi = _frozen_array(self.hi, 1, "hi")
        if lo.shape != hi.shape:
            raise DimensionMismatch(f"lo/hi shapes differ: {lo.shape} vs {hi.shape}")
        if not np.all(lo <= hi):  # a NaN bound fails too
            raise ValueError("box requires lo <= hi componentwise, with no NaN bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def _resolve(self, tau, X):
        # the bits of np.clip (NaN and signed zeros too), without its Python wrapper
        return np.minimum(np.maximum(X, self.lo), self.hi)


@dataclass(frozen=True, eq=False)
class AffineConstraint(MonotoneOperator):
    """Normal cone of {x : E x = e}; resolvent is the exact projection.

    E must have full row rank (checked by Cholesky of E E^T), so the
    projection x - E^T (E E^T)^{-1} (E x - e) is P x + c with the projector
    P = I - E^T (E E^T)^{-1} E and offset c = E^T (E E^T)^{-1} e, both
    built once at construction.
    """

    E: np.ndarray
    e: np.ndarray

    tag = "prox_affine"
    is_subdifferential = True

    def __post_init__(self):
        E = _finite_array(self.E, 2, "E")
        e = _finite_array(self.e, 1, "e")
        if e.shape[0] != E.shape[0]:
            raise DimensionMismatch(
                f"e has length {e.shape[0]} but E has {E.shape[0]} rows"
            )
        gram = E @ E.T
        _linalg(np.linalg.cholesky, ValueError, "E must have full row rank", gram)
        projector = np.eye(E.shape[1]) - E.T @ np.linalg.solve(gram, E)
        offset = E.T @ np.linalg.solve(gram, e)
        projector.flags.writeable = False
        offset.flags.writeable = False
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "_projector", projector)
        object.__setattr__(self, "_offset", offset)

    @property
    def dim(self):
        return self.E.shape[1]

    def _resolve(self, tau, X):
        return X @ self._projector.T + self._offset


@dataclass(frozen=True, eq=False)
class Inverse(MonotoneOperator):
    """The inverse relation of another catalog operator.

    Its resolvent never materializes the inverse; it comes from the
    scaled Moreau identity

        J(tau, x) = x - tau * J_inner(1/tau, x/tau).
    """

    inner: MonotoneOperator

    tag = "inverse"

    def __post_init__(self):
        if not isinstance(self.inner, MonotoneOperator):
            raise TypeError("inner must be a catalog operator")

    @property
    def dim(self):
        return self.inner.dim

    @property
    def is_subdifferential(self):
        # inverting a subdifferential yields the subdifferential of the
        # convex conjugate, so cyclic monotonicity is preserved
        return self.inner.is_subdifferential

    def _resolve(self, tau, X):
        return X - tau * self.inner._resolve(1.0 / tau, X / tau)

    def _graph_residual(self, y, u):
        # (y, u) in gra(inner^{-1})  iff  (u, y) in gra(inner)
        return self.inner._graph_residual(u, y)


@dataclass(frozen=True, eq=False)
class Block2x2(MonotoneOperator):
    """Monotone + skew coupling of two blocks:

        S(x1, x2) = (A x1 - C^T x2,  C x1 + B x2)

    with A acting on R^{n1}, B on R^{n2} and C of shape (n2, n1).  With
    C = 0 the resolvent splits into the blockwise resolvents; otherwise it
    is the dense product (I + tau*S)^{-1} x and requires both A and B to be
    linear-representable, anything else raises UnsupportedComposition.
    """

    A: MonotoneOperator
    B: MonotoneOperator
    C: np.ndarray

    tag = "block2x2"

    def __post_init__(self):
        C = _finite_array(self.C, 2, "C")
        object.__setattr__(self, "C", C)
        n2, n1 = C.shape
        if self.A.dim is not None and self.A.dim != n1:
            raise DimensionMismatch(
                f"A acts on dimension {self.A.dim} but C has {n1} columns"
            )
        if self.B.dim is not None and self.B.dim != n2:
            raise DimensionMismatch(
                f"B acts on dimension {self.B.dim} but C has {n2} rows"
            )

    @property
    def n1(self):
        return self.C.shape[1]

    @property
    def n2(self):
        return self.C.shape[0]

    @property
    def dim(self):
        return self.n1 + self.n2

    @property
    def is_subdifferential(self):
        if np.any(self.C):
            return False
        return self.A.is_subdifferential and self.B.is_subdifferential

    def _resolve(self, tau, X):
        if not np.any(self.C):
            # zero coupling: the block system splits exactly
            n1 = self.n1
            left = self.A._resolve(tau, X[..., :n1])
            right = self.B._resolve(tau, X[..., n1:])
            return np.concatenate([left, right], axis=-1)
        kept_tau, R = getattr(self, "_resolvent", (None, None))
        if kept_tau != tau:
            try:
                S = linear_matrix(self, self.dim)
            except NotLinear as exc:
                raise UnsupportedComposition(
                    "coupled resolvent needs linear-representable blocks"
                ) from exc
            R = _resolvent_matrix(self, tau, S, "coupled block system is singular")
        return X @ R.T

    def _graph_residual(self, y, u):
        n1 = self.n1
        y1, y2 = y[:n1], y[n1:]
        u1, u2 = u[:n1], u[n1:]
        ra = self.A._graph_residual(y1, u1 + self.C.T @ y2)
        rb = self.B._graph_residual(y2, u2 - self.C @ y1)
        return max(ra, rb)


def linear_matrix(op, n):
    """Dense matrix M with op(x) = M x, or raise NotLinear.

    Dimension-free variants (Zero, ScaledIdentity) are promoted to n x n.
    """
    if op.dim is not None and op.dim != n:
        raise DimensionMismatch(f"operator acts on dimension {op.dim}, not {n}")
    if isinstance(op, Zero):
        return np.zeros((n, n))
    if isinstance(op, ScaledIdentity):
        return op.alpha * np.eye(n)
    if isinstance(op, LinearRelation):
        return np.array(op.M)
    if isinstance(op, Quadratic):
        if np.any(op.q):
            raise NotLinear("quadratic with a nonzero linear term is affine, not linear")
        return np.array(op.Q)
    if isinstance(op, Inverse):
        inner = linear_matrix(op.inner, n)
        return _linalg(
            np.linalg.inv, NotLinear, "inverse of a singular matrix is a relation, not a map", inner
        )
    if isinstance(op, Block2x2):
        MA = linear_matrix(op.A, op.n1)
        MB = linear_matrix(op.B, op.n2)
        return np.block([[MA, -op.C.T], [op.C, MB]])
    raise NotLinear(f"{type(op).__name__} is not linear-representable")


def _points(x):
    X = np.atleast_1d(np.asarray(x, dtype=float))
    if X.ndim > 2:
        raise DimensionMismatch(f"points must be 1-D or 2-D, got shape {X.shape}")
    return X


def _check_point_dim(op, n):
    if op.dim is not None and op.dim != n:
        raise DimensionMismatch(
            f"point has dimension {n} but operator expects {op.dim}"
        )


def _check_tau(tau):
    """The one step-size check: tau as a float, positive and finite."""
    tau = float(tau)
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


def _checked_points(tau, x, *ops):
    """The checks of ``resolve``: tau as a positive float, x as a point or a
    row stack, and the point dimension against each op."""
    tau = _check_tau(tau)
    X = _points(x)
    for op in ops:
        _check_point_dim(op, X.shape[-1])
    return tau, X


def resolve(op, tau, x):
    """Evaluate p = (I + tau*op)^{-1} x.

    Parameters
    ----------
    op : MonotoneOperator
    tau : positive float
    x : array_like, shape (n,) or (m, n)
        A point, or a stack of points (one per row).

    Returns
    -------
    ndarray with the same layout as ``x``.
    """
    tau, X = _checked_points(tau, x, op)
    return op._resolve(tau, X)


def graph_residual(op, y, u):
    """Numeric residual of the membership u in op(y); zero means member."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if y.ndim != 1 or y.shape != u.shape:
        raise DimensionMismatch(f"y and u must be vectors of equal length, got {y.shape} and {u.shape}")
    _check_point_dim(op, y.shape[0])
    return op._graph_residual(y, u)


def graph_member(op, y, u, tol=1e-8):
    """True when u lies in op(y) up to tol."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return graph_residual(op, y, u) <= tol


def moreau_residual(op, tau, x):
    """Defect of the identity J(tau, x) + tau * J_inv(1/tau, x/tau) = x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = resolve(op, tau, x)
    q = resolve(Inverse(op), 1.0 / float(tau), x / float(tau))
    return float(np.linalg.norm(p + float(tau) * q - x))


_DECODERS = {cls.tag: cls for cls in (
    Zero, ScaledIdentity, LinearRelation, Quadratic, L1, Box, AffineConstraint, Inverse, Block2x2
)}


def operator_from_dict(data):
    """Rebuild an operator from its tagged-dict form."""
    try:
        tag = data["type"]
    except (TypeError, KeyError):
        raise ValueError("operator document needs a 'type' tag") from None
    try:
        cls = _DECODERS[tag]
    except (KeyError, TypeError):  # a TypeError is an unhashable tag
        raise ValueError(f"unknown operator type {tag!r}") from None
    try:
        return cls.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"operator {tag!r} is missing field {exc}") from None
