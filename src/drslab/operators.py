"""Catalog of maximally monotone operators with exact resolvents.

Every variant evaluates its resolvent

    J(tau, x) = the unique p with  x in p + tau * op(p),

either in closed form or through a single dense matrix product.  Exactness
is the point: it lets the splitting identities implemented downstream be
checked to near machine precision instead of to solver tolerance.

Kept matrices.  The dense variants (``LinearRelation``, ``Quadratic`` and a
coupled ``Block2x2``) share one kernel, ``_affine_resolve``: the first
resolve at a tau inverts ``P + tau*Q`` of the graph pair (P, Q, p, q) and
keeps R = P (P + tau*Q)^{-1}, with the offsets ``p + tau*q`` and ``p`` that
are not zero, in one slot, so a resolve at the same tau is one product (and
one addition per kept offset).  ``Inverse`` resolves its inner operator at
``1/tau``, so the Moreau identity shares one matrix whenever
``1/(1/tau) == tau``.  ``AffineConstraint`` builds its projector once and
adds its offset in place: no second block for an out-of-place sum.  R is
kept transposed, as C-contiguous Rt, so a point's product ``x.dot(Rt)`` is
OpenBLAS's column-sweep gemv, in another summation order than
``x.dot(R.T)``, so with other last bits.  Rt and the projector start on a
64-byte boundary (``_aligned_empty``): numpy may put a matrix 16 bytes off
one, and a BLAS product with it is then slower.  The projector keeps its
layout, as it is also its graph pair's P.

A resolve at n <= 3 costs its numpy calls, not its flops, so every product
is the method ``X.dot`` and every 2-norm ``_norm``: ``tests/test_kernel_bits.py``
holds each to the bits of the ``@`` and ``np.linalg.norm`` forms.

Construction.  Every field passes the one number gate (``_numbers``, through
``_scalar`` for one number, ``_integer`` for an integer and ``_check_tau`` for
a step size), and every coefficient matrix and vector must be finite.  Every
count and seed passes ``_count``, which also holds its floor, and every
dimension a caller gives passes ``_dimension``, which first holds it to the
dimension the operators or a point fix: each bound is written once.  Every
array a caller hands a function of the package (a point, a row stack, a
vector or a matrix) is read by ``_points``: a float64 array as it is, with no
copy, anything else through the same gate.  ``_check_monotone``
proves the matrix of a ``LinearRelation`` or ``Quadratic``, and the generator
``classify_resolvent`` recovers, monotone with one Cholesky factorization
(n^3/3 flops) of the shifted symmetric part, which is formed without overflow.

Graph pairs.  ``graph_pair`` reads an affine operator, multivalued too, as
(P, Q, p, q) with gra op = {(P xi + p, Q xi + q)}; an ``Inverse`` swaps its
operator's pair.

Operators are immutable values; the kept matrix is a cache that never
changes a result.  Every kernel (``_resolve``) and ``resolve`` accept a
single point (shape ``(n,)``) or a stack of points (shape ``(m, n)``, one
point per row) and preserve the input layout.

Documents.  ``Document`` is the one record mechanism of the package: the
operators, and the problems, systems, states, witnesses, records and reports
of the other modules, take their fields from their annotations, are frozen
once ``__post_init__`` has checked them, and write each field by name (arrays
as nested lists) to a JSON document they are rebuilt from.  An operator's
document adds its ``type`` tag, from which ``operator_from_dict`` picks the
class.  A value derived from the fields (an operator's ``dim``, a record's
``k``) is set once by ``__post_init__``, next to the checks that read those
fields; it is not a field, so no ``repr`` shows it.  A document also carries
the derived values its class names ``_written`` (a record's ``k``, a report's
``max_deviation``), and ``from_dict`` refuses one whose copy disagrees with
what its fields give.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionMismatch, NonMonotone, NotLinear, SingularSystem

# Relative slack for the construction-time PSD checks, measured against
# the largest absolute eigenvalue of the symmetric part.
TOL_PSD = 1e-10
TOL_SYM = 1e-10


def symmetric_part(M):
    """Return M/2 + M^T/2, which cannot overflow where (M + M^T)/2 would."""
    M = _points(M, "M")
    return 0.5 * M + 0.5 * M.T


def _holds_numbers(value):
    """True for a real number, or an array or (nested) list of them only."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return True
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return all(map(_holds_numbers, value))
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _numbers(values, name):
    """The one number gate: values as a float array, else ValueError for a null,
    a boolean, a string or an object at any depth of a list, which numpy would
    read as NaN, 0.0 / 1.0 or the parsed value, or fail on with a TypeError,
    and for an integer past the float range (numpy's OverflowError)."""
    if not _holds_numbers(values):
        raise ValueError(f"{name!r} must hold numbers, got {json.dumps(values, default=repr)}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # an int past the float range, not echoed: it may be huge
        message = f"{name!r} must hold numbers in the float range, got a larger integer"
        raise ValueError(message) from None


def _frozen_array(values, ndim, name):
    arr = _numbers(values, name)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _finite_array(values, ndim, name):
    """_frozen_array for an operator's coefficients, which must all be finite:
    a NaN passes every comparison of the checks that follow."""
    arr = _frozen_array(values, ndim, name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got a NaN or infinite entry")
    return arr


def _scalar(value, name):
    """The number gate for one real number, as a float; a float costs no numpy call."""
    if isinstance(value, float):
        return float(value)
    return float(_frozen_array(value, 0, name))


def _integer(value, name):
    """The number gate for an integer: an int, else ValueError for a number
    with a fraction part, or for a non-number as in ``_numbers``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)  # exact, where a float would round a large one
    number = _scalar(value, name)
    if not number.is_integer():
        raise ValueError(f"{name!r} must be an integer, got {number!r}")
    return int(number)


def _count(value, name, least=1):
    """The gate for a count or, at ``least`` 0, a seed: ``_integer``, then ValueError below least."""
    value = _integer(value, name)
    if value < least:
        text = f"{name} must be nonnegative" if least == 0 else f"{name} must be at least {least}"
        raise ValueError(f"{text}, got {value}")
    return value


def _dimension(dim, known, what):
    """The gate for a caller's dimension: DimensionMismatch when it disagrees
    with the dimension ``known`` that ``what`` fixes (None: nothing fixes one),
    then ``_count``."""
    dim = _integer(dim, "dim")
    if known is not None and dim != known:
        raise DimensionMismatch(f"dim={dim} conflicts with {what} {known}")
    return _count(dim, "dim")


def _check_square(M, name):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")


def _check_monotone(M, name, tol=TOL_PSD, floor=0.0):
    """Raise NonMonotone unless the symmetric part S of M is PSD within tolerance.

    The test is ``lambda_min(S) >= -tol * max(floor, max|lambda(S)|)``.  It
    is first tried as one Cholesky factorization (n^3/3 flops) of
    ``S + delta*I`` with ``delta = tol/2 * max(floor, max_i |S_ii|)``.  A
    success with a finite factor is exact for ``S + delta*I + E``, ``||E||``
    of order n*eps*||S||, so
    ``lambda_min(S) >= -delta - ||E||``.  As ``max_i |S_ii| <= max|lambda|``,
    delta is at most half the tolerance, and the other half absorbs ``||E||``
    while n*eps is far below tol/2 (4e-14 at n = 200): a success accepts
    only what the eigenvalue test accepts.  Otherwise (an indefinite S, a
    PSD-singular one such as the zero part of a skew M, or a factor that is
    not finite) the eigenvalue test decides, and it alone rejects.

    When ``n * max|S_ij|``, a bound on every ``|lambda|``, nears the float
    range, S is first scaled by an exact power of two: no eigenvalue and no
    tolerance overflows.
    """
    S = symmetric_part(M)
    unit = 1.0
    if not np.abs(S).max() < np.finfo(float).max / (2 * S.shape[0]):
        unit = 2.0 ** (S.shape[0].bit_length() + 1)
        S, floor = S / unit, floor / unit
    delta = 0.5 * tol * max(floor, float(np.abs(S.diagonal()).max()))
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
    scale = max(floor, float(np.max(np.abs(lam))))
    if float(lam[0]) < -tol * scale:
        raise NonMonotone(
            f"{name} is not monotone: min symmetric eigenvalue {float(lam[0]) * unit:.3e}"
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


def _aligned_empty(shape):
    """An uninitialized C-contiguous float array that starts on a 64-byte
    boundary (see Kept matrices): a slice of a buffer 8 floats longer."""
    size = math.prod(shape)
    buffer = np.empty(size + 8)
    start = -buffer.__array_interface__["data"][0] % 64 // 8
    return buffer[start : start + size].reshape(shape)


def _affine_resolve(op, tau, X):
    """The resolvent of an affine operator from its graph pair (P, Q, p, q):
    the ``_resolve`` of ``LinearRelation`` and ``Quadratic``, bound as it is,
    and of a coupled ``Block2x2``.

    x = y + tau*u with (y, u) = (P xi + p, Q xi + q) gives
    (P + tau*Q) xi = x - p - tau*q, so y = R (x - c) + p with
    R = P (P + tau*Q)^{-1}, kept transposed (see Kept matrices), and c = p + tau*q.
    The slot ``op._resolvent`` = (tau, Rt, c, p) is refilled, all of it and
    read-only, only for a new tau; an offset that is zero is kept as None and
    costs no call.  n is read from X, so a dimension-free operator keeps a
    slot for one width only.
    """
    kept_tau, Rt, c, p = getattr(op, "_resolvent", (None,) * 4)
    if kept_tau != tau:
        P, Q, p, q = graph_pair(op, X.shape[-1])
        message = f"P + tau*Q of the {type(op).__name__} graph pair is singular for tau={tau}"
        inv = _linalg(np.linalg.inv, SingularSystem, message, P + tau * Q)
        Rt = np.matmul(inv.T, P.T, out=_aligned_empty(inv.shape))
        c = p + tau * q
        for arr in (Rt, c, p):
            arr.setflags(write=False)
        c, p = (c if np.any(c) else None), (p if np.any(p) else None)
        object.__setattr__(op, "_resolvent", (tau, Rt, c, p))
    Y = (X if c is None else X - c).dot(Rt)
    if p is not None:
        Y += p
    return Y


def _norm(v):
    """The 2-norm of a real 1-D array: ``np.linalg.norm``'s own formula
    ``sqrt(v.dot(v))`` (same bits), without its Python wrapper."""
    return math.sqrt(v.dot(v))


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
    """Base class of every drslab record.

    The fields are a class's own annotations, in order, after the inherited
    ones; a class-level value is a default.  The constructor binds them by
    position or keyword (a TypeError for a missing, unknown or repeated one),
    then calls ``__post_init__``, which converts them with
    ``object.__setattr__`` and sets there, once, each value derived from them:
    an unannotated name, so not a field and in no ``repr``.  A
    record is immutable (AttributeError), equal only to itself, and prints as
    a dataclass does.  One field table does what
    ``@dataclass(frozen=True, eq=False)`` did with four methods generated and
    exec-ed for each class at import.

    ``to_dict`` writes every field by name, then each derived value named in
    ``_written``; ``from_dict`` passes the fields back, decoding a field
    annotated ``MonotoneOperator`` with ``operator_from_dict`` and one
    annotated with a record class with its ``from_dict``.  A field with a
    default, or a written value, may be missing; other keys are ignored.  A
    written value that is there must be what the fields give, else ValueError.
    """

    _fields, _defaults, _records = {}, {}, {}  # name -> annotation text / default / class
    _written = ()  # derived values that the document carries after the fields

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls._fields = {**cls._fields, **own}
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        cls._records.setdefault(cls.__name__, cls)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # else every field is given by position: no dict
            fields, args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(cls._fields) or values.keys() != cls._fields.keys() or given.keys() & kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(cls._fields)}), got "
                            f"{len(args)} by position and ({', '.join(kwargs)}) by keyword")
        return values.keys(), values.values()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self):
        return {name: _encode(getattr(self, name)) for name in (*self._fields, *self._written)}

    @classmethod
    def from_dict(cls, data):
        kwargs = {}
        for name, annotation in cls._fields.items():
            if name not in cls._defaults or name in data:
                value = data[name]
                if annotation == "MonotoneOperator":  # annotations are postponed: text
                    value = operator_from_dict(value)
                elif annotation in cls._records:
                    value = cls._records[annotation].from_dict(value)
                kwargs[name] = value
        record = cls(**kwargs)
        for name in cls._written:
            if name in data:
                _check_written(name, data[name], getattr(record, name))
        return record


def _check_written(name, given, own):
    """ValueError unless a document's copy of a derived value is the value itself:
    a string exactly, numbers through the number gate, NaN equal to NaN."""
    if isinstance(own, str):
        agrees = isinstance(given, str) and given == own
    else:
        agrees = np.array_equal(_numbers(given, name), own, equal_nan=True)
    if not agrees:
        given, own = json.dumps(given, default=repr), json.dumps(_encode(own))
        raise ValueError(f"{name!r} is {given} in the document, but its fields give {own}")


class MonotoneOperator(Document):
    """Base class for the operator variants.

    Subclasses implement ``_resolve`` on a point or a row stack, in the
    shape of the input, as a new C-contiguous float64 array, whose bytes
    ``drs.run`` packs as they lie: never the input or a view of it, which
    ``cyclic._graph_points`` overwrites.  They may override
    ``_graph_residual`` when a sharper membership test than the generic
    resolvent characterization is available.
    Each variant names its document ``tag``; its document is
    ``{"type": tag, **fields}``.  ``dim`` and ``is_subdifferential`` are not
    fields: class values, set by ``__post_init__`` where the fields decide them.
    """

    #: True when the operator is the subdifferential of a convex function.
    is_subdifferential = False
    #: Ambient dimension, or None when the operator works in any.
    dim = None

    def _resolve(self, tau, X):
        raise NotImplementedError

    def _graph_residual(self, y, u):
        # u in op(y)  iff  y = J(1, y + u); firm nonexpansiveness makes
        # this residual a lower bound on the graph distance.
        return _norm(y - self._resolve(1.0, y + u))

    def to_dict(self):
        return {"type": self.tag, **super().to_dict()}


def _check_operator(op, name):
    """TypeError unless op is a catalog operator: an instance, not a class."""
    if not isinstance(op, MonotoneOperator):
        raise TypeError(f"{name} must be a catalog operator")


class Zero(MonotoneOperator):
    """The zero operator x -> {0}; its resolvent is the identity."""

    tag = "zero"

    def _resolve(self, tau, X):
        return X.copy()


class ScaledIdentity(MonotoneOperator):
    """x -> alpha * x with alpha >= 0; resolvent is x / (1 + tau*alpha)."""

    alpha: float

    tag = "scaled_identity"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _scalar(self.alpha, "alpha"))
        if not self.alpha >= 0.0:
            raise NonMonotone(f"alpha must be nonnegative, got {self.alpha}")

    def _resolve(self, tau, X):
        return X / (1.0 + tau * self.alpha)

    def _graph_residual(self, y, u):
        return _norm(self.alpha * y - u)


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
        object.__setattr__(self, "dim", M.shape[0])

    _resolve = _affine_resolve

    def _graph_residual(self, y, u):
        return _norm(self.M.dot(y) - u)


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
        object.__setattr__(self, "dim", Q.shape[0])

    _resolve = _affine_resolve

    def _graph_residual(self, y, u):
        return _norm(self.Q.dot(y) + self.q - u)


class L1(MonotoneOperator):
    """Subdifferential of weight * ||x||_1; resolvent is soft thresholding."""

    weight: float

    tag = "prox_l1"
    is_subdifferential = True

    def __post_init__(self):
        object.__setattr__(self, "weight", _scalar(self.weight, "weight"))
        if not self.weight > 0.0:
            raise ValueError(f"weight must be positive, got {self.weight}")

    def _resolve(self, tau, X):
        t = tau * self.weight
        return np.sign(X) * np.maximum(np.abs(X) - t, 0.0)


class Box(MonotoneOperator):
    """Normal cone of the box [lo, hi]; resolvent clamps componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    tag = "prox_box"
    is_subdifferential = True

    def __post_init__(self):
        lo = _frozen_array(self.lo, 1, "lo")
        hi = _frozen_array(self.hi, 1, "hi")
        if lo.shape == (0,):
            raise DimensionMismatch(f"lo must have at least one coordinate, got shape {lo.shape}")
        if lo.shape != hi.shape:
            raise DimensionMismatch(f"lo/hi shapes differ: {lo.shape} vs {hi.shape}")
        if not np.all(lo <= hi):  # a NaN bound fails too
            raise ValueError("box requires lo <= hi componentwise, with no NaN bound")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dim", lo.shape[0])

    def _resolve(self, tau, X):
        # the bits of np.clip (NaN and signed zeros too), without its Python wrapper
        return np.minimum(np.maximum(X, self.lo), self.hi)


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
        if E.shape[1] == 0:
            raise DimensionMismatch(f"E must have at least one coordinate, got shape {E.shape}")
        e = _finite_array(self.e, 1, "e")
        if e.shape[0] != E.shape[0]:
            raise DimensionMismatch(
                f"e has length {e.shape[0]} but E has {E.shape[0]} rows"
            )
        gram = E @ E.T
        _linalg(np.linalg.cholesky, ValueError, "E must have full row rank", gram)
        projector = np.subtract(np.eye(E.shape[1]), E.T @ np.linalg.solve(gram, E),
                                out=_aligned_empty((E.shape[1],) * 2))
        offset = E.T @ np.linalg.solve(gram, e)
        projector.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "_projector", projector)
        object.__setattr__(self, "_offset", offset)
        object.__setattr__(self, "dim", E.shape[1])

    def _resolve(self, tau, X):
        R = X.dot(self._projector.T)
        R += self._offset
        return R


class Inverse(MonotoneOperator):
    """The inverse relation of another catalog operator.

    Its resolvent never materializes the inverse; it comes from the
    scaled Moreau identity

        J(tau, x) = x - tau * J_inner(1/tau, x/tau).

    At tau = 1 both scalings are exact, so x itself goes to the inner
    resolvent and its result is subtracted unscaled, with the same bits.
    """

    inner: MonotoneOperator

    tag = "inverse"

    def __post_init__(self):
        _check_operator(self.inner, "inner")
        object.__setattr__(self, "dim", self.inner.dim)
        # inverting a subdifferential yields the subdifferential of the
        # convex conjugate, so cyclic monotonicity is preserved
        object.__setattr__(self, "is_subdifferential", self.inner.is_subdifferential)

    def _resolve(self, tau, X):
        if tau == 1.0:
            return X - self.inner._resolve(1.0, X)
        return X - tau * self.inner._resolve(1.0 / tau, X / tau)

    def _graph_residual(self, y, u):
        # (y, u) in gra(inner^{-1})  iff  (u, y) in gra(inner)
        return self.inner._graph_residual(u, y)


class Block2x2(MonotoneOperator):
    """Monotone + skew coupling of two blocks:

        S(x1, x2) = (A x1 - C^T x2,  C x1 + B x2)

    with A acting on R^{n1}, B on R^{n2} and C of shape (n2, n1).  With
    C = 0 the resolvent splits into the blockwise resolvents; otherwise it
    is read from the graph pair of S, so both blocks must be affine
    (singular or with an offset too), else ``graph_pair`` raises NotLinear.
    """

    A: MonotoneOperator
    B: MonotoneOperator
    C: np.ndarray

    tag = "block2x2"

    def __post_init__(self):
        C = _finite_array(self.C, 2, "C")
        if 0 in C.shape:
            raise DimensionMismatch(f"C must have at least one coordinate per block, got shape {C.shape}")
        object.__setattr__(self, "C", C)
        _check_operator(self.A, "A")
        _check_operator(self.B, "B")
        n2, n1 = C.shape
        if self.A.dim is not None and self.A.dim != n1:
            raise DimensionMismatch(
                f"A acts on dimension {self.A.dim} but C has {n1} columns"
            )
        if self.B.dim is not None and self.B.dim != n2:
            raise DimensionMismatch(
                f"B acts on dimension {self.B.dim} but C has {n2} rows"
            )
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "dim", n1 + n2)
        # C is frozen, so the coupling is decided once, not on every resolve
        object.__setattr__(self, "_coupled", bool(np.any(C)))
        blockwise = self.A.is_subdifferential and self.B.is_subdifferential
        object.__setattr__(self, "is_subdifferential", blockwise and not self._coupled)

    def _resolve(self, tau, X):
        if self._coupled:
            return _affine_resolve(self, tau, X)
        # zero coupling: the block system splits exactly
        n1 = self.n1
        left = self.A._resolve(tau, X[..., :n1])
        right = self.B._resolve(tau, X[..., n1:])
        return np.concatenate([left, right], axis=-1)

    def _graph_residual(self, y, u):
        n1 = self.n1
        y1, y2 = y[:n1], y[n1:]
        u1, u2 = u[:n1], u[n1:]
        ra = self.A._graph_residual(y1, u1 + self.C.T.dot(y2))
        rb = self.B._graph_residual(y2, u2 - self.C.dot(y1))
        return max(ra, rb)


def graph_pair(op, n):
    """(P, Q, p, q) with gra op = {(P xi + p, Q xi + q) : xi in R^n}, P and Q
    n x n, kept arrays read-only as they are; NotLinear unless op is affine."""
    if op.dim is not None and op.dim != n:
        raise DimensionMismatch(f"operator acts on dimension {op.dim}, not {n}")
    eye, zero = np.eye(n), np.zeros(n)
    if isinstance(op, Zero):
        return eye, np.zeros((n, n)), zero, zero
    if isinstance(op, ScaledIdentity):
        return eye, op.alpha * eye, zero, zero
    if isinstance(op, LinearRelation):
        return eye, op.M, zero, zero
    if isinstance(op, Quadratic):
        return eye, op.Q, zero, op.q
    if isinstance(op, AffineConstraint):  # points Pi xi + c, normals (I - Pi) xi
        return op._projector, eye - op._projector, op._offset, zero
    if isinstance(op, Inverse):
        P, Q, p, q = graph_pair(op.inner, n)
        return Q, P, q, p
    if isinstance(op, Block2x2):  # S(x1, x2) = (A x1 - C^T x2, C x1 + B x2)
        (PA, QA, pA, qA), (PB, QB, pB, qB), C = graph_pair(op.A, op.n1), graph_pair(op.B, op.n2), op.C
        P = np.block([[PA, np.zeros(C.T.shape)], [np.zeros(C.shape), PB]])
        Q = np.block([[QA, -C.T @ PB], [C @ PA, QB]])
        return P, Q, np.concatenate([pA, pB]), np.concatenate([qA - C.T @ pB, qB + C @ pA])
    raise NotLinear(f"{type(op).__name__} is not affine: it has no graph pair")


def _points(x, name, dim=None, ndim=2):
    """The one reader of a caller's array: a float64 ``np.ndarray`` (no
    subclass) as it is, uncopied, anything else through ``_numbers``; then at
    most ``ndim`` dimensions (1: a vector, 2: a point or a row stack) after
    ``np.atleast_1d``, a last dimension of at least 1 (a stack may have no
    rows) and of ``dim`` when it is given."""
    X = x if type(x) is np.ndarray and x.dtype == np.float64 else _numbers(x, name)
    if X.ndim == 0:
        X = X.reshape(1)  # np.atleast_1d's result, without its Python wrapper
    if X.ndim > ndim:
        layout = "a vector" if ndim == 1 else "1-D or 2-D"
        raise DimensionMismatch(f"{name} must be {layout}, got shape {X.shape}")
    if X.shape[-1] == 0:
        raise DimensionMismatch(f"{name} must have at least one coordinate, got shape {X.shape}")
    if dim is not None and X.shape[-1] != dim:
        raise DimensionMismatch(f"{name} must have dimension {dim}, got shape {X.shape}")
    return X


def _check_tau(tau):
    """The one step-size check: tau through the number gate, so a string, a
    boolean or None is refused, as a float that is positive and finite."""
    tau = _scalar(tau, "tau")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


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
    return op._resolve(_check_tau(tau), _points(x, "x", dim=op.dim))


def graph_residual(op, y, u):
    """Numeric residual of the membership u in op(y); zero means member."""
    y = _points(y, "y", dim=op.dim, ndim=1)
    u = _points(u, "u", dim=y.shape[0], ndim=1)
    return op._graph_residual(y, u)


def graph_member(op, y, u, tol=1e-8):
    """True when u lies in op(y) up to tol."""
    tol = _scalar(tol, "tol")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return graph_residual(op, y, u) <= tol


def moreau_residual(op, tau, x):
    """Defect of the identity J(tau, x) + tau * J_inv(1/tau, x/tau) = x.

    For an affine op, J_inv is read from the swapped graph pair, so a wrong
    J shows; only an op with no graph pair (``L1``, ``Box``) takes J_inv
    through the Moreau identity, which the residual cannot check.  The
    ``Inverse`` is fresh on each call: it keeps its slot for one width.
    """
    tau, x = _check_tau(tau), _points(x, "x")
    return _moreau_defect(op, Inverse(op), tau, x)


def _moreau_defect(op, inverse, tau, x):
    """``moreau_residual`` at a point x read by ``_points``, with
    ``inverse = Inverse(op)`` given: a caller that samples many points of one
    width inverts the swapped graph pair once, in the slot ``inverse`` keeps;
    tau goes through ``_check_tau`` here too, for such a caller."""
    tau = _check_tau(tau)
    p = resolve(op, tau, x)
    inv_tau, y = _check_tau(1.0 / tau), x / tau
    try:
        q = _affine_resolve(inverse, inv_tau, y)
    except NotLinear:
        q = inverse._resolve(inv_tau, y)
    return float(np.linalg.norm(p + tau * q - x))


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
