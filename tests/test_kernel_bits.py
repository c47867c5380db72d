"""The step kernels give the bits of their plain numpy forms.

The kernels keep each resolvent matrix R transposed, as C-ordered ``Rt``,
multiply with ``X.dot(Rt)``, keep ``tau*q`` beside it, double by ``X + X``
and take 2-norms as ``sqrt(v.dot(v))``, because each of these is a cheaper
numpy call than the plain form.  This file writes the plain forms out again
(``X @ Rt`` with Rt the C-ordered transpose of R = inv(I + tau*S) computed
here, ``(X - tau*q) @ Rt``, ``2.0*X - Z``, ``W - 2.0*U`` and
``np.linalg.norm``) and asks for byte-equal results: on points, row stacks
and strided column slices for every zoo operator, on whole runs and lifted
steps for every catalog problem, and on a dense n = 200 run.  The summation
order of ``X @ Rt`` is not that of the row-major ``X @ R.T`` the kernels
used before; ``tests/test_row_major_reference.py`` bounds the difference.
"""

import numpy as np
import pytest

import drslab as dl
from helpers import block_end_runs, linear_matrix, monotone_matrix, operator_zoo, reference_residual, spd_matrix
from test_point_kernels import same_bits

ZOO = operator_zoo()
ZOO_IDS = [name for name, _, _ in ZOO]
CATALOG = dl.standard_catalog()
CATALOG_IDS = [entry.name for entry in CATALOG]
TAUS = (0.05, 1.0 / 3.0, 1.0, 2.5, 20.0)

N = 200
_rng = np.random.default_rng(2024)
DENSE_200 = [
    ("linear_200", dl.LinearRelation(monotone_matrix(_rng, N)), N),
    ("quadratic_200", dl.Quadratic(spd_matrix(_rng, N), _rng.standard_normal(N)), N),
]


def kept_product(X, R):
    """X R^T as the kernels form it: against R^T in C order, the kept layout."""
    return X @ np.ascontiguousarray(R.T)


def row_major_product(X, R):
    """X R^T against R's transposed view, the layout the kernels kept before."""
    return X @ R.T


def plain_resolve(op, tau, X, product=kept_product):
    """The resolvent in its plain numpy form, with a freshly inverted matrix
    that ``product`` applies."""
    if isinstance(op, dl.Zero):
        return X.copy()
    if isinstance(op, dl.ScaledIdentity):
        return X / (1.0 + tau * op.alpha)
    if isinstance(op, dl.LinearRelation):
        return product(X, np.linalg.inv(np.eye(op.dim) + tau * op.M))
    if isinstance(op, dl.Quadratic):
        return product(X - tau * op.q, np.linalg.inv(np.eye(op.dim) + tau * op.Q))
    if isinstance(op, dl.L1):
        return np.sign(X) * np.maximum(np.abs(X) - tau * op.weight, 0.0)
    if isinstance(op, dl.Box):
        return np.minimum(np.maximum(X, op.lo), op.hi)
    if isinstance(op, dl.AffineConstraint):
        return X @ op._projector.T + op._offset  # the projector keeps its layout
    if isinstance(op, dl.Inverse):
        return X - tau * plain_resolve(op.inner, 1.0 / tau, X / tau, product)
    if isinstance(op, dl.Block2x2):
        if not np.any(op.C):
            left = plain_resolve(op.A, tau, X[..., : op.n1], product)
            right = plain_resolve(op.B, tau, X[..., op.n1 :], product)
            return np.concatenate([left, right], axis=-1)
        return product(X, np.linalg.inv(np.eye(op.dim) + tau * linear_matrix(op, op.dim)))
    raise TypeError(type(op).__name__)


def plain_graph_residual(op, y, u):
    if isinstance(op, dl.ScaledIdentity):
        return float(np.linalg.norm(op.alpha * y - u))
    if isinstance(op, dl.LinearRelation):
        return float(np.linalg.norm(op.M @ y - u))
    if isinstance(op, dl.Quadratic):
        return float(np.linalg.norm(op.Q @ y + op.q - u))
    if isinstance(op, dl.Inverse):
        return plain_graph_residual(op.inner, u, y)
    if isinstance(op, dl.Block2x2):
        n1 = op.n1
        ra = plain_graph_residual(op.A, y[:n1], u[:n1] + op.C.T @ y[n1:])
        rb = plain_graph_residual(op.B, y[n1:], u[n1:] - op.C @ y[:n1])
        return max(ra, rb)
    return float(np.linalg.norm(y - plain_resolve(op, 1.0, y + u)))


def plain_run(problem, z0, product=kept_product):
    """``run`` with the plain splitting update, blend and norm (``reference_residual``)."""
    A, B, tau, gamma = problem.A, problem.B, problem.tau, problem.gamma
    z = np.asarray(z0, dtype=float)
    zs, xs, ws, rs = [], [], [], []
    status = dl.MAX_ITERS
    for _ in range(problem.max_iters):
        x = plain_resolve(B, tau, z, product)
        w = plain_resolve(A, tau, 2.0 * x - z, product)
        z_tilde = z - x + w
        z_next = z_tilde if gamma == 1.0 else (1.0 - gamma) * z + gamma * z_tilde
        res = reference_residual(z_next - z)
        zs.append(z_next)
        xs.append(x)
        ws.append(w)
        rs.append(res)
        z = z_next
        if res <= problem.stop_tol:
            status = dl.CONVERGED
            break
        if not np.isfinite(res):
            status = dl.NONFINITE
            break
    return np.array(zs), np.array(xs), np.array(ws), np.array(rs), status


def assert_run_bits(problem, z0):
    record = dl.run(problem, z0)
    z, x, w, residual, status = plain_run(problem, z0)
    assert record.status == status
    for name, ref in (("z", z), ("x", x), ("w", w), ("residual", residual)):
        assert same_bits(getattr(record, name), ref), name
    return record


def layouts(rng, dim):
    """A point, single rows, row stacks (gemv and gemm sizes) and strided
    column slices of wider stacks."""
    wide = 3.0 * rng.standard_normal((300, dim + 3))
    yield 3.0 * rng.standard_normal(dim)
    yield wide[0, 1 : dim + 1]
    yield wide[:dim, 2]  # a point with a stride
    for m in (1, 2, 7, 300):
        yield 3.0 * rng.standard_normal((m, dim))
        yield wide[:m, :dim]
        yield wide[:m, 3:]


DENSE_IDS = [name for name, _, _ in DENSE_200]


@pytest.mark.parametrize("name, op, dim", ZOO + DENSE_200, ids=ZOO_IDS + DENSE_IDS)
@pytest.mark.parametrize("tau", TAUS)
def test_resolve_bits(name, op, dim, tau):
    for X in layouts(np.random.default_rng(7), dim):
        assert same_bits(dl.resolve(op, tau, X), plain_resolve(op, tau, X)), X.shape


@pytest.mark.parametrize("name, op, dim", DENSE_200, ids=DENSE_IDS)
def test_resolve_bits_on_a_2048_row_stack(name, op, dim):
    X = 3.0 * np.random.default_rng(8).standard_normal((2048, dim))
    assert same_bits(dl.resolve(op, 0.7, X), plain_resolve(op, 0.7, X))


@pytest.mark.parametrize("name, op, dim", ZOO, ids=ZOO_IDS)
def test_graph_residual_bits(name, op, dim):
    rng = np.random.default_rng(9)
    for _ in range(20):
        y, u = rng.standard_normal(dim), rng.standard_normal(dim)
        p = dl.resolve(op, 1.0, y + u)  # a member pair too: residual near 0
        for pair in ((y, u), (p, y + u - p)):
            got = dl.graph_residual(op, *pair)
            assert type(got) is float
            assert got.hex() == plain_graph_residual(op, *pair).hex()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", CATALOG, ids=CATALOG_IDS)
@pytest.mark.parametrize("gamma", (0.5, 1.0, 1.7))
def test_run_bits_on_the_catalog(entry, gamma):
    p = entry.problem
    problem = dl.DrsProblem(p.A, p.B, tau=p.tau, gamma=gamma, max_iters=500)
    assert_run_bits(problem, 3.0 * np.random.default_rng(10).standard_normal(entry.dim))


BLOCK_END_RUNS = block_end_runs()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the non-finite runs overflow
@pytest.mark.parametrize("name, problem, z0, status, steps", BLOCK_END_RUNS,
                         ids=[run[0] for run in BLOCK_END_RUNS])
def test_run_bits_at_a_block_end(name, problem, z0, status, steps):
    record = assert_run_bits(problem, z0)
    assert (record.status, len(record)) == (status, steps)


def test_run_bits_at_n_200():
    (_, A, _), (_, B, _) = DENSE_200
    problem = dl.DrsProblem(A, B, stop_tol=1e-9, max_iters=300)
    assert_run_bits(problem, np.random.default_rng(11).standard_normal(N))


@pytest.mark.parametrize("entry", CATALOG, ids=CATALOG_IDS)
def test_lifted_step_bits_on_the_catalog(entry):
    p = entry.problem
    system = dl.PpaSystem(p.A, p.B, p.tau, entry.dim)
    state = dl.initial_state(system, 3.0 * np.random.default_rng(12).standard_normal(entry.dim))
    tau, inv_a, inv_b = system.tau, dl.Inverse(p.A), dl.Inverse(p.B)
    for _ in range(30):
        nxt = dl.ppa_step(system, state)
        W = state.z / tau
        U = plain_resolve(inv_b, 1.0 / tau, W)
        S = plain_resolve(inv_a, 1.0 / tau, W - 2.0 * U)
        for got, ref in ((nxt.u, U), (nxt.s, S), (nxt.z, state.z - tau * (S + U))):
            assert same_bits(got, ref)
        r3 = float(np.linalg.norm(nxt.z - (state.z - tau * (nxt.u + nxt.s))))
        assert dl.ppa_inclusion_residual(system, state, nxt).hex() == max(
            plain_graph_residual(p.B, state.z - tau * nxt.u, nxt.u),
            plain_graph_residual(p.A, state.z - 2.0 * tau * nxt.u - tau * nxt.s, nxt.s),
            r3,
        ).hex()
        state = nxt
