"""Every workload's gate fires: a perturbed outcome is recorded as a failure.

Run from the root of the source tree:  python -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import drslab as dl  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def perturbed(op, change):
    return dataclasses.replace(op, call=lambda: change(op.call()))


def assert_gate_fires(op, change):
    """The clean operation passes, the perturbed one counts as failed."""
    result = workloads.run_pass([op, perturbed(op, change)])
    assert (result.ok, result.failed) == (1, 1), result.errors


def first(ops, kind):
    return next(op for op in ops if op.kind == kind)


@pytest.fixture(scope="module")
def dense_ops():
    return workloads.build_dense_linear(dl, SEED)


@pytest.fixture(scope="module")
def audit_ops():
    return workloads.build_audit(dl, SEED)


@pytest.mark.parametrize(
    "change",
    [
        lambda o: dataclasses.replace(o, status="max_iters"),
        lambda o: dataclasses.replace(o, certified=False),
        lambda o: dataclasses.replace(o, final_x=o.final_x + 1e-3),
    ],
    ids=["status", "certificate", "reference"],
)
def test_dense_linear_gate(dense_ops, change):
    assert_gate_fires(dense_ops[0], change)


@pytest.mark.parametrize(
    "change",
    [
        lambda out: [out[0], dataclasses.replace(out[1], status="max_iters")],
        lambda out: [dataclasses.replace(out[0], certified=False), out[1]],
    ],
    ids=["status", "certificate"],
)
def test_small_nonsmooth_gate(change):
    ops = workloads.build_small_nonsmooth(dl, SEED)
    assert_gate_fires(ops[0], change)


@pytest.mark.parametrize(
    "kind, change",
    [
        ("compare", lambda out: (1e-6, out[1])),
        ("compare", lambda out: (out[0], 1e-6)),
        ("classify", lambda out: "Proximal" if out == "NotProximal" else "NotProximal"),
        ("skew", lambda out: (out[0], out[1] * (1 + 1e-6), out[2], out[3])),
        ("skew", lambda out: (False,) + out[1:]),
    ],
    ids=["deviation", "inclusion", "verdict", "xi", "certifies"],
)
def test_audit_gate(audit_ops, kind, change):
    assert_gate_fires(first(audit_ops, kind), change)


def test_audit_search_gate(audit_ops):
    searches = [op for op in audit_ops if op.kind == "search"]
    outcomes = [op.call() for op in searches]
    witness = next(w for is_sub, w in outcomes if w is not None)
    subdiff = next(op for op, (is_sub, _) in zip(searches, outcomes) if is_sub)
    # a witness reported on a subdifferential
    assert_gate_fires(subdiff, lambda out: (True, witness))
    # a witness whose recomputed cycle sum does not violate
    points, values = witness
    assert_gate_fires(subdiff, lambda out: (False, (points, tuple(-v for v in values))))


def test_cli_probe_gate(tmp_path):
    call = workloads.cli_calls(dl, SEED, tmp_path)[-1]
    assert_gate_fires(call, lambda out: (out[0], out[1][:-1]))
    assert_gate_fires(call, lambda out: (1, out[1]))


def test_raising_operation_fails(dense_ops):
    def boom(out):
        raise FloatingPointError("perturbed")

    result = workloads.run_pass([perturbed(dense_ops[0], boom)])
    assert (result.ok, result.failed) == (0, 1)
    assert "FloatingPointError" in result.errors[0]


def test_anchor_mismatch_is_a_problem(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    problems = []
    run.check_anchors("w/1", {"pass.iters": 10, "peak_alloc_bytes": 1000}, problems)
    run.check_anchors("w/1", {"pass.iters": 10, "peak_alloc_bytes": 1005}, problems)
    assert problems == []
    run.check_anchors("w/1", {"pass.iters": 11, "peak_alloc_bytes": 100_000}, problems)
    assert len(problems) == 2
    run.same_every_pass("counts", [{"iters": 1}, {"iters": 2}], problems)
    assert len(problems) == 3


def test_resolve_flops_counts_dense_lu():
    from spans import resolve_flops

    n = 200
    op = dl.LinearRelation(np.eye(n))
    assert resolve_flops(op, 3) == (2 * n**3) // 3 + 2 * n * n * 3
    assert resolve_flops(dl.L1(1.0), 5) == 0
    assert resolve_flops(dl.Inverse(op), 1) == resolve_flops(op, 1)
