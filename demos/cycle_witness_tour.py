"""Cyclic monotonicity: the dividing line between graphs of gradients
and merely monotone graphs.

A monotone operator is a subdifferential exactly when every cycle
through its graph has nonpositive sum.  Two-point cycles can never
violate this (that is plain monotonicity), so the smallest possible
witnesses use three points.  For a pure skew coupling there is a
deterministic three-point construction with a closed-form positive sum.
"""

import numpy as np

import drslab as dl

print("deterministic witness for C = [[1]], a1 = 1, b1 = 0:")
witness = dl.skew_three_cycle(np.array([[1.0]]), np.array([1.0]), np.array([0.0]))
for i, (p, u) in enumerate(zip(witness.points, witness.values), start=1):
    print(f"  x{i} = {p}   u{i} = {u}")
print(f"  closed-form sum xi = {witness.xi}")
print(f"  brute-force cycle sum = {witness.cycle_sum}")
print(f"  certifies a violation: {witness.certifies}")

print("\nrandom search on clean specs (none should ever violate):")
rng = np.random.default_rng(3)
G = rng.standard_normal((3, 3))
for label, op, dim in [
    ("soft threshold", dl.L1(1.0), 2),
    ("box projection", dl.Box([-1.0] * 3, [1.0] * 3), None),
    ("symmetric PSD linear", dl.LinearRelation(G @ G.T / 3 + 0.3 * np.eye(3)), None),
]:
    found = dl.sample_cycles(op, n_max=5, trials=5000, seed=0, dim=dim)
    print(f"  {label:<22} witness: {found}")

print("\nrandom search on the quarter-turn skew relation:")
found = dl.sample_cycles(dl.LinearRelation(np.array([[0.0, -1.0], [1.0, 0.0]])),
                         n_max=6, trials=1000, seed=7)
print(f"  found a cycle of length {found.n} with sum {found.cycle_sum:.4f}")
print("  (two-point cycles cannot violate, and indeed "
      f"the witness needs {found.n} >= 3 points)")

print("\nthe inverse of a gradient is a gradient (conjugate duality):")
M = np.array([[2.0, 1.0], [1.0, 2.0]])
inverse = dl.Inverse(dl.Quadratic(M, np.zeros(2)))
P, Q, _, _ = dl.graph_pair(inverse, 2)  # gra = {(P xi, Q xi)}, so the matrix is Q P^-1
M_inv = Q @ np.linalg.inv(P)
print(f"  M = {M.tolist()}   Inverse(Quadratic(M, 0)) = {np.round(3.0 * M_inv, 12).tolist()} / 3")
print(f"  a subdifferential: {inverse.is_subdifferential}   "
      f"witness: {dl.sample_cycles(inverse, n_max=5, trials=5000, seed=0)}")
