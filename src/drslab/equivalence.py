"""Side-by-side iteration of the three equivalent splitting forms.

The classical recursion, the lifted 4-variable proximal-point form, and
the reduced resolvent in v = z / sqrt(tau) coordinates realize the same
z-trajectory.  ``compare_formulations`` runs all three from one start
and reports the largest pairwise deviation over the whole trajectory.

The reduced leg is evaluated by dense assembly whenever both blocks are
invertible linear maps (a genuinely independent computation); otherwise
it falls back to the rescaled one-step evaluation and the report says
so in ``reduced_path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockSystem, coupling_gram, reduced_resolvent_via_drs
from .drs import _splitting_rows, _start_vector
from .errors import DrslabError
from .ppa import PpaSystem, _lifted_operators, _lifted_rows

RECURSION = "recursion"
LIFTED = "lifted"
REDUCED = "reduced"

REDUCED_DIRECT = "direct"
REDUCED_FALLBACK = "drs"


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Pairwise trajectory deviations between the three formulations."""

    max_deviation: float
    iters: int
    reduced_path: str
    pairwise: dict

    def to_dict(self):
        return {
            "max_deviation": self.max_deviation,
            "iters": self.iters,
            "reduced_path": self.reduced_path,
            "pairwise": dict(self.pairwise),
        }


def formulation_trajectories(problem, z0, iters):
    """z-trajectories (iters+1 rows each) of the three formulations.

    Returns (trajectories, reduced_path) where trajectories maps the
    formulation name to an array of shape (iters+1, n) starting at z0.
    """
    z0 = _start_vector(problem, z0)
    n = z0.shape[0]
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    sys_blocks = BlockSystem(problem.A, problem.B, problem.tau, n)
    sys_ppa = PpaSystem(problem.A, problem.B, problem.tau, n)
    tau = problem.tau

    # classical recursion (unrelaxed), on the drs row kernel
    zs = np.empty((iters + 1, n))
    zs[0] = z0
    for k in range(iters):
        z_next, _, _ = _splitting_rows(problem.A, problem.B, tau, zs[k : k + 1])
        zs[k + 1] = z_next[0]

    # lifted 4-variable form, z component, on the ppa row kernel
    inv_a, inv_b = _lifted_operators(sys_ppa)
    zl = np.empty((iters + 1, n))
    zl[0] = z0
    for k in range(iters):
        _, _, z_next = _lifted_rows(inv_a, inv_b, tau, zl[k : k + 1])
        zl[k + 1] = z_next[0]

    # reduced form in v coordinates
    rt = sys_blocks.root_tau
    zr = np.empty((iters + 1, n))
    zr[0] = z0
    v = z0 / rt
    try:
        W = coupling_gram(sys_blocks)
        step_matrix = np.eye(n) + W
        reduced_path = REDUCED_DIRECT

        def reduced_step(v):
            return np.linalg.solve(step_matrix, v)

    except (DrslabError, np.linalg.LinAlgError):
        reduced_path = REDUCED_FALLBACK

        def reduced_step(v):
            return reduced_resolvent_via_drs(sys_blocks, v)

    for k in range(iters):
        v = reduced_step(v)
        zr[k + 1] = rt * v

    return {RECURSION: zs, LIFTED: zl, REDUCED: zr}, reduced_path


def compare_formulations(problem, z0, iters=100):
    """Run the three formulations and report the max pairwise deviation.

    The maximum is NaN when any pairwise deviation is not finite, so a
    trajectory that overflows or starts at NaN never reads as agreement.
    """
    trajs, reduced_path = formulation_trajectories(problem, z0, iters)
    names = (RECURSION, LIFTED, REDUCED)
    pairwise = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            dev = float(np.max(np.linalg.norm(trajs[a] - trajs[b], axis=1)))
            pairwise[f"{a}-{b}"] = dev
    devs = pairwise.values()
    worst = max(devs) if all(math.isfinite(d) for d in devs) else math.nan
    return EquivalenceReport(
        max_deviation=worst,
        iters=iters,
        reduced_path=reduced_path,
        pairwise=pairwise,
    )
