"""Side-by-side iteration of the three equivalent splitting forms.

The classical recursion, the lifted 4-variable proximal-point form, and
the reduced resolvent in v = z / sqrt(tau) coordinates realize the same
z-trajectory.  ``compare_formulations`` runs all three from one start
and reports the largest pairwise deviation over the whole trajectory.

The reduced leg iterates ``blocks``' direct kernel, the one
``reduced_resolvent_direct`` applies, whenever both blocks are invertible
linear maps (a genuinely independent computation: the inverse of
I + K L^{-1} K^T, from ``linear_matrix`` of L); otherwise the assembly
raises NotLinear or SingularSystem, the leg iterates the one-step kernel of
``reduced_resolvent_via_drs`` and the report says so in ``reduced_path``.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import BlockSystem, _direct_kernel, _drs_kernel
from .drs import _splitting_rows, _start_vector
from .errors import DrslabError
from .operators import Document, _integer, _scalar
from .ppa import _lifted_rows

RECURSION = "recursion"
LIFTED = "lifted"
REDUCED = "reduced"

REDUCED_DIRECT = "direct"
REDUCED_FALLBACK = "drs"


class EquivalenceReport(Document):
    """Pairwise trajectory deviations between the three formulations, and
    ``max_deviation``, the worst of them, derived and written to the document."""

    iters: int
    reduced_path: str
    pairwise: dict

    _written = ("max_deviation",)

    def __post_init__(self):
        object.__setattr__(self, "iters", _integer(self.iters, "iters"))
        if self.reduced_path not in (REDUCED_DIRECT, REDUCED_FALLBACK):
            raise ValueError(f"unknown reduced_path {self.reduced_path!r}")
        if not isinstance(self.pairwise, dict):
            raise ValueError(f"pairwise must map pair names to numbers, got {self.pairwise!r}")
        pairwise = {pair: _scalar(dev, pair) for pair, dev in self.pairwise.items()}
        object.__setattr__(self, "pairwise", pairwise)
        object.__setattr__(self, "max_deviation", _worst_deviation(pairwise.values()))


def _worst_deviation(devs):
    """The largest deviation; NaN when any is not finite, or when there is none."""
    return max(devs, default=math.nan) if all(math.isfinite(d) for d in devs) else math.nan


def _trajectory(step, z0, iters):
    """The iters+1 rows z0, step(z0), step(step(z0)), ..., each step on a 1-D point."""
    zs = np.empty((iters + 1, z0.shape[0]))
    zs[0] = z0
    for k in range(iters):
        zs[k + 1] = step(zs[k])
    return zs


def formulation_trajectories(problem, z0, iters):
    """z-trajectories (iters+1 rows each) of the three formulations.

    Returns (trajectories, reduced_path) where trajectories maps the
    formulation name to an array of shape (iters+1, n) starting at z0.
    Only the unrelaxed map is compared: a problem with gamma != 1 raises
    ValueError until the three relaxed legs exist.
    """
    if problem.gamma != 1.0:
        raise ValueError(
            f"relaxed legs are not implemented: the formulations are compared at gamma = 1, "
            f"got gamma = {problem.gamma}"
        )
    z0 = _start_vector(problem, z0)
    iters = _integer(iters, "iters")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    system = BlockSystem(problem.A, problem.B, problem.tau, z0.shape[0])
    A, B, tau = problem.A, problem.B, problem.tau

    # classical recursion (unrelaxed), on the drs kernel
    zs = _trajectory(lambda Z: _splitting_rows(A, B, tau, Z)[0], z0, iters)

    # lifted 4-variable form, z component, on the ppa kernel and the system's L
    zl = _trajectory(lambda Z: _lifted_rows(system.L, tau, Z)[2], z0, iters)

    # reduced form, iterated in v coordinates and scaled back to z
    try:
        reduced_path, reduced_step = REDUCED_DIRECT, _direct_kernel(system)
    except DrslabError:
        reduced_path, reduced_step = REDUCED_FALLBACK, _drs_kernel(system)
    rt = system.root_tau
    zr = rt * _trajectory(reduced_step, z0 / rt, iters)
    zr[0] = z0

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
    return EquivalenceReport(iters, reduced_path, pairwise)
