"""Side-by-side check of the three equivalent splitting forms.

The classical recursion, the lifted 4-variable proximal-point form, and
the reduced resolvent in v = z / sqrt(tau) coordinates are one map T.
``compare_formulations`` iterates the recursion from one start, one point
at a time, then applies each other form once to the row stack of its points
z_k.  Per pair it reports the one-step defects delta_k, the 2-norms of the
differences of the two images of z_k: the largest (``step_defects``, the
paper's per-step claim) and their sum (``pairwise``).  T is nonexpansive,
so the sum bounds, up to rounding, how far the two forms drift apart when
each is iterated on its own, as the test suite's reference does.

The reduced leg applies ``blocks``' direct kernel, the one
``reduced_resolvent_direct`` applies, whenever both operators are affine,
singular ones included (a genuinely independent computation: one inverse of
the system of their graph pairs).  Only an operator with no graph pair
(``L1``, ``Box``) makes it raise NotLinear; then the leg applies the recursion
rescaled, ``reduced_resolvent_via_drs``'s kernel, and ``reduced_path`` says so.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .blocks import BlockSystem, _direct_kernel, _drs_kernel
from .drs import _splitting_rows, _start_vector
from .errors import NotLinear
from .operators import Document, _count, _scalar
from .ppa import _lifted_rows

RECURSION = "recursion"
LIFTED = "lifted"
REDUCED = "reduced"

REDUCED_DIRECT = "direct"
REDUCED_FALLBACK = "drs"


class EquivalenceReport(Document):
    """Per pair of formulations, the drift bound (``pairwise``, the sum of the
    one-step defects) and the largest one-step defect (``step_defects``), and
    ``max_deviation``, the worst drift bound, derived and written to the document."""

    iters: int
    reduced_path: str
    pairwise: dict
    step_defects: dict

    _written = ("max_deviation",)

    def __post_init__(self):
        object.__setattr__(self, "iters", _count(self.iters, "iters"))
        if self.reduced_path not in (REDUCED_DIRECT, REDUCED_FALLBACK):
            raise ValueError(f"unknown reduced_path {self.reduced_path!r}")
        for name in ("pairwise", "step_defects"):
            devs = getattr(self, name)
            if not isinstance(devs, dict):
                raise ValueError(f"{name} must map pair names to numbers, got {devs!r}")
            object.__setattr__(self, name, {pair: _scalar(dev, pair) for pair, dev in devs.items()})
        if self.step_defects.keys() != self.pairwise.keys():
            raise ValueError(f"step_defects must name the pairs of pairwise, got {list(self.step_defects)}")
        object.__setattr__(self, "max_deviation", _worst_deviation(self.pairwise.values()))


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


def _recursion(problem, z0, iters):
    """The checked inputs' recursion z-trajectory (iters+1 rows from z0), block
    system, and reduced path with its kernel in v coordinates."""
    if problem.gamma != 1.0:
        raise ValueError(
            f"relaxed legs are not implemented: the formulations are compared at gamma = 1, "
            f"got gamma = {problem.gamma}"
        )
    z0 = _start_vector(problem, z0)
    iters = _count(iters, "iters")
    system = BlockSystem(problem.A, problem.B, problem.tau, z0.shape[0])
    A, B, tau = problem.A, problem.B, problem.tau
    zs = _trajectory(lambda Z: _splitting_rows(A, B, tau, Z)[0], z0, iters)
    try:
        return zs, system, REDUCED_DIRECT, _direct_kernel(system)
    except NotLinear:
        return zs, system, REDUCED_FALLBACK, _drs_kernel(system)


def compare_formulations(problem, z0, iters=100):
    """The one-step defects of the three formulations at the recursion's points.

    A pair with any non-finite defect reads NaN in both ``pairwise`` and
    ``step_defects``, so a trajectory that overflows or starts at NaN never
    reads as agreement.
    """
    zs, system, reduced_path, kernel = _recursion(problem, z0, iters)
    Z, rt = zs[:-1], system.root_tau
    images = {RECURSION: zs[1:], LIFTED: _lifted_rows(system.L, system.tau, Z)[2],
              REDUCED: rt * kernel(Z / rt)}
    pairwise, step_defects = {}, {}
    for a, b in itertools.combinations(images, 2):
        deltas = np.linalg.norm(images[a] - images[b], axis=1)
        if not np.isfinite(deltas).all():
            deltas = np.array([math.nan])  # both readings NaN
        pairwise[f"{a}-{b}"], step_defects[f"{a}-{b}"] = float(deltas.sum()), float(deltas.max())
    return EquivalenceReport(len(Z), reduced_path, pairwise, step_defects)
