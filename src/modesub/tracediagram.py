"""Symmetry-labeled eigenvalue trace diagrams and crossing prediction.

Each analytical trace carries the irrep content of its wave under the
target group; a crossing between two traces is forbidden (must turn into an
avoidance on a perturbed structure) exactly when the two label multisets
share an irrep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointgroup import O3IrrepId, PointGroup, builtin_group
from .subduction import STANDARD_CHAIN, ParityFilter, SubductionResult, \
    chain_subduce, subduce
from .sphwave import _sample_with_poles, check_kr

MAX_DIAGRAM_ORDER = 12


@dataclass(frozen=True, eq=False)
class LabeledTrace:
    """One sampled trace with its subduced irrep content."""

    source: O3IrrepId
    label: SubductionResult
    kr: np.ndarray
    lam: np.ndarray
    pole_adjacent: np.ndarray
    poles: tuple

    def irrep_names(self) -> tuple:
        return tuple(name for name, _ in self.label.entries)


def _diagram_label(wave: O3IrrepId, group: PointGroup,
                   parity: ParityFilter | None,
                   parity_stage: str | None) -> SubductionResult:
    if parity is None:
        return subduce(wave, group)
    if group.name in STANDARD_CHAIN:
        path = STANDARD_CHAIN[:STANDARD_CHAIN.index(group.name) + 1]
    else:
        path = (group.name,)
    return chain_subduce(wave, path, parity=parity, parity_stage=parity_stage)[-1]


def build_diagram(tmax: int, lo: float, hi: float, grid: int,
                  group: PointGroup | str,
                  parity: ParityFilter | None = None,
                  parity_stage: str | None = None) -> list:
    """Sample every wave with t <= tmax whose filtered label is nonempty.

    `lo`/`hi` bound kR; the grid is uniform with `grid` points.  Samples at
    nonfinite eigenvalues are left in place but masked pole-adjacent, so
    they never participate in crossing detection.
    """
    if not (1 <= tmax <= MAX_DIAGRAM_ORDER):
        raise ValueError(f"tmax must be in 1..{MAX_DIAGRAM_ORDER}")
    check_kr(np.array([lo, hi]))
    if not lo < hi:
        raise ValueError("need 0 < lo < hi")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    if isinstance(group, str):
        group = builtin_group(group)
    kr = np.linspace(lo, hi, grid)
    out = []
    for t in range(1, tmax + 1):
        for s in (1, 2):
            wave = O3IrrepId(t, s)
            label = _diagram_label(wave, group, parity, parity_stage)
            if not label.entries:
                continue
            lam, adjacent, found = _sample_with_poles(wave, kr)
            inside = tuple(p for p in found if lo <= p <= hi)
            out.append(LabeledTrace(wave, label, kr, lam, adjacent, inside))
    return out


def shared_irreps(a: LabeledTrace, b: LabeledTrace) -> tuple:
    """Irreps present with multiplicity >= 1 in both labels."""
    out = []
    for name, mult in a.label.entries:
        other = b.label.multiplicity(name)
        if min(mult, other) >= 1:
            out.append(name)
    return tuple(out)


@dataclass(frozen=True)
class CrossingEvent:
    """A detected lambda_a = lambda_b intersection between two diagram traces."""

    index_a: int
    index_b: int
    source_a: O3IrrepId
    source_b: O3IrrepId
    kr_star: float
    lam_star: float
    shared: tuple
    forbidden: bool


def find_crossings(diagram: list) -> list:
    """Locate sign changes of lambda_a - lambda_b between adjacent samples.

    Cells in which either trace is pole-adjacent are skipped: the steep
    branch on either side of a pole crosses everything nearby, and those
    intersections are artifacts of the divergence, not mode interactions.
    """
    events = []
    for ia in range(len(diagram)):
        for ib in range(ia + 1, len(diagram)):
            a, b = diagram[ia], diagram[ib]
            if len(a.kr) != len(b.kr) or np.abs(a.kr - b.kr).max() > 1e-12:
                raise ValueError("diagram traces must share one kR grid")
            shared = shared_irreps(a, b)
            usable = (np.isfinite(a.lam) & np.isfinite(b.lam)
                      & ~a.pole_adjacent & ~b.pole_adjacent)
            with np.errstate(invalid="ignore"):  # inf - inf where masked
                diff = a.lam - b.lam
                d0, d1 = diff[:-1], diff[1:]
                hits = np.flatnonzero(usable[:-1] & usable[1:]
                                      & ((d0 == 0.0) | (d0 * d1 < 0.0)))
            for i in hits:
                d0, d1 = diff[i], diff[i + 1]
                if d0 == 0.0:
                    kr_star = float(a.kr[i])
                    lam_star = float(a.lam[i])
                else:
                    frac = d0 / (d0 - d1)
                    kr_star = float(a.kr[i] + frac * (a.kr[i + 1] - a.kr[i]))
                    lam_star = float(a.lam[i] + frac * (a.lam[i + 1] - a.lam[i]))
                events.append(CrossingEvent(ia, ib, a.source, b.source,
                                            kr_star, lam_star, shared,
                                            bool(shared)))
    return events


@dataclass(frozen=True)
class AvoidancePrediction:
    """A forbidden crossing restated as its expected avoidance geometry."""

    event: CrossingEvent
    affected: tuple          # irreps forcing the avoidance
    lower_source: O3IrrepId  # trace below just before kr_star: gets the indentation
    upper_source: O3IrrepId  # trace above just before kr_star: gets the peak


def predict_avoidances(diagram: list, crossings: list | None = None) -> list:
    """Forbidden crossings annotated with which trace indents and which peaks.

    On any structure that breaks the spherical degeneracy while keeping the
    target group, each forbidden intersection opens into an avoidance: the
    trace approaching from below keeps a local indentation, the one from
    above a local peak, near kr_star.
    """
    if crossings is None:
        crossings = find_crossings(diagram)
    out = []
    for ev in crossings:
        if not ev.forbidden:
            continue
        a, b = diagram[ev.index_a], diagram[ev.index_b]
        i = int(np.searchsorted(a.kr, ev.kr_star)) - 1
        i = max(0, min(i, len(a.kr) - 1))
        if a.lam[i] <= b.lam[i]:
            lower, upper = ev.source_a, ev.source_b
        else:
            lower, upper = ev.source_b, ev.source_a
        out.append(AvoidancePrediction(ev, ev.shared, lower, upper))
    return out
