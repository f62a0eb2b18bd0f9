"""Subduction of representations onto subgroups, with PEC-plane parity filters.

Multiplicities come from the character inner product over the child group
and are kept as exact rationals: filtering can leave behind partial irreps
(some basis slots odd, some even), and their bookkeeping is fractional by
construction rather than by rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .pointgroup import (Irrep, O3IrrepId, PLANE_Z, PointGroup, builtin_group,
                         o3_character)

#: tolerance for classifying an irrep-matrix diagonal entry as +-1
SLOT_SIGN_TOL = 1e-6

#: the standard subgroup chain used when descending from the full sphere
STANDARD_CHAIN = ("O_h", "D_4h", "C_4v", "C_2v")


class NotASubgroupError(ValueError):
    pass


class MissingIrrepMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class ParityFilter:
    """Keep only basis slots odd (or even) under a mirror operation.

    `keep` is "odd" (slot diagonal -1 at the plane operation, the PEC-plane
    compatible case) or "even" (+1, e.g. modes surviving on an infinitesimally
    thin plate).  The default plane is the mirror through z = 0.
    """

    keep: str
    plane: np.ndarray = field(default_factory=lambda: PLANE_Z)

    def __post_init__(self):
        if self.keep not in ("odd", "even"):
            raise ValueError("keep must be 'odd' or 'even'")

    @property
    def sign(self) -> int:
        return -1 if self.keep == "odd" else 1

    def complement(self) -> "ParityFilter":
        return ParityFilter("even" if self.keep == "odd" else "odd", self.plane)


@dataclass(frozen=True)
class SubductionResult:
    """Multiset of child irreps with exact rational multiplicities."""

    parent: object            # O3IrrepId, "group:name" string, or a summary
    child_group: str
    entries: tuple            # ((irrep name, Fraction), ...) in table order
    parent_dimension: Fraction

    def multiplicity(self, name: str) -> Fraction:
        for n, mult in self.entries:
            if n == name:
                return mult
        return Fraction(0)

    @property
    def fractional(self) -> bool:
        return any(m.denominator != 1 for _, m in self.entries)

    def as_dict(self) -> dict:
        return dict(self.entries)

    def to_json(self) -> dict:
        return {"parent": str(self.parent), "child_group": self.child_group,
                "entries": {n: str(m) for n, m in self.entries}}

    def total_dimension(self, group: PointGroup) -> Fraction:
        return sum((m * group.irrep(n).dimension for n, m in self.entries),
                   Fraction(0))

    def __str__(self):
        if not self.entries:
            return "(empty)"
        return " ".join(f"{n}:{m}" for n, m in self.entries)


def _plane_slots(group: PointGroup, irrep: Irrep,
                 parity: ParityFilter) -> list[int]:
    """Basis slots of `irrep` whose diagonal entry at the filter plane
    operation matches the filter sign.

    Raises MissingIrrepMatrixError when the plane is not an element of
    `group`, when the irrep has no matrices, or when a diagonal entry is not
    +-1 (the slot filter is then undefined in this basis).
    """
    plane_idx = group.find_element(parity.plane)
    if plane_idx is None:
        raise MissingIrrepMatrixError(
            f"the filter plane operation is not an element of {group.name}")
    if irrep.matrices is None:
        raise MissingIrrepMatrixError(
            f"{group.name}/{irrep.name} has no irrep matrices; "
            "cannot apply a parity filter")
    slots = []
    for mu, d in enumerate(np.diagonal(irrep.matrices[plane_idx])):
        if abs(d - parity.sign) <= SLOT_SIGN_TOL:
            slots.append(mu)
        elif not abs(d + parity.sign) <= SLOT_SIGN_TOL:
            raise MissingIrrepMatrixError(
                f"{group.name}/{irrep.name}: diagonal of the plane-operation "
                f"matrix is not +-1 (slot {mu} = {d:.3g}); the slot filter "
                "is undefined in this basis")
    return slots


def _character_on_elements(parent, parent_group, child: PointGroup,
                           parity: ParityFilter | None):
    """Parent character evaluated at every child element, filter applied.

    Returns a float array over child elements.  With a filter, the parent
    character is replaced by the partial trace over basis slots whose
    diagonal entry at the plane operation matches the filter sign.
    """
    if isinstance(parent, O3IrrepId):
        if parity is not None:
            raise MissingIrrepMatrixError(
                "parity filtering needs irrep matrices, which are not available "
                "for spherical-wave representations; filter at a finite stage")
        return np.array([o3_character(parent, op) for op in child.elements]), \
            Fraction(parent.dimension)

    irrep = parent_group.irrep(parent)
    child_in_parent = parent_group.find_elements(child.element_matrices())
    if (child_in_parent < 0).any():
        raise NotASubgroupError(
            f"{child.name} is not a subgroup of {parent_group.name}")

    if parity is None:
        classes = np.take(parent_group.class_of_element, child_in_parent)
        return np.take(irrep.characters, classes).astype(float), \
            Fraction(irrep.dimension)

    slots = _plane_slots(parent_group, irrep, parity)
    chi = irrep.matrices[child_in_parent][:, slots, slots].sum(axis=1)
    return chi, Fraction(len(slots))


def _decompose(chi: np.ndarray, child: PointGroup):
    """Eq.-of-orthogonality multiplicities of `chi` over the child irreps.

    `chi` is summed element by element, not by class: a filtered character
    need not be a class function.
    """
    table = np.array([p.characters for p in child.irreps],
                     dtype=float)[:, list(child.class_of_element)]
    entries = []
    for p, total in zip(child.irreps, table @ chi):
        nearest = round(total)
        if abs(total - nearest) > 1e-6:
            raise ValueError(
                f"non-integral character sum for {child.name}/{p.name}; "
                "inputs are outside the real-integer character domain")
        mult = Fraction(int(nearest), child.order)
        if mult < 0:
            raise ValueError(f"negative multiplicity for {child.name}/{p.name}")
        if mult != 0:
            entries.append((p.name, mult))
    return tuple(entries)


def subduce(parent, child: PointGroup, parent_group: PointGroup | None = None,
            parity: ParityFilter | None = None) -> SubductionResult:
    """Subduce a parent irrep onto a subgroup.

    Parameters
    ----------
    parent : O3IrrepId or str
        Either a spherical-wave identity, or an irrep name within
        `parent_group`.
    child : PointGroup
        Target subgroup.
    parent_group : PointGroup, optional
        Required when `parent` is an irrep name.
    parity : ParityFilter, optional
        Restrict to basis slots odd/even at the filter plane before
        decomposing.  Needs parent irrep matrices.
    """
    if isinstance(parent, str):
        if parent_group is None:
            raise ValueError("parent_group is required for a named parent irrep")
        label = f"{parent_group.name}:{parent}"
    else:
        label = parent
    chi, dim = _character_on_elements(parent, parent_group, child, parity)
    entries = _decompose(chi, child)
    result = SubductionResult(label, child.name, entries, dim)
    if result.total_dimension(child) != dim:
        raise ValueError("dimension bookkeeping failed in subduction")
    return result


def chain_subduce(parent, path, parity: ParityFilter | None = None,
                  parity_stage: str | None = None) -> list[SubductionResult]:
    """Thread a representation down a chain of subgroups.

    `path` lists group names (or PointGroups) from the first finite group to
    the last.  The optional parity filter applies where the stage named by
    `parity_stage` subduces into the next group (default: at D_4h when it is
    on the path, else at the first stage).  Returns one SubductionResult per
    hop; multiplicities accumulate multiplicatively along the chain.
    """
    groups = [g if isinstance(g, PointGroup) else builtin_group(g) for g in path]
    if not groups:
        raise ValueError("path must name at least one group")
    if parity is not None and parity_stage is None:
        names = [g.name for g in groups]
        parity_stage = "D_4h" if "D_4h" in names else names[0]

    results = []
    first = subduce(parent, groups[0])
    results.append(first)
    current = list(first.entries)
    for hop in range(1, len(groups)):
        upper, lower = groups[hop - 1], groups[hop]
        use_filter = parity is not None and upper.name == parity_stage
        merged = {}
        total_dim = Fraction(0)
        for name, mult in current:
            part = subduce(name, lower, parent_group=upper,
                           parity=parity if use_filter else None)
            for child_name, m in part.entries:
                merged[child_name] = merged.get(child_name, Fraction(0)) + mult * m
            total_dim += mult * part.parent_dimension
        order = [p.name for p in lower.irreps]
        entries = tuple((n, merged[n]) for n in order if n in merged and merged[n] != 0)
        summary = f"{upper.name}[{'|'.join(n for n, _ in current)}]"
        if use_filter:
            summary += f" ({parity.keep} at plane)"
        results.append(SubductionResult(summary, lower.name, entries, total_dim))
        current = list(entries)

    # apply a filter sitting at the terminal stage (nothing below it to
    # subduce into, so it reduces to dropping wrong-parity irreps in place)
    if parity is not None and groups[-1].name == parity_stage:
        terminal = groups[-1]
        kept = filtered_stage_content(terminal, current, parity)
        total = sum((m * terminal.irrep(n).dimension for n, m in kept), Fraction(0))
        results.append(SubductionResult(
            f"{terminal.name} ({parity.keep} at plane)", terminal.name, kept, total))
    return results


def filtered_stage_content(group: PointGroup, entries,
                           parity: ParityFilter) -> tuple:
    """Per-irrep surviving slot fractions of a stage content under a filter."""
    out = []
    for name, mult in entries:
        p = group.irrep(name)
        n_match = len(_plane_slots(group, p, parity))
        if n_match:
            out.append((name, mult * Fraction(n_match, p.dimension)))
    return tuple(out)


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def spherical_to_octahedral_table(tmax: int = 6) -> list:
    """Octahedral content of every vector spherical wave up to tmax.

    One row per (t, s): the subduction of the (2t+1)-dim wave onto O_h.
    """
    oh = builtin_group("O_h")
    rows = []
    for t in range(1, tmax + 1):
        for s in (1, 2):
            wave = O3IrrepId(t, s)
            rows.append((wave, subduce(wave, oh)))
    return rows


def octahedral_chain_table() -> list:
    """Descent of each O_h irrep through D_4h toward C_2v under the odd filter.

    One row per O_h irrep with its D_4h content, the plane-operation matrix
    of each D_4h branch, the branches surviving the odd (PEC-plane) filter,
    and their continuation onto C_4v and C_2v.
    """
    oh = builtin_group("O_h")
    d4h = builtin_group("D_4h")
    c4v = builtin_group("C_4v")
    c2v = builtin_group("C_2v")
    plane_idx = d4h.find_element(PLANE_Z)

    rows = []
    for p in oh.irreps:
        branches = []
        step = subduce(p.name, d4h, parent_group=oh)
        for child_name, mult in step.entries:
            child = d4h.irrep(child_name)
            gamma = np.asarray(child.matrices[plane_idx])
            odd = len(_plane_slots(d4h, child, ParityFilter("odd"))) == child.dimension
            branch = {
                "d4h": child_name,
                "multiplicity": mult,
                "plane_matrix": tuple(tuple(float(x) + 0.0 for x in r) for r in gamma),
                "odd": odd,
                "c4v": None,
                "c2v": None,
            }
            if odd:
                down = subduce(child_name, c4v, parent_group=d4h)
                branch["c4v"] = down.entries
                c2v_content = {}
                for name4, m4 in down.entries:
                    deeper = subduce(name4, c2v, parent_group=c4v)
                    for name2, m2 in deeper.entries:
                        c2v_content[name2] = c2v_content.get(name2, Fraction(0)) \
                            + m4 * m2
                branch["c2v"] = tuple(sorted(c2v_content.items()))
            branches.append(branch)
        rows.append({"oh": p.name, "branches": branches})
    return rows
