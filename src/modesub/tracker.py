"""Tracking of characteristic modes across a frequency sweep.

With irrep labels and the von Neumann-Wigner constraint on (the default),
modes of one irrep never cross: inside each irrep, the trace at eigenvalue
rank r takes the r-th mode of the next snapshot in ascending (lambda, mode
index) order.  Only where an irrep's mode count changes does an optimal
assignment over eigencurrent correlation (or eigenvalue proximity when no
currents are available) pick which traces end and which modes are born.
Unlabelled sweeps, and labelled ones with the constraint off, are matched
by that assignment alone, restricted to equal labels when labels are used.

Only the assignment needs scipy (`scipy.optimize`), and `track` imports it
when it first assigns, so importing this module loads no scipy, and neither
does a labelled sweep whose irrep counts stay constant.  `fileio` imports
this module only when it reads a mode-set file into a `Snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: |lambda| jump across one step treated as passing through a pole
DEFAULT_JUMP_THRESHOLD = 1e3

#: minimum gap separating microscopic from macroscopic avoidance
DEFAULT_GAP_THRESHOLD = 1.0


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Modes of one frequency point: eigenvalues with optional currents
    and irrep labels."""

    frequency: float
    lambdas: np.ndarray
    vectors: np.ndarray | None = None
    labels: tuple | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if self.vectors is not None:
            v = np.asarray(self.vectors, dtype=float)
            if v.ndim != 2 or v.shape[1] != len(lam):
                raise ValueError("vectors must have one column per mode")
            object.__setattr__(self, "vectors", v)
        if self.labels is not None:
            if len(self.labels) != len(lam):
                raise ValueError("labels must have one entry per mode")
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def count(self) -> int:
        return len(self.lambdas)


@dataclass
class TracePoint:
    frequency: float
    lam: float
    mode_index: int        # column in the snapshot this point came from


@dataclass
class TrackedTrace:
    id: int
    irrep: str | None
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def frequencies(self):
        return np.array([p.frequency for p in self.points])

    @property
    def lambdas(self):
        return np.array([p.lam for p in self.points])


@dataclass(frozen=True)
class TrackOptions:
    use_labels: bool = True
    enforce_no_crossing: bool = True


def correlation(v_prev: np.ndarray, v_next: np.ndarray,
                weight: np.ndarray | None = None) -> np.ndarray:
    """Normalized correlation |I_m^T W I_n| / (|I_m|_W |I_n|_W), all pairs."""
    if weight is None:
        gram = v_prev.T @ v_next
        n_prev = np.linalg.norm(v_prev, axis=0)
        n_next = np.linalg.norm(v_next, axis=0)
    else:
        gram = v_prev.T @ weight @ v_next
        n_prev = np.sqrt(np.einsum("im,ij,jm->m", v_prev, weight, v_prev))
        n_next = np.sqrt(np.einsum("im,ij,jm->m", v_next, weight, v_next))
    return np.abs(gram) / np.outer(n_prev, n_next)


def _affinity(prev: Snapshot, nxt: Snapshot, pi, ni):
    if prev.vectors is not None and nxt.vectors is not None:
        return correlation(prev.vectors[:, pi], nxt.vectors[:, ni])
    a = prev.lambdas[pi][:, None]
    b = nxt.lambdas[ni][None, :]
    return -np.abs(a - b)


def track(snapshots, options: TrackOptions | None = None) -> list:
    """Thread modes through a frequency-ordered snapshot sequence.

    Birth and death events record modes that appear or disappear when the
    matched counts differ.  A single snapshot degenerates to one single-point
    trace per mode.  Snapshot frequencies must be finite and distinct.
    """
    options = options or TrackOptions()
    snaps = sorted(snapshots, key=lambda s: s.frequency)
    if not snaps:
        raise ValueError("need at least one snapshot")
    for i, s in enumerate(snaps):
        if not np.isfinite(s.frequency):
            raise ValueError(f"snapshot frequency {s.frequency} is not finite")
        if i and s.frequency == snaps[i - 1].frequency:
            raise ValueError(f"two snapshots at frequency {s.frequency}")
    if len({s.vectors.shape[0] for s in snaps if s.vectors is not None}) > 1:
        raise ValueError("snapshots carry vectors of different dimension")

    have_labels = options.use_labels and all(s.labels is not None for s in snaps)
    by_rank = have_labels and options.enforce_no_crossing
    traces: list[TrackedTrace] = []
    active: dict[int, int] = {}       # trace id -> mode index in latest snapshot

    def open_trace(snap, k, born=False):
        tid = len(traces)
        tr = TrackedTrace(tid, snap.labels[k] if have_labels else None)
        tr.points.append(TracePoint(snap.frequency, float(snap.lambdas[k]), k))
        if born:
            tr.events.append({"kind": "birth", "frequency": snap.frequency})
        traces.append(tr)
        active[tid] = k

    first = snaps[0]
    for k in range(first.count):
        open_trace(first, k)

    for prev, nxt in zip(snaps, snaps[1:]):
        # on the rank path, traces and modes come in ascending (lambda, mode
        # index) order; otherwise in trace id and mode index order
        tids, cols = list(active), range(nxt.count)
        if by_rank:
            held = np.array(list(active.values()), dtype=int)
            tids = [tids[i] for i in np.lexsort((held, prev.lambdas[held]))]
            cols = np.argsort(nxt.lambdas, kind="stable").tolist()
        groups = {}                   # irrep -> (trace ids, modes of nxt)
        for tid in tids:
            groups.setdefault(traces[tid].irrep, ([], []))[0].append(tid)
        for k in cols:
            key = nxt.labels[k] if have_labels else None
            groups.setdefault(key, ([], []))[1].append(k)
        survivors = {}
        for key, (g_tids, g_cols) in groups.items():
            rank = by_rank and key is not None   # None names no irrep
            if rank and len(g_tids) == len(g_cols):
                # von Neumann-Wigner: one irrep's traces keep their order
                survivors.update(zip(g_tids, g_cols))
                continue
            if not g_tids or not g_cols:
                continue
            # loaded here, so that a labelled sweep whose irrep counts stay
            # constant, and importing tracker or fileio, load no scipy
            from scipy.optimize import linear_sum_assignment
            pi = np.array([active[t] for t in g_tids])
            aff = _affinity(prev, nxt, pi, np.array(g_cols))
            rows, sel = linear_sum_assignment(aff, maximize=True)
            if rank:
                # the matching only picks who ends and who is born; the
                # continuing traces (rows come sorted) take the matched
                # modes in rank order
                sel = np.sort(sel)
            survivors.update((g_tids[r], g_cols[c]) for r, c in zip(rows, sel))
        for tid in list(active):
            if tid in survivors:
                k = survivors[tid]
                traces[tid].points.append(
                    TracePoint(nxt.frequency, float(nxt.lambdas[k]), k))
                active[tid] = k
            else:
                traces[tid].events.append(
                    {"kind": "death", "frequency": prev.frequency})
                del active[tid]
        matched_cols = set(survivors.values())
        for k in range(nxt.count):
            if k not in matched_cols:
                open_trace(nxt, k, born=True)
    return traces


def split_at_poles(trace: TrackedTrace,
                   jump_threshold: float = DEFAULT_JUMP_THRESHOLD) -> list:
    """Split a trace wherever it passes through an eigenvalue pole.

    A pole shows up as a step from below -threshold to above +threshold
    between adjacent points; the reversed order (a drop from +threshold to
    -threshold, seen on structures with holes) splits too and is annotated
    as reversed.  Split annotations record the bracketing frequency
    interval.
    """
    cuts = []
    for i in range(len(trace.points) - 1):
        a = trace.points[i].lam
        b = trace.points[i + 1].lam
        if a < -jump_threshold and b > jump_threshold:
            cuts.append((i + 1, "pole-split"))
        elif a > jump_threshold and b < -jump_threshold:
            cuts.append((i + 1, "pole-split-reversed"))
    if not cuts:
        return [trace]
    births = [e for e in trace.events if e.get("kind") == "birth"]
    deaths = [e for e in trace.events if e.get("kind") == "death"]
    bounds = [0] + [c for c, _ in cuts] + [len(trace.points)]
    pieces = []
    for seg in range(len(bounds) - 1):
        piece = TrackedTrace(trace.id, trace.irrep,
                             trace.points[bounds[seg]:bounds[seg + 1]], [])
        if seg == 0:
            piece.events.extend(births)
        if seg < len(cuts):
            cut, kind = cuts[seg]
            piece.events.append({
                "kind": kind,
                "interval": (trace.points[cut - 1].frequency,
                             trace.points[cut].frequency),
            })
        else:
            piece.events.extend(deaths)
        pieces.append(piece)
    return pieces


@dataclass(frozen=True)
class AvoidanceSignature:
    """A local gap minimum between two traces of the same irrep."""

    lower_id: int
    upper_id: int
    irrep: str
    frequency: float
    gap: float
    kind: str              # "MICA" below the gap threshold, "MACA" above

    @property
    def microscopic(self) -> bool:
        return self.kind == "MICA"


def detect_avoidances(traces, gap_threshold: float = DEFAULT_GAP_THRESHOLD
                      ) -> list:
    """Find local gap minima between every same-irrep trace pair.

    Traces are linearly resampled onto the union of their frequency grids
    over the overlap.  Each interior local minimum of |lambda_a - lambda_b|
    yields a signature pairing the indentation (lower trace) with the peak
    (upper trace): microscopic (MICA) when the closest approach stays below
    `gap_threshold`, macroscopic (MACA) otherwise.  Signatures come ordered
    by trace pair (positions in `traces`) and then by frequency.

    Traces of one irrep that share a frequency array share that grid with
    every partner, so the search runs on arrays per pair of such groups.
    """
    groups = {}            # irrep -> frequency bytes -> (frequencies, positions)
    for pos, tr in enumerate(traces):
        f = tr.frequencies
        if tr.irrep is not None and len(f) >= 2:
            groups.setdefault(tr.irrep, {}).setdefault(
                f.tobytes(), (f, []))[1].append(pos)
    hits = []
    for same_irrep in groups.values():
        members = list(same_irrep.values())
        for u, (fu, pu) in enumerate(members):
            for fv, pv in members[u:]:
                hits.extend(_group_minima(traces, fu, pu, fv, pv))
    if not hits:
        return []
    ia, ib, k, lower, upper, freq, gap = (np.concatenate(c) for c in zip(*hits))
    out = []
    for i in np.lexsort((k, ib, ia)).tolist():
        g = float(gap[i])
        out.append(AvoidanceSignature(
            traces[lower[i]].id, traces[upper[i]].id, traces[ia[i]].irrep,
            float(freq[i]), g, "MICA" if g <= gap_threshold else "MACA"))
    return out


#: gap entries evaluated at once by detect_avoidances (bounds its memory)
_GAP_CHUNK = 1 << 20


def _group_minima(traces, fu, pu, fv, pv):
    """Gap minima between traces at positions pu (frequencies fu) and pv (fv).

    Yields (ia, ib, grid index, lower, upper, frequency, gap) arrays per
    chunk, with ia < ib the pair's positions; pu is pv for pairs inside one
    group.
    """
    lo = max(fu.min(), fv.min())
    hi = min(fu.max(), fv.max())
    if hi <= lo:
        return
    grid = np.union1d(fu, fv)
    grid = grid[(grid >= lo) & (grid <= hi)]
    if len(grid) < 3:
        return
    same = pv is pu
    gu = np.array([np.interp(grid, fu, traces[p].lambdas) for p in pu])
    gv = gu if same else np.array([np.interp(grid, fv, traces[p].lambdas)
                                       for p in pv])
    pu, pv = np.array(pu), np.array(pv)
    step = max(1, _GAP_CHUNK // (len(pv) * len(grid)))
    for r0 in range(0, len(pu), step):
        rows = slice(r0, r0 + step)
        gap = np.abs(gu[rows, None, :] - gv[None, :, :])
        hit = (gap[..., 1:-1] <= gap[..., :-2]) & (gap[..., 1:-1] < gap[..., 2:])
        if same:
            hit &= (pv[None, :] > pu[rows, None])[..., None]
        i, j, k = np.nonzero(hit)
        i += r0
        k += 1
        a, b = pu[i], pv[j]
        la, lb = gu[i, k], gv[j, k]
        a_lower = np.where(a < b, la <= lb, la < lb)   # ties: earlier trace
        yield (np.minimum(a, b), np.maximum(a, b), k, np.where(a_lower, a, b),
               np.where(a_lower, b, a), grid[k], gap[i - r0, j, k])
