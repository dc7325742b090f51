"""Conditional MAP inference and ROC evaluation.

MAP minimizes the total weighted hinge penalty over the free target
variables, a convex problem solved here by round-robin exact coordinate
minimization: each variable's conditional cost is piecewise linear (or
piecewise quadratic for the squared hinge), so its exact minimum lies among
the interval endpoints, the hinge roots and, for p=2, the per-piece vertex.
Ties resolve to the smallest candidate value for determinism.

Per-variable moves alone can stall when variables are locked together by
opposing pairwise hinges (the kink of |y_i - y_j| is invisible to any
single coordinate), so once plain sweeps plateau the solver runs exact line
searches along the unit-diagonal directions of coupled variable pairs and
of small connected variable groups. Every move either strictly decreases
the objective or leaves the point unchanged, so the objective trace is
non-increasing and the result is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import AtomDatabase
from .errors import DegenerateLabels
from .grounding import Grounding, ground_clauses
from .learning import WeightedModel

SWEEP_TOL = 1e-6
MAX_SWEEPS = 500


@dataclass(frozen=True)
class MapSolution:
    """MAP values per free target atom plus the total weighted penalty."""

    values: dict[int, float]
    objective: float


def _candidate_values(hinges: list[tuple[float, float, float]], lo: float, hi: float, p: int) -> set[float]:
    """Candidate minimizers of sum_j w_j * max(a_j + b_j t, 0)**p on [lo, hi]:
    the ends, the hinge roots inside, and for p=2 each piece's vertex."""
    cands = {lo, hi}
    for _w, a, b in hinges:
        if b != 0.0 and lo < -a / b < hi:
            cands.add(-a / b)
    if p == 2:
        # the cost is quadratic between consecutive roots; add each piece's vertex
        points = sorted(cands)
        for seg_lo, seg_hi in zip(points, points[1:]):
            mid = 0.5 * (seg_lo + seg_hi)
            active = [(w, a, b) for w, a, b in hinges if a + b * mid > 0.0]
            c2 = sum(w * b * b for w, a, b in active)
            c1 = sum(2.0 * w * a * b for w, a, b in active)
            if c2 > 0.0 and seg_lo < -c1 / (2.0 * c2) < seg_hi:
                cands.add(-c1 / (2.0 * c2))
    return cands


def map_infer(
    model: WeightedModel,
    db: AtomDatabase,
    free_atoms: Sequence[int] | None = None,
    grounding: Grounding | None = None,
    p: int = 1,
    max_sweeps: int = MAX_SWEEPS,
    tol: float = SWEEP_TOL,
) -> MapSolution:
    """Minimize the model's total weighted penalty over the free variables.

    `free_atoms` defaults to all target atoms; their stored values are
    ignored and they start at 0. Other atoms stay fixed at their stored
    values. Sweeps stop once the objective decrease falls below `tol` or
    after `max_sweeps` rounds; the objective is non-increasing throughout.
    """
    free = list(db.targets) if free_atoms is None else list(free_atoms)
    if grounding is None:
        grounding = ground_clauses(model.clauses, db, free_atoms=frozenset(free))

    values = db.value_vector()
    values[free] = 0.0
    weights = np.asarray(model.weights, dtype=np.float64)

    # static per-ground data: owning weight, and each free atom's coefficient
    g_weight = weights[grounding.g_clause] if len(grounding) else np.zeros(0)
    coef: dict[int, dict[int, float]] = {i: {} for i in free}
    free_set = set(free)
    for gid, atom, c in zip(grounding.term_ground, grounding.term_atom, grounding.term_coef):
        if atom in free_set:
            coef[int(atom)][int(gid)] = coef[int(atom)].get(int(gid), 0.0) + float(c)

    inner = grounding.inner_values(values)

    # variable pairs coupled through a shared ground clause
    ground_vars: dict[int, list[int]] = {}
    for atom in free:
        for gid in coef[atom]:
            ground_vars.setdefault(gid, []).append(atom)
    pair_set: set[tuple[int, int]] = set()
    for members in ground_vars.values():
        uniq = sorted(set(members))
        for a in range(len(uniq)):
            for b in range(a + 1, len(uniq)):
                pair_set.add((uniq[a], uniq[b]))
    pairs = sorted(pair_set)
    groups = _connected_groups(pairs, limit=2000)

    def objective() -> float:
        if not len(inner):
            return 0.0
        return float((g_weight * np.maximum(inner, 0.0) ** p).sum())

    def move_single(atom: int) -> None:
        incident = coef[atom]
        if not incident:
            return
        y_old = values[atom]
        hinges = []
        for gid, b in incident.items():
            a = inner[gid] - b * y_old
            hinges.append((float(g_weight[gid]), float(a), float(b)))
        best_y, best_cost = 0.0, np.inf
        for y in sorted(_candidate_values(hinges, 0.0, 1.0, p)):
            cost = sum(w * max(a + b * y, 0.0) ** p for w, a, b in hinges)
            if cost < best_cost:  # strict: ties keep the smaller candidate
                best_y, best_cost = y, cost
        if best_y != y_old:
            values[atom] = best_y
            for gid, b in incident.items():
                inner[gid] += b * (best_y - y_old)

    def move_line(atoms: tuple[int, ...], dirs: tuple[float, ...]) -> None:
        """Exact line search along y_atoms += dirs * t inside the box."""
        lo, hi = -np.inf, np.inf
        for atom, d in zip(atoms, dirs):
            if d > 0:
                lo, hi = max(lo, -values[atom]), min(hi, 1.0 - values[atom])
            else:
                lo, hi = max(lo, values[atom] - 1.0), min(hi, values[atom])
        if hi <= lo:
            return
        involved = sorted(set().union(*(coef[a].keys() for a in atoms)))
        hinges = []
        for gid in involved:
            slope = sum(d * coef[a].get(gid, 0.0) for a, d in zip(atoms, dirs))
            hinges.append((float(g_weight[gid]), float(inner[gid]), float(slope)))
        cands = _candidate_values(hinges, lo, hi, p)
        cands.add(0.0)
        best_t = 0.0
        best_cost = sum(w * max(a, 0.0) ** p for w, a, _b in hinges)
        for t in sorted(cands, key=lambda t: (abs(t), t)):
            cost = sum(w * max(a + b * t, 0.0) ** p for w, a, b in hinges)
            if cost < best_cost - 1e-15:  # strict: prefer not moving on ties
                best_t, best_cost = t, cost
        if best_t != 0.0:
            for atom, d in zip(atoms, dirs):
                values[atom] += d * best_t
            for gid in involved:
                slope = sum(d * coef[a].get(gid, 0.0) for a, d in zip(atoms, dirs))
                inner[gid] += slope * best_t

    obj = objective()
    for _ in range(max_sweeps):
        for atom in free:
            move_single(atom)
        new_obj = objective()
        if obj - new_obj < tol:
            # plain sweeps plateaued: search diagonal directions of coupled groups
            for group in groups:
                for dirs in _diag_directions(len(group)):
                    move_line(group, dirs)
            new_obj = objective()
        if obj - new_obj < tol:
            obj = new_obj
            break
        obj = new_obj
    return MapSolution(values={i: float(values[i]) for i in free}, objective=obj)


def _connected_groups(pairs: list[tuple[int, int]], limit: int) -> list[tuple[int, ...]]:
    """Coupled pairs plus the connected triples they span, capped at `limit`."""
    groups: list[tuple[int, ...]] = list(pairs)
    adjacent: dict[int, set[int]] = {}
    for i, j in pairs:
        adjacent.setdefault(i, set()).add(j)
        adjacent.setdefault(j, set()).add(i)
    triples: set[tuple[int, ...]] = set()
    for i, j in pairs:
        for k in sorted(adjacent.get(i, ()) | adjacent.get(j, ())):
            if k != i and k != j:
                triples.add(tuple(sorted((i, j, k))))
            if len(groups) + len(triples) >= limit:
                return groups + sorted(triples)
    return groups + sorted(triples)


def _diag_directions(n: int) -> list[tuple[float, ...]]:
    """Unit-diagonal directions, first component fixed to +1."""
    out: list[tuple[float, ...]] = []
    for mask in range(2 ** (n - 1)):
        out.append((1.0,) + tuple(1.0 if mask & (1 << b) else -1.0 for b in range(n - 1)))
    return out


@dataclass(frozen=True)
class RocResult:
    auc: float
    n_pos: int
    n_neg: int


def auc_roc(scores: Mapping, labels: Mapping) -> RocResult:
    """Area under the ROC curve in the rank-sum formulation.

    Every positive-negative pair contributes 1 when the positive outscores
    the negative and 1/2 on a tie, which makes the result invariant under
    strictly monotone transforms of the scores.
    """
    keys = [k for k in labels if k in scores]
    y = np.array([1 if labels[k] else 0 for k in keys], dtype=np.int64)
    s = np.array([float(scores[k]) for k in keys], dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"n_pos={n_pos}, n_neg={n_neg}")
    order = np.argsort(s, kind="mergesort")
    s_sorted, y_sorted = s[order], y[order]
    # average ranks over tied score groups (1-based)
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        ranks[i : j + 1] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[y_sorted == 1].sum())
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return RocResult(auc=float(auc), n_pos=n_pos, n_neg=n_neg)
