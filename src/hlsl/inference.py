"""Conditional MAP inference and ROC evaluation.

MAP minimizes the total weighted hinge penalty over the free target
variables, a convex problem solved here by round-robin exact coordinate
minimization: each variable's conditional cost is piecewise linear (or
piecewise quadratic for the squared hinge), so its exact minimum lies among
the interval endpoints, the hinge roots and, for p=2, the per-piece vertex.
Ties resolve to the smallest candidate value for determinism. The hinges
are the (ground clause, atom) rows of `Grounding.pairs`, viewed atom-major.

Per-variable moves alone can stall when variables are locked together by
opposing pairwise hinges (the kink of |y_i - y_j| is invisible to any
single coordinate), so once plain sweeps plateau the solver runs exact line
searches along the unit-diagonal directions of coupled variable pairs and
of small connected variable groups. Every move either strictly decreases
the objective or leaves the point unchanged, so the objective trace is
non-increasing and the result is deterministic.
"""
from __future__ import annotations

import math
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


def _line_costs(w: np.ndarray, a: np.ndarray, b: np.ndarray, lo, hi, p: int, extra=()) -> tuple[np.ndarray, np.ndarray]:
    """Candidate minimizers t of sum_j w_j * max(a_j + b_j t, 0)**p on
    [lo, hi], ascending, and the cost at each. The candidates are the ends,
    the hinge roots inside, for p=2 each piece's vertex, and `extra`.

    Every sum runs sequentially in hinge order: flat minima are common, and
    a pairwise sum could change a last bit and with it the chosen candidate.
    """
    roots = (-x / y for x, y in zip(a.tolist(), b.tolist()) if y != 0.0)
    cands = {lo, hi, *(r for r in roots if lo < r < hi)}
    if p == 2:
        # the cost is quadratic between consecutive roots; add each piece's vertex
        points = np.array(sorted(cands))
        active = a + b * (0.5 * (points[:-1] + points[1:]))[:, None] > 0.0
        c2 = _sequential_sum(np.where(active, w * b * b, 0.0))
        c1 = _sequential_sum(np.where(active, 2.0 * w * a * b, 0.0))
        curved = c2 > 0.0
        vertex = -c1[curved] / (2.0 * c2[curved])
        cands.update(vertex[(points[:-1][curved] < vertex) & (vertex < points[1:][curved])].tolist())
    t = np.array(sorted(cands.union(extra)))
    phi = np.maximum(a + b * t[:, None], 0.0)
    return t, _sequential_sum(w * (phi if p == 1 else _pow(phi, 2.0).astype(np.float64)))


# Python's float power, the C library's pow: phi**2 there can differ from
# numpy's phi * phi in the last bit, and the costs must match a Python loop's
_pow = np.frompyfunc(math.pow, 2, 1)


def _sequential_sum(rows: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a Python loop adds them."""
    return rows.cumsum(axis=1)[:, -1]


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
    g_weight = weights[grounding.g_clause] if len(grounding) else np.zeros(0)

    # the free atoms' pairs, atom-major: atom x's are rows ptr[x]:ptr[x+1], grounds ascending
    ground, atom, coef = grounding.pairs(np.isin(np.arange(len(values)), free))
    by_atom = np.argsort(atom, kind="stable")
    x_ground, x_coef = ground[by_atom], coef[by_atom]
    ptr = [0, *np.cumsum(np.bincount(atom, minlength=len(values))).tolist()]

    inner = grounding.inner_values(values)

    # variable pairs coupled through a shared ground clause: each row with the later rows of its ground
    later = np.searchsorted(ground, ground, "right") - np.arange(len(ground)) - 1
    first = np.repeat(np.arange(len(ground)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    key = np.unique(atom[first] * np.int64(len(values)) + atom[second])
    pairs = list(zip((key // len(values)).tolist(), (key % len(values)).tolist()))
    groups = _connected_groups(pairs, limit=2000)
    # an uncoupled atom that stayed put stays put: no other move touches its grounds
    coupled, settled = {x for pair in pairs for x in pair}, set()

    def objective() -> float:
        return float((g_weight * np.maximum(inner, 0.0) ** p).sum())

    def move_single(x: int) -> None:
        rows = slice(ptr[x], ptr[x + 1])
        if rows.start == rows.stop or x in settled:
            return
        gids, b, y_old = x_ground[rows], x_coef[rows], values[x]
        y, cost = _line_costs(g_weight[gids], inner[gids] - b * y_old, b, 0.0, 1.0, p)
        best_y = y[cost.argmin()]  # the first minimum: ties keep the smaller candidate
        if best_y != y_old:
            values[x] = best_y
            inner[gids] += b * (best_y - y_old)
        elif x not in coupled:
            settled.add(x)

    def move_line(atoms: tuple[int, ...], dirs: tuple[float, ...]) -> None:
        """Exact line search along y_atoms += dirs * t inside the box."""
        y, up = values[list(atoms)], np.array(dirs) > 0
        lo, hi = max(np.where(up, -y, y - 1.0)), min(np.where(up, 1.0 - y, y))
        if hi <= lo:
            return
        involved = np.unique(np.concatenate([x_ground[ptr[x] : ptr[x + 1]] for x in atoms]))
        terms = np.zeros((len(involved), len(atoms)))  # d * coefficient, 0 where absent
        for k, (x, d) in enumerate(zip(atoms, dirs)):
            rows = slice(ptr[x], ptr[x + 1])
            terms[np.searchsorted(involved, x_ground[rows]), k] = d * x_coef[rows]
        slope = _sequential_sum(terms)  # summed in atom order
        t, cost = _line_costs(g_weight[involved], inner[involved], slope, lo, hi, p, extra=(0.0,))
        best_t, best_cost = 0.0, cost[t == 0.0][0]
        # (|t|, t) order; only a candidate below the start can ever be taken
        for k in sorted(np.flatnonzero(cost < best_cost - 1e-15), key=lambda k: (abs(t[k]), t[k])):
            if cost[k] < best_cost - 1e-15:  # strict: prefer not moving on ties
                best_t, best_cost = t[k], cost[k]
        if best_t != 0.0:
            for x, d in zip(atoms, dirs):
                values[x] += d * best_t
            inner[involved] += slope * best_t

    obj = objective()
    for _ in range(max_sweeps):
        for x in free:
            move_single(x)
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
