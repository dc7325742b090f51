"""Conditional MAP inference and ROC evaluation.

MAP minimizes the total weighted hinge penalty

    sum_g w_g * max(c_g + sum_j a_gj y_j, 0) ** p,    p in {1, 2},

at the model's p, over the free target variables y in [0, 1]^n, a convex
problem solved by consensus ADMM, the hinge-loss MRF MAP solver of Bach et
al. (2017, JMLR).

At p = 1 a presolve, as an LP presolve does (Andersen & Andersen 1995),
first takes out every hinge max(c + a y, 0) on one free atom whose sign
holds on [0, 1]. With c >= 0 and c + a >= 0 it is the linear term
w (c + a y) there, and its slope w a joins its atom's consensus step; with
c <= 0 and c + a <= 0 it is zero there, and is dropped. Every (ground
clause, free atom) row of `Grounding.pairs` of the other hinges holds a
local copy of its atom's value. An atom left without copies is solved in
closed form: 1 if its slopes sum below 0, else 0. One iteration

- moves each ground clause's copies to the proximal point of its hinge, in
  closed form: the hinge varies only along its coefficient vector a, so the
  copies step along a by one length per ground clause;
- sets every variable to the sum of its copies plus their scaled duals,
  less its slope, over its copy count, clipped to [0, 1] (the consensus
  step);
- adds each copy's disagreement with its variable to its scaled dual.

ADMM runs with penalty 1 on the weights divided by their mean over all live
hinges, folded ones included: that keeps the minimizer, where a fixed
penalty suits only weights near its own size (Boyd et al. 2011, section
3.4.1). The reported objective uses the model's own weights.

It stops once the primal residual (copies against variables) and the dual
residual (the last change of the variables) pass the absolute and relative
tests of Boyd et al. (2011, section 3.3.1), or at the iteration cap; the
solution says which. Every sum is a `bincount` in row order or numpy's
pairwise sum, so the result is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import AtomDatabase
from .errors import DegenerateLabels
from .grounding import Grounding
from .learning import WeightedModel

ABS_TOL = 1e-7  # absolute residual tolerance, scaled by the square root of the copy count
REL_TOL = 1e-7  # relative residual tolerance; 1e-6 stopped a slow coupled MAP 1e-5 above its optimum
MAX_ITERS = 10_000


def _norm(z: np.ndarray, work: np.ndarray) -> float:
    """The 2-norm of `z`, squaring it into `work` (which may be `z`)."""
    # numpy's own sum, not a BLAS dot: a threaded dot could change with the
    # thread count, and with it the stopping iteration
    return float(np.sqrt(np.multiply(z, z, out=work).sum()))


@dataclass(frozen=True)
class MapSolution:
    """MAP values per free target atom, the total weighted penalty, and the
    stop record: iterations run, the final primal and dual residual norms,
    and whether both passed their tests before the iteration cap. When the
    presolve leaves no copy, no iteration runs: `iterations` is 0, both
    residuals are 0 and `converged` is True."""

    values: dict[int, float]
    objective: float
    iterations: int = 0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    converged: bool = True


def map_infer(
    model: WeightedModel,
    db: AtomDatabase,
    free_atoms: np.ndarray | Sequence[int],
    grounding: Grounding,
    max_iters: int = MAX_ITERS,
) -> MapSolution:
    """Minimize the model's total weighted penalty, at the model's p, over
    the free variables.

    `grounding` is the model's clauses grounded by `ground_clauses` with the
    same `free_atoms` (indices). The free atoms' stored values are ignored
    and ADMM starts the ones holding copies at 0. Other atoms stay fixed at
    their stored values, and only hinges on free atoms set the weights'
    scale.
    Iterations stop once both residuals pass their tests or after `max_iters`.
    """
    p, free = model.p, np.asarray(free_atoms, dtype=np.int64)

    values = db.value_vector()
    values[free] = 0.0
    weights = np.asarray(model.weights, dtype=np.float64)

    is_free = np.zeros(len(values), dtype=bool)
    is_free[free] = True
    ground, atom, coef = grounding.pairs(is_free)
    # a free atom in both body and head cancels to coefficient 0: that copy
    # constrains nothing, and dropping it keeps every remaining hinge's |a| > 0
    live = coef != 0.0
    ground, atom, a = ground[live], atom[live], coef[live]
    hinges, g = np.unique(ground, return_inverse=True)
    c = grounding.inner_values(values)[hinges]  # each hinge's expression at y = 0
    w = weights[grounding.g_clause[hinges]]
    if len(w) and w.mean() > 0.0:
        w = w / w.mean()  # same minimizer, at the penalty's scale
    # presolve at p = 1: a hinge max(c + a y, 0) on one free atom whose sign
    # holds on [0, 1] is there the linear term w (c + a y), or zero. It holds
    # no copy: its slope w a joins its atom's consensus step, and an atom
    # left without copies takes the end of [0, 1] its slope points to, 0 on
    # a flat tie
    start, end = c[g], c[g] + a
    alone = (np.bincount(g)[g] == 1) & (p == 1)
    linear = alone & (start >= 0.0) & (end >= 0.0)
    held = ~linear & ~(alone & (start <= 0.0) & (end <= 0.0))
    slope = np.bincount(atom[linear], weights=w[g[linear]] * a[linear], minlength=len(values))
    values[free] = np.where(slope[free] < 0.0, 1.0, 0.0)
    grounds, g = np.unique(g[held], return_inverse=True)
    variables, v = np.unique(atom[held], return_inverse=True)
    a, const, w, slope = a[held], c[grounds], w[grounds], slope[variables]
    norm2 = np.bincount(g, weights=a * a, minlength=len(grounds))
    # the prox step along a is min(max(s, 0), w |a|^2) / |a|^2 for p = 1 and
    # max(s, 0) * 2w / (1 + 2w |a|^2) for p = 2, s the hinge at the point
    cap = w * norm2 if p == 1 else np.inf
    scale = 1.0 / norm2 if p == 1 else 2.0 * w / (1.0 + 2.0 * w * norm2)
    copies = np.bincount(v, minlength=len(variables))
    n = len(a)
    eps_abs = float(np.sqrt(n)) * ABS_TOL
    # y_rows lies in [0, 1]^n and x = r + y_rows, so max(|x|, |y_rows|) is at
    # most sqrt(n) + primal: a primal residual that fails the relative test
    # against the looser bound + primal fails the real test too, and the
    # other norms need not be computed
    bound = 2.0 * float(np.sqrt(n)) + 1.0

    y, y_rows, u = np.zeros(len(variables)), np.zeros(n), np.zeros(n)
    x, r, rows, work = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    iterations, primal, dual, converged = 0, 0.0, 0.0, n == 0
    while iterations < max_iters and not converged:
        iterations += 1
        np.subtract(y_rows, u, out=x)  # each copy's prox centre
        s = const + np.bincount(g, weights=np.multiply(a, x, out=work), minlength=len(grounds))
        step = np.minimum(np.maximum(s, 0.0), cap) * scale
        # mode="clip" lets `take` write into `out` unbuffered; g and v are in range
        x -= np.multiply(np.take(step, g, out=work, mode="clip"), a, out=work)
        total = np.bincount(v, weights=np.add(x, u, out=work), minlength=len(variables))
        y = np.clip((total - slope) / copies, 0.0, 1.0)
        np.take(y, v, out=rows, mode="clip")
        np.subtract(x, rows, out=r)
        u += r
        primal = _norm(r, work)
        can_pass = primal <= eps_abs + REL_TOL * (bound + primal)
        if can_pass or iterations == max_iters:  # the cap's stop record keeps the dual residual
            dual = _norm(np.subtract(rows, y_rows, out=work), work)
        y_rows, rows = rows, y_rows
        converged = bool(
            can_pass
            and primal <= eps_abs + REL_TOL * max(_norm(x, work), _norm(y_rows, work))
            and dual <= eps_abs + REL_TOL * _norm(u, work)
        )

    values[variables] = y + 0.0  # + 0.0 turns a clipped -0.0 into +0.0
    objective = float((weights[grounding.g_clause] * grounding.penalties(values, p)).sum())
    return MapSolution(
        values=dict(zip(free.tolist(), values[free].tolist())),
        objective=objective,
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        converged=converged,
    )


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
    # average ranks over tied score groups (1-based): a group spans the
    # sorted positions i..j
    i = np.searchsorted(s_sorted, s_sorted, "left")
    j = np.searchsorted(s_sorted, s_sorted, "right") - 1
    ranks = 0.5 * (i + j) + 1.0
    pos_rank_sum = float(ranks[y_sorted == 1].sum())
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return RocResult(auc=float(auc), n_pos=n_pos, n_neg=n_neg)
