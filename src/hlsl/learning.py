"""Weight learning and the two structure learners.

Weights live in [0, w_max]. An optional Gaussian prior on the weights
regularizes separable data; the hard cap keeps the box well-posed either
way. Every fit is one solver, projected Newton steps on any number of
independent blocks at once (`_newton`):

- pseudolikelihood (`pll`): one block of all the model's clauses;
- its piecewise factorization (`ppll`): every clause's term is concave in
  its own weight alone, so every clause is a block of one weight.

The greedy structure learner repeatedly adds whichever candidate clause most
improves the pseudolikelihood after refitting weights; a round refits every
extension of the current model as a block each, in one lockstep fit. The
piecewise learner fits all candidate weights once and drops the clauses
whose weight stayed at zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .clauses import PathClause, format_clause, parse_clause
from .data import AtomDatabase
from .engine import Workspace
from .errors import MalformedLine, NoCandidates, NonFiniteObjective
from .grounding import Grounding, ground_clauses

MODEL_HEADER = "# hlsl-model v1"
_HEADERS = {1: MODEL_HEADER, 2: MODEL_HEADER + " p=2"}  # a model file's header at each p

# One trace row per iteration: (iteration, objective, largest projected
# gradient); a weight fit's iteration is a Newton step, a gls iteration a
# clause addition.
TraceRow = tuple[int, float, float]


@dataclass
class WeightedModel:
    """An ordered clause list with its nonnegative weight vector, and the
    hinge power p (1 or 2) that the weights were fitted at."""

    clauses: list[PathClause]
    weights: np.ndarray
    p: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if len(self.clauses) != len(self.weights):
            raise ValueError("clauses and weights differ in length")
        if not np.isfinite(self.weights).all():
            raise ValueError("clause weights must be finite")
        if len(self.weights) and self.weights.min() < 0.0:
            raise ValueError("clause weights must be nonnegative")

    def __len__(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class LearnConfig:
    """Optimizer knobs. `l2_sigma` is the Gaussian prior variance (0 turns
    the prior off), `w_max` the weight cap and `p` the hinge power, 1 or 2,
    for both learners; the model a learner returns carries its `p`.

    Every weight fit takes projected Newton steps from the given weights (a
    new gls clause at 0) and stops once every clause's projected gradient
    |clip(w + g, 0, w_max) - w| (the KKT residual) is at most `tolerance`,
    once a step gains no more than the objective's rounding error, or after
    `max_iters` steps. The greedy learner takes `gls_outer_iters`
    clause additions with at most `gls_inner_iters` steps per refit, and
    stops early once a round gains less than `tolerance` relative to the
    score.
    """

    tolerance: float = 1e-4
    max_iters: int = 150
    w_max: float = 100.0
    l2_sigma: float = 100.0
    p: int = 1
    gls_outer_iters: int = 15
    gls_inner_iters: int = 50

    def __post_init__(self):
        for name in ("tolerance", "w_max", "l2_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.w_max <= 0.0:
            raise ValueError("w_max must be positive")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        for name in ("tolerance", "l2_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("max_iters", "gls_outer_iters", "gls_inner_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def objective_gradient(
    model: WeightedModel,
    grounding: Grounding,
    observed: np.ndarray,
    objective: str = "pll",
    l2_sigma: float = 0.0,
    p: int = 1,
) -> np.ndarray:
    """Ascent gradient of the log objective with respect to the weights.

    Per clause: the expected-minus-observed hinge penalties summed over the
    clause's (variable, grounding) occurrences, minus w/l2_sigma when the
    Gaussian prior is active. Expectations use the full conditional profile
    for `pll` and the single-clause profile for `ppll`.
    """
    grad = Workspace(grounding, observed, mode=objective, p=p).gradient(model.weights)
    return grad - model.weights / l2_sigma if l2_sigma > 0.0 else grad


def _residual(w: np.ndarray, grad: np.ndarray, w_max: float, k: int) -> np.ndarray:
    """The largest projected gradient |clip(w + g, 0, w_max) - w| of every
    run of k clauses, 0 where `w` is stationary on [0, w_max]."""
    return np.abs(np.clip(w + grad, 0.0, w_max) - w).reshape(-1, k).max(axis=1)


def _check_finite(value: float | np.ndarray) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteObjective(f"objective value {value!r}")


def _newton(
    ws: Workspace,
    w0: np.ndarray,
    config: LearnConfig,
    trace: list[TraceRow] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected Newton ascent (Bertsekas 1982) on every block's objective
    (`ws.total` plus the prior) at once, from `w0`; returns (weights, each
    block's `ws.total` at them, each block's largest projected residual
    |clip(w + g, 0, w_max) - w|).

    The blocks are contiguous runs of one width k. Every evaluated point
    costs one engine pass, which returns the gradient, the block totals and
    minus every block's exact Hessian (`Workspace.gradient`); the Gaussian
    prior of variance `l2_sigma` (none at 0) adds -w/l2_sigma, each block's
    -|w|^2/(2 l2_sigma) and I / l2_sigma to these, and the totals returned
    are those of the accepting pass. A clause at a bound whose gradient
    points out of the box is held and moves along its gradient; the free
    clauses solve their block's symmetrized system, with a ridge of 1e-12 of
    the block's largest curvature so that a clause without any stays
    solvable. Each block backtracks along the projection arc, halving its
    step from 1, until its objective passes the Armijo test less the
    objective's rounding error, 1e-13 of max(1, |objective|). A block stops
    once its residual is at most `tolerance`, once an accepted step gains no
    more than that rounding error (as one that leaves its weights unchanged
    does; at `tolerance` 0 the steps at the optimum move the weights back
    and forth by an ulp, and only this stop ends them), or after `max_iters`
    steps. Every sum keeps the element order of a workspace built for one
    block alone, so each block's weights are bit for bit those of its own
    run. Trace rows, one per step, hold the summed objective and the largest
    residual.
    """
    sigma, w_max = config.l2_sigma, config.w_max
    block, k = ws.clause_block, ws.n_clauses // ws.n_blocks

    def evaluate(wv: np.ndarray) -> tuple[np.ndarray, ...]:
        grad, totals, curv = ws.gradient(wv, with_terms=True, with_curvature=True)
        obj = totals
        if sigma > 0.0:
            grad = grad - wv / sigma
            obj = totals - np.bincount(block, weights=wv * wv, minlength=ws.n_blocks) / (2.0 * sigma)
            # a sigma below 1/DBL_MAX makes 1/sigma inf, which holds every weight at 0
            with np.errstate(over="ignore"):
                curv = curv + np.eye(k) / sigma
        _check_finite(grad)
        _check_finite(obj)
        return grad, totals, obj, curv

    def rounding(obj: np.ndarray) -> np.ndarray:
        return 1e-13 * np.maximum(1.0, np.abs(obj))

    w = np.clip(np.asarray(w0, dtype=np.float64), 0.0, w_max)
    grad, totals, obj, curv = evaluate(w)
    res = _residual(w, grad, w_max, k)
    running = res > config.tolerance
    for it in range(1, config.max_iters + 1):
        if not running.any():
            break
        W, G = w.reshape(-1, k), grad.reshape(-1, k)
        free = ~(((W <= 0.0) & (G <= 0.0)) | ((W >= w_max) & (G >= 0.0)))
        system = np.where(free[:, :, None] & free[:, None, :], 0.5 * (curv + curv.transpose(0, 2, 1)), 0.0)
        top = system.diagonal(axis1=1, axis2=2).max(axis=1)
        ridge = 1e-12 * np.where(top > 0.0, top, 1.0)
        system += np.where(free, ridge[:, None], 1.0)[:, :, None] * np.eye(k)
        d = G.copy()
        d[running] = np.linalg.solve(system[running], G[running, :, None])[..., 0]
        d = np.where(free, d, G).ravel()

        t = 1.0
        new_w, new_grad, new_totals, new_obj, new_curv = w, grad, totals, obj, curv
        pending = running.copy()
        while pending.any():
            cand = np.where(pending[block], np.clip(w + t * d, 0.0, w_max), w)
            cand_grad, cand_totals, cand_obj, cand_curv = evaluate(cand)
            gain = (grad * (cand - w)).reshape(-1, k).sum(axis=1)
            ok = pending & (cand_obj >= obj + 1e-4 * gain - rounding(obj))
            new_w = np.where(ok[block], cand, new_w)
            new_grad = np.where(ok[block], cand_grad, new_grad)
            new_totals = np.where(ok, cand_totals, new_totals)
            new_obj = np.where(ok, cand_obj, new_obj)
            new_curv = np.where(ok[:, None, None], cand_curv, new_curv)
            pending &= ~ok
            t *= 0.5

        still = new_obj - obj <= rounding(obj)
        w, grad, totals, obj, curv = new_w, new_grad, new_totals, new_obj, new_curv
        res = _residual(w, grad, w_max, k)
        running &= (res > config.tolerance) & ~still
        if trace is not None:
            trace.append((it, float(obj.sum()), float(res.max())))
    return w, totals, res


def learn_weights(
    model: WeightedModel,
    grounding: Grounding,
    observed: np.ndarray,
    objective: str = "pll",
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Fit the model's weights on `objective` by projected Newton steps
    from the model's weights (`_newton`): on one block for `pll`, on a
    block per clause for `ppll`, where every block is a single weight."""
    if not model.clauses:
        raise NoCandidates("cannot learn weights of an empty model")
    ws = Workspace(grounding, observed, mode=objective, p=config.p)
    w, _, _ = _newton(ws, model.weights, config, trace)
    return WeightedModel(model.clauses, w, config.p)


def ppll_structure_learn(
    candidates: Sequence[PathClause],
    db: AtomDatabase,
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Structure learning as one weight-learning run: fit every candidate's
    weight under the piecewise objective, then keep the clauses whose weight
    is not 0. A clause whose derivative at 0 is not positive is held at
    exactly 0."""
    if not candidates:
        raise NoCandidates("ppll_structure_learn needs at least one candidate")
    grounding = ground_clauses(candidates, db)
    observed = db.value_vector()
    unfit = WeightedModel(list(candidates), np.zeros(len(candidates)))
    model = learn_weights(unfit, grounding, observed, "ppll", config, trace)
    keep = model.weights > 0.0
    return WeightedModel(
        [c for c, k in zip(model.clauses, keep) if k], model.weights[keep], config.p
    )


def _refit_extensions(
    pool: Grounding,
    observed: np.ndarray,
    chosen: list[int],
    chosen_w: np.ndarray,
    remaining: list[int],
    config: LearnConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refit every extension `chosen + [c]`, c in `remaining`, as one block
    each of one workspace, in one lockstep `_newton` from `chosen_w` and 0
    with `gls_inner_iters` steps.

    Returns each extension's weights (one row each), its pll score
    (`ws.total`, without the prior, from the fit's own last accepted pass)
    and its largest projected residual (with the prior's gradient) at those
    weights.
    """
    width = len(chosen) + 1
    sub = pool.restrict([i for cand in remaining for i in chosen + [cand]])
    ws = Workspace(sub, observed, p=config.p, clause_block=np.repeat(np.arange(len(remaining)), width))
    inner = replace(config, max_iters=config.gls_inner_iters)
    w, scores, residual = _newton(ws, np.tile(np.append(chosen_w, 0.0), len(remaining)), inner)
    return w.reshape(-1, width), scores, residual


def gls_structure_learn(
    candidates: Sequence[PathClause],
    db: AtomDatabase,
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Greedy local search over the pseudolikelihood score.

    Starting from the empty model (score 0), each outer round refits weights
    for every tentative one-clause extension - already-chosen clauses warm
    start at their learned weights, the new clause at 0 - and
    permanently adds the candidate whose fitted score is highest, first one
    winning ties. Stops after `gls_outer_iters` rounds or when the best
    score improvement falls below the relative tolerance. A round's refits
    are independent, so they run as one lockstep fit of Newton steps
    (`_refit_extensions`).

    A trace row's `max_grad` is the chosen refit's largest projected
    gradient at its returned weights: at most `tolerance` unless the refit
    spent its `gls_inner_iters` steps.
    """
    if not candidates:
        raise NoCandidates("gls_structure_learn needs at least one candidate")
    pool = ground_clauses(candidates, db)
    observed = db.value_vector()

    chosen: list[int] = []
    chosen_w = np.zeros(0)
    current = 0.0
    remaining = list(range(len(candidates)))
    for outer in range(1, config.gls_outer_iters + 1):
        if not remaining:
            break
        w, scores, residual = _refit_extensions(pool, observed, chosen, chosen_w, remaining, config)
        best = int(np.argmax(scores))  # the first of the highest
        if scores[best] - current < config.tolerance * max(1.0, abs(current)):
            break
        chosen.append(remaining.pop(best))
        chosen_w = w[best]
        current = float(scores[best])
        if trace is not None:
            trace.append((outer, current, float(residual[best])))
    return WeightedModel([candidates[i] for i in chosen], chosen_w, config.p)


# -- model and trace files --------------------------------------------------


def write_model(model: WeightedModel, stream: IO[str]) -> None:
    stream.write(_HEADERS[model.p] + "\n")
    for clause, w in zip(model.clauses, model.weights):
        stream.write(f"{w:.12g}\t{format_clause(clause)}\n")


def read_model(stream: IO[str] | Iterable[str], schema) -> WeightedModel:
    lines = iter(stream)
    try:
        header = next(lines).rstrip("\n")
    except StopIteration:
        raise MalformedLine(1, "empty model file") from None
    p = {text: power for power, text in _HEADERS.items()}.get(header.strip())
    if p is None:
        raise MalformedLine(1, f"expected {MODEL_HEADER!r} header, got {header!r}")
    clauses: list[PathClause] = []
    weights: list[float] = []
    for line_no, raw in enumerate(lines, start=2):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(line_no, "expected 'weight<TAB>clause'")
        try:
            weight = float(fields[0])
        except ValueError:
            raise MalformedLine(line_no, f"bad weight {fields[0]!r}") from None
        if not math.isfinite(weight):
            raise MalformedLine(line_no, f"non-finite clause weight {fields[0]!r}")
        if weight < 0.0:
            raise MalformedLine(line_no, "negative clause weight")
        try:
            clauses.append(parse_clause(fields[1], schema))
        except MalformedLine as exc:
            raise MalformedLine(line_no, exc.detail) from None
        weights.append(weight)
    return WeightedModel(clauses, np.asarray(weights), p)


def write_trace(trace: Sequence[TraceRow], stream: IO[str]) -> None:
    stream.write("# iteration\tobjective\tmax_grad\n")
    for it, obj, gmax in trace:
        stream.write(f"{it}\t{obj:.12g}\t{gmax:.12g}\n")
