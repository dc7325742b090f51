"""Weight learning and the two structure learners.

Weights live in [0, w_max]. An optional Gaussian prior on the weights
regularizes separable data; the hard cap keeps the box well-posed either
way. The two objectives are fit differently:

- pseudolikelihood (`pll`): projected gradient ascent with backtracking
  step halving, so the objective trace is non-decreasing; the ascent runs
  any number of independent models at once, one workspace block each;
- its piecewise factorization (`ppll`): every clause's term is concave in
  its own weight alone, so the fit is one bracketing root find per clause
  on that term's derivative, all clauses stepping together.

The greedy structure learner repeatedly adds whichever candidate clause most
improves the pseudolikelihood after refitting weights; a round refits every
extension of the current model in one lockstep ascent. The piecewise
learner fits all candidate weights once and drops the clauses whose weight
stayed at zero.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .clauses import PathClause, format_clause, parse_clause
from .data import AtomDatabase
from .engine import Workspace
from .errors import MalformedLine, NoCandidates, NonFiniteObjective
from .grounding import Grounding, ground_clauses

MODEL_HEADER = "# hlsl-model v1"
MAX_HALVINGS = 60

# One trace row per iteration: (iteration, objective, max |gradient| - for
# ppll the largest projected derivative -, cumulative wall-clock ms).
TraceRow = tuple[int, float, float, float]


@dataclass
class WeightedModel:
    """An ordered clause list with its nonnegative weight vector."""

    clauses: list[PathClause]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
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
    the prior off) and `w_max` the weight cap, for both learners.

    - ppll: `max_iters` caps the root-finding steps and `tolerance` bounds
      each clause's projected derivative (the KKT residual). Starting
      weights play no part.
    - pll fits and gls: `max_iters` caps the gradient steps of one
      weight-learning run, which starts at the given weights (a new gls
      clause at 0) and stops once a step gains less than `tolerance`
      relative to the objective. The greedy learner takes
      `gls_outer_iters` clause additions with `gls_inner_iters` gradient
      steps per refit, and stops early once a round gains less than
      `tolerance` relative to the score.
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
    ws = Workspace(grounding, observed, mode=objective, p=p)
    return _prior_gradient(ws.gradient(model.weights), model.weights, l2_sigma)


def _prior_gradient(grad: np.ndarray, w: np.ndarray, sigma: float) -> np.ndarray:
    """An engine gradient at weights `w` plus that of the Gaussian prior of
    variance `sigma` (none at 0), -w/sigma per clause."""
    return grad - w / sigma if sigma > 0.0 else grad


def _prior_totals(totals: np.ndarray, ws: Workspace, w: np.ndarray, sigma: float) -> np.ndarray:
    """`ws`'s block totals at weights `w` plus the prior's log density,
    -w^2/(2 sigma) summed over each block's clauses in clause order."""
    if sigma <= 0.0:
        return totals
    return totals - np.bincount(ws.clause_block, weights=w * w, minlength=ws.n_blocks) / (2.0 * sigma)


def _residual(w: np.ndarray, grad: np.ndarray, w_max: float) -> np.ndarray:
    """The projected gradient per clause, 0 where `w` is stationary on [0, w_max]."""
    return np.abs(np.clip(w + grad, 0.0, w_max) - w)


def _check_finite(value: float | np.ndarray) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteObjective(f"objective value {value!r}")


def _ascend(
    ws: Workspace,
    w0: np.ndarray,
    config: LearnConfig,
    trace: list[TraceRow] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent on every block's objective (`ws.total`
    plus the prior) at once; returns (weights, each block's final `total`,
    without the prior).

    The base step is 1 / #occurrences per clause so the update scale tracks
    the gradient's. The blocks step in lockstep, one engine gradient per
    step for all of them. Within a step each block halves its step scale
    until its own objective does not fall (the blocks still halving share
    one scale, as all start at 1), and each block stops on its own once an
    accepted step gains less than the relative tolerance. Every sum keeps
    the element order of a workspace built for one block alone, so each
    block's weights are bit for bit those of its own ascent. Trace rows
    hold the summed objective and the largest gradient of the blocks still
    running.
    """
    sigma = config.l2_sigma
    block = ws.clause_block
    w = np.clip(np.asarray(w0, dtype=np.float64), 0.0, config.w_max)
    steps = 1.0 / np.maximum(ws.pairs_per_clause, 1)

    def objective(wv: np.ndarray) -> np.ndarray:
        value = _prior_totals(ws.total(wv), ws, wv, sigma)
        _check_finite(value)
        return value

    started = time.perf_counter()
    obj = objective(w)
    running = np.ones(ws.n_blocks, dtype=bool)
    for it in range(1, config.max_iters + 1):
        if not running.any():
            break
        grad = _prior_gradient(ws.gradient(w), w, sigma)
        live = running[block]
        _check_finite(grad[live])

        # the blocks still halving all reached the same step scale t
        t = 1.0
        new_w, new_obj = w, obj
        pending = running.copy()
        for _ in range(MAX_HALVINGS):
            cand = np.where(pending[block], np.clip(w + t * steps * grad, 0.0, config.w_max), w)
            cand_obj = objective(cand)
            up = pending & (cand_obj >= obj)
            new_w = np.where(up[block], cand, new_w)
            new_obj = np.where(up, cand_obj, new_obj)
            pending &= ~up
            if not pending.any():
                break
            t *= 0.5

        improvement = new_obj - obj
        w, obj = new_w, new_obj
        if trace is not None:
            ms = (time.perf_counter() - started) * 1000.0
            gmax = float(np.abs(grad[live]).max()) if live.any() else 0.0
            trace.append((it, float(obj.sum()), gmax, ms))
        running &= improvement >= config.tolerance * np.maximum(1.0, np.abs(obj))
    return w, ws.total(w)


def _clause_roots(
    ws: Workspace,
    config: LearnConfig,
    trace: list[TraceRow] | None = None,
) -> np.ndarray:
    """Maximize every clause's piecewise term on [0, w_max] at once.

    `ws` has a block per clause, so its per-block `total` (read off each
    gradient call's partition functions) holds every clause's term, and
    each term is concave in its own weight, so its derivative
    f(w) = gradient - w/l2_sigma is non-increasing. A clause takes w = 0
    when f(0) <= 0 and w = w_max when f(w_max) >= 0. Every other clause has
    its root bracketed in (0, w_max), found by Illinois regula falsi with a
    bisection fallback; the updates are elementwise, so each clause's
    iterates depend only on its own derivative, and one step is one
    gradient call for all clauses. A clause is done once its projected
    derivative |clip(w + f, 0, w_max) - w| is at most `tolerance` or its
    bracket is down to adjacent floats; an unfinished one holds the bracket
    end with the smaller projected derivative. Trace rows, one per step,
    hold the sum of each clause's best term so far and the largest
    projected derivative of the current weights.
    """
    sigma, w_max = config.l2_sigma, config.w_max

    def derivative(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grad, terms = ws.gradient(w, with_terms=True)
        grad, terms = _prior_gradient(grad, w, sigma), _prior_totals(terms, ws, w, sigma)
        _check_finite(grad)
        _check_finite(terms)
        return grad, terms, _residual(w, grad, w_max)

    started = time.perf_counter()
    n = ws.n_clauses
    lo, hi = np.zeros(n), np.full(n, w_max)
    g_lo, best, r_lo = derivative(lo)
    g_hi, t_hi, r_hi = derivative(hi)
    best = np.maximum(best, t_hi)
    active = (g_lo > 0.0) & (g_hi < 0.0)
    w = np.where(active, np.where(r_hi < r_lo, hi, lo), np.where(g_lo <= 0.0, 0.0, w_max))
    res = np.where(active, np.minimum(r_lo, r_hi), 0.0)

    moved = np.zeros(n)  # +1: lo moved last step, -1: hi did
    last_width, slow = np.full(n, np.inf), np.zeros(n, dtype=bool)
    for it in range(1, config.max_iters + 1):
        if not active.any():
            break
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            x = hi - g_hi * width / (g_hi - g_lo)
        x = np.where(slow | ~((lo < x) & (x < hi)), 0.5 * (lo + hi), x)
        x = np.where(active, x, w)
        f_x, t_x, r_x = derivative(x)
        best = np.maximum(best, t_x)

        up, down = active & (f_x > 0.0), active & (f_x <= 0.0)
        # Illinois: the secant halves the derivative of an end kept twice
        g_hi = np.where(up & (moved > 0), 0.5 * g_hi, g_hi)
        g_lo = np.where(down & (moved < 0), 0.5 * g_lo, g_lo)
        lo, g_lo, r_lo = np.where(up, x, lo), np.where(up, f_x, g_lo), np.where(up, r_x, r_lo)
        hi, g_hi, r_hi = np.where(down, x, hi), np.where(down, f_x, g_hi), np.where(down, r_x, r_hi)
        moved = np.where(up, 1.0, np.where(down, -1.0, moved))

        done = r_x <= config.tolerance
        w = np.where(active, np.where(done, x, np.where(r_hi < r_lo, hi, lo)), w)
        res = np.where(active, np.where(done, r_x, np.minimum(r_lo, r_hi)), res)
        mid = 0.5 * (lo + hi)
        active &= ~done & (lo < mid) & (mid < hi)
        # bisect where two steps did not halve the bracket
        slow = hi - lo > 0.5 * last_width
        last_width = width
        if trace is not None:
            ms = (time.perf_counter() - started) * 1000.0
            trace.append((it, float(best.sum()), float(res.max()) if n else 0.0, ms))
    return w


def learn_weights(
    model: WeightedModel,
    grounding: Grounding,
    observed: np.ndarray,
    objective: str = "pll",
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Fit the model's weights on `objective`: projected gradient ascent
    from the model's weights for `pll` (`_ascend` on one block), a root
    find per clause for `ppll` (which reads no starting weights)."""
    if not model.clauses:
        raise NoCandidates("cannot learn weights of an empty model")
    ws = Workspace(grounding, observed, mode=objective, p=config.p)
    if objective == "ppll":
        w = _clause_roots(ws, config, trace)
    else:
        w, _ = _ascend(ws, model.weights, config, trace)
    return WeightedModel(model.clauses, w)


def ppll_structure_learn(
    candidates: Sequence[PathClause],
    db: AtomDatabase,
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Structure learning as one weight-learning run: fit every candidate's
    weight under the piecewise objective, then keep the clauses whose weight
    is not 0. The root find puts a clause whose derivative at 0 is not
    positive at exactly 0."""
    if not candidates:
        raise NoCandidates("ppll_structure_learn needs at least one candidate")
    grounding = ground_clauses(candidates, db)
    observed = db.value_vector()
    unfit = WeightedModel(list(candidates), np.zeros(len(candidates)))
    model = learn_weights(unfit, grounding, observed, "ppll", config, trace)
    keep = model.weights > 0.0
    return WeightedModel(
        [c for c, k in zip(model.clauses, keep) if k], model.weights[keep]
    )


def _refit_extensions(
    pool: Grounding,
    observed: np.ndarray,
    chosen: list[int],
    chosen_w: np.ndarray,
    remaining: list[int],
    config: LearnConfig,
    residuals: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Refit every extension `chosen + [c]`, c in `remaining`, as one block
    each of one workspace, in one lockstep `_ascend` from `chosen_w` and 0.

    Returns each extension's weights (one row each), its pll score and,
    when `residuals`, its largest projected gradient |clip(w + g, 0, w_max)
    - w| at those weights, prior included, from one gradient for all.
    """
    width = len(chosen) + 1
    sub = pool.restrict([i for cand in remaining for i in chosen + [cand]])
    ws = Workspace(sub, observed, p=config.p, clause_block=np.repeat(np.arange(len(remaining)), width))
    inner = replace(config, max_iters=config.gls_inner_iters)
    w, scores = _ascend(ws, np.tile(np.append(chosen_w, 0.0), len(remaining)), inner)
    residual = None
    if residuals:
        grad = _prior_gradient(ws.gradient(w), w, config.l2_sigma)
        residual = _residual(w, grad, config.w_max).reshape(-1, width).max(axis=1)
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
    are independent, so they run as one lockstep ascent
    (`_refit_extensions`).

    A trace row's `max_grad` is the chosen refit's largest projected
    gradient at its returned weights: how far from a stationary point the
    inner step budget left it.
    """
    if not candidates:
        raise NoCandidates("gls_structure_learn needs at least one candidate")
    pool = ground_clauses(candidates, db)
    observed = db.value_vector()

    chosen: list[int] = []
    chosen_w = np.zeros(0)
    current = 0.0
    remaining = list(range(len(candidates)))
    started = time.perf_counter()
    for outer in range(1, config.gls_outer_iters + 1):
        if not remaining:
            break
        w, scores, residual = _refit_extensions(
            pool, observed, chosen, chosen_w, remaining, config, trace is not None
        )
        best = int(np.argmax(scores))  # the first of the highest
        if scores[best] - current < config.tolerance * max(1.0, abs(current)):
            break
        chosen.append(remaining.pop(best))
        chosen_w = w[best]
        current = float(scores[best])
        if trace is not None:
            ms = (time.perf_counter() - started) * 1000.0
            trace.append((outer, current, float(residual[best]), ms))
    return WeightedModel([candidates[i] for i in chosen], chosen_w)


# -- model and trace files --------------------------------------------------


def write_model(model: WeightedModel, stream: IO[str]) -> None:
    stream.write(MODEL_HEADER + "\n")
    for clause, w in zip(model.clauses, model.weights):
        stream.write(f"{w:.12g}\t{format_clause(clause)}\n")


def read_model(stream: IO[str] | Iterable[str], schema) -> WeightedModel:
    lines = iter(stream)
    try:
        header = next(lines).rstrip("\n")
    except StopIteration:
        raise MalformedLine(1, "empty model file") from None
    if header.strip() != MODEL_HEADER:
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
    return WeightedModel(clauses, np.asarray(weights))


def write_trace(trace: Sequence[TraceRow], stream: IO[str]) -> None:
    stream.write("# iteration\tobjective\tmax_grad\tms\n")
    for it, obj, gmax, ms in trace:
        stream.write(f"{it}\t{obj:.12g}\t{gmax:.12g}\t{ms:.3f}\n")
