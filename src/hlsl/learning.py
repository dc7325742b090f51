"""Weight learning and the two structure learners.

Weights live in [0, w_max]. An optional Gaussian prior on the weights
regularizes separable data; the hard cap keeps the box well-posed either
way. The two objectives are fit differently:

- pseudolikelihood (`pll`): projected gradient ascent with backtracking
  step halving, so the objective trace is non-decreasing;
- its piecewise factorization (`ppll`): every clause's term is concave in
  its own weight alone, so the fit is one bracketing root find per clause
  on that term's derivative, all clauses stepping together.

The greedy structure learner repeatedly adds whichever candidate clause most
improves the pseudolikelihood after refitting weights. The piecewise learner
fits all candidate weights once and drops the clauses whose weight stayed at
zero.
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
    clause's (variable, grounding) occurrences, minus w/sigma^2 when the
    Gaussian prior is active. Expectations use the full conditional profile
    for `pll` and the single-clause profile for `ppll`.
    """
    ws = Workspace(grounding, observed, mode=objective, p=p)
    grad = ws.gradient(model.weights)
    if l2_sigma > 0.0:
        grad = grad - model.weights / l2_sigma
    return grad


def _check_finite(value: float | np.ndarray) -> None:
    if not np.all(np.isfinite(value)):
        raise NonFiniteObjective(f"objective value {value!r}")


def _ascend(
    ws: Workspace,
    w0: np.ndarray,
    config: LearnConfig,
    trace: list[TraceRow] | None = None,
) -> tuple[np.ndarray, float]:
    """Projected gradient ascent on the joint objective; returns (weights,
    final pure objective).

    The base step is 1 / #occurrences per clause so the update scale tracks
    the gradient's; each step halves until the objective does not
    fall, and the run stops when an accepted step gains less than the
    relative tolerance.
    """
    penalty = config.l2_sigma > 0.0
    w = np.clip(np.asarray(w0, dtype=np.float64), 0.0, config.w_max)
    steps = 1.0 / np.maximum(ws.pairs_per_clause, 1)

    def total(wv: np.ndarray) -> float:
        value = ws.total(wv)
        if penalty:
            value -= float(wv @ wv) / (2.0 * config.l2_sigma)
        return value

    started = time.perf_counter()
    obj = total(w)
    _check_finite(obj)
    for it in range(1, config.max_iters + 1):
        grad = ws.gradient(w)
        if penalty:
            grad = grad - w / config.l2_sigma
        _check_finite(grad)

        t = 1.0
        new_w, new_obj = w, obj
        for _ in range(MAX_HALVINGS):
            cand = np.clip(w + t * steps * grad, 0.0, config.w_max)
            cand_obj = total(cand)
            _check_finite(cand_obj)
            if cand_obj >= obj:
                new_w, new_obj = cand, cand_obj
                break
            t *= 0.5
        w = new_w

        improvement = new_obj - obj
        obj = new_obj
        if trace is not None:
            ms = (time.perf_counter() - started) * 1000.0
            gmax = float(np.abs(grad).max()) if len(grad) else 0.0
            trace.append((it, obj, gmax, ms))
        if improvement < config.tolerance * max(1.0, abs(obj)):
            break
    return w, ws.total(w)


def _clause_roots(
    ws: Workspace,
    config: LearnConfig,
    trace: list[TraceRow] | None = None,
) -> np.ndarray:
    """Maximize every clause's piecewise term on [0, w_max] at once.

    Each term is concave in its own weight, so its derivative
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
        if sigma > 0.0:
            grad, terms = grad - w / sigma, terms - w * w / (2.0 * sigma)
        _check_finite(grad)
        _check_finite(terms)
        return grad, terms, np.abs(np.clip(w + grad, 0.0, w_max) - w)

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
    from the model's weights for `pll`, a root find per clause for `ppll`
    (which reads no starting weights)."""
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
    score improvement falls below the relative tolerance.
    """
    if not candidates:
        raise NoCandidates("gls_structure_learn needs at least one candidate")
    pool = ground_clauses(candidates, db)
    observed = db.value_vector()
    inner = replace(config, max_iters=config.gls_inner_iters)

    chosen: list[int] = []
    chosen_w: list[float] = []
    current = 0.0
    remaining = list(range(len(candidates)))
    started = time.perf_counter()
    for outer in range(1, config.gls_outer_iters + 1):
        best_idx = -1
        best_score = -np.inf
        best_w: np.ndarray | None = None
        for cand in remaining:
            ids = chosen + [cand]
            sub = pool.restrict(ids)
            ws = Workspace(sub, observed, mode="pll", p=config.p)
            w0 = np.asarray(chosen_w + [0.0])
            w, score = _ascend(ws, w0, inner)
            if score > best_score:
                best_idx, best_score, best_w = cand, score, w
        if best_idx < 0 or best_score - current < config.tolerance * max(1.0, abs(current)):
            break
        chosen.append(best_idx)
        chosen_w = [float(v) for v in best_w]
        current = best_score
        remaining.remove(best_idx)
        if trace is not None:
            ms = (time.perf_counter() - started) * 1000.0
            trace.append((outer, current, 0.0, ms))
    return WeightedModel([candidates[i] for i in chosen], np.asarray(chosen_w))


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
