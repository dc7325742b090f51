"""Weight learning and the two structure learners.

Weights are fit by projected gradient ascent on the chosen log objective
(pseudolikelihood or its piecewise factorization), clipped to [0, w_max],
with backtracking step halving so the objective trace is non-decreasing. An
optional Gaussian prior on the weights regularizes separable data; a hard
cap keeps the box projection well-posed either way.

The greedy structure learner repeatedly adds whichever candidate clause most
improves the pseudolikelihood after refitting weights. The piecewise learner
exploits the factorized objective: it fits all candidate weights once, with
each clause's weight following its own decoupled trajectory, then drops the
clauses whose weight stayed at zero.
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

# One trace row per accepted iteration: (iteration, objective, max |gradient|,
# cumulative wall-clock ms).
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
    the prior off); `max_iters` bounds one weight-learning run, while the
    greedy learner takes `gls_outer_iters` clause additions with
    `gls_inner_iters` gradient steps per refit."""

    step_size: float = 1.0
    tolerance: float = 1e-4
    max_iters: int = 150
    w_max: float = 100.0
    l2_sigma: float = 100.0
    p: int = 1
    init_weight: float = 0.0
    zero_tol: float = 1e-6
    gls_outer_iters: int = 15
    gls_inner_iters: int = 50

    def __post_init__(self):
        for name in ("step_size", "tolerance", "w_max", "l2_sigma", "init_weight", "zero_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.w_max <= 0.0:
            raise ValueError("w_max must be positive")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        for name in ("tolerance", "l2_sigma", "init_weight", "zero_tol"):
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
    decoupled: bool,
    trace: list[TraceRow] | None = None,
) -> tuple[np.ndarray, float]:
    """Projected gradient ascent; returns (weights, final pure objective).

    The per-clause base step is step_size / #occurrences so the update scale
    tracks the gradient's. In decoupled mode each clause backtracks and is
    accepted against its own objective term, which keeps a joint run
    identical to independent single-clause runs.
    """
    penalty = config.l2_sigma > 0.0
    w = np.clip(np.asarray(w0, dtype=np.float64), 0.0, config.w_max)
    steps = config.step_size / np.maximum(ws.pairs_per_clause, 1)

    def clause_terms(wv: np.ndarray) -> np.ndarray:
        terms = ws.per_clause_totals(wv)
        if penalty:
            terms = terms - wv * wv / (2.0 * config.l2_sigma)
        return terms

    def total(wv: np.ndarray) -> float:
        value = ws.total(wv)
        if penalty:
            value -= float(wv @ wv) / (2.0 * config.l2_sigma)
        return value

    started = time.perf_counter()
    if decoupled:
        terms = clause_terms(w)
        _check_finite(terms)
        obj = float(terms.sum())
    else:
        obj = total(w)
        _check_finite(obj)

    for it in range(1, config.max_iters + 1):
        grad = ws.gradient(w)
        if penalty:
            grad = grad - w / config.l2_sigma
        _check_finite(grad)

        if decoupled:
            t = np.ones_like(w)
            new_w = np.clip(w + t * steps * grad, 0.0, config.w_max)
            new_terms = clause_terms(new_w)
            _check_finite(new_terms)
            for _ in range(MAX_HALVINGS):
                bad = new_terms < terms
                if not bad.any():
                    break
                t[bad] *= 0.5
                new_w = np.clip(w + t * steps * grad, 0.0, config.w_max)
                new_terms = clause_terms(new_w)
                _check_finite(new_terms)
            else:
                stuck = new_terms < terms
                new_w[stuck] = w[stuck]
                new_terms[stuck] = terms[stuck]
            w, terms = new_w, new_terms
            new_obj = float(terms.sum())
        else:
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


def learn_weights(
    model: WeightedModel,
    grounding: Grounding,
    observed: np.ndarray,
    objective: str = "pll",
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Fit the model's weights by projected gradient ascent on `objective`."""
    if not model.clauses:
        raise NoCandidates("cannot learn weights of an empty model")
    ws = Workspace(grounding, observed, mode=objective, p=config.p)
    w, _ = _ascend(ws, model.weights, config, decoupled=(objective == "ppll"), trace=trace)
    return WeightedModel(model.clauses, w)


def ppll_structure_learn(
    candidates: Sequence[PathClause],
    db: AtomDatabase,
    config: LearnConfig = LearnConfig(),
    trace: list[TraceRow] | None = None,
) -> WeightedModel:
    """Structure learning as one weight-learning run: fit every candidate's
    weight under the piecewise objective, then keep the clauses whose weight
    ended above `zero_tol`."""
    if not candidates:
        raise NoCandidates("ppll_structure_learn needs at least one candidate")
    grounding = ground_clauses(candidates, db)
    observed = db.value_vector()
    w0 = np.full(len(candidates), config.init_weight, dtype=np.float64)
    model = learn_weights(WeightedModel(list(candidates), w0), grounding, observed, "ppll", config, trace)
    keep = model.weights > config.zero_tol
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
    start at their learned weights, the new clause at `init_weight` - and
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
            w0 = np.asarray(chosen_w + [config.init_weight])
            w, score = _ascend(ws, w0, inner, decoupled=False)
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
        clauses.append(parse_clause(fields[1], schema))
        weights.append(weight)
    return WeightedModel(clauses, np.asarray(weights))


def write_trace(trace: Sequence[TraceRow], stream: IO[str]) -> None:
    stream.write("# iteration\tobjective\tmax_grad\tms\n")
    for it, obj, gmax, ms in trace:
        stream.write(f"{it}\t{obj:.12g}\t{gmax:.12g}\t{ms:.3f}\n")
