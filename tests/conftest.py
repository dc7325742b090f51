"""Shared test fixtures and oracle helpers."""
from __future__ import annotations

import operator
from itertools import repeat
from typing import IO, Iterable

import numpy as np
import pytest

from hlsl.data import AtomColumns, AtomDatabase, PredicateSymbol, build_adjacency, round_value
from hlsl.errors import MalformedLine


@pytest.fixture
def citation_db() -> AtomDatabase:
    """The running example: Cites(Paper1, Paper2), Mentions(Paper2, Gene),
    Mentions(Paper1, Gene); Mentions is the target predicate."""
    db = AtomDatabase([PredicateSymbol("Cites"), PredicateSymbol("Mentions", is_target=True)])
    db.add_atom("Cites", "Paper1", "Paper2")
    db.add_atom("Mentions", "Paper2", "Gene")
    db.add_atom("Mentions", "Paper1", "Gene")
    return build_adjacency(db)


def find_atom(db: AtomDatabase, pred_name: str, arg1: int, arg2: int) -> int | None:
    """Atom index for (predicate, const id, const id) in `db`, or None: a
    masked lookup over its columns."""
    k = db.pred_ids.get(pred_name, -1)
    hit = np.flatnonzero((db.pred == k) & (db.arg1 == arg1) & (db.arg2 == arg2))
    return int(hit[0]) if len(hit) else None


def read_atom_rows(
    stream: IO[str] | Iterable[str], source: str = "", default: float | None = 1.0
) -> AtomColumns:
    """Validate and split `predicate<TAB>arg1<TAB>arg2[<TAB>value]` lines
    into columns.

    Blank lines are skipped. Every other line must have three or four
    tab-separated fields, none of the first three empty after stripping, and
    a fourth field must parse as a number; the first line that breaks this
    ends the columns, and its `MalformedLine`, naming `source` and the line,
    is kept as their `error`. A missing value column reads as `default`.
    Value ranges are the caller's to check.

    This is the per-line oracle of `hlsl.data.parse_atoms`: iterated over
    an opened file, or over the lines of a text, it splits lines as a file
    opened in text mode does, and every reader must agree with it.
    """
    where = f"{source}: " if source else ""
    rows: list[int | str | float | None] = []  # (line_no, pred, arg1, arg2, value) per row, flat
    error = None
    try:
        # a blank line fails one of the checks below, so it is looked for
        # only there; a line's final newline is whitespace to `float` and
        # `strip` alike
        for line_no, raw in enumerate(stream, start=1):
            fields = raw.split("\t")
            if len(fields) == 4:
                pred, arg1, arg2, text = fields
                try:
                    value = float(text)
                except ValueError:
                    if not raw.strip():
                        continue
                    text = text.rstrip("\n")
                    raise MalformedLine(line_no, f"{where}bad value {text!r}") from None
            elif len(fields) == 3:
                (pred, arg1, arg2), value = fields, default
            elif not raw.strip():
                continue
            else:
                raise MalformedLine(line_no, f"{where}expected 3 or 4 tab-separated fields, got {len(fields)}")
            pred, arg1, arg2 = pred.strip(), arg1.strip(), arg2.strip()
            if not (pred and arg1 and arg2):
                if not raw.strip():
                    continue
                raise MalformedLine(line_no, f"{where}empty field")
            rows += (line_no, pred, arg1, arg2, value)
    except MalformedLine as exc:
        error = exc
    line_no, pred, arg1, arg2, value = (rows[k::5] for k in range(5))
    has_value = np.fromiter(map(operator.is_not, value, repeat(None)), dtype=bool, count=len(value))
    return AtomColumns.from_names(np.array(line_no, dtype=np.int64), pred, arg1, arg2,
                                  np.array(value, dtype=np.float64), has_value, error)


def random_chain_db(seed: int, n_a: int = 10, n_b: int = 7, n_c: int = 8) -> AtomDatabase:
    """Small three-layer database with soft evidence and labeled targets."""
    rng = np.random.default_rng(seed)
    schema = [
        PredicateSymbol("P"),
        PredicateSymbol("Q"),
        PredicateSymbol("S"),
        PredicateSymbol("T", is_target=True),
    ]
    db = AtomDatabase(schema)
    A = [f"a{i}" for i in range(n_a)]
    B = [f"b{i}" for i in range(n_b)]
    C = [f"c{i}" for i in range(n_c)]
    for a in A:
        for b in rng.choice(B, 2, replace=False):
            db.add_atom("P", a, str(b), float(rng.uniform(0.55, 1.0)))
    for b in B:
        for c in rng.choice(C, 2, replace=False):
            db.add_atom("Q", b, str(c), float(rng.uniform(0.55, 1.0)))
    for a in A:
        db.add_atom("S", a, str(rng.choice(C)))
    pairs = sorted({(a, str(c)) for a in A for c in rng.choice(C, 3, replace=False)})
    for a, c in pairs:
        db.add_atom("T", a, c, float(rng.uniform(0.0, 1.0)))
    return build_adjacency(db)


def random_map_instance(seed: int, n_free: int | None = None):
    """A small MAP problem with an exhaustive-grid oracle.

    Free variables are coupled at most pairwise and only along a chain
    (var k with var k+1), which lets the grid minimum over all
    1001**n_free points factor into 2-D table sweeps without changing its
    value. All constants land on the 1e-3 lattice so the continuous optimum
    coincides with a grid point.
    """
    from hlsl.clauses import negative_prior
    from hlsl.learning import WeightedModel

    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4)) if n_free is None else n_free
    schema = [PredicateSymbol("E"), PredicateSymbol("T", is_target=True)]
    db = AtomDatabase(schema)
    evid = [db.add_atom("E", f"s{i}", f"t{i}", round(float(rng.uniform(0, 1)), 3)) for i in range(4)]
    free = [db.add_atom("T", f"x{i}", f"y{i}", 0.0) for i in range(m)]
    build_adjacency(db)

    n_clauses = 3
    grounds = []
    n_grounds = int(rng.integers(2, 8))
    for _ in range(n_grounds):
        if m == 1 or rng.random() < 0.5:
            touched = [int(rng.integers(0, m))]
        else:
            k = int(rng.integers(0, m - 1))
            touched = [k, k + 1]
        terms = []
        for v in touched:
            terms.append((free[v], int(rng.choice([-1, 1]))))
        for e in rng.choice(4, int(rng.integers(0, 3)), replace=False):
            terms.append((evid[int(e)], int(rng.choice([-1, 1]))))
        grounds.append((int(rng.integers(0, n_clauses)), tuple(terms)))
    grounds.sort(key=lambda g: g[0])
    carriers = [negative_prior("T") for _ in range(n_clauses)]
    weights = np.round(rng.uniform(0.2, 2.0, n_clauses), 3)
    model = WeightedModel(carriers, weights)
    grounding = grounding_of(carriers, grounds, db)
    return db, model, grounding, free


def grounding_of(clauses, grounds, db):
    """A `Grounding` of explicit ground clauses, given as (clause index,
    signed terms) pairs ordered by clause index. A term (atom, -1) is a
    negated occurrence, (atom, +1) a plain one; the hinge is
    max(1 - sum_plus x - sum_minus (1 - x), 0)."""
    from hlsl.grounding import Grounding

    return Grounding(
        clauses,
        db,
        np.array([c for c, _ in grounds], dtype=np.int64),
        np.array([1.0 - sum(s == -1 for _, s in terms) for _, terms in grounds], dtype=np.float64),
        np.array([len(terms) for _, terms in grounds], dtype=np.int64),
        np.array([a for _, terms in grounds for a, _ in terms], dtype=np.int64),
        np.array([1.0 if s == -1 else -1.0 for _, terms in grounds for _, s in terms], dtype=np.float64),
    )


def ground_terms(grounding):
    """Signed term tuples of every ground clause, read from the flat arrays:
    (atom, -1) for a negated occurrence (positive coefficient), else (atom, +1)."""
    out = []
    for start, count in zip(grounding.term_start, grounding.term_count):
        sl = slice(start, start + count)
        out.append(tuple(
            (int(a), -1 if c > 0 else 1) for a, c in zip(grounding.term_atom[sl], grounding.term_coef[sl])
        ))
    return out


def hinge_workspace(hinges, p=1):
    """A one-variable `Workspace` whose conditional energy is
    sum w * max(a + b*y, 0)**p over `hinges` (w, a, b): one clause and one
    ground clause per hinge, over a single target atom observed at 0 so that
    every a folds exactly. Returns the workspace and its weight vector."""
    from hlsl.clauses import negative_prior
    from hlsl.engine import Workspace
    from hlsl.grounding import Grounding

    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "x", "y", 0.0)
    build_adjacency(db)
    n = len(hinges)
    grounding = Grounding(
        [negative_prior("T")] * n,
        db,
        np.arange(n, dtype=np.int64),
        np.array([a for _w, a, _b in hinges], dtype=np.float64),
        np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.array([b for _w, _a, b in hinges], dtype=np.float64),
    )
    ws = Workspace(grounding, db.value_vector(), mode="pll", p=p)
    return ws, np.array([w for w, _a, _b in hinges], dtype=np.float64)


def chain_grid_min(model, grounding, db, free, step=1e-3):
    """Exact minimum of the weighted penalty over the full 1e-3 grid.

    Requires chain-shaped couplings: each ground clause touches one free
    variable or two adjacent ones. The full-grid minimum is folded left to
    right through pairwise tables, so every grid point is accounted for.
    """
    values = db.value_vector()
    weights = np.asarray(model.weights)
    axis = np.round(np.arange(0.0, 1.0 + step / 2, step), 9)
    pos = {atom: k for k, atom in enumerate(free)}
    singles = [np.zeros(len(axis)) for _ in free]
    pairs = {k: np.zeros((len(axis), len(axis))) for k in range(len(free) - 1)}
    const_total = 0.0
    for gid in range(len(grounding)):
        sl = slice(grounding.term_start[gid], grounding.term_start[gid] + grounding.term_count[gid])
        atoms = grounding.term_atom[sl]
        coefs = grounding.term_coef[sl]
        w = float(weights[grounding.g_clause[gid]])
        c = float(grounding.g_const0[gid])
        touched = []
        for a, b in zip(atoms, coefs):
            if int(a) in pos:
                touched.append((pos[int(a)], float(b)))
            else:
                c += float(b) * values[int(a)]
        if not touched:
            const_total += w * max(c, 0.0)
        elif len(touched) == 1:
            k, b = touched[0]
            singles[k] += w * np.maximum(c + b * axis, 0.0)
        elif len(touched) == 2:
            (k1, b1), (k2, b2) = sorted(touched)
            assert k2 == k1 + 1, "oracle requires chain couplings"
            pairs[k1] += w * np.maximum(c + b1 * axis[:, None] + b2 * axis[None, :], 0.0)
        else:
            raise AssertionError("oracle supports at most pairwise couplings")
    best = singles[0]
    for k in range(len(free) - 1):
        best = np.min(best[:, None] + pairs[k], axis=0) + singles[k + 1]
    return const_total + float(best.min())


def greedy_reference(candidates, db, config):
    """Independent greedy-search simulation using only the public scoring
    and weight-learning API; the engine must reproduce it exactly."""
    from dataclasses import replace

    from hlsl.grounding import ground_clauses
    from hlsl.learning import WeightedModel, learn_weights
    from hlsl.scoring import log_pll

    observed = db.value_vector()
    chosen, weights, remaining = [], [], list(range(len(candidates)))
    current = 0.0
    inner = replace(config, max_iters=config.gls_inner_iters)
    for _ in range(config.gls_outer_iters):
        best = None
        for cand in remaining:
            ids = chosen + [cand]
            clauses = [candidates[i] for i in ids]
            grounding = ground_clauses(clauses, db)
            start = WeightedModel(clauses, np.asarray(weights + [0.0]))
            fitted = learn_weights(start, grounding, observed, "pll", inner)
            score = log_pll(fitted, grounding, observed, p=config.p).total
            if best is None or score > best[0]:
                best = (score, cand, fitted.weights)
        if best is None or best[0] - current < config.tolerance * max(1.0, abs(current)):
            break
        current = best[0]
        chosen.append(best[1])
        weights = [float(v) for v in best[2]]
        remaining.remove(best[1])
    return chosen, np.asarray(weights), current


def brute_force_simple_paths(db, start, goal, max_depth, include_inverses=True, traverse_target_edges=True):
    """Independent path enumerator: recursive walk over the raw atom list."""
    edges = []
    for atom in db.atoms:
        if db.values[atom] < 0.5:
            continue
        if not traverse_target_edges and db.is_target_pred[db.pred[atom]]:
            continue
        name, arg1, arg2 = db.pred_names[db.pred[atom]], int(db.arg1[atom]), int(db.arg2[atom])
        edges.append((name, False, arg1, arg2))
        if include_inverses:
            edges.append((name, True, arg2, arg1))
    found = set()

    def walk(node, path, visited):
        if len(path) >= max_depth:
            return
        for pred, inv, src, dst in edges:
            if src != node or dst in visited:
                continue
            step = (pred, inv, src, dst)
            if dst == goal:
                found.add(path + (step,))
            else:
                walk(dst, path + (step,), visited | {dst})

    walk(start, (), frozenset({start}))
    return found


def drop_target_self_step(paths, db, atom):
    """Remove the one-step path that is the target atom itself."""
    return {p for p in paths if p != ((db.pred_names[db.pred[atom]], False, db.arg1[atom], db.arg2[atom]),)}


def dfs_ground_clause(clause, db, free_atoms=(), strict=False):
    """Reference grounding: for one head atom at a time, a depth-first walk
    of the body chain over dict indexes built from the atom list, for a
    database whose atoms round at the default threshold. Returns the term
    tuples of every grounding, sorted."""
    free = set(np.asarray(free_atoms, dtype=np.int64).tolist())
    out_by, in_by = {}, {}
    for atom in db.atoms:
        if atom in free or round_value(db.values[atom]) == 1:
            name, arg1, arg2 = db.pred_names[db.pred[atom]], int(db.arg1[atom]), int(db.arg2[atom])
            out_by.setdefault((arg1, name), []).append((arg2, atom))
            in_by.setdefault((arg2, name), []).append((arg1, atom))
    targets = set(db.targets)
    head_sign = -1 if clause.negated else 1
    heads = [int(i) for i in db.targets if db.pred_names[db.pred[i]] == clause.head]
    if clause.is_prior:
        return [((head, head_sign),) for head in heads]
    grounds = []
    for head in heads:
        stack = [(0, int(db.arg1[head]), ())]
        while stack:
            pos, node, bound = stack.pop()
            pred, inverted = clause.steps[pos]
            for nbr, atom in (in_by if inverted else out_by).get((node, pred), ()):
                body = bound + (atom,)
                if pos + 1 < len(clause.steps):
                    stack.append((pos + 1, nbr, body))
                elif nbr == db.arg2[head] and not (strict and any(b in targets and b not in free for b in body)):
                    grounds.append(tuple((b, -1) for b in body) + ((head, head_sign),))
    return sorted(grounds)


def map_objective(model, grounding, db, free, y, p):
    """Total weighted penalty with the free atoms at `y` (in `free` order)."""
    values = db.value_vector()
    values[free] = y
    weights = np.asarray(model.weights, dtype=np.float64)[grounding.g_clause]
    return float((weights * grounding.penalties(values, p)).sum())


def map_hinges(model, grounding, db, free):
    """The MAP problem over `Grounding.pairs`: a sparse (ground clause x free
    atom) coefficient matrix, each ground's constant with the free atoms at
    0, and its weight."""
    from scipy.sparse import csr_matrix

    values = db.value_vector()
    values[free] = 0.0
    column = np.full(len(values), -1)
    column[free] = np.arange(len(free))
    ground, atom, coef = grounding.pairs(column >= 0)
    matrix = csr_matrix((coef, (ground, column[atom])), shape=(len(grounding), len(free)))
    weights = np.asarray(model.weights, dtype=np.float64)[grounding.g_clause]
    return matrix, grounding.inner_values(values), weights


def lp_map_oracle(model, grounding, db, free):
    """Exact p=1 MAP as a linear program (scipy HiGHS): minimize sum_g w_g t_g
    subject to t_g >= c_g + a_g . y, t_g >= 0 and 0 <= y <= 1. Returns the
    objective at the LP's point."""
    from scipy.optimize import linprog
    from scipy.sparse import eye, hstack

    matrix, const, weights = map_hinges(model, grounding, db, free)
    n, m = len(free), len(grounding)
    res = linprog(
        np.concatenate([np.zeros(n), weights]),
        A_ub=hstack([matrix, -eye(m)]).tocsr() if m else None,
        b_ub=-const if m else None,
        bounds=[(0.0, 1.0)] * n + [(0.0, None)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return map_objective(model, grounding, db, free, np.clip(res.x[:n], 0.0, 1.0), 1)


def lbfgs_map_oracle(model, grounding, db, free):
    """p=2 MAP by L-BFGS-B on the smooth squared-hinge objective, from the
    all-0 and the all-1 start; returns the lower objective."""
    from scipy.optimize import minimize

    matrix, const, weights = map_hinges(model, grounding, db, free)

    def f(y):
        phi = np.maximum(const + matrix @ y, 0.0)
        return float(weights @ (phi * phi)), matrix.T @ (2.0 * weights * phi)

    ends = [
        minimize(f, np.full(len(free), start), jac=True, method="L-BFGS-B", bounds=[(0.0, 1.0)] * len(free),
                 options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000}).x
        for start in (0.0, 1.0)
    ]
    return min(map_objective(model, grounding, db, free, np.clip(y, 0.0, 1.0), 2) for y in ends)


def map_oracle(model, grounding, db, free, p):
    """The oracle's MAP objective at p = 1 or 2."""
    oracle = lp_map_oracle if p == 1 else lbfgs_map_oracle
    return oracle(model, grounding, db, list(free))


def admm_oracle(model, db, free, grounding, p, max_iters):
    """`map_infer`'s consensus ADMM as a plain loop: every residual norm
    computed on every iteration, fresh arrays for every row vector. The
    solver must return exactly this `MapSolution`."""
    from hlsl.inference import ABS_TOL, REL_TOL, MapSolution

    def norm(z):
        return float(np.sqrt((z * z).sum()))

    values = db.value_vector()
    values[free] = 0.0
    weights = np.asarray(model.weights, dtype=np.float64)
    ground, atom, coef = grounding.pairs(np.isin(np.arange(len(values)), free))
    live = coef != 0.0
    grounds, g = np.unique(ground[live], return_inverse=True)
    variables, v = np.unique(atom[live], return_inverse=True)
    a = coef[live]
    const = grounding.inner_values(values)[grounds]
    w = weights[grounding.g_clause[grounds]]
    if len(w) and w.mean() > 0.0:
        w = w / w.mean()
    norm2 = np.bincount(g, weights=a * a, minlength=len(grounds))
    cap = w * norm2 if p == 1 else np.inf
    scale = 1.0 / norm2 if p == 1 else 2.0 * w / (1.0 + 2.0 * w * norm2)
    copies = np.bincount(v, minlength=len(variables))
    eps_abs = float(np.sqrt(len(a))) * ABS_TOL

    y, y_rows, u = np.zeros(len(variables)), np.zeros(len(a)), np.zeros(len(a))
    iterations, primal, dual, converged = 0, 0.0, 0.0, False
    while iterations < max_iters and not converged:
        iterations += 1
        local = y_rows - u
        s = const + np.bincount(g, weights=a * local, minlength=len(grounds))
        step = np.minimum(np.maximum(s, 0.0), cap) * scale
        x = local - step[g] * a
        y = np.clip(np.bincount(v, weights=x + u, minlength=len(variables)) / copies, 0.0, 1.0)
        new_rows = y[v]
        r = x - new_rows
        u += r
        primal, dual = norm(r), norm(new_rows - y_rows)
        y_rows = new_rows
        converged = bool(
            primal <= eps_abs + REL_TOL * max(norm(x), norm(y_rows))
            and dual <= eps_abs + REL_TOL * norm(u)
        )

    values[variables] = y + 0.0
    objective = float((weights[grounding.g_clause] * grounding.penalties(values, p)).sum())
    return MapSolution(
        values={int(i): float(values[i]) for i in free},
        objective=objective,
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        converged=converged,
    )
