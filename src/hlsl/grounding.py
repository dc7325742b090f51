"""Clause grounding: instantiate first-order clauses into hinge potentials.

A substitution is emitted only when every body atom exists in the database
with a rounded value of 1 (free variables bypass the gate at inference
time) and the head atom is a stored target atom. A ground clause is a run
of (atom, coefficient) terms in flat arrays; its potential is

    max(1 - sum_{plus} x_i - sum_{minus} (1 - x_i), 0) ** p

where `plus` holds non-negated literal occurrences and `minus` negated ones.
A body -> head implication therefore has its body atoms in `minus` and the
head in `plus` (in `minus` when the head is negated).
"""
from __future__ import annotations

from typing import IO, Sequence

import numpy as np

from .clauses import PathClause
from .data import AtomDatabase, StepGraph, spans


def ground_clause(clause: PathClause, db: AtomDatabase, free_atoms: np.ndarray | Sequence[int] = (),
                  strict: bool = False, graph: StepGraph | None = None) -> Grounding:
    """All groundings of one clause against the database, as a one-clause
    `Grounding`.

    A substitution grounds when every body atom is stored and either rounds
    to 1 (at the threshold `build_adjacency` rounded at) or is free (in
    `free_atoms`), and the head is a stored target atom. Variables are
    substituted independently, so distinct variables may bind the same
    constant. Mining differs on purpose: it counts only simple paths, yet
    the clauses it yields also ground substitutions that repeat a constant
    (P(V1,V2) & Q(V2,V3) -> T(V1,V3) grounds on P(a, b), Q(b, a) with head
    T(a, a)). Negative priors ground once per target atom of their
    predicate. With `strict`, no body holds an observed (not free) target
    atom: no training labels inside bodies.

    The body is walked as a chain join over `graph`, which alone decides
    what a body may hold (by default `walk_graph(db, [clause], free_atoms,
    strict)`; a graph passed in must come from `walk_graph` over a clause
    list that holds this clause), for all head atoms at once: each step of
    the clause extends every partial walk by the graph steps of its label,
    and the last is a lookup of those that reach the head's second argument.
    Groundings come out sorted by their atom indices, body atoms in step
    order, then the head.
    """
    heads = db.targets[db.pred[db.targets] == db.pred_ids[clause.head]]
    atoms = heads[:, None]
    if clause.steps:
        if graph is None:
            graph = walk_graph(db, [clause], free_atoms, strict)
        labels = [2 * db.pred_ids[pred] + inverted for pred, inverted in clause.steps]
        row = np.arange(len(heads))
        node = db.arg1[heads]
        body = np.zeros((len(heads), 0), dtype=np.int64)
        for label in labels[:-1]:
            i, s = graph.expand(node, label)
            row, node = row[i], graph.dst[s]
            body = np.column_stack([body[i], graph.atom[s]])
        i, s = graph.lookup(node, db.arg2[heads[row]], labels[-1])
        atoms = np.column_stack([body[i], graph.atom[s], heads[row[i]]])
        atoms = atoms[np.lexsort(atoms.T[::-1])]

    n, width = atoms.shape
    n_minus = width - 1 + clause.negated
    coef = np.ones(width)
    coef[-1] = 1.0 if clause.negated else -1.0
    return Grounding(
        [clause],
        db,
        np.zeros(n, dtype=np.int64),
        np.full(n, 1.0 - n_minus),
        np.full(n, width, dtype=np.int64),
        atoms.ravel(),
        np.tile(coef, n),
    )


def walk_graph(db: AtomDatabase, clauses: Sequence[PathClause], free_atoms: np.ndarray | Sequence[int] = (),
               strict: bool = False) -> StepGraph:
    """The step graph that grounding `clauses` walks: the steps of the labels
    their bodies use, of the atoms a body may hold. Those are the edges and
    the free atoms (indices), which may take any value at inference time;
    with `strict`, less the observed (not free) target atoms."""
    walkable = np.zeros(len(db.values), dtype=bool)
    walkable[db.edges] = True
    if strict:
        walkable &= ~db.target_mask()
    walkable[np.asarray(free_atoms, dtype=np.int64)] = True
    labels = np.zeros(2 * len(db.predicates), dtype=bool)
    labels[[2 * db.pred_ids[pred] + inverted for clause in clauses for pred, inverted in clause.steps]] = True
    return StepGraph(db, np.flatnonzero(walkable), labels)


class Grounding:
    """All groundings of an ordered clause list, as flat index arrays.

    Immutable once built. `g_clause[g]` is the owning clause of ground
    clause g; term arrays list every (ground, atom, coefficient) occurrence
    in ground-clause order, where the coefficient is the atom's multiplier
    inside the hinge's affine expression (+1 for a negated occurrence, -1
    otherwise); `g_const0[g]` is the expression's constant before any atom
    contributions.
    """

    def __init__(
        self,
        clauses: Sequence[PathClause],
        db: AtomDatabase,
        g_clause: np.ndarray,
        g_const0: np.ndarray,
        term_count: np.ndarray,
        term_atom: np.ndarray,
        term_coef: np.ndarray,
    ):
        self.clauses = list(clauses)
        self.db = db
        self.g_clause = g_clause
        self.g_const0 = g_const0
        self.term_count = term_count
        self.term_start = (np.cumsum(term_count) - term_count).astype(np.int64)
        self.term_ground = np.repeat(np.arange(len(g_clause), dtype=np.int64), term_count)
        self.term_atom = term_atom
        self.term_coef = term_coef

    def __len__(self) -> int:
        return len(self.g_clause)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def inner_values(self, values: np.ndarray) -> np.ndarray:
        """Affine expression of every ground clause under an assignment."""
        inner = self.g_const0.copy()
        if len(self.term_ground):
            np.add.at(inner, self.term_ground, self.term_coef * values[self.term_atom])
        return inner

    def pairs(self, variables: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One (ground, atom, coefficient) row per distinct (ground clause,
        atom) of the atoms flagged in the boolean mask `variables`, sorted by
        (ground, atom), each coefficient summed in term order."""
        keep = variables[self.term_atom]
        n_atoms = np.int64(len(variables))
        key = self.term_ground[keep] * n_atoms + self.term_atom[keep]
        ukey, inv = np.unique(key, return_inverse=True)
        coef = np.bincount(inv, weights=self.term_coef[keep], minlength=len(ukey))
        return ukey // n_atoms, ukey % n_atoms, coef

    def penalties(self, values: np.ndarray, p: int = 1) -> np.ndarray:
        """Hinge penalty of every ground clause under an assignment."""
        phi = np.maximum(self.inner_values(values), 0.0)
        return phi if p == 1 else phi**p

    def restrict(self, indices: Sequence[int]) -> "Grounding":
        """Grounding of the clause sublist `indices`, reindexed positionally.

        Pure array slicing; ground clauses keep their per-clause order, so
        the result equals regrounding the sublist from scratch.
        """
        # ground clauses are stored clause-contiguous, their terms ground-contiguous
        at = np.asarray(indices, dtype=np.int64)
        lo, hi = (np.searchsorted(self.g_clause, at, side) for side in ("left", "right"))
        new_clause, gids = spans(lo, hi)
        counts, start = self.term_count[gids], self.term_start[gids]
        _, rows = spans(start, start + counts)
        return Grounding(
            [self.clauses[i] for i in indices],
            self.db,
            new_clause,
            self.g_const0[gids],
            counts,
            self.term_atom[rows],
            self.term_coef[rows],
        )


def ground_clauses(clauses: Sequence[PathClause], db: AtomDatabase, free_atoms: np.ndarray | Sequence[int] = (),
                   strict: bool = False) -> Grounding:
    """Ground an ordered clause list (see `ground_clause`); the owning clause
    of a ground clause is its list position. One `walk_graph` serves all."""
    graph = walk_graph(db, clauses, free_atoms, strict)
    parts = [ground_clause(clause, db, graph=graph) for clause in clauses]

    def joined(name: str, dtype) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in parts] + [np.zeros(0, dtype=dtype)])

    return Grounding(
        clauses,
        db,
        np.repeat(np.arange(len(parts), dtype=np.int64), [len(p) for p in parts]),
        joined("g_const0", np.float64),
        joined("term_count", np.int64),
        joined("term_atom", np.int64),
        joined("term_coef", np.float64),
    )


def dump_grounding_tsv(grounding: Grounding, stream: IO[str]) -> None:
    """Debug dump: clause index and signed term list per ground clause, a
    negated occurrence (positive coefficient) printed as `-`."""
    db = grounding.db
    for g, start in enumerate(grounding.term_start):
        end = start + grounding.term_count[g]
        terms = ";".join(
            f"{'-' if c > 0 else '+'}{db.atom_str(int(a))}"
            for a, c in zip(grounding.term_atom[start:end], grounding.term_coef[start:end])
        )
        stream.write(f"{grounding.g_clause[g]}\t{terms}\n")
