"""Clause grounding: instantiate first-order clauses into hinge potentials.

A substitution is emitted only when every body atom exists in the database
with a rounded value of 1 (free variables bypass the gate at inference
time) and the head atom is a stored target atom. `ground_clause` gives a
clause's groundings as a matrix of atom indices, and `ground_clauses`
builds one `Grounding` of a clause list from those matrices. In it a
ground clause is a run of (atom, coefficient) terms in flat arrays; its
potential is

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


def _step_labels(db: AtomDatabase, clause: PathClause) -> list[int]:
    """The `StepGraph` label of each step of a clause's body."""
    return [2 * db.pred_ids[pred] + inverted for pred, inverted in clause.steps]


def ground_clause(clause: PathClause, db: AtomDatabase, graph: StepGraph) -> np.ndarray:
    """All groundings of one clause against the database, as an (n,
    len(steps) + 1) matrix of atom indices: body atoms in step order, then
    the head, rows sorted. `ground_clauses` grounds a clause list through it.

    A substitution grounds when every body atom is a step of `graph` and
    the head is a stored target atom. The graph comes from `walk_graph`
    over a clause list that holds this clause, so it decides which atoms a
    body may hold. Variables are substituted independently, so distinct
    variables may bind the same constant. Mining differs on purpose: it
    counts only simple paths, yet the clauses it yields also ground
    substitutions that repeat a constant (P(V1,V2) & Q(V2,V3) -> T(V1,V3)
    grounds on P(a, b), Q(b, a) with head T(a, a)). Negative priors ground
    once per target atom of their predicate.

    The body is walked as a chain join over `graph` for all head atoms at
    once: each step of the clause extends every partial walk by the graph
    steps of its label, and the last is a lookup of those that reach the
    head's second argument.
    """
    heads = db.targets[db.pred[db.targets] == db.pred_ids[clause.head]]
    if not clause.steps:
        return heads[:, None]
    labels = _step_labels(db, clause)
    row = np.arange(len(heads))
    node = db.arg1[heads]
    body = np.zeros((len(heads), 0), dtype=np.int64)
    for label in labels[:-1]:
        i, s = graph.expand(node, label)
        row, node = row[i], graph.dst[s]
        body = np.column_stack([body[i], graph.atom[s]])
    i, s = graph.lookup(node, db.arg2[heads[row]], labels[-1])
    atoms = np.column_stack([body[i], graph.atom[s], heads[row[i]]])
    return atoms[np.lexsort(atoms.T[::-1])]


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
    labels[[label for clause in clauses for label in _step_labels(db, clause)]] = True
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
    """Ground an ordered clause list: the one way to ground. A body atom is
    stored and either rounds to 1 or is free (in `free_atoms`, indices),
    and with `strict` is no observed (not free) target atom: no training
    labels inside bodies. One `walk_graph` serves every clause's
    `ground_clause`, and one `Grounding` is built from their atom
    matrices; the owning clause of a ground clause is its list position."""
    graph = walk_graph(db, clauses, free_atoms, strict)
    parts = [ground_clause(clause, db, graph) for clause in clauses]
    n = np.array([len(atoms) for atoms in parts], dtype=np.int64)
    width = np.repeat(np.array([len(clause.steps) + 1 for clause in clauses], dtype=np.int64), n)
    negated = np.repeat(np.array([clause.negated for clause in clauses], dtype=bool), n)
    # every term is a negated occurrence (+1) except a ground clause's last,
    # its head, which is -1 unless the head is negated
    term_coef = np.ones(width.sum())
    term_coef[np.cumsum(width) - 1] = np.where(negated, 1.0, -1.0)
    return Grounding(
        clauses,
        db,
        np.repeat(np.arange(len(parts), dtype=np.int64), n),
        1.0 - (width - 1 + negated),
        width,
        np.concatenate([atoms.ravel() for atoms in parts] + [np.zeros(0, dtype=np.int64)]),
        term_coef,
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
