"""Clause grounding: instantiate first-order clauses into hinge potentials.

Grounding is lazy: a substitution is emitted only when every body atom
exists in the database with a rounded value of 1 (free variables bypass the
gate at inference time) and the head atom is a stored target atom. Each
ground clause records its signed term list; the potential is

    max(1 - sum_{plus} x_i - sum_{minus} (1 - x_i), 0) ** p

where `plus` holds non-negated literal occurrences and `minus` negated ones.
A body -> head implication therefore stores body atoms with sign -1 and the
head with sign +1 (-1 when the head is negated).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .clauses import PathClause, StepGraph
from .data import AtomDatabase, rounds_to_one
from .errors import MissingAssignment

SIGN_PLUS = 1
SIGN_MINUS = -1


@dataclass(frozen=True)
class GroundClause:
    """One instantiated hinge potential.

    `terms` pairs atom indices with their sign (+1 for a non-negated
    occurrence, -1 for a negated one); `constant` is the leading 1 of the
    distance-to-satisfaction expression and stays unfolded here.
    """

    clause_index: int
    terms: tuple[tuple[int, int], ...]
    constant: float = 1.0


def hinge_penalty(gc: GroundClause, assignment: Mapping[int, float], p: int = 1) -> float:
    """Distance to satisfaction of one ground clause under an assignment."""
    inner = gc.constant
    for atom, sign in gc.terms:
        try:
            x = assignment[atom]
        except KeyError:
            raise MissingAssignment(f"atom index {atom}") from None
        inner -= x if sign == SIGN_PLUS else (1.0 - x)
    return max(inner, 0.0) ** p


def ground_clause(
    clause: PathClause,
    db: AtomDatabase,
    free_atoms: frozenset[int] | set[int] | None = None,
    strict: bool = False,
    graph: StepGraph | None = None,
) -> Grounding:
    """All groundings of one clause against the database, as a one-clause
    `Grounding`.

    A substitution grounds when every body atom is stored and either rounds
    to 1 (at the threshold the adjacency index was built with) or is free,
    and the head is a stored target atom. Variables are substituted
    independently, so distinct variables may bind the same constant. Mining
    differs on purpose: it counts only simple paths, yet the clauses it
    yields also ground substitutions that repeat a constant (P(V1,V2) &
    Q(V2,V3) -> T(V1,V3) grounds on P(a, b), Q(b, a) with head T(a, a)).
    Negative priors ground once per target atom of their predicate. With
    `strict`, groundings whose body contains an observed target atom are
    dropped (no training labels inside bodies).

    The body is walked as a chain join over `graph` (by default
    `walk_graph(db, free_atoms)`) for all head atoms at once: each body
    literal extends every partial walk by the steps of its label, and the
    last literal is a lookup of the steps that reach the head's second
    argument. Groundings come out sorted by their atom indices, body atoms
    in literal order, then the head.
    """
    targets = np.asarray(db.targets, dtype=np.int64)
    heads = targets[db.pred[targets] == db.pred_ids[clause.head.predicate]]
    atoms = heads[:, None]
    if clause.body:
        if graph is None:
            graph = walk_graph(db, free_atoms)
        labels = [2 * db.pred_ids[lit.predicate] + lit.inverted for lit in clause.body]
        row = np.arange(len(heads))
        node = db.arg1[heads]
        body = np.zeros((len(heads), 0), dtype=np.int64)
        for label in labels[:-1]:
            i, s = graph.expand(node, label)
            row, node = row[i], graph.dst[s]
            body = np.column_stack([body[i], graph.atom[s]])
        i, s = graph.lookup(node, db.arg2[heads[row]], labels[-1])
        atoms = np.column_stack([body[i], graph.atom[s], heads[row[i]]])
        if strict:
            observed = db.target_mask()
            observed[list(free_atoms or ())] = False
            atoms = atoms[~observed[atoms[:, :-1]].any(axis=1)]
        atoms = atoms[np.lexsort(atoms.T[::-1])]

    n, width = atoms.shape
    n_minus = width - 1 + clause.head.negated
    coef = np.ones(width)
    coef[-1] = 1.0 if clause.head.negated else -1.0
    return Grounding._from_arrays(
        [clause],
        db,
        np.zeros(n, dtype=np.int64),
        np.full(n, 1.0 - n_minus),
        np.full(n, width, dtype=np.int64),
        atoms.ravel(),
        np.tile(coef, n),
    )


def walk_graph(db: AtomDatabase, free_atoms: frozenset[int] | set[int] | None = None) -> StepGraph:
    """The step graph grounding walks: the adjacency index plus, as extra
    steps, the free atoms that round to 0, since those may take any value
    at inference time. Forward and backward steps of every predicate."""
    free = np.unique(np.fromiter(free_atoms or (), dtype=np.int64))
    return StepGraph(db, extra=free[~rounds_to_one(db.values[free], db.round_threshold)])


def build_incidence(
    grounds: Sequence[GroundClause], db: AtomDatabase
) -> dict[int, list[int]]:
    """Map each target atom to the ground clauses it appears in."""
    target_set = set(db.targets)
    incidence: dict[int, list[int]] = {i: [] for i in db.targets}
    for gid, gc in enumerate(grounds):
        seen: set[int] = set()
        for atom, _sign in gc.terms:
            if atom in target_set and atom not in seen:
                incidence[atom].append(gid)
                seen.add(atom)
    return incidence


class Grounding:
    """All groundings of an ordered clause list, with flat index arrays.

    Immutable once built; scoring and learning read it concurrently. Arrays:
    `g_clause[g]` is the owning clause of ground clause g; term arrays list
    every (ground, atom, coefficient) occurrence in ground-clause order,
    where the coefficient is the atom's multiplier inside the hinge's affine
    expression (+1 for a negated occurrence, -1 otherwise); `g_const0[g]` is
    the expression's constant before any atom contributions. The
    `GroundClause` view and the incidence index are materialized lazily.
    """

    @classmethod
    def _from_arrays(
        cls,
        clauses: Sequence[PathClause],
        db: AtomDatabase,
        g_clause: np.ndarray,
        g_const0: np.ndarray,
        term_count: np.ndarray,
        term_atom: np.ndarray,
        term_coef: np.ndarray,
    ) -> "Grounding":
        self = cls.__new__(cls)
        self.clauses = list(clauses)
        self.db = db
        self._grounds = None
        self._incidence = None
        self.g_clause = g_clause
        self.g_const0 = g_const0
        self.term_count = term_count
        self.term_start = (np.cumsum(term_count) - term_count).astype(np.int64)
        self.term_ground = np.repeat(np.arange(len(g_clause), dtype=np.int64), term_count)
        self.term_atom = term_atom
        self.term_coef = term_coef
        return self

    def __len__(self) -> int:
        return len(self.g_clause)

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    @property
    def grounds(self) -> list[GroundClause]:
        if self._grounds is None:
            out = []
            for gid in range(len(self)):
                sl = slice(self.term_start[gid], self.term_start[gid] + self.term_count[gid])
                terms = tuple(
                    (int(a), SIGN_MINUS if c > 0 else SIGN_PLUS)
                    for a, c in zip(self.term_atom[sl], self.term_coef[sl])
                )
                n_minus = sum(1 for _, s in terms if s == SIGN_MINUS)
                out.append(GroundClause(int(self.g_clause[gid]), terms, float(self.g_const0[gid] + n_minus)))
            self._grounds = out
        return self._grounds

    @property
    def incidence(self) -> dict[int, list[int]]:
        if self._incidence is None:
            self._incidence = build_incidence(self.grounds, self.db)
        return self._incidence

    def by_clause(self, clause_index: int) -> np.ndarray:
        """Ground ids of one clause; grounds are stored clause-contiguous."""
        lo = int(np.searchsorted(self.g_clause, clause_index, "left"))
        hi = int(np.searchsorted(self.g_clause, clause_index, "right"))
        return np.arange(lo, hi, dtype=np.int64)

    def inner_values(self, values: np.ndarray) -> np.ndarray:
        """Affine expression of every ground clause under an assignment."""
        inner = self.g_const0.copy()
        if len(self.term_ground):
            np.add.at(inner, self.term_ground, self.term_coef * values[self.term_atom])
        return inner

    def penalties(self, values: np.ndarray, p: int = 1) -> np.ndarray:
        """Hinge penalty of every ground clause under an assignment."""
        phi = np.maximum(self.inner_values(values), 0.0)
        return phi if p == 1 else phi**p

    def restrict(self, indices: Sequence[int]) -> "Grounding":
        """Grounding of the clause sublist `indices`, reindexed positionally.

        Pure array slicing; ground clauses keep their per-clause order, so
        the result equals regrounding the sublist from scratch.
        """
        pick = [self.by_clause(i) for i in indices]
        gids = np.concatenate(pick) if pick else np.zeros(0, dtype=np.int64)
        new_clause = np.repeat(
            np.arange(len(indices), dtype=np.int64),
            [len(block) for block in pick] if pick else [],
        )
        counts = self.term_count[gids]
        # flatten the per-ground term ranges of the selected ground clauses
        offsets = np.repeat(self.term_start[gids], counts)
        within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        rows = offsets + within
        return Grounding._from_arrays(
            [self.clauses[i] for i in indices],
            self.db,
            new_clause,
            self.g_const0[gids],
            counts,
            self.term_atom[rows],
            self.term_coef[rows],
        )


def ground_clauses(
    clauses: Sequence[PathClause],
    db: AtomDatabase,
    free_atoms: frozenset[int] | set[int] | None = None,
    strict: bool = False,
) -> Grounding:
    """Ground an ordered clause list; the owning clause of a ground clause
    is its list position. One step graph serves every clause."""
    graph = walk_graph(db, free_atoms)
    parts = [ground_clause(clause, db, free_atoms, strict, graph) for clause in clauses]

    def joined(name: str, dtype) -> np.ndarray:
        return np.concatenate([getattr(p, name) for p in parts] + [np.zeros(0, dtype=dtype)])

    return Grounding._from_arrays(
        clauses,
        db,
        np.repeat(np.arange(len(parts), dtype=np.int64), [len(p) for p in parts]),
        joined("g_const0", np.float64),
        joined("term_count", np.int64),
        joined("term_atom", np.int64),
        joined("term_coef", np.float64),
    )


def dump_grounding_tsv(grounding: Grounding, stream: IO[str]) -> None:
    """Debug dump: clause index and signed term list per ground clause."""
    db = grounding.db
    for gc in grounding.grounds:
        terms = ";".join(
            f"{'+' if s == SIGN_PLUS else '-'}{db.atom_str(a)}" for a, s in gc.terms
        )
        stream.write(f"{gc.clause_index}\t{terms}\n")
