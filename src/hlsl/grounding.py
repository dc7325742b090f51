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

from .clauses import PathClause
from .data import AtomDatabase, round_value
from .errors import MissingAssignment
from .parallel import parallel_map

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
    clause_index: int = 0,
    free_atoms: frozenset[int] | set[int] | None = None,
    strict: bool = False,
    threshold: float | None = None,
) -> list[GroundClause]:
    """All groundings of one clause against the database.

    Variables are substituted independently, so distinct variables may bind
    the same constant. Mining differs on purpose: it counts only simple
    paths, yet the clauses it yields also ground substitutions that repeat
    a constant (P(V1,V2) & Q(V2,V3) -> T(V1,V3) grounds on P(a, b), Q(b, a)
    with head T(a, a)). Negative priors ground once per target atom of their
    predicate. With `strict`, groundings whose body contains an observed
    target atom are dropped (no training labels inside bodies). The rounding
    gate defaults to the threshold the adjacency index was built with.
    """
    free = free_atoms or frozenset()
    if threshold is None:
        threshold = db.round_threshold
    head_pred = clause.head.predicate
    target_atoms = [
        db.atoms[i] for i in db.targets if db.atoms[i].predicate.name == head_pred
    ]
    head_sign = SIGN_MINUS if clause.head.negated else SIGN_PLUS

    if clause.is_prior:
        return [
            GroundClause(clause_index, ((atom.index, head_sign),))
            for atom in target_atoms
        ]

    # Free atoms may sit below the rounding threshold yet still participate
    # in bodies at inference time; index them for traversal separately.
    free_out: dict[tuple[str, int], list[tuple[int, int]]] = {}
    free_in: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for i in free:
        atom = db.atoms[i]
        if round_value(atom.value, threshold) == 1:
            continue  # already present in the adjacency index
        free_out.setdefault((atom.predicate.name, atom.arg1), []).append((atom.arg2, i))
        free_in.setdefault((atom.predicate.name, atom.arg2), []).append((atom.arg1, i))

    def successors(pred: str, node: int, inverted: bool) -> list[tuple[int, int]]:
        """(next constant, atom index) pairs for one body literal."""
        index = db.in_by_pred if inverted else db.out_by_pred
        edges = index.get((node, pred), [])
        extra = (free_in if inverted else free_out).get((pred, node))
        if extra:
            edges = sorted(edges + extra)
        return edges

    def last_step_atom(pred: str, node: int, goal: int, inverted: bool) -> int | None:
        """Atom index closing the chain at the head's second argument."""
        idx = db.find_atom(pred, goal, node) if inverted else db.find_atom(pred, node, goal)
        if idx is None:
            return None
        if idx in free or round_value(db.atoms[idx].value, threshold) == 1:
            return idx
        return None

    target_set = set(db.targets)
    grounds: list[GroundClause] = []
    last = len(clause.body) - 1
    for head_atom in target_atoms:
        # Walk the body chain from the head's first argument; each complete
        # walk landing on the head's second argument is one substitution.
        # The final literal is a direct atom lookup rather than a scan.
        stack: list[tuple[int, int, tuple[int, ...]]] = [(0, head_atom.arg1, ())]
        while stack:
            pos, node, bound = stack.pop()
            lit = clause.body[pos]
            if pos == last:
                ai = last_step_atom(lit.predicate, node, head_atom.arg2, lit.inverted)
                if ai is None:
                    continue
                bound = bound + (ai,)
                if strict and any(b in target_set and b not in free for b in bound):
                    continue
                terms = tuple((b, SIGN_MINUS) for b in bound) + ((head_atom.index, head_sign),)
                grounds.append(GroundClause(clause_index, terms))
                continue
            # literals are stored in predicate order; walk orientation follows
            # the chain, so inverted literals traverse incoming edges
            for nbr, ai in successors(lit.predicate, node, lit.inverted):
                stack.append((pos + 1, nbr, bound + (ai,)))
    grounds.sort(key=lambda g: g.terms)
    return grounds


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

    def __init__(self, clauses: Sequence[PathClause], grounds: list[GroundClause], db: AtomDatabase):
        self.clauses = list(clauses)
        self.db = db
        self._grounds: list[GroundClause] | None = grounds
        self._incidence: dict[int, list[int]] | None = None

        n = len(grounds)
        self.g_clause = np.fromiter((g.clause_index for g in grounds), dtype=np.int64, count=n)
        self.g_const0 = np.empty(n, dtype=np.float64)
        self.term_count = np.fromiter((len(g.terms) for g in grounds), dtype=np.int64, count=n)
        t_ground, t_atom, t_coef = [], [], []
        for gid, gc in enumerate(grounds):
            n_minus = sum(1 for _, s in gc.terms if s == SIGN_MINUS)
            self.g_const0[gid] = gc.constant - n_minus
            for atom, sign in gc.terms:
                t_ground.append(gid)
                t_atom.append(atom)
                t_coef.append(1.0 if sign == SIGN_MINUS else -1.0)
        self.term_ground = np.asarray(t_ground, dtype=np.int64)
        self.term_atom = np.asarray(t_atom, dtype=np.int64)
        self.term_coef = np.asarray(t_coef, dtype=np.float64)
        self.term_start = (np.cumsum(self.term_count) - self.term_count).astype(np.int64)

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
    threshold: float | None = None,
    threads: int = 1,
) -> Grounding:
    """Ground an ordered clause list; clause_index is the list position."""
    per_clause = parallel_map(
        lambda ic: ground_clause(ic[1], db, ic[0], free_atoms, strict, threshold),
        list(enumerate(clauses)),
        threads,
    )
    grounds = [g for chunk in per_clause for g in chunk]
    return Grounding(clauses, grounds, db)


def dump_grounding_tsv(grounding: Grounding, stream: IO[str]) -> None:
    """Debug dump: clause index and signed term list per ground clause."""
    db = grounding.db
    for gc in grounding.grounds:
        terms = ";".join(
            f"{'+' if s == SIGN_PLUS else '-'}{db.atom_str(a)}" for a, s in gc.terms
        )
        stream.write(f"{gc.clause_index}\t{terms}\n")
