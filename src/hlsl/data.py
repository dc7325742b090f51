"""Relational ground-atom data: schema files, TSV ingestion, adjacency index.

Atoms are binary-predicate facts with soft values in [0, 1]. Atoms of target
predicates are the random variables of the model; everything else is
evidence. The adjacency index holds one outgoing and one incoming edge per
atom whose value rounds to 1, and is what the clause generator traverses.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DuplicateAtom, MalformedLine, UnknownPredicate, ValueOutOfRange

DEFAULT_ROUND_THRESHOLD = 0.5


@dataclass(frozen=True)
class PredicateSymbol:
    """A binary predicate; target predicates mark the variables to predict."""

    name: str
    arity: int = 2
    is_target: bool = False


@dataclass(frozen=True)
class GroundAtom:
    predicate: PredicateSymbol
    arg1: int  # interned constant id
    arg2: int
    value: float
    index: int  # position in AtomDatabase.atoms


def round_value(v: float, threshold: float = DEFAULT_ROUND_THRESHOLD) -> int:
    """Round a soft value to {0, 1}; the threshold itself rounds up."""
    if not 0.0 <= v <= 1.0:
        raise ValueOutOfRange(f"value {v} outside [0, 1]")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    return 1 if v >= threshold else 0


class AtomDatabase:
    """Indexed store of ground atoms split into target and evidence atoms.

    Constants are interned to dense integer ids; string names are kept for
    serialization. After `build_adjacency` the database is treated as
    immutable and may be read concurrently from any number of workers.
    """

    def __init__(self, schema: Iterable[PredicateSymbol]):
        self.predicates: dict[str, PredicateSymbol] = {}
        for pred in schema:
            if pred.arity != 2:
                raise ValueError(f"predicate {pred.name!r} has arity {pred.arity}, only 2 supported")
            if pred.name in self.predicates:
                raise ValueError(f"duplicate predicate {pred.name!r} in schema")
            self.predicates[pred.name] = pred
        self.atoms: list[GroundAtom] = []
        self.constants: list[str] = []
        self._const_ids: dict[str, int] = {}
        self._atom_ids: dict[tuple[str, int, int], int] = {}
        self.targets: list[int] = []
        self.evidence: list[int] = []
        # adjacency: constant id -> sorted list of (predicate name, neighbor id, atom index)
        self.outgoing: dict[int, list[tuple[str, int, int]]] = {}
        self.incoming: dict[int, list[tuple[str, int, int]]] = {}
        # the same edges keyed by (constant id, predicate name), for chain walks
        self.out_by_pred: dict[tuple[int, str], list[tuple[int, int]]] = {}
        self.in_by_pred: dict[tuple[int, str], list[tuple[int, int]]] = {}
        # rounding threshold the adjacency was built with
        self.round_threshold: float = DEFAULT_ROUND_THRESHOLD

    # -- construction -----------------------------------------------------

    def intern(self, name: str) -> int:
        cid = self._const_ids.get(name)
        if cid is None:
            cid = len(self.constants)
            self._const_ids[name] = cid
            self.constants.append(name)
        return cid

    def add_atom(self, pred_name: str, arg1: str, arg2: str, value: float = 1.0) -> GroundAtom:
        pred = self.predicates.get(pred_name)
        if pred is None:
            raise UnknownPredicate(pred_name)
        if not 0.0 <= value <= 1.0:
            raise ValueOutOfRange(f"{pred_name}({arg1},{arg2}) = {value}")
        a1, a2 = self.intern(arg1), self.intern(arg2)
        key = (pred_name, a1, a2)
        if key in self._atom_ids:
            raise DuplicateAtom(f"{pred_name}({arg1},{arg2})")
        atom = GroundAtom(pred, a1, a2, float(value), len(self.atoms))
        self._atom_ids[key] = atom.index
        self.atoms.append(atom)
        (self.targets if pred.is_target else self.evidence).append(atom.index)
        return atom

    # -- lookups ----------------------------------------------------------

    def const_name(self, cid: int) -> str:
        return self.constants[cid]

    def find_atom(self, pred_name: str, arg1: int, arg2: int) -> int | None:
        """Atom index for (predicate, const id, const id), or None."""
        return self._atom_ids.get((pred_name, arg1, arg2))

    def target_predicates(self) -> list[PredicateSymbol]:
        return [p for p in self.predicates.values() if p.is_target]

    def value_vector(self) -> np.ndarray:
        """Stored values of all atoms, index-aligned with `atoms`."""
        return np.array([a.value for a in self.atoms], dtype=np.float64)

    def target_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.atoms), dtype=bool)
        mask[self.targets] = True
        return mask

    def atom_str(self, index: int) -> str:
        a = self.atoms[index]
        return f"{a.predicate.name}({self.const_name(a.arg1)},{self.const_name(a.arg2)})"

    def atom_set(self) -> set[tuple[str, str, str, float]]:
        """Order-insensitive view used by round-trip checks."""
        return {
            (a.predicate.name, self.const_name(a.arg1), self.const_name(a.arg2), a.value)
            for a in self.atoms
        }


def build_adjacency(db: AtomDatabase, threshold: float = DEFAULT_ROUND_THRESHOLD) -> AtomDatabase:
    """Populate the per-constant edge index from atoms that round to 1.

    Every qualifying atom p(a, b) contributes one outgoing edge at a and one
    incoming edge at b; incoming edges support inverse-predicate traversal.
    Edge lists are sorted so traversal order is deterministic.
    """
    out: dict[int, list[tuple[str, int, int]]] = {}
    inc: dict[int, list[tuple[str, int, int]]] = {}
    out_p: dict[tuple[int, str], list[tuple[int, int]]] = {}
    in_p: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for atom in db.atoms:
        if round_value(atom.value, threshold) != 1:
            continue
        name = atom.predicate.name
        out.setdefault(atom.arg1, []).append((name, atom.arg2, atom.index))
        inc.setdefault(atom.arg2, []).append((name, atom.arg1, atom.index))
        out_p.setdefault((atom.arg1, name), []).append((atom.arg2, atom.index))
        in_p.setdefault((atom.arg2, name), []).append((atom.arg1, atom.index))
    for index in (out, inc, out_p, in_p):
        for edges in index.values():
            edges.sort()
    db.outgoing = out
    db.incoming = inc
    db.out_by_pred = out_p
    db.in_by_pred = in_p
    db.round_threshold = threshold
    return db


# -- flat-file formats ----------------------------------------------------


def parse_schema(stream: IO[str] | Iterable[str]) -> list[PredicateSymbol]:
    """Read a schema file: one `name<TAB>target|evidence` entry per line."""
    preds: list[PredicateSymbol] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip():
            raise MalformedLine(line_no, f"expected 'name<TAB>target|evidence', got {line!r}")
        name, role = fields[0].strip(), fields[1].strip()
        if role not in ("target", "evidence"):
            raise MalformedLine(line_no, f"role must be 'target' or 'evidence', got {role!r}")
        if name in seen:
            raise MalformedLine(line_no, f"duplicate predicate {name!r}")
        seen.add(name)
        preds.append(PredicateSymbol(name, 2, role == "target"))
    return preds


# One validated atom line: (line number, predicate, arg1, arg2, value).
AtomRow = tuple[int, str, str, str, float | None]


def read_atom_rows(
    stream: IO[str] | Iterable[str], source: str = "", default: float | None = 1.0
) -> Iterator[AtomRow]:
    """Validate and split `predicate<TAB>arg1<TAB>arg2[<TAB>value]` lines.

    Blank lines are skipped. Every other line must have three or four
    tab-separated fields, none of the first three empty after stripping, and
    a fourth field must parse as a number; anything else raises
    `MalformedLine` naming `source` and the line. A missing value column
    reads as `default`. Value ranges are the caller's to check.
    """
    where = f"{source}: " if source else ""
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        fields = raw.rstrip("\n").split("\t")
        if len(fields) == 4:
            pred, arg1, arg2, text = fields
            try:
                value = float(text)
            except ValueError:
                raise MalformedLine(line_no, f"{where}bad value {text!r}") from None
        elif len(fields) == 3:
            (pred, arg1, arg2), value = fields, default
        else:
            raise MalformedLine(line_no, f"{where}expected 3 or 4 tab-separated fields, got {len(fields)}")
        pred, arg1, arg2 = pred.strip(), arg1.strip(), arg2.strip()
        if not (pred and arg1 and arg2):
            raise MalformedLine(line_no, f"{where}empty field")
        yield line_no, pred, arg1, arg2, value


def read_atom_file(path: str, default: float | None = 1.0) -> list[AtomRow]:
    """All rows of one atom file, through `read_atom_rows`."""
    with open(path, encoding="utf-8") as fh:
        return list(read_atom_rows(fh, path, default))


def _add_rows(db: AtomDatabase, rows: Iterable[AtomRow]) -> AtomDatabase:
    for _, pred, arg1, arg2, value in rows:
        db.add_atom(pred, arg1, arg2, value)
    return db


def parse_tsv(stream: IO[str] | Iterable[str], schema: Iterable[PredicateSymbol]) -> AtomDatabase:
    """Read ground atoms from `predicate<TAB>arg1<TAB>arg2[<TAB>value]` lines.

    The value column defaults to 1.0. Duplicate triples, unknown predicates
    and out-of-range values are hard errors so data-preparation bugs surface
    immediately.
    """
    return _add_rows(AtomDatabase(schema), read_atom_rows(stream))


def serialize_tsv(db: AtomDatabase) -> str:
    """Write atoms back to the TSV format; reparsing yields an equal database."""
    lines = []
    for a in db.atoms:
        lines.append(
            f"{a.predicate.name}\t{db.const_name(a.arg1)}\t{db.const_name(a.arg2)}\t{a.value!r}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_schema(preds: Iterable[PredicateSymbol]) -> str:
    return "".join(
        f"{p.name}\t{'target' if p.is_target else 'evidence'}\n" for p in preds
    )


def load_database(
    schema_path: str,
    atom_paths: Iterable[str],
    threshold: float = DEFAULT_ROUND_THRESHOLD,
    extra_rows: Iterable[AtomRow] = (),
) -> AtomDatabase:
    """Convenience loader: schema file plus one or more atom TSV files.

    `extra_rows` are added after the files and before the adjacency index
    is built, so the index is built once.
    """
    with open(schema_path, encoding="utf-8") as fh:
        schema = parse_schema(fh)
    db = AtomDatabase(schema)
    for path in atom_paths:
        with open(path, encoding="utf-8") as fh:
            _add_rows(db, read_atom_rows(fh, path))
    return build_adjacency(_add_rows(db, extra_rows), threshold)
