"""Relational ground-atom data: schema files, TSV ingestion, the step graph.

Atoms are binary-predicate facts with soft values in [0, 1]. Atoms of target
predicates are the random variables of the model; everything else is
evidence. The database stores atoms as columns, so that an atom is its row
index, and, after `build_adjacency`, the indices of the atoms whose value
rounds to 1 (its edges). The clause miner and the grounder both walk those
atoms as a `StepGraph`, one array of steps sorted by a single (source,
label, destination) key; the step graph is the only index of the edges that
is kept.

Atom files are read whole by `read_atom_columns` into `AtomColumns`, which
`AtomDatabase.add_columns` appends without a tuple per row. A file that a
few whole-text checks prove plain (ASCII, no whitespace but tabs and
newlines, one field count on every line, no empty field, every value a
float) is split in one pass; any other file goes line by line through
`read_atom_rows`, which owns every `MalformedLine` message.
"""
from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DuplicateAtom, MalformedLine, UnknownPredicate, ValueOutOfRange

DEFAULT_ROUND_THRESHOLD = 0.5


@dataclass(frozen=True)
class PredicateSymbol:
    """A binary predicate; target predicates mark the variables to predict."""

    name: str
    is_target: bool = False


def rounds_to_one(values, threshold: float = DEFAULT_ROUND_THRESHOLD):
    """Whether soft values (a scalar or an array) round to 1: the threshold
    itself rounds up. The one place the rounding rule lives."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    return values >= threshold


def round_value(v: float, threshold: float = DEFAULT_ROUND_THRESHOLD) -> int:
    """Round a soft value to {0, 1} (see `rounds_to_one`)."""
    if not 0.0 <= v <= 1.0:
        raise ValueOutOfRange(f"value {v} outside [0, 1]")
    return int(rounds_to_one(v, threshold))


class AtomDatabase:
    """Columnar store of ground atoms.

    An atom is its row index: atom i is `pred[i](arg1[i], arg2[i])` with
    value `values[i]`, where `pred` holds predicate ids (`pred_ids`) and the
    arguments constant ids, and `atoms` is the range of the indices.
    Constants are interned to dense ids in order of first appearance (arg1
    before arg2); string names are kept for serialization. `targets` holds
    the indices of the target-predicate atoms in ascending order.
    `build_adjacency` sets `edges`, the indices of the atoms that round to
    1; after it the database is treated as immutable. `outgoing` /
    `incoming` group the edges by constant into a new dict on every read;
    nothing is cached. The columns are the store's only copy of the atoms,
    with no index beside them: `find_atom` is a masked lookup over them.
    """

    def __init__(self, schema: Iterable[PredicateSymbol]):
        self.predicates: dict[str, PredicateSymbol] = {}
        for pred in schema:
            if pred.name in self.predicates:
                raise ValueError(f"duplicate predicate {pred.name!r} in schema")
            self.predicates[pred.name] = pred
        # predicate ids number the predicates in name order, so that sorting
        # edges by predicate id sorts them by name
        self.pred_names: list[str] = sorted(self.predicates)
        self.pred_ids: dict[str, int] = {name: k for k, name in enumerate(self.pred_names)}
        self.is_target_pred = np.array([self.predicates[n].is_target for n in self.pred_names], dtype=bool)

        self.constants: list[str] = []
        self._const_ids: dict[str, int] = {}
        self.pred = np.zeros(0, dtype=np.int64)
        self.arg1 = np.zeros(0, dtype=np.int64)
        self.arg2 = np.zeros(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=np.float64)
        self.targets = np.zeros(0, dtype=np.int64)
        # the atoms that round to 1, and the threshold they were rounded at
        # (see `build_adjacency`)
        self.edges = np.zeros(0, dtype=np.int64)
        self.round_threshold: float = DEFAULT_ROUND_THRESHOLD

    # -- construction -----------------------------------------------------

    def add_atom(self, pred_name: str, arg1: str, arg2: str, value: float = 1.0) -> int:
        """Add one atom row and return its index."""
        self.add_rows([(0, pred_name, arg1, arg2, value)])
        return len(self.values) - 1

    def add_rows(self, rows: Iterable[AtomRow]) -> None:
        """Add atom rows in bulk; see `add_columns`."""
        self.add_columns(AtomColumns.from_rows(rows))

    def add_columns(self, columns: AtomColumns) -> None:
        """Add atom rows in bulk, checked over whole arrays.

        The outcome equals adding the rows one at a time: the rows before
        the first faulty one are added, and that row raises. A row is faulty
        when its predicate is not in the schema (`UnknownPredicate`), else
        when its value lies outside [0, 1] or is NaN (`ValueOutOfRange`),
        else when it repeats an atom already stored or earlier in the batch
        (`DuplicateAtom`). The `MalformedLine` that ended the columns
        (`columns.error`) likewise loses to a faulty row before it.
        """
        self._append(columns)
        if columns.error is not None:
            raise columns.error

    def _append(self, columns: AtomColumns) -> None:
        n = len(columns)
        if not n:
            return
        preds, args1, args2, value = columns.pred, columns.arg1, columns.arg2, columns.values
        pred = np.fromiter(map(self.pred_ids.get, preds, repeat(-1)), dtype=np.int64, count=n)
        faulty = np.flatnonzero((pred < 0) | ~((value >= 0.0) & (value <= 1.0)))
        valid = int(faulty[0]) if len(faulty) else n  # rows[:valid] have known ids and values

        names = [""] * (2 * valid)  # arg1 before arg2, row by row
        names[0::2], names[1::2] = args1[:valid], args2[:valid]
        ids = self._const_ids
        new = [name for name in dict.fromkeys(names) if name not in ids]
        ids.update(zip(new, range(len(self.constants), len(self.constants) + len(new))))
        self.constants.extend(new)
        flat = np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(names))
        arg1, arg2 = flat[0::2], flat[1::2]

        old = len(self.values)
        self.pred = np.concatenate([self.pred, pred[:valid]])
        self.arg1 = np.concatenate([self.arg1, arg1])
        self.arg2 = np.concatenate([self.arg2, arg2])
        # the key orders by (arg1, pred, arg2) and stays below C * P * C,
        # which fits in 64 bits for any C that fits in memory; a plain sort
        # tells whether any atom repeats, and only then a stable argsort,
        # which puts each repeat after its original, finds the first one
        key = (self.arg1 * len(self.predicates) + self.pred) * len(self.constants) + self.arg2
        stop, ranked = valid, np.sort(key)
        if (ranked[1:] == ranked[:-1]).any():
            order = np.argsort(key, kind="stable")
            stop = int(order[1:][key[order[1:]] == key[order[:-1]]].min()) - old
        end = old + stop
        self.pred, self.arg1, self.arg2 = self.pred[:end], self.arg1[:end], self.arg2[:end]
        self.values = np.concatenate([self.values, value[:stop]])
        self.targets = np.concatenate([self.targets, old + np.flatnonzero(self.is_target_pred[pred[:stop]])])

        if stop < n:
            atom = f"{preds[stop]}({args1[stop]},{args2[stop]})"
            if stop < valid:
                raise DuplicateAtom(atom)
            if pred[stop] < 0:
                raise UnknownPredicate(preds[stop])
            raise ValueOutOfRange(f"{atom} = {float(value[stop])}")

    # -- lookups ----------------------------------------------------------

    @property
    def atoms(self) -> range:
        """The atom indices, `range(len(values))`: an atom is its row."""
        return range(len(self.values))

    def find_atom(self, pred_name: str, arg1: int, arg2: int) -> int | None:
        """Atom index for (predicate, const id, const id), or None."""
        k = self.pred_ids.get(pred_name, -1)
        hit = np.flatnonzero((self.pred == k) & (self.arg1 == arg1) & (self.arg2 == arg2))
        return int(hit[0]) if len(hit) else None

    def target_predicates(self) -> list[PredicateSymbol]:
        return [p for p in self.predicates.values() if p.is_target]

    def value_vector(self) -> np.ndarray:
        """Stored values of all atoms, index-aligned with `atoms`."""
        return self.values.copy()

    def target_mask(self) -> np.ndarray:
        return self.is_target_pred[self.pred]

    def atom_str(self, index: int) -> str:
        name, consts = self.pred_names[self.pred[index]], self.constants
        return f"{name}({consts[self.arg1[index]]},{consts[self.arg2[index]]})"

    @property
    def outgoing(self) -> dict[int, list[tuple[str, int, int]]]:
        """Constant id -> its outgoing edges as (predicate name, arg2, atom
        index); see `_edge_lists`."""
        return self._edge_lists(self.arg1, self.arg2)

    @property
    def incoming(self) -> dict[int, list[tuple[str, int, int]]]:
        """Constant id -> its incoming edges as (predicate name, arg1, atom
        index); see `_edge_lists`."""
        return self._edge_lists(self.arg2, self.arg1)

    def _edge_lists(self, src: np.ndarray, nbr: np.ndarray) -> dict[int, list[tuple[str, int, int]]]:
        """The edges grouped by their `src` constant, built from the columns
        on every call: keys ascend, each list is sorted by (predicate id,
        neighbour) and predicate ids follow name order. Constants without
        edges are absent."""
        atom = self.edges
        src, pred, nbr = src[atom], self.pred[atom], nbr[atom]
        order = np.lexsort((nbr, pred, src))
        edges: dict[int, list[tuple[str, int, int]]] = {}
        rows = zip(src[order].tolist(), pred[order].tolist(), nbr[order].tolist(), atom[order].tolist())
        for x, k, y, a in rows:
            edges.setdefault(x, []).append((self.pred_names[k], y, a))
        return edges


def build_adjacency(db: AtomDatabase, threshold: float = DEFAULT_ROUND_THRESHOLD) -> AtomDatabase:
    """Find the edges: the atoms whose value rounds to 1 at `threshold`.

    Sets `db.edges` to their indices in ascending order and
    `db.round_threshold` to `threshold`; mining and grounding walk the
    edges as a `StepGraph`. Refuses more constants than that graph's 64-bit
    step keys hold.
    """
    n, n_preds = len(db.constants), len(db.predicates)
    if n * n * 2 * n_preds >= 2**63:
        raise ValueError(f"{n} constants are too many for 64-bit edge keys")
    db.edges = np.flatnonzero(rounds_to_one(db.values, threshold))
    db.round_threshold = threshold
    return db


def _probe(
    table: np.ndarray, lo: np.ndarray, hi: np.ndarray | None = None, hi_side: str = "left"
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """`np.searchsorted(table, lo)`, and of `hi` (searched on `hi_side`)
    when given, as the probes' positions in their own order. The probes
    are searched in ascending order of `lo`, which `hi` must share: sorted
    probes walk the table forward, where probes in arbitrary order miss
    cache on every search."""
    order = np.argsort(lo)
    first = np.empty(len(lo), dtype=np.intp)
    first[order] = np.searchsorted(table, lo[order])
    if hi is None:
        return first
    last = np.empty_like(first)
    last[order] = np.searchsorted(table, hi[order], hi_side)
    return first, last


def spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate the ranges [lo[i], hi[i]) as (i, position) pairs, range by
    range in order: the flat form of a ragged selection."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return owner, first + np.arange(len(owner))


class StepGraph:
    """Atoms as the steps of a labelled graph over the constants.

    Every atom p(a, b) of `atoms` (by default the edges, `db.edges`) is a
    forward step a -> b with label 2k, where k is p's predicate id, and,
    when inverses are walked, a backward step b -> a with label 2k + 1.
    Steps of target predicates are left out unless `traverse_target_edges`.
    Steps are sorted by `key` = (src * n_labels + label) * n_nodes + dst,
    which is unique when `atoms` repeats no atom: `indptr[n]:indptr[n + 1]`
    are the steps leaving node n, `dst[s]` is where step s leads, `label[s]`
    its label and `atom[s]` the atom it walks.
    """

    def __init__(
        self,
        db: AtomDatabase,
        include_inverses: bool = True,
        traverse_target_edges: bool = True,
        atoms: np.ndarray | Sequence[int] | None = None,
    ):
        atom = db.edges if atoms is None else np.asarray(atoms, dtype=np.int64)
        if not traverse_target_edges:
            atom = atom[~db.is_target_pred[db.pred[atom]]]
        directions = [False, True] if include_inverses else [False]
        backward = np.repeat(directions, len(atom))
        atom = np.tile(atom, len(directions))
        src = np.where(backward, db.arg2[atom], db.arg1[atom])
        dst = np.where(backward, db.arg1[atom], db.arg2[atom])
        label = 2 * db.pred[atom] + backward
        self.n_nodes = len(db.constants)
        self.n_labels = 2 * len(db.predicates)
        key = (src * self.n_labels + label) * self.n_nodes + dst
        order = np.argsort(key)
        self.key = key[order]
        self.dst = dst[order]
        self.label = label[order]
        self.atom = atom[order]
        self.indptr = np.searchsorted(src[order], np.arange(self.n_nodes + 1))

    # the steps again, sorted by (src, dst), for unlabelled goal lookups; only
    # mining makes those, so grounding never pays for the sort

    def _pair_keys(self) -> np.ndarray:
        src = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        return src * self.n_nodes + self.dst

    @cached_property
    def by_pair(self) -> np.ndarray:
        """The steps in (src, dst) order."""
        return np.argsort(self._pair_keys())

    @cached_property
    def pair(self) -> np.ndarray:
        """The (src, dst) key of the steps in `by_pair` order."""
        return self._pair_keys()[self.by_pair]

    def degree(self, nodes: np.ndarray) -> np.ndarray:
        return self.indptr[nodes + 1] - self.indptr[nodes]

    def expand(self, nodes: np.ndarray, label: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Every step leaving each node (only those labelled `label` if
        given), as (position in `nodes`, step) pairs."""
        if label is None:
            return spans(self.indptr[nodes], self.indptr[nodes + 1])
        first = (nodes * self.n_labels + label) * self.n_nodes
        return spans(*_probe(self.key, first, first + self.n_nodes))

    def lookup(
        self, nodes: np.ndarray, goals: np.ndarray, label: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every step from nodes[i] to goals[i] (only the one labelled
        `label` if given), as (i, step) pairs."""
        if label is None:
            key = nodes * self.n_nodes + goals
            i, at = spans(*_probe(self.pair, key, key, "right"))
            return i, self.by_pair[at]
        key = (nodes * self.n_labels + label) * self.n_nodes + goals
        s = _probe(self.key, key)
        hit = s < len(self.key)
        hit[hit] = self.key[s[hit]] == key[hit]
        i = np.flatnonzero(hit)
        return i, s[i]


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
        preds.append(PredicateSymbol(name, is_target=role == "target"))
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

    This is the per-line reader: `read_atom_columns` sends it every file
    its whole-text checks cannot prove plain, so its messages are the only
    `MalformedLine`s an atom file gives.
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


@dataclass
class AtomColumns:
    """Atom rows as columns: row i is `pred[i](arg1[i], arg2[i])` with value
    `values[i]`, read from line `line_no[i]`. A line without a value column
    reads as the reader's default; where that default is None, `has_value[i]`
    is False and `values[i]` NaN. `error` is the `MalformedLine` that ended
    the rows early, if any."""

    line_no: np.ndarray
    pred: Sequence[str]
    arg1: Sequence[str]
    arg2: Sequence[str]
    values: np.ndarray
    has_value: np.ndarray
    error: MalformedLine | None = None

    def __len__(self) -> int:
        return len(self.pred)

    @classmethod
    def from_rows(cls, rows: Iterable[AtomRow]) -> AtomColumns:
        """The columns of `rows`, up to the first `MalformedLine` that
        reading them raises, which is kept as `error`."""
        batch: list[AtomRow] = []
        error = None
        try:
            batch.extend(rows)
        except MalformedLine as exc:
            error = exc
        line_no, pred, arg1, arg2, value = zip(*batch) if batch else ((),) * 5
        return cls(
            np.array(line_no, dtype=np.int64), pred, arg1, arg2,
            np.array(value, dtype=np.float64), np.array([v is not None for v in value], dtype=bool), error,
        )

    def take(self, rows: np.ndarray) -> AtomColumns:
        """The rows at the indices `rows`, in that order."""
        pick = lambda column: [column[i] for i in rows.tolist()]  # noqa: E731
        return AtomColumns(self.line_no[rows], pick(self.pred), pick(self.arg1), pick(self.arg2),
                           self.values[rows], self.has_value[rows])

    def rows(self) -> Iterator[AtomRow]:
        """The rows as `read_atom_rows` yields them."""
        values = [v if has else None for v, has in zip(self.values.tolist(), self.has_value.tolist())]
        return zip(self.line_no.tolist(), self.pred, self.arg1, self.arg2, values)


# the ASCII whitespace that `str.strip` or universal newlines act on, but
# for tab and newline: a file holding any of it is not split whole
_UNPLAIN = [b"\x0b", b"\x0c", b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b" "]


def _split_plain(data: bytes, default: float | None) -> AtomColumns | None:
    """The columns of an atom file's bytes in one pass, or None unless the
    text is plain: ASCII without `_UNPLAIN` bytes, the same number of tabs
    (2 or 3) on every non-empty line, no empty field and every value a
    float. Plain text reads exactly as `read_atom_rows` reads it,
    error-free."""
    if not data.isascii() or any(byte in data for byte in _UNPLAIN):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.append(np.flatnonzero(buf == 0x0A), len(buf))
    filled = np.diff(ends, prepend=-1) > 1  # line i spans (ends[i - 1], ends[i])
    tabs = np.diff(np.searchsorted(np.flatnonzero(buf == 0x09), ends), prepend=0)[filled]
    width = int(tabs[0]) + 1 if len(tabs) else 3
    if width not in (3, 4) or np.any(tabs != width - 1):
        return None
    # with whitespace limited to tabs and newlines, an empty field is what
    # makes `split` come up short
    fields = data.decode("ascii").split()
    if len(fields) != len(tabs) * width:
        return None
    if width == 4:
        try:
            values = np.array(list(map(float, fields[3::4])), dtype=np.float64)
        except ValueError:
            return None
    else:
        values = np.full(len(tabs), np.nan if default is None else default, dtype=np.float64)
    return AtomColumns(
        np.flatnonzero(filled) + 1, fields[0::width], fields[1::width], fields[2::width],
        values, np.full(len(tabs), width == 4 or default is not None),
    )


def read_atom_columns(path: str, default: float | None = 1.0) -> AtomColumns:
    """One atom file, read whole, as columns.

    Plain text (see `_split_plain`) is split in one pass. Any other file is
    decoded as UTF-8, so an undecodable byte is reported at its offset in
    the file, and read line by line through `read_atom_rows`, with lines
    split as iterating over the opened file splits them; a malformed line
    then ends the columns and is kept as their `error`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _split_plain(data, default)
    if columns is None:
        columns = AtomColumns.from_rows(read_atom_rows(_decoded(data), path, default))
    return columns


def _decoded(data: bytes) -> io.StringIO:
    """UTF-8 `data` decoded at once, so an undecodable byte is reported at
    its offset in the file; its lines split as iterating over an opened
    text file splits them."""
    return io.StringIO(data.decode("utf-8"), newline=None)


def read_text(path: str) -> io.StringIO:
    """A whole text file, decoded at once (see `_decoded`). Every reader of
    a schema, clause, model or config file takes its lines from here."""
    with open(path, "rb") as fh:
        return _decoded(fh.read())


def read_atom_file(path: str, default: float | None = 1.0) -> AtomColumns:
    """All rows of one atom file (`read_atom_columns`); a malformed line
    raises."""
    columns = read_atom_columns(path, default)
    if columns.error is not None:
        raise columns.error
    return columns


def parse_tsv(stream: IO[str] | Iterable[str], schema: Iterable[PredicateSymbol]) -> AtomDatabase:
    """Read ground atoms from `predicate<TAB>arg1<TAB>arg2[<TAB>value]` lines.

    The value column defaults to 1.0. Duplicate triples, unknown predicates
    and out-of-range values are hard errors so data-preparation bugs surface
    immediately.
    """
    db = AtomDatabase(schema)
    db.add_rows(read_atom_rows(stream))
    return db


def serialize_tsv(db: AtomDatabase) -> str:
    """Write atoms back to the TSV format; reparsing yields an equal database."""
    names, consts = db.pred_names, db.constants
    lines = [
        f"{names[p]}\t{consts[a]}\t{consts[b]}\t{v!r}"
        for p, a, b, v in zip(db.pred.tolist(), db.arg1.tolist(), db.arg2.tolist(), db.values.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_schema(preds: Iterable[PredicateSymbol]) -> str:
    return "".join(
        f"{p.name}\t{'target' if p.is_target else 'evidence'}\n" for p in preds
    )


def load_database(
    schema_path: str,
    atom_paths: Iterable[str],
    threshold: float = DEFAULT_ROUND_THRESHOLD,
    extra_rows: AtomColumns | Iterable[AtomRow] = (),
) -> AtomDatabase:
    """Convenience loader: schema file plus one or more atom TSV files.

    Each file is read by `read_atom_columns`. `extra_rows` are added after
    the files and before `build_adjacency`, so the edges are found once.
    """
    db = AtomDatabase(parse_schema(read_text(schema_path)))
    for path in atom_paths:
        db.add_columns(read_atom_columns(path))
    if isinstance(extra_rows, AtomColumns):
        db.add_columns(extra_rows)
    else:
        db.add_rows(extra_rows)
    return build_adjacency(db, threshold)
