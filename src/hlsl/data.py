"""Relational ground-atom data: schema files, TSV ingestion, the step graph.

Atoms are binary-predicate facts with soft values in [0, 1]. Atoms of target
predicates are the random variables of the model; everything else is
evidence. The database stores atoms as columns, so that an atom is its row
index, and, after `build_adjacency`, the indices of the atoms whose value
rounds to 1 (its edges). The clause miner and the grounder both walk those
atoms as a `StepGraph`, one array of steps sorted by a single (source,
label, destination) key; the step graph is the only index of the edges that
is kept.

`AtomColumns` is the one in-memory form of atom-file rows: integer codes
into a per-file table of predicate names and one of constants, each sorted
by name. Atom files are read whole by `read_atom_columns` and appended by
`AtomDatabase.add_columns`, which maps only the tables' names to database
ids. One reader, `parse_atoms`, codes any UTF-8 atom text from its bytes in
numpy, with no Python string per field, whatever its line endings, field
counts or whitespace; it owns every `MalformedLine` message and keeps the
first as the columns' `error`, behind their rows.
"""
from __future__ import annotations

import copy
import io
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
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
    Constants are interned to dense ids batch by batch, each batch's new
    ones in name order (see `_append`); string names are kept for
    serialization. `targets` holds the indices of the target-predicate
    atoms in ascending order. `build_adjacency` sets `edges`, the indices
    of the atoms that round to 1; after it the database is treated as
    immutable. `outgoing` / `incoming` group the edges by constant into a
    new dict on every read; nothing is cached. The columns are the store's
    only copy of the atoms, with no index beside them.
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
        self.edges = np.zeros(0, dtype=np.int64)  # the atoms that round to 1 (see `build_adjacency`)

    # -- construction -----------------------------------------------------

    def add_atom(self, pred_name: str, arg1: str, arg2: str, value: float = 1.0) -> int:
        """Add one atom row and return its index."""
        self.add_columns(AtomColumns.from_names(np.zeros(1, dtype=np.int64), [pred_name], [arg1], [arg2],
                                                np.full(1, value, dtype=np.float64), np.ones(1, dtype=bool)))
        return len(self.values) - 1

    def copy(self) -> AtomDatabase:
        """A store of the same atoms to add rows to apart: adding rows replaces
        the columns instead of changing them, so only the constants are copied."""
        other = copy.copy(self)
        other.constants, other._const_ids = list(self.constants), dict(self._const_ids)
        return other

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
        """Add the rows before the first faulty one and raise that row's
        error (see `add_columns`). Only the columns' name tables are mapped
        to ids, with a loop over their names; the rows take their ids by
        indexing. The constants that the rows before the first unknown
        predicate or bad value use are interned, the new ones in the order
        of the columns' table, which is name order."""
        n = len(columns)
        if not n:
            return
        value = columns.values
        pred_ids = np.array([self.pred_ids.get(name, -1) for name in columns.pred_names], dtype=np.int64)
        pred = pred_ids[columns.pred]
        faulty = np.flatnonzero((pred < 0) | ~((value >= 0.0) & (value <= 1.0)))
        valid = int(faulty[0]) if len(faulty) else n  # rows[:valid] have known ids and values

        codes1, codes2 = columns.arg1[:valid], columns.arg2[:valid]
        table, ids = columns.constants, self._const_ids
        code = np.fromiter(map(ids.get, table, repeat(-1)), dtype=np.int64, count=len(table))
        new = np.zeros(len(table), dtype=bool)  # the unknown names that rows[:valid] use
        new[codes1] = new[codes2] = True
        new &= code < 0
        names = list(compress(table, new.tolist()))
        code[new] = np.arange(len(self.constants), len(self.constants) + len(names))
        ids.update(zip(names, code[new].tolist()))
        self.constants.extend(names)
        arg1, arg2 = code[codes1], code[codes2]

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
            name, consts = columns.pred_names[columns.pred[stop]], columns.constants
            atom = f"{name}({consts[columns.arg1[stop]]},{consts[columns.arg2[stop]]})"
            if stop < valid:
                raise DuplicateAtom(atom)
            if pred[stop] < 0:
                raise UnknownPredicate(name)
            raise ValueOutOfRange(f"{atom} = {float(value[stop])}")

    # -- lookups ----------------------------------------------------------

    @property
    def atoms(self) -> range:
        """The atom indices, `range(len(values))`: an atom is its row."""
        return range(len(self.values))

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

    Sets `db.edges` to their indices in ascending order; mining and
    grounding walk the edges as a `StepGraph`. Refuses more constants than
    that graph's 64-bit step keys hold.
    """
    n, n_preds = len(db.constants), len(db.predicates)
    if n * n * 2 * n_preds >= 2**63:
        raise ValueError(f"{n} constants are too many for 64-bit edge keys")
    db.edges = np.flatnonzero(rounds_to_one(db.values, threshold))
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
    forward step a -> b with label 2k, where k is p's predicate id, and a
    backward step b -> a with label 2k + 1. Only the steps whose label is
    set in the boolean mask `labels` (length `n_labels`, all by default)
    are kept; which steps a walk may take is the caller's to say.
    Steps are sorted by `key` = (src * n_labels + label) * n_nodes + dst,
    which is unique when `atoms` repeats no atom: `indptr[n]:indptr[n + 1]`
    are the steps leaving node n, `dst[s]` is where step s leads, `label[s]`
    its label and `atom[s]` the atom it walks.
    """

    def __init__(self, db: AtomDatabase, atoms: np.ndarray | None = None, labels: np.ndarray | None = None):
        atom = db.edges if atoms is None else np.asarray(atoms, dtype=np.int64)
        backward = np.repeat([False, True], len(atom))
        atom = np.tile(atom, 2)
        label = 2 * db.pred[atom] + backward
        if labels is not None and not np.all(labels):
            keep = np.asarray(labels, dtype=bool)[label]
            atom, label, backward = atom[keep], label[keep], backward[keep]
        src = np.where(backward, db.arg2[atom], db.arg1[atom])
        dst = np.where(backward, db.arg1[atom], db.arg2[atom])
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

# a predicate name: the schema admits only names the clause grammar reads
PREDICATE_NAME = r"[A-Za-z_]\w*"


def parse_schema(stream: IO[str] | Iterable[str]) -> list[PredicateSymbol]:
    """Read a schema file: one `name<TAB>target|evidence` entry per line,
    each name matching `PREDICATE_NAME`."""
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
        if not re.fullmatch(PREDICATE_NAME, name):
            raise MalformedLine(line_no, f"predicate name {name!r} does not match {PREDICATE_NAME}")
        if role not in ("target", "evidence"):
            raise MalformedLine(line_no, f"role must be 'target' or 'evidence', got {role!r}")
        if name in seen:
            raise MalformedLine(line_no, f"duplicate predicate {name!r}")
        seen.add(name)
        preds.append(PredicateSymbol(name, is_target=role == "target"))
    return preds


@dataclass
class AtomColumns:
    """Atom rows as columns of codes into name tables: row i is
    `pred_names[pred[i]](constants[arg1[i]], constants[arg2[i]])` with value
    `values[i]`, read from line `line_no[i]`. A line without a value column
    reads as the reader's default; where that default is None,
    `has_value[i]` is False and `values[i]` NaN. `error` is the
    `MalformedLine` that ended the rows early, if any.

    Both tables are sorted by name. `parse_atoms` ranks names by their UTF-8
    bytes, whose order is code-point order, so it gives the tables that
    `from_names` gives for the same rows. A table may hold names no row uses
    (see `take`)."""

    line_no: np.ndarray
    pred: np.ndarray
    arg1: np.ndarray
    arg2: np.ndarray
    values: np.ndarray
    has_value: np.ndarray
    pred_names: list[str]
    constants: list[str]
    error: MalformedLine | None = None

    @classmethod
    def from_names(
        cls, line_no: np.ndarray, pred: Sequence[str], arg1: Sequence[str], arg2: Sequence[str],
        values: np.ndarray, has_value: np.ndarray, error: MalformedLine | None = None,
    ) -> AtomColumns:
        """The columns of rows given by their names."""
        (pred, pred_names), (args, constants) = _intern(pred), _intern([*arg1, *arg2])
        return cls(line_no, pred, *np.split(args, 2), values, has_value, pred_names, constants, error)

    def __len__(self) -> int:
        return len(self.pred)

    def take(self, rows: np.ndarray) -> AtomColumns:
        """The rows at the indices `rows`, in that order, over the same
        tables, without `error`."""
        return AtomColumns(self.line_no[rows], self.pred[rows], self.arg1[rows], self.arg2[rows],
                           self.values[rows], self.has_value[rows], self.pred_names, self.constants)

    def rows(self) -> Iterator[tuple[int, str, str, str, float | None]]:
        """The rows as (line number, predicate, arg1, arg2, value or None),
        then `error`, if any, raised: a caller that checks each row reports
        the first faulty line."""
        preds, consts = self.pred_names.__getitem__, self.constants.__getitem__
        values = [v if has else None for v, has in zip(self.values.tolist(), self.has_value.tolist())]
        yield from zip(self.line_no.tolist(), map(preds, self.pred.tolist()), map(consts, self.arg1.tolist()),
                       map(consts, self.arg2.tolist()), values)
        if self.error is not None:
            raise self.error


def _intern(names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Code names in name order: (codes, the sorted table)."""
    table = sorted(set(names))
    ids = {name: k for k, name in enumerate(table)}
    return np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(names)), table


def _ranks(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code equal keys by their rank among the distinct keys: (codes, at),
    where key `at[c]` has code c."""
    order = np.argsort(key)
    ranked = key[order]
    new = np.empty(len(key), dtype=bool)  # the first of a run of equal keys
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    del ranked
    rank = np.cumsum(new, dtype=np.int64)
    rank -= 1
    codes = np.empty(len(key), dtype=np.int64)
    codes[order] = rank
    return codes, order[new]


# byte masks keeping the first r bytes of a little-endian word, by r
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _token_codes(
    words: np.ndarray, start: np.ndarray, length: np.ndarray, nul: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """`_ranks` of the byte tokens of `length` bytes at `start`, read as
    zero-padded 8-byte words through `words` (word j holds bytes j to j + 7),
    packed big-endian so that they rank in byte order; a token longer than
    8 bytes takes one word per 8, its codes refined word by word. Zero
    padding reads a token and the token followed by NUL bytes alike (`a`,
    `a\\x00`), so where the text may hold NUL (`nul`) one more ranking breaks
    those ties by length, shorter first."""
    codes = at = None
    for k in range(max(1, -(-int(length.max(initial=0)) // 8))):
        word = words[start + 8 * k if k else start]
        word &= _MASKS.take(length - 8 * k if k else length, mode="clip")
        word.byteswap(inplace=True)
        if codes is not None:  # order the tokens equal so far by this word
            word_codes, _ = _ranks(word)
            word = codes * (int(word_codes.max()) + 1) + word_codes
        codes, at = _ranks(word)
    if nul:
        codes, at = _ranks(codes * (int(length.max(initial=0)) + 1) + length)
    return codes, at


# the ASCII whitespace, but for tab and newline, that `str.strip` removes
_SPACES = b"\x0b\x0c\x1c\x1d\x1e\x1f "


def _number(text: str) -> float | None:
    """`float(text)`, or None where `float` rejects the text."""
    try:
        return float(text)
    except ValueError:
        return None


def _filled(codes: np.ndarray, names: list[str]) -> np.ndarray:
    """Which codes into the sorted table `names` name a nonempty name."""
    return codes >= int(names[:1] == [""])  # the empty name sorts first


def _shrink(codes: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
    """Codes into the sorted table `names`, and that table, cut to the names
    the codes use."""
    used = np.zeros(len(names), dtype=bool)
    used[codes] = True
    if used.all():
        return codes, names
    return (np.cumsum(used) - 1)[codes], list(compress(names, used.tolist()))


def parse_atoms(data: bytes, source: str = "", default: float | None = 1.0) -> AtomColumns:
    """Validate and split the `predicate<TAB>arg1<TAB>arg2[<TAB>value]`
    lines of UTF-8 text into columns.

    Lines end at `\\n`, `\\r\\n` or a lone `\\r`, as in a file opened in text
    mode; a field is what lies between tabs, stripped as by `str.strip`.
    Blank lines are skipped. Every other line must have three or four
    fields, none of the first three empty, and a fourth field that `float`
    reads as written. The first line that breaks this (checked in that
    order) ends the columns, and its `MalformedLine`, naming `source` and
    the line, is kept as their `error`. A missing value column reads as
    `default`; value ranges are the caller's to check.

    One scan for tabs and newlines bounds every field, and each column's
    fields are ranked in byte order by `_token_codes`, which for UTF-8 is
    code-point order, so only the distinct names and values become Python
    strings.
    """
    if not data.isascii():
        data.decode("utf-8")  # an undecodable byte raises at its offset in the file
    if b"\r" in data:  # universal newlines; no multibyte UTF-8 character holds 0x0D or 0x0A
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    bare = data.isascii() and not any(byte in data for byte in _SPACES)  # `str.strip` leaves every field
    nul = b"\x00" in data
    n = len(data) - data.endswith(b"\n")  # the final line break ends the last line and starts none
    buf = np.frombuffer(data, dtype=np.uint8, count=n)
    cut = np.flatnonzero((buf == 0x09) | (buf == 0x0A))
    first = np.concatenate(([0], np.flatnonzero(buf[cut] == 0x0A) + 1))  # each line's first field
    # field k spans (bounds[k], bounds[k + 1]); the last, empty one stands
    # in for the fields a short line lacks
    bounds = np.concatenate(([-1], cut, [n, n + 1]))
    width = np.diff(first, append=len(cut) + 1)
    del buf, cut  # freed before the fields are coded

    # zeros past the text, so that every word `_token_codes` reads lies inside
    data += bytes(8 * (2 + int(np.diff(bounds).max()) // 8))
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))

    def column(fields: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """The fields' codes in byte order, and the distinct fields decoded."""
        lo = bounds[fields] + 1
        length = bounds[fields + 1] - lo
        del fields  # freed before the ranking, where the reader's memory peaks
        codes, at = _token_codes(words, lo, length, nul)
        lo, length = lo[at].tolist(), length[at].tolist()
        return codes, [data[a : a + k].decode() for a, k in zip(lo, length)]

    def stripped(codes: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
        """The codes and sorted table of the names stripped."""
        if bare:
            return codes, names
        recode, names = _intern([name.strip() for name in names])
        return recode[codes], names

    def field(k: int) -> np.ndarray:
        """The k-th field of every line, the empty stand-in where it has none."""
        return np.where(width > k, first + k, len(bounds) - 2)

    pred, pred_names = stripped(*column(first))
    args, constants = stripped(*column(np.concatenate((field(1), field(2)))))
    args = args.reshape(2, len(first))
    value, texts = column(field(3)) if width.max() > 3 else (np.zeros(len(first), dtype=np.int64), [""])
    filled = np.vstack((_filled(pred, pred_names), _filled(args, constants)))
    named = filled.all(axis=0)
    blank = ~(filled.any(axis=0) | _filled(*stripped(value, texts)))
    if width.max() > 4:  # a line of five or more fields is blank only if its other fields are
        wide = np.flatnonzero(width > 4)
        owner, rest = spans(first[wide] + 4, first[wide] + width[wide])
        blank[wide[owner[_filled(*stripped(*column(rest)))]]] = False

    parsed = list(map(_number, texts))
    bad = np.array([number is None for number in parsed], dtype=bool)
    four, odd = width == 4, (width < 3) | (width > 4)
    faulty = np.flatnonzero(~blank & (odd | four & bad[value] | ~named))
    error = None
    if len(faulty):
        stop = int(faulty[0])
        if odd[stop]:
            message = f"expected 3 or 4 tab-separated fields, got {width[stop]}"
        elif four[stop] and bad[value[stop]]:
            message = f"bad value {texts[value[stop]]!r}"
        else:
            message = "empty field"
        error = MalformedLine(stop + 1, f"{source}: {message}" if source else message)
        blank = blank[:stop]

    rows = np.flatnonzero(~blank)
    four = four[rows]
    values = np.where(four, np.array(parsed, dtype=np.float64)[value[rows]], np.nan if default is None else default)
    pred, pred_names = _shrink(pred[rows], pred_names)
    (arg1, arg2), constants = _shrink(args[:, rows], constants)
    return AtomColumns(rows + 1, pred, arg1, arg2, values, four | (default is not None),
                       pred_names, constants, error)


def read_atom_columns(path: str, default: float | None = 1.0) -> AtomColumns:
    """One atom file, read whole, as columns (see `parse_atoms`)."""
    with open(path, "rb") as fh:
        return parse_atoms(fh.read(), path, default)


def read_text(path: str) -> io.StringIO:
    """A whole UTF-8 text file, decoded at once, so an undecodable byte is
    reported at its offset in the file; its lines split as iterating over an
    opened text file splits them. Every reader of a schema, clause, model or
    config file takes its lines from here."""
    with open(path, "rb") as fh:
        return io.StringIO(fh.read().decode("utf-8"), newline=None)


def parse_tsv(stream: IO[str] | Iterable[str], schema: Iterable[PredicateSymbol]) -> AtomDatabase:
    """Read ground atoms from `predicate<TAB>arg1<TAB>arg2[<TAB>value]` lines,
    joined and read as a file's text (see `parse_atoms`).

    The value column defaults to 1.0. Duplicate triples, unknown predicates
    and out-of-range values are hard errors so data-preparation bugs surface
    immediately.
    """
    db = AtomDatabase(schema)
    db.add_columns(parse_atoms("".join(stream).encode("utf-8")))
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
    extra_rows: Callable[[AtomDatabase], AtomColumns] | None = None,
) -> AtomDatabase:
    """Convenience loader: schema file plus one or more atom TSV files.

    The schema is read first, then each file by `read_atom_columns`, added
    in order, then the rows `extra_rows(db)` returns, if given, before
    `build_adjacency`, so the edges are found once. `extra_rows` is called
    with the store once the files are added, so a file it reads is opened
    after theirs. The first fault of them all raises; a file's malformed
    line (its columns' `error`) counts as the row after its last.
    """
    db = AtomDatabase(parse_schema(read_text(schema_path)))
    for path in atom_paths:
        db.add_columns(read_atom_columns(path))
    if extra_rows is not None:
        db.add_columns(extra_rows(db))
    return build_adjacency(db, threshold)
