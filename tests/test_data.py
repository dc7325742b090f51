"""Relational data layer: parsing, rounding, adjacency, round trips."""
import io
import itertools
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import find_atom, random_chain_db, read_atom_rows

from hlsl.data import (
    AtomColumns,
    AtomDatabase,
    PredicateSymbol,
    StepGraph,
    _probe,
    build_adjacency,
    load_database,
    parse_atoms,
    parse_schema,
    parse_tsv,
    read_atom_columns,
    round_value,
    serialize_tsv,
)
from hlsl.errors import (
    DuplicateAtom,
    MalformedLine,
    UnknownPredicate,
    ValueOutOfRange,
)

SCHEMA = [PredicateSymbol("Cites"), PredicateSymbol("Sim"), PredicateSymbol("Mentions", is_target=True)]


def test_parse_basic_line():
    db = parse_tsv(io.StringIO("Cites\tPaper1\tPaper2\n"), SCHEMA)
    assert len(db.atoms) == 1
    assert db.pred_names[db.pred[0]] == "Cites"
    assert db.constants[db.arg1[0]] == "Paper1"
    assert db.constants[db.arg2[0]] == "Paper2"
    assert db.values[0] == 1.0


def test_parse_empty_stream():
    db = parse_tsv(io.StringIO(""), SCHEMA)
    assert list(db.atoms) == []


def test_parse_explicit_value():
    db = parse_tsv(io.StringIO("Sim\ta\tb\t0.7\n"), SCHEMA)
    assert db.values[0] == 0.7


def test_parse_errors():
    with pytest.raises(MalformedLine) as err:
        parse_tsv(io.StringIO("Cites\tonly_one_field\n"), SCHEMA)
    assert err.value.line_no == 1
    with pytest.raises(UnknownPredicate):
        parse_tsv(io.StringIO("Nope\ta\tb\n"), SCHEMA)
    with pytest.raises(DuplicateAtom):
        parse_tsv(io.StringIO("Cites\ta\tb\nCites\ta\tb\t0.5\n"), SCHEMA)
    with pytest.raises(ValueOutOfRange):
        parse_tsv(io.StringIO("Cites\ta\tb\t1.5\n"), SCHEMA)
    with pytest.raises(MalformedLine):
        parse_tsv(io.StringIO("Cites\ta\tb\tnot_a_number\n"), SCHEMA)


def test_blank_lines_skipped():
    db = parse_tsv(io.StringIO("\nCites\ta\tb\n\n"), SCHEMA)
    assert len(db.atoms) == 1


def test_round_value_examples():
    assert round_value(1.0, 0.5) == 1
    assert round_value(0.0, 0.5) == 0
    assert round_value(0.5, 0.5) == 1  # threshold is inclusive


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_round_value_monotone(u, v, threshold):
    lo, hi = sorted((u, v))
    assert round_value(lo, threshold) <= round_value(hi, threshold)


def test_schema_parsing():
    preds = parse_schema(io.StringIO("Cites\tevidence\nMentions\ttarget\n"))
    assert [p.name for p in preds] == ["Cites", "Mentions"]
    assert [p.is_target for p in preds] == [False, True]
    with pytest.raises(MalformedLine):
        parse_schema(io.StringIO("Cites\tsomething\n"))
    with pytest.raises(MalformedLine):
        parse_schema(io.StringIO("Cites\tevidence\nCites\ttarget\n"))


def test_targets_evidence_partition(citation_db):
    mask = citation_db.target_mask()
    assert citation_db.targets.dtype == np.int64
    assert citation_db.targets.tolist() == np.flatnonzero(mask).tolist() == [1, 2]
    assert np.flatnonzero(~mask).tolist() == [0]
    assert [citation_db.pred_names[citation_db.pred[i]] for i in citation_db.targets] == ["Mentions", "Mentions"]


def test_adjacency_example(citation_db):
    db = citation_db
    p1 = db._const_ids["Paper1"]
    out = {(pred, db.constants[nbr]) for pred, nbr, _ in db.outgoing[p1]}
    assert out == {("Cites", "Paper2"), ("Mentions", "Gene")}


def test_adjacency_below_threshold():
    db = AtomDatabase(SCHEMA)
    db.add_atom("Cites", "a", "b", 0.2)
    build_adjacency(db, 0.5)
    assert db.outgoing == {} and db.incoming == {}


def test_adjacency_incoming_symmetry():
    db = AtomDatabase(SCHEMA)
    atom = db.add_atom("Cites", "a", "b", 1.0)
    build_adjacency(db)
    assert db.incoming[db.arg2[atom]] == [("Cites", db.arg1[atom], atom)]


def test_edge_count_matches_rounded_atoms():
    rng = np.random.default_rng(3)
    db = AtomDatabase(SCHEMA)
    for i in range(60):
        db.add_atom("Sim", f"x{i}", f"y{rng.integers(0, 20)}", float(rng.uniform(0, 1)))
    build_adjacency(db, 0.5)
    n_rounded = sum(1 for a in db.atoms if round_value(db.values[a]) == 1)
    n_out = sum(len(v) for v in db.outgoing.values())
    n_in = sum(len(v) for v in db.incoming.values())
    assert n_out == n_in == n_rounded


def scanned_steps(db, atoms, labels=None):
    """(src, label, dst, atom) of every step whose label is set in the mask
    `labels` (every step when None), from a scan of the atom columns, sorted
    by (src, label, dst)."""
    steps = []
    for a in atoms:
        p, x, y = int(db.pred[a]), int(db.arg1[a]), int(db.arg2[a])
        for label, src, dst in ((2 * p, x, y), (2 * p + 1, y, x)):
            if labels is None or labels[label]:
                steps.append((src, label, dst, int(a)))
    return sorted(steps)


def label_masks(n_labels):
    """A `StepGraph` label mask over `n_labels` labels, or None for all."""
    return st.one_of(st.none(), st.lists(st.booleans(), min_size=n_labels, max_size=n_labels))


def scanned_edges(db, threshold, backward):
    """`db.outgoing` (or `db.incoming`) built from the columns."""
    edges = {}
    for a in range(len(db.atoms)):
        if db.values[a] >= threshold:
            x, y = int(db.arg1[a]), int(db.arg2[a])
            src, nbr = (y, x) if backward else (x, y)
            edges.setdefault(src, []).append((db.pred_names[db.pred[a]], nbr, a))
    return {src: sorted(out) for src, out in sorted(edges.items())}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    label_masks(8),  # random_chain_db has 4 predicates
    st.lists(st.booleans(), max_size=60),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 7)), max_size=20),
)
def test_step_graph_matches_a_column_scan(seed, labels, free_flags, queries):
    db = random_chain_db(seed, n_a=5, n_b=4, n_c=4)
    free = [a for a, f in zip(np.flatnonzero(db.values < 0.5).tolist(), free_flags) if f]
    atoms = np.concatenate([db.edges, np.asarray(free, dtype=np.int64)])
    graph = StepGraph(db, atoms, None if labels is None else np.array(labels))
    steps = scanned_steps(db, atoms.tolist(), labels)
    n = graph.n_nodes
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    got = list(zip(src.tolist(), graph.label.tolist(), graph.dst.tolist(), graph.atom.tolist()))
    assert got == steps
    assert np.all(np.diff(graph.key) > 0)
    assert graph.key.tolist() == [(x * graph.n_labels + k) * n + y for x, k, y, _ in steps]

    nodes = np.array([q[0] % n for q in queries], dtype=np.int64)
    goals = np.array([q[1] % n for q in queries], dtype=np.int64)
    for label in [None, *sorted({q[2] % graph.n_labels for q in queries})]:
        def wanted(i, step):
            return step[0] == nodes[i] and label in (None, step[1])

        i, s = graph.expand(nodes, label)
        assert list(zip(i.tolist(), (got[k] for k in s))) == [
            (i, step) for i in range(len(nodes)) for step in steps if wanted(i, step)
        ]
        i, s = graph.lookup(nodes, goals, label)
        found = list(zip(i.tolist(), (got[k] for k in s)))
        expected = [(i, step) for i in range(len(nodes)) for step in steps if wanted(i, step) and step[2] == goals[i]]
        assert (found if label is not None else sorted(found)) == expected

    for threshold in (0.5, 0.9):  # a rebuild resets the views
        build_adjacency(db, threshold)
        assert dict(db.outgoing) == scanned_edges(db, threshold, False)
        assert dict(db.incoming) == scanned_edges(db, threshold, True)
        assert list(db.outgoing) == list(scanned_edges(db, threshold, False))
        assert list(db.incoming) == list(scanned_edges(db, threshold, True))
        assert len(db.outgoing) == len(scanned_edges(db, threshold, False))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 4)), unique=True, max_size=25),
    label_masks(6),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
)
def test_step_graph_probes_match_a_brute_force_scan(cells, labels, probes):
    # c0 -> c1 is joined by every predicate; c5 and c6, interned last, appear
    # only in an atom that rounds to 0, so they have no steps and every key
    # from them lies past the last step. Probes come unsorted, repeated or
    # not at all.
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("R")])
    for k, x, y in dict.fromkeys([(0, 0, 1), (1, 0, 1), (2, 0, 1), *cells]):
        db.add_atom("PQR"[k], f"c{x}", f"c{y}")
    db.add_atom("P", "c5", "c6", 0.0)
    graph = StepGraph(build_adjacency(db), labels=None if labels is None else np.array(labels))
    steps = scanned_steps(db, db.edges.tolist(), labels)
    n = graph.n_nodes
    nodes = np.array([x % n for x, _ in probes], dtype=np.int64)
    goals = np.array([y % n for _, y in probes], dtype=np.int64)
    for label in [None, *range(graph.n_labels)]:
        def scan(goal_too):
            return [
                (i, step) for i, (x, y) in enumerate(zip(nodes.tolist(), goals.tolist())) for step in steps
                if step[0] == x and label in (None, step[1]) and (not goal_too or step[2] == y)
            ]

        i, s = graph.expand(nodes, label)
        assert list(zip(i.tolist(), (steps[k] for k in s.tolist()))) == scan(False)
        i, s = graph.lookup(nodes, goals, label)
        found = list(zip(i.tolist(), (steps[k] for k in s.tolist())))
        # an unlabelled lookup lists a probe's steps in no fixed label order
        assert (found if label is not None else sorted(found)) == scan(True)
    # raw keys from 0 to past the largest key any step can have
    keys = np.array([x * n * graph.n_labels * n // 6 + y for x, y in probes], dtype=np.int64)
    assert _probe(graph.key, keys).tolist() == np.searchsorted(graph.key, keys).tolist()
    lo, hi = _probe(graph.pair, keys % (n * n), keys % (n * n), "right")
    assert lo.tolist() == np.searchsorted(graph.pair, keys % (n * n)).tolist()
    assert hi.tolist() == np.searchsorted(graph.pair, keys % (n * n), "right").tolist()


@given(st.lists(
    st.tuples(
        st.sampled_from(["Cites", "Sim", "Mentions"]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    max_size=25,
))
def test_tsv_round_trip(rows):
    db = AtomDatabase(SCHEMA)
    seen = set()
    for pred, i, j, value in rows:
        if (pred, i, j) in seen:
            continue
        seen.add((pred, i, j))
        db.add_atom(pred, f"c{i}", f"c{j}", value)
    text = serialize_tsv(db)
    again = parse_tsv(io.StringIO(text), SCHEMA)
    assert serialize_tsv(again) == text



def one_at_a_time(rows, schema):
    """Reference loader: rows checked and added one by one. Returns the
    stored (predicate, arg1, arg2, value) rows, the interned constants and
    the error the first faulty row raises."""
    names = {p.name for p in schema}
    stored, seen, constants = [], set(), {}
    for pred, arg1, arg2, value in rows:
        if pred not in names:
            return stored, list(constants), (UnknownPredicate, pred)
        if not 0.0 <= value <= 1.0:
            return stored, list(constants), (ValueOutOfRange, f"{pred}({arg1},{arg2}) = {value}")
        constants.setdefault(arg1)
        constants.setdefault(arg2)
        if (pred, arg1, arg2) in seen:
            return stored, list(constants), (DuplicateAtom, f"{pred}({arg1},{arg2})")
        seen.add((pred, arg1, arg2))
        stored.append((pred, arg1, arg2, value))
    return stored, list(constants), None


@given(st.lists(
    st.tuples(
        st.sampled_from(["Cites", "Sim", "Mentions", "Nope"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.25, float("nan"), float("inf")]),
    ),
    max_size=12,
), st.integers(min_value=0, max_value=12))
# a repeat across the batches: Cites(a,b) sorts first but repeats last
@example([("Cites", "a", "b", 1.0), ("Sim", "b", "c", 0.5), ("Cites", "c", "a", 1.0), ("Sim", "b", "c", 1.0),
          ("Cites", "a", "b", 1.0)], 2)
def test_bulk_rows_match_one_at_a_time(rows, cut):
    # the first faulty row wins, and the rows before it are kept, in order,
    # also when the rows come in two batches split at `cut`
    stored, constants, error = one_at_a_time(rows, SCHEMA)
    db = AtomDatabase(SCHEMA)
    numbered = [(k, *row) for k, row in enumerate(rows, start=1)]

    def batch(part):
        line_no, pred, arg1, arg2, value = zip(*part) if part else ((),) * 5
        return AtomColumns.from_names(np.array(line_no, dtype=np.int64), pred, arg1, arg2,
                                      np.array(value, dtype=np.float64), np.ones(len(part), dtype=bool))

    def load():
        db.add_columns(batch(numbered[:cut]))
        db.add_columns(batch(numbered[cut:]))

    if error is None:
        load()
    else:
        with pytest.raises(error[0]) as err:
            load()
        assert str(err.value) == error[1]
    names, consts = db.pred_names, db.constants
    got = [(names[db.pred[a]], consts[db.arg1[a]], consts[db.arg2[a]], db.values[a]) for a in db.atoms]
    assert got == stored
    # each batch added interns the new constants of its rows before its first
    # unknown predicate or bad value, in name order; a batch that raises is
    # the last one added
    interned = []
    for part in (numbered[:cut], numbered[cut:])[: 1 if error and len(stored) < cut else 2]:
        bad = [k for k, (_, pred, _, _, value) in enumerate(part) if pred not in names or not 0.0 <= value <= 1.0]
        used = {arg for row in part[: bad[0] if bad else len(part)] for arg in row[2:4]}
        interned += sorted(used - set(interned))
    assert db.constants == interned
    assert db.targets.tolist() == [i for i, row in enumerate(stored) if row[0] == "Mentions"]
    # `find_atom` finds every stored atom and nothing else
    index = {row[:3]: i for i, row in enumerate(stored)}
    for pred in ("Cites", "Sim", "Mentions", "Nope"):
        for arg1, arg2 in itertools.product(db.constants, repeat=2):
            at = find_atom(db, pred, db.constants.index(arg1), db.constants.index(arg2))
            assert at == index.get((pred, arg1, arg2))


@given(st.lists(st.tuples(st.sampled_from(["Cites", "Sim", "Mentions"]), st.sampled_from("abcd"),
                          st.sampled_from("abcd")), unique=True, max_size=10), st.randoms())
def test_taken_rows_add_as_the_rows_themselves(rows, rng):
    # `take` keeps the tables, and the database interns only the constants
    # that the kept rows use
    def columns(part):
        pred, arg1, arg2 = zip(*part) if part else ((),) * 3
        return AtomColumns.from_names(np.arange(len(part)), pred, arg1, arg2, np.ones(len(part)),
                                      np.ones(len(part), dtype=bool))

    kept = rng.sample(range(len(rows)), rng.randint(0, len(rows)))
    taken, direct = AtomDatabase(SCHEMA), AtomDatabase(SCHEMA)
    taken.add_columns(columns(rows).take(np.array(kept, dtype=np.int64)))
    direct.add_columns(columns([rows[k] for k in kept]))
    for name in ("pred", "arg1", "arg2", "values", "targets"):
        assert np.array_equal(getattr(taken, name), getattr(direct, name))
    assert taken.constants == direct.constants


def test_malformed_line_loses_to_an_earlier_fault():
    with pytest.raises(DuplicateAtom):
        parse_tsv(io.StringIO("Cites\ta\tb\nCites\ta\tb\nCites\tonly_one_field\n"), SCHEMA)
    with pytest.raises(MalformedLine):
        parse_tsv(io.StringIO("Cites\ta\tb\nCites\tonly_one_field\nCites\ta\tb\n"), SCHEMA)


def test_atoms_are_row_indices(citation_db):
    db = citation_db
    assert db.atoms == range(3) and db.atom_str(2) == "Mentions(Paper1,Gene)"
    assert np.array_equal(db.value_vector(), [1.0, 1.0, 1.0])
    assert np.array_equal(db.target_mask(), [False, True, True])
    fresh = AtomDatabase(SCHEMA)
    assert [fresh.add_atom("Sim", "a", b, 0.25) for b in "xyz"] == [0, 1, 2] == list(fresh.atoms)


# -- the column reader against the per-line reader ---------------------------

# the column reader reads a name as one 8-byte word per 8 bytes: names of 7,
# 8, 9, 16 and 17 bytes, names sharing their first 8 or 16 bytes, `ab`, which
# must sort after `a`, and a name that zero padding would confuse with `a`
LONG_NAMES = ["abcdefg", "abcdefgh", "abcdefghi", "abcdefghj", "abcdefghijklmnop", "abcdefghijklmnoq",
              "abcdefghijklmnopq", "abcdefghijklmnopr", "ab", "a\x00"]
PLAIN_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "Paper1", *LONG_NAMES]
PLAIN_VALUES = ["0", "1", "0.5", "0.25", "1e-1", "1.0", "-0.0", "+1", "0.3333333333333333", "0.3333333333333334"]
ODD_NAMES = [" a", "a ", "a\xa0", "\x1ca", "", "\xe9", "б", "a b", "Nope", "Similarity_of_genf"]
ODD_VALUES = ["nan", "1.5", "1_0", " 1", "1 ", "inf", "1e3", "0x1", "١", "", "abc", "0\x1c"]
ENDINGS = ["\n", "\r\n", "\r"]
ATOM_SCHEMA = "Cites\tevidence\nSim\tevidence\nSimilarity_of_gene\tevidence\nMentions\ttarget\n"


@st.composite
def atom_line(draw, width, odd=False):
    """One atom line of `width` fields; with `odd`, each field may be one
    that few files hold."""
    def field(plain, others):
        return draw(st.sampled_from(others if odd and draw(st.booleans()) else plain))

    fields = [field(["Cites", "Sim", "Mentions", "Similarity_of_gene"], ODD_NAMES)]
    fields += [field(PLAIN_NAMES, ODD_NAMES) for _ in range(min(width, 3) - 1)]
    fields += [field(PLAIN_VALUES, ODD_VALUES) for _ in range(width - 3)]
    return "\t".join(fields[:width])


@st.composite
def atom_file(draw):
    """Lines of one width, each ending in a newline, into which a file mixes
    none to three kinds of oddity: lines of other widths, odd fields, blank
    or tab-only lines, and other line endings."""
    width = draw(st.sampled_from([3, 4]))
    lines = draw(st.lists(atom_line(width), max_size=8))
    odd = draw(st.sets(st.sampled_from(["width", "fields", "blank", "endings"]), max_size=3))
    for kind in sorted(odd - {"endings"}):
        for _ in range(draw(st.integers(1, 3))):
            if kind == "blank":
                extra = [draw(st.sampled_from(["\t", " ", "\t\t\t", "\xa0"]))]
            elif kind == "fields":
                extra = [draw(atom_line(width, odd=True))]
            else:  # one field short and one over: the tab total still fits
                extra = [draw(atom_line(width - 1)), draw(atom_line(width + 1)), draw(atom_line(5))]
                extra = extra[: draw(st.integers(1, 3))]
            for line in extra:
                lines.insert(draw(st.integers(0, len(lines))), line)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    endings = [draw(st.sampled_from(ENDINGS)) if "endings" in odd else "\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no final newline
    return text


def state(db):
    """The database's columns, constants and indices."""
    return (
        db.pred.tolist(), db.arg1.tolist(), db.arg2.tolist(), db.values.view(np.int64).tolist(),
        db.constants, db.targets.tolist(), db.edges.tolist(),
    )


def outcome(read, paths):
    """The columns `read(path)` gives for each path, added in order to one
    database: its `state` when the last is added, or when one raises, with
    the exception's type and message (or None)."""
    db = AtomDatabase(parse_schema(io.StringIO(ATOM_SCHEMA)))
    try:
        for path in paths:
            db.add_columns(read(path))
    except Exception as exc:  # the readers raise HlslError, ValueError or OSError
        return state(db), (type(exc), str(exc))
    return state(build_adjacency(db)), None


def per_line(path):
    """The per-line path: `read_atom_rows` over the opened file."""
    with open(path, encoding="utf-8") as fh:
        return read_atom_rows(fh, path)


def as_lists(columns):
    """The rows of `columns` with their line numbers, `has_value`, the bits
    of the values, and the error's type and message (or None)."""
    preds, consts = columns.pred_names, columns.constants
    rows = [(line_no, preds[p], consts[a], consts[b]) for line_no, p, a, b in zip(
        columns.line_no.tolist(), columns.pred.tolist(), columns.arg1.tolist(), columns.arg2.tolist())]
    error = columns.error and (type(columns.error), str(columns.error))
    return rows, columns.has_value.tolist(), columns.values.view(np.int64).tolist(), error


def tables(columns):
    """The name tables of `columns` and the codes into them."""
    return (columns.pred_names, columns.constants, columns.pred.tolist(), columns.arg1.tolist(),
            columns.arg2.tolist())


def row_columns(path, default):
    """`read_atom_rows` over the opened file, as `as_lists`; the rows stop
    at the line in `columns.error`."""
    with open(path, encoding="utf-8") as fh:
        return as_lists(read_atom_rows(fh, path, default))


@settings(max_examples=300, deadline=None)
@given(st.lists(atom_file(), min_size=2, max_size=4), st.sampled_from([1.0, None]))
@example(["Cites\ta b\t\n", ""], 1.0)  # inner space, empty field
@example(["Cites\ta\tb\nSim\ta\tb\t1\nCites\ta\n", ""], 1.0)  # 3 + 4 + 2 fields
@example(["Cites\ta\tb\r\r\nSim\ta\tb\n", ""], 1.0)  # a bare CR ends a line
@example(["Cites\t\x1ca\tb\n", ""], 1.0)  # padded, and no line break
@example(["Cites\t\tb\n", ""], 1.0)  # an empty field
# CRLF endings, 3- and 4-field lines mixed, and a short line 3
@example(["Cites\ta\tb\r\nSim\tc\td\t0.5\r\nCites\te\r\nSim\tf\tg\r\n", "Sim\th\ti\n"], None)
# ` a`, `a` and `a\xa0` strip to one constant
@example(["Cites\t a\ta\nSim\ta\xa0\t a\nMentions\ta\ta\xa0\t1\n", "Sim\ta\ta\n"], 1.0)
# `a` beside `a\x00`, which zero padding alone would read alike
@example(["Cites\ta\ta\x00\n", "Cites\ta\x00\ta\nCites\ta\ta\n"], 1.0)
# names of one to three words, some sharing their first 8 or 16 bytes, met
# out of byte order, and `a` beside `ab` and `a\x00`
@example(["Cites\tabcdefgh\tabcdefghi\nSim\tabcdefghj\tabcdefghijklmnopq\n"
          "Similarity_of_gene\tabcdefghijklmnopr\tabcdefghijklmnop\nCites\tabcdefg\tabcdefghijklmnoq\n",
          "Sim\tabcdefghijklmnopq\tabcdefghijklmnop\nCites\tab\ta\nMentions\tabcdefghi\tabcdefgh\n",
          "Cites\ta\ta\x00\nSim\ta\x00\ta\n", "Cites\ta\x00\ta\x00\n"], 1.0)
# a faulty row mid-file, then new constants, which are not interned
@example(["Cites\ta\tb\nNope\tc\td\nCites\te\tf\n", "Sim\tg\th\n"], 1.0)
@example(["Cites\ta\tb\t1\nSim\tc\td\t1.5\nCites\te\tf\t1\n", ""], 1.0)
# constants repeated across files, first met in another order
@example(["Cites\tb\ta\nSim\tc\tb\n", "Sim\ta\td\nCites\tc\tb\n", "Mentions\td\tb\t1\nMentions\te\ta\t0\n"],
         None)
def test_column_reader_matches_the_per_line_reader(files, default):
    with tempfile.TemporaryDirectory() as tmp:
        check_readers_agree(Path(tmp), files, default)


def check_readers_agree(d, files, default):
    paths = []
    for k, text in enumerate(files):
        path = d / f"atoms{k}.tsv"
        path.write_bytes(text.encode("utf-8"))
        paths.append(str(path))
    (d / "schema.tsv").write_text(ATOM_SCHEMA)
    *loaded, extra = paths

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rows = read_atom_rows(fh, path, default)
        assert tables(read_atom_columns(path, default)) == tables(rows)
        for columns in (read_atom_columns(path, default), rows):
            assert all(table == sorted(set(table)) for table in (columns.pred_names, columns.constants))
        assert as_lists(read_atom_columns(path, default)) == row_columns(path, default)

    schema = str(d / "schema.tsv")
    for some in (loaded[:1], loaded):
        expected, error = outcome(per_line, [*some, extra])
        assert outcome(read_atom_columns, [*some, extra]) == (expected, error)
        try:
            got = state(load_database(schema, some, extra_rows=lambda db: read_atom_columns(extra)))
        except Exception as exc:
            assert (type(exc), str(exc)) == error
        else:
            assert (got, None) == (expected, error)


# the characters that a file's line model and `str.strip` treat apart:
# CR and CRLF end a line, `\x0b`, `\x1c` and `\x85` do not, though
# `str.splitlines` would break there and `str.strip` removes them; `\xa0`
# and `\u3000` strip, the BOM does not; `float` reads `nan` and `1_0`, and
# NUL sits where zero padding ends a name
RAW_ALPHABET = ["Cites", "Sim", "a", "b", "ab", "abcdefghi", "0.5", "1", "\t", "\t", "\t", "\n", "\n", "\x00", "\r",
                "\r\n", "\x0b", "\x1c", "\x85", "\xa0", " ", "\u3000", "\ufeff", "nan", "1_0", "\xe9", "\u0431"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(RAW_ALPHABET), max_size=40).map("".join))
@example("Sim\ta\tb\t1\x1c\n")  # `str.strip` removes `\x1c`, `float` does not
@example("Sim\ta\tb\n\t\t\t\t\x1c\n\t\t\t\tb\n")  # five fields: blank, then not blank
def test_column_reader_matches_the_per_line_reader_on_raw_text(text):
    for default in (1.0, None):
        columns = parse_atoms(text.encode("utf-8"), "atoms.tsv", default)
        oracle = read_atom_rows(io.StringIO(text, newline=None), "atoms.tsv", default)
        assert tables(columns) == tables(oracle)
        assert as_lists(columns) == as_lists(oracle)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["Cites", "Sim", "Mentions"]), st.sampled_from(PLAIN_NAMES),
                          st.sampled_from(PLAIN_NAMES)), unique=True, min_size=1, max_size=12),
       st.randoms(use_true_random=False))
# rows that meet their constants out of name order
@example([("Cites", "b", "a"), ("Sim", "ab", "a"), ("Mentions", "abcdefghi", "abcdefgh")], random.Random(0))
def test_shuffled_rows_intern_the_same_constants(rows, rng):
    # a store interns a file's constants in name order, whatever the order
    # of its rows
    shuffled = rng.sample(rows, len(rows))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "schema.tsv").write_text(ATOM_SCHEMA)
        constants = []
        for k, part in enumerate((rows, shuffled)):
            path = Path(tmp) / f"atoms{k}.tsv"
            path.write_text("".join(f"{pred}\t{a}\t{b}\n" for pred, a, b in part))
            constants.append(load_database(str(Path(tmp) / "schema.tsv"), [str(path)]).constants)
    assert constants[0] == constants[1] == sorted({name for _, *args in rows for name in args})


def test_constants_after_the_first_faulty_row_are_not_interned(tmp_path):
    path = tmp_path / "atoms.tsv"
    path.write_text("Cites\ta\tb\nSim\tb\tc\t1.5\nCites\td\ta\n")
    db = AtomDatabase(SCHEMA)
    with pytest.raises(ValueOutOfRange):
        db.add_columns(read_atom_columns(str(path)))
    assert db.constants == ["a", "b"]


@pytest.mark.parametrize("fixture", ["example", "recovery", "scaling"])
def test_every_synth_atom_file_reads_as_the_oracle_reads_it(tmp_path, fixture):
    from hlsl.cli import main

    assert main(["synth", "--fixture", fixture, "--out", str(tmp_path)]) == 0
    paths = [tmp_path / f"{name}.tsv" for name in ("observed", "train", "test")]
    paths = [str(path) for path in paths if path.exists()]
    assert len(paths) >= 2
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            assert tables(read_atom_columns(path)) == tables(read_atom_rows(fh, path))
        assert as_lists(read_atom_columns(path)) == row_columns(path, 1.0)
