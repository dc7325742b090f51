"""Relational data layer: parsing, rounding, adjacency, round trips."""
import io
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_chain_db

from hlsl.data import (
    AtomColumns,
    AtomDatabase,
    PredicateSymbol,
    StepGraph,
    _probe,
    _split_plain,
    build_adjacency,
    load_database,
    parse_schema,
    parse_tsv,
    read_atom_columns,
    read_atom_rows,
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


def scanned_steps(db, atoms, inverses, target_edges):
    """(src, label, dst, atom) of every step, from a scan of the atom
    columns, sorted by (src, label, dst)."""
    steps = []
    for a in atoms:
        p, x, y = int(db.pred[a]), int(db.arg1[a]), int(db.arg2[a])
        if target_edges or not db.is_target_pred[p]:
            steps.append((x, 2 * p, y, int(a)))
            if inverses:
                steps.append((y, 2 * p + 1, x, int(a)))
    return sorted(steps)


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
    st.booleans(),
    st.booleans(),
    st.lists(st.booleans(), max_size=60),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 7)), max_size=20),
)
def test_step_graph_matches_a_column_scan(seed, inverses, target_edges, free_flags, queries):
    db = random_chain_db(seed, n_a=5, n_b=4, n_c=4)
    free = [a for a, f in zip(np.flatnonzero(db.values < 0.5).tolist(), free_flags) if f]
    atoms = np.concatenate([db.edges, np.asarray(free, dtype=np.int64)])
    graph = StepGraph(db, inverses, target_edges, atoms)
    steps = scanned_steps(db, atoms.tolist(), inverses, target_edges)
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
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
)
def test_step_graph_probes_match_a_brute_force_scan(cells, inverses, probes):
    # c0 -> c1 is joined by every predicate; c5 and c6, interned last, appear
    # only in an atom that rounds to 0, so they have no steps and every key
    # from them lies past the last step. Probes come unsorted, repeated or
    # not at all.
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("R")])
    for k, x, y in dict.fromkeys([(0, 0, 1), (1, 0, 1), (2, 0, 1), *cells]):
        db.add_atom("PQR"[k], f"c{x}", f"c{y}")
    db.add_atom("P", "c5", "c6", 0.0)
    graph = StepGraph(build_adjacency(db), include_inverses=inverses)
    steps = scanned_steps(db, db.edges.tolist(), inverses, True)
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
        return AtomColumns(np.array(line_no, dtype=np.int64), pred, arg1, arg2,
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
    assert db.constants[: len(constants)] == constants
    assert db.targets.tolist() == [i for i, row in enumerate(stored) if row[0] == "Mentions"]
    # `find_atom` finds every stored atom and nothing else
    index = {row[:3]: i for i, row in enumerate(stored)}
    for pred in ("Cites", "Sim", "Mentions", "Nope"):
        for arg1, arg2 in itertools.product(db.constants, repeat=2):
            at = db.find_atom(pred, db.constants.index(arg1), db.constants.index(arg2))
            assert at == index.get((pred, arg1, arg2))


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

PLAIN_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "Paper1"]
PLAIN_VALUES = ["0", "1", "0.5", "0.25", "1e-1", "1.0", "-0.0", "+1"]
ODD_NAMES = [" a", "a ", "a\xa0", "\x1ca", "", "\xe9", "б", "a b", "Nope"]
ODD_VALUES = ["nan", "1.5", "1_0", " 1", "1 ", "inf", "1e3", "0x1", "١", "", "abc", "0\x1c"]
ENDINGS = ["\n", "\r\n", "\r"]
ATOM_SCHEMA = "Cites\tevidence\nSim\tevidence\nMentions\ttarget\n"


@st.composite
def atom_line(draw, width, odd=False):
    """One atom line of `width` fields; with `odd`, each field may be one
    that no plain file holds."""
    def field(plain, others):
        return draw(st.sampled_from(others if odd and draw(st.booleans()) else plain))

    fields = [field(["Cites", "Sim", "Mentions"], ODD_NAMES)]
    fields += [field(PLAIN_NAMES, ODD_NAMES) for _ in range(min(width, 3) - 1)]
    fields += [field(PLAIN_VALUES, ODD_VALUES) for _ in range(width - 3)]
    return "\t".join(fields[:width])


@st.composite
def atom_file(draw):
    """(text, plain): lines of one width, each ending in a newline, into
    which a file that is not `plain` mixes one to three kinds of oddity:
    lines of other widths, odd fields, blank or tab-only lines, and other
    line endings."""
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
        lines.insert(draw(st.integers(0, len(lines))), "")  # an empty line is plain
    endings = [draw(st.sampled_from(ENDINGS)) if "endings" in odd else "\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no final newline
    return text, not odd


def outcome(load):
    """What `load()` gives: the database's columns and indices, or the
    exception's type and message."""
    try:
        db = load()
    except Exception as exc:  # the readers raise HlslError, ValueError or OSError
        return type(exc), str(exc)
    return (
        db.pred.tolist(), db.arg1.tolist(), db.arg2.tolist(), db.values.view(np.int64).tolist(),
        db.constants, db.targets.tolist(), db.edges.tolist(),
    )


def per_line_load(schema, paths, extra):
    """The per-line path: `read_atom_rows` over each opened file, added
    file by file, the extra file last, as `infer` adds `--test`."""
    db = AtomDatabase(parse_schema(io.StringIO(schema)))
    for path in [*paths, extra]:
        with open(path, encoding="utf-8") as fh:
            db.add_columns(read_atom_rows(fh, path))
    return build_adjacency(db)


def as_lists(columns):
    """The rows of `columns` with their line numbers, `has_value`, the bits
    of the values, and the error's type and message (or None)."""
    rows = list(zip(columns.line_no.tolist(), columns.pred, columns.arg1, columns.arg2))
    error = columns.error and (type(columns.error), str(columns.error))
    return rows, columns.has_value.tolist(), columns.values.view(np.int64).tolist(), error


def row_columns(path, default):
    """`read_atom_rows` over the opened file, as `as_lists`; the rows stop
    at the line in `columns.error`."""
    with open(path, encoding="utf-8") as fh:
        return as_lists(read_atom_rows(fh, path, default))


@settings(max_examples=300, deadline=None)
@given(st.lists(atom_file(), min_size=2, max_size=4), st.sampled_from([1.0, None]))
# each file below passes the one-pass split when one of its checks is left out
@example([("Cites\ta b\t\n", False), ("", True)], 1.0)  # inner space, empty field
@example([("Cites\ta\tb\nSim\ta\tb\t1\nCites\ta\n", False), ("", True)], 1.0)  # 3 + 4 + 2 fields
@example([("Cites\ta\tb\r\r\nSim\ta\tb\n", False), ("", True)], 1.0)  # a bare CR ends a line
@example([("Cites\t\x1ca\tb\n", False), ("", True)], 1.0)  # padded, and no line break
@example([("Cites\t\tb\n", False), ("", True)], 1.0)  # an empty field
def test_column_reader_matches_the_per_line_reader(files, default):
    with tempfile.TemporaryDirectory() as tmp:
        check_readers_agree(Path(tmp), files, default)


def check_readers_agree(d, files, default):
    paths = []
    for k, (text, _) in enumerate(files):
        path = d / f"atoms{k}.tsv"
        path.write_bytes(text.encode("utf-8"))
        paths.append(str(path))
    (d / "schema.tsv").write_text(ATOM_SCHEMA)
    *loaded, extra = paths

    for path, (text, plain) in zip(paths, files):
        if plain:  # the one-pass split takes every plain file
            assert _split_plain(text.encode("ascii"), default) is not None
        assert as_lists(read_atom_columns(path, default)) == row_columns(path, default)

    schema = str(d / "schema.tsv")
    for some in (loaded[:1], loaded):
        expected = outcome(lambda: per_line_load(ATOM_SCHEMA, some, extra))
        assert outcome(lambda: load_database(schema, some, extra_rows=read_atom_columns(extra))) == expected
