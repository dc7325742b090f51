"""Every atom reader of the CLI, fuzzed: any input ends in exit 0 or in
exactly one `error:<Code>:` line on stderr.

The readers are the schema and the `--observed`, `--train`, `--test`,
`--labels` and `--predictions` files. `infer` reads the first four and
`eval` the last two. In every atom file, and across the files in the order
a command reads them, the first faulty line wins: a malformed line is
reported only when no row before it is faulty.
"""
import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hlsl.cli import main

BASE = {
    "schema": "R\tevidence\nS\tevidence\nT\ttarget\n",
    "observed": "R\ta\tb\nS\tb\tc\t0.5\n",
    "train": "T\ta\tc\t1\nT\tb\tc\t0\n",
    "test": "T\ta\tb\t1\nT\tc\ta\t0\n",
    "labels": "T\ta\tb\t1\nT\tc\ta\t0\n",
    "predictions": "T\ta\tb\t0.7\nT\tc\ta\t0.2\n",
}
MODEL = "# hlsl-model v1\n1\tR(V1,V2) -> T(V1,V2)\n1\t-> !T(A,B)\n"


def run_readers(files: dict[str, str]) -> list[tuple[int, str]]:
    """Write `files` over the base inputs, run `infer` and `eval` on them,
    and return each command's (exit code, stderr) with the directory shown
    as `{d}`."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in {**BASE, **files}.items():
            (d / f"{name}.tsv").write_text(text)
        (d / "model.tsv").write_text(MODEL)
        commands = [
            ["infer", "--schema", d / "schema.tsv", "--observed", d / "observed.tsv",
             "--train", d / "train.tsv", "--test", d / "test.tsv", "--model", d / "model.tsv",
             "--out", d / "out.tsv", "--threads", "1"],
            ["eval", "--predictions", d / "predictions.tsv", "--labels", d / "labels.tsv",
             "--out", d / "metrics.tsv"],
        ]
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            results.append((code, err.getvalue().replace(str(d), "{d}")))
    return results


# One fault appended to one valid file, and the error line it gives; the
# loader lines are those of the per-row loader the bulk loader replaced, and
# a repeated atom in `--labels` or `--predictions` is a `DuplicateAtom` as in
# the loaders. An append of two faults, the second a malformed line, gives
# the first.
SINGLE_FAULTS = [
    ('schema', 'U\n', "error:MalformedLine:line 4: expected 'name<TAB>target|evidence', got 'U'"),
    ('schema', 'U\tsometimes\n', "error:MalformedLine:line 4: role must be 'target' or 'evidence', got 'sometimes'"),
    ('schema', 'R\ttarget\n', "error:MalformedLine:line 4: duplicate predicate 'R'"),
    ('schema', 'has-part\tevidence\n', "error:MalformedLine:line 4: predicate name 'has-part' does not match [A-Za-z_]\\w*"),
    ('observed', 'R\tx\n', 'error:MalformedLine:line 3: {d}/observed.tsv: expected 3 or 4 tab-separated fields, got 2'),
    ('observed', 'R\tx\ty\t1\t2\n', 'error:MalformedLine:line 3: {d}/observed.tsv: expected 3 or 4 tab-separated fields, got 5'),
    ('observed', 'R\t\ty\n', 'error:MalformedLine:line 3: {d}/observed.tsv: empty field'),
    ('observed', 'R\tx\ty\tabc\n', "error:MalformedLine:line 3: {d}/observed.tsv: bad value 'abc'"),
    ('observed', 'R\tx\ty\t\n', "error:MalformedLine:line 3: {d}/observed.tsv: bad value ''"),
    ('observed', 'R\tx\ty\tnan\n', 'error:ValueOutOfRange:R(x,y) = nan'),
    ('observed', 'R\tx\ty\tinf\n', 'error:ValueOutOfRange:R(x,y) = inf'),
    ('observed', 'R\tx\ty\t1.5\n', 'error:ValueOutOfRange:R(x,y) = 1.5'),
    ('observed', 'R\tx\ty\t-0.1\n', 'error:ValueOutOfRange:R(x,y) = -0.1'),
    ('observed', 'R\ta\tb\t0.5\n', 'error:DuplicateAtom:R(a,b)'),
    ('observed', 'X\tx\ty\n', 'error:UnknownPredicate:X'),
    ('observed', 'X\tx\ty\nR\tx\n', 'error:UnknownPredicate:X'),
    ('train', 'R\ta\tb\n', 'error:DuplicateAtom:R(a,b)'),
    ('train', 'T\ta\tc\t0.5\n', 'error:DuplicateAtom:T(a,c)'),
    ('train', 'T\tx\ty\tnan\n', 'error:ValueOutOfRange:T(x,y) = nan'),
    ('train', 'T\tx\n', 'error:MalformedLine:line 3: {d}/train.tsv: expected 3 or 4 tab-separated fields, got 2'),
    ('train', 'X\tx\ty\n', 'error:UnknownPredicate:X'),
    ('train', 'X\tx\ty\nT\tx\n', 'error:UnknownPredicate:X'),
    ('train', 'T\tx\ty\t-inf\n', 'error:ValueOutOfRange:T(x,y) = -inf'),
    ('test', 'T\ta\tc\n', 'error:DuplicateAtom:T(a,c)'),
    ('test', 'T\ta\tb\t0\n', 'error:DuplicateAtom:T(a,b)'),
    ('test', 'T\tx\ty\t-inf\n', 'error:ValueOutOfRange:T(x,y) = -inf'),
    ('test', 'T\tx\n', 'error:MalformedLine:line 3: {d}/test.tsv: expected 3 or 4 tab-separated fields, got 2'),
    ('test', 'T\tx\ty\t1\t2\n', 'error:MalformedLine:line 3: {d}/test.tsv: expected 3 or 4 tab-separated fields, got 5'),
    ('test', 'X\tx\ty\n', 'error:UnknownPredicate:X'),
    ('test', 'X\tx\ty\nT\tx\n', 'error:UnknownPredicate:X'),
    ('test', 'T\t \ty\n', 'error:MalformedLine:line 3: {d}/test.tsv: empty field'),
    ('labels', 'T\tx\n', 'error:MalformedLine:line 3: {d}/labels.tsv: expected 3 or 4 tab-separated fields, got 2'),
    ('labels', 'T\tx\ty\tnan\n', 'error:ValueOutOfRange:value nan outside [0, 1]'),
    ('labels', 'T\tx\ty\t2\n', 'error:ValueOutOfRange:value 2.0 outside [0, 1]'),
    ('labels', 'T\tx\ty\t2\nT\tx\n', 'error:ValueOutOfRange:value 2.0 outside [0, 1]'),
    ('labels', 'T\tx\ty\t\n', "error:MalformedLine:line 3: {d}/labels.tsv: bad value ''"),
    ('labels', 'T\ta\tb\t0\n', 'error:DuplicateAtom:T(a,b)'),
    ('predictions', 'T\tx\ty\n', 'error:MalformedLine:line 3: {d}/predictions.tsv: expected predicate, arg1, arg2, score'),
    ('predictions', 'T\tx\ty\tinf\n', 'error:MalformedLine:line 3: {d}/predictions.tsv: non-finite score inf'),
    ('predictions', 'T\tx\ty\tnan\n', 'error:MalformedLine:line 3: {d}/predictions.tsv: non-finite score nan'),
    ('predictions', 'T\tx\ty\t1\t2\n', 'error:MalformedLine:line 3: {d}/predictions.tsv: expected 3 or 4 tab-separated fields, got 5'),
    ('predictions', 'T\t\ty\t0.5\n', 'error:MalformedLine:line 3: {d}/predictions.tsv: empty field'),
    ('predictions', 'T\tc\ta\t0.9\n', 'error:DuplicateAtom:T(c,a)'),
    ('predictions', 'T\tc\ta\t0.9\nT\tx\n', 'error:DuplicateAtom:T(c,a)'),
]


@pytest.mark.parametrize("name, line, expected", SINGLE_FAULTS)
def test_single_fault_error_line(name, line, expected):
    infer, evaluate = run_readers({name: BASE[name] + line})
    code, err = evaluate if name in ("labels", "predictions") else infer
    assert (code, err) == (1, expected + "\n")


def test_first_faulty_line_wins_across_files():
    # `infer` reads `--observed` before `--test`, so the repeat in the one
    # wins over the malformed line in the other
    infer, _ = run_readers({"observed": BASE["observed"] + "R\ta\tb\t0.5\n", "test": BASE["test"] + "T\tx\n"})
    assert infer == (1, "error:DuplicateAtom:R(a,b)\n")


def run_command(command: str, files: dict[str, str | bytes | None]) -> tuple[int, str]:
    """Write `files` over the base inputs, a model and a clause file (a file
    given as None is left unwritten), run `learn` or `infer` on them (with
    `--config` when `files` has a config), and return (exit code, stderr)
    with the directory shown as `{d}`."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        inputs = {**BASE, "model": MODEL, "clauses": "R(V1,V2) -> T(V1,V2)\t1\n", **files}
        for name, text in inputs.items():
            if text is not None:
                (d / f"{name}.tsv").write_bytes(text if isinstance(text, bytes) else text.encode())
        data = ["--schema", d / "schema.tsv", "--observed", d / "observed.tsv", "--train", d / "train.tsv"]
        if "config" in files:
            data += ["--config", d / "config.tsv"]
        argv = {
            "learn": ["learn", *data, "--clauses", d / "clauses.tsv", "--out", d / "out.tsv"],
            "infer": ["infer", *data, "--test", d / "test.tsv", "--model", d / "model.tsv", "--out", d / "out.tsv"],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        return code, err.getvalue().replace(str(d), "{d}")


# A clause line the reader rejects names its line in the file, once.
CLAUSE_FAULTS = [
    ("learn", "clauses", "R(V1,V2) -> T(V1,V3)\n",
     "error:MalformedLine:line 1: head variables (V1,V3) do not span the chain"),
    ("learn", "clauses", "R(V1,V2) -> T(V1,V2)\t5\tjunk\n",
     "error:MalformedLine:line 1: expected 'clause[<TAB>coverage]'"),
    ("infer", "model", MODEL + "1\tR(V1,V2) -> T(V1,V3)\n",
     "error:MalformedLine:line 4: head variables (V1,V3) do not span the chain"),
]


@pytest.mark.parametrize("command, name, text, expected", CLAUSE_FAULTS)
def test_clause_fault_error_line(command, name, text, expected):
    assert run_command(command, {name: text}) == (1, expected + "\n")


def test_undecodable_atom_file_names_the_byte_offset_in_the_file():
    # far past the first 8 KiB, the chunk a streaming read decodes at once
    rows = "".join(f"R\tc{i}\td{i}\n" for i in range(5000))
    prefix = (BASE["observed"] + rows).encode()
    assert len(prefix) > 40_000
    code, err = run_command("infer", {"observed": prefix + b"\xffR\tx\ty\n"})
    assert (code, err) == (
        1,
        f"error:UnicodeDecodeError:'utf-8' codec can't decode byte 0xff in position {len(prefix)}: "
        "invalid start byte\n",
    )


# An earlier file's fault and a `--test` file that cannot be decoded or
# opened: `infer` opens and decodes its files in command order, so the
# earlier fault wins.
UNDECODABLE_TEST = BASE["test"].encode() + b"\xff\n"
READ_ORDER_FAULTS = [
    ({"schema": BASE["schema"] + "R\ttarget\n", "test": UNDECODABLE_TEST},
     "error:MalformedLine:line 4: duplicate predicate 'R'"),
    ({"observed": BASE["observed"] + "R\ta\tb\n", "test": UNDECODABLE_TEST}, "error:DuplicateAtom:R(a,b)"),
    ({"schema": BASE["schema"] + "R\ttarget\n", "test": None}, "error:MalformedLine:line 4: duplicate predicate 'R'"),
]


@pytest.mark.parametrize("files, expected", READ_ORDER_FAULTS)
def test_infer_reads_its_files_in_command_order(files, expected):
    assert run_command("infer", files) == (1, expected + "\n")


# Valid text past the first 8 KiB, the chunk a streaming read decodes at once.
PADDED = {
    "schema": ("learn", BASE["schema"] + "".join(f"P{i}\tevidence\n" for i in range(2000))),
    "clauses": ("learn", "# pool\n" * 4000 + "R(V1,V2) -> T(V1,V2)\t1\n"),
    "model": ("infer", MODEL + "1\tR(V1,V2) -> T(V1,V2)\n" * 1500),
    "config": ("learn", "# options\n" * 4000 + "l2_sigma = 10\n"),
}


@pytest.mark.parametrize("name", PADDED)
def test_undecodable_text_file_names_the_byte_offset_in_the_file(name):
    command, text = PADDED[name]
    prefix = text.encode()
    assert len(prefix) > 3 * 8192
    code, err = run_command(command, {name: prefix + b"\xff\n"})
    assert (code, err) == (
        1,
        f"error:UnicodeDecodeError:'utf-8' codec can't decode byte 0xff in position {len(prefix)}: "
        "invalid start byte\n",
    )


FIELDS = ["T", "R", "S", "X", "", " ", "a", "b", "c", "1", "0", "0.5", "nan", "inf", "-inf", "1.5", "-0.1", "abc"]
ROLES = ["target", "evidence", "other", ""]


def lines(field_sets):
    return st.lists(
        st.lists(st.sampled_from(field_sets), min_size=1, max_size=5).map("\t".join), max_size=6
    ).map(lambda rows: "".join(row + "\n" for row in rows))


@st.composite
def reader_inputs(draw):
    """Files of well-formed rows (duplicates and all), with fuzzed lines
    mixed into some of them."""
    names = st.sampled_from(["a", "b", "c"])
    value = st.sampled_from(["", "\t1", "\t0", "\t0.5", "\tnan", "\tinf", "\t1.5"])
    good = st.lists(
        st.tuples(st.sampled_from(["R", "S", "T"]), names, names, value).map(lambda r: "\t".join(r[:3]) + r[3]),
        max_size=5,
    ).map(lambda rows: "".join(row + "\n" for row in rows))
    files = {}
    for name in ("observed", "train", "test", "labels", "predictions"):
        kind = draw(st.sampled_from(["base", "good", "fuzzed"]))
        if kind == "good":
            files[name] = draw(good)
        elif kind == "fuzzed":
            files[name] = draw(good) + draw(lines(FIELDS)) + draw(good)
    if draw(st.booleans()):
        files["schema"] = BASE["schema"] + draw(lines(FIELDS + ROLES))
    return files


@settings(max_examples=150, deadline=None)
@given(reader_inputs())
def test_readers_exit_zero_or_one_error_line(files):
    for code, err in run_readers(files):
        if code == 0:
            assert err == ""
        else:
            assert code == 1 and re.fullmatch(r"error:[A-Za-z]+:[^\n]*\n", err), err
