"""End-to-end CLI: pipeline runs, determinism, config handling, error codes."""
import filecmp
import os
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hlsl.clauses import GenerationConfig
from hlsl.cli import _OPTIONS, RunConfig, _build_parser, _resolve, main
from hlsl.data import load_database, read_atom_columns
from hlsl.grounding import ground_clauses
from hlsl.inference import map_infer
from hlsl.learning import LearnConfig, WeightedModel, read_model
from hlsl.synth import example_fixture, recovery_fixture, write_fixture


@pytest.fixture
def example_dir(tmp_path):
    out = tmp_path / "example"
    write_fixture(example_fixture(), str(out))
    return out


@pytest.fixture
def recovery_dir(tmp_path):
    out = tmp_path / "recovery"
    write_fixture(recovery_fixture(0), str(out))
    return out


def run(*argv):
    return main([str(a) for a in argv])


def test_synth_writes_fixture(tmp_path):
    out = tmp_path / "fx"
    assert run("synth", "--fixture", "example", "--out", out) == 0
    assert sorted(os.listdir(out)) == ["observed.tsv", "schema.tsv", "train.tsv"]


def test_generate_example_clause_file(example_dir, tmp_path):
    out = tmp_path / "clauses.tsv"
    code = run(
        "generate", "--schema", example_dir / "schema.tsv",
        "--observed", example_dir / "observed.tsv", "--train", example_dir / "train.tsv",
        "--out", out, "--max-depth", 2, "--min-coverage", 1, "--no-include-inverses",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines == [
        "Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)\t1",
        "Cites(V1,V2) & Mentions(V2,V3) -> !Mentions(V1,V3)\t1",
        "-> !Mentions(A,B)\t2",
    ]


def test_generate_min_coverage_leaves_priors(example_dir, tmp_path):
    out = tmp_path / "clauses.tsv"
    run(
        "generate", "--schema", example_dir / "schema.tsv",
        "--observed", example_dir / "observed.tsv", "--train", example_dir / "train.tsv",
        "--out", out, "--max-depth", 2, "--min-coverage", 99,
    )
    assert [l.split("\t")[0] for l in out.read_text().splitlines()] == ["-> !Mentions(A,B)"]


def test_generate_deterministic_reruns(example_dir, tmp_path):
    args = (
        "generate", "--schema", example_dir / "schema.tsv",
        "--observed", example_dir / "observed.tsv", "--train", example_dir / "train.tsv",
        "--max-depth", 2, "--min-coverage", 1,
    )
    run(*args, "--out", tmp_path / "a.tsv")
    run(*args, "--out", tmp_path / "b.tsv")
    assert filecmp.cmp(tmp_path / "a.tsv", tmp_path / "b.tsv", shallow=False)


def full_pipeline(d, tmp_path, tag, threads, method="ppll", p=1):
    clauses = tmp_path / f"clauses_{tag}.tsv"
    model = tmp_path / f"model_{tag}.tsv"
    trace = tmp_path / f"trace_{tag}.tsv"
    preds = tmp_path / f"preds_{tag}.tsv"
    metrics = tmp_path / f"metrics_{tag}.tsv"
    base = (
        "--schema", d / "schema.tsv", "--observed", d / "observed.tsv",
        "--train", d / "train.tsv", "--threads", threads,
    )
    assert run("generate", *base, "--out", clauses, "--max-depth", 2, "--min-coverage", 3) == 0
    assert run(
        "learn", *base, "--clauses", clauses, "--method", method, "--out", model, "--trace", trace, "--p", p,
    ) == 0
    assert run(
        "infer", *base, "--test", d / "test.tsv", "--model", model, "--out", preds,
    ) == 0
    assert run("eval", "--predictions", preds, "--labels", d / "test.tsv", "--out", metrics) == 0
    return clauses, model, trace, preds, metrics


def map_at(d, model_path, p):
    """The prediction lines of `map_infer` at hinge power `p` on the model
    file's clauses and weights, over the free atoms `infer` takes from `d`."""
    test = read_atom_columns(str(d / "test.tsv"))
    paths = [str(d / "observed.tsv"), str(d / "train.tsv")]
    db = load_database(str(d / "schema.tsv"), paths, extra_rows=lambda _: test)
    free = np.arange(len(db.atoms) - len(test), len(db.atoms))  # the test atoms, added last
    with open(model_path, encoding="utf-8") as fh:
        m = read_model(fh, db)
    grounding = ground_clauses(m.clauses, db, free_atoms=free)
    score = map_infer(WeightedModel(m.clauses, m.weights, p), db, free, grounding).values
    names, consts = db.pred_names, db.constants
    return [f"{names[db.pred[i]]}\t{consts[db.arg1[i]]}\t{consts[db.arg2[i]]}\t{score[i]:.12g}" for i in free.tolist()]


@pytest.mark.parametrize("p", [1, 2])
def test_full_pipeline_and_determinism_across_threads(recovery_dir, tmp_path, p):
    # every output, the learner's trace included, repeats byte for byte
    for method in ("ppll", "gls"):
        first = full_pipeline(recovery_dir, tmp_path, f"{method}_t1", 1, method, p)
        second = full_pipeline(recovery_dir, tmp_path, f"{method}_t8", 8, method, p)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
        auc = float(second[-1].read_text().splitlines()[1].split("\t")[0])
        assert auc > 0.8
        # the model file carries its p, and `infer` predicts at it
        _, model, _, preds, _ = second
        assert model.read_text().splitlines()[0] == ("# hlsl-model v1" if p == 1 else "# hlsl-model v1 p=2")
        assert preds.read_text().splitlines() == map_at(recovery_dir, model, p)
    with pytest.raises(SystemExit) as exc:  # `infer` has no --p of its own
        run("infer", "--test", recovery_dir / "test.tsv", "--model", model, "--out", tmp_path / "p.tsv", "--p", p)
    assert exc.value.code == 2


@pytest.mark.parametrize("method", ["ppll", "gls"])
def test_outputs_ignore_the_order_of_input_rows(recovery_dir, tmp_path, method):
    # shuffled observed and train rows give every output byte for byte, but
    # for the last digits of the trace's gradient column
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    rng = random.Random(method)
    for name in ("schema", "observed", "train", "test"):
        lines = (recovery_dir / f"{name}.tsv").read_text().splitlines(keepends=True)
        if name in ("observed", "train"):
            rng.shuffle(lines)
        (shuffled / f"{name}.tsv").write_text("".join(lines))
    first = full_pipeline(recovery_dir, tmp_path, "as_written", 1, method)
    second = full_pipeline(shuffled, tmp_path, "shuffled", 1, method)
    for a, b in zip(first, second):
        if a.name.startswith("trace"):
            rows = [[line.split("\t") for line in f.read_text().splitlines()[1:]] for f in (a, b)]
            assert [row[:2] for row in rows[0]] == [row[:2] for row in rows[1]]
            assert all(abs(float(x[2]) - float(y[2])) <= 1e-12 for x, y in zip(*rows))
        else:
            assert a.read_bytes() == b.read_bytes(), a.name


def test_learn_gls_zero_iters_empty_model(recovery_dir, tmp_path):
    model = tmp_path / "model.tsv"
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", "gls", "--iters", 0,
        "--out", model,
    )
    assert code == 0
    assert model.read_text().splitlines() == ["# hlsl-model v1"]


def test_infer_empty_model_scores_zero_and_eval_auc_half(recovery_dir, tmp_path):
    model = tmp_path / "model.tsv"
    model.write_text("# hlsl-model v1\n")
    preds = tmp_path / "preds.tsv"
    metrics = tmp_path / "metrics.tsv"
    base = (
        "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", recovery_dir / "train.tsv",
    )
    assert run("infer", *base, "--test", recovery_dir / "test.tsv", "--model", model, "--out", preds) == 0
    values = {line.split("\t")[3] for line in preds.read_text().splitlines()}
    assert values == {"0"}
    assert run("eval", "--predictions", preds, "--labels", recovery_dir / "test.tsv", "--out", metrics) == 0
    row = metrics.read_text().splitlines()[1].split("\t")
    assert float(row[0]) == 0.5


def test_cli_error_is_single_parsable_line(example_dir, tmp_path, capsys):
    code = run(
        "generate", "--schema", example_dir / "schema.tsv",
        "--observed", example_dir / "observed.tsv", "--train", example_dir / "train.tsv",
        "--out", tmp_path / "c.tsv", "--min-coverage", 99, "--no-add-negative-priors",
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:NoCandidates:")


def test_cli_unknown_predicate_error(example_dir, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Nope\ta\tb\n")
    code = run(
        "generate", "--schema", example_dir / "schema.tsv", "--observed", bad,
        "--train", example_dir / "train.tsv", "--out", tmp_path / "c.tsv",
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:UnknownPredicate:Nope")


def test_config_file_and_flag_precedence(example_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"schema={example_dir / 'schema.tsv'}\n"
        f"observed={example_dir / 'observed.tsv'}\n"
        f"train={example_dir / 'train.tsv'}\n"
        "max_depth=2\nmin_coverage=99\ninclude_inverses=false\n"
    )
    # config alone: coverage filter kills the rule
    out1 = tmp_path / "c1.tsv"
    assert run("generate", "--config", cfg, "--out", out1) == 0
    assert len(out1.read_text().splitlines()) == 1
    # the flag overrides the config value
    out2 = tmp_path / "c2.tsv"
    assert run("generate", "--config", cfg, "--out", out2, "--min-coverage", 1) == 0
    assert len(out2.read_text().splitlines()) == 3


def test_learn_ppll_single_clause_matches_learn_weights(recovery_dir, tmp_path):
    import numpy as np

    from hlsl.data import load_database
    from hlsl.clauses import read_clause_file
    from hlsl.grounding import ground_clauses
    from hlsl.learning import LearnConfig, WeightedModel, learn_weights, read_model

    clauses_path = tmp_path / "one_clause.tsv"
    line = (recovery_dir / "candidates.tsv").read_text().splitlines()[0]
    clauses_path.write_text(line + "\n")
    model_path = tmp_path / "model.tsv"
    assert run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", clauses_path, "--method", "ppll", "--out", model_path,
    ) == 0
    db = load_database(
        str(recovery_dir / "schema.tsv"),
        [str(recovery_dir / "observed.tsv"), str(recovery_dir / "train.tsv")],
    )
    with model_path.open() as fh:
        cli_model = read_model(fh, db)
    with clauses_path.open() as fh:
        (clause,) = read_clause_file(fh, db)
    grounding = ground_clauses([clause], db)
    direct = learn_weights(
        WeightedModel([clause], np.zeros(1)), grounding, db.value_vector(), "ppll", LearnConfig()
    )
    assert len(cli_model.clauses) == 1
    # the model file keeps 12 significant digits
    assert cli_model.weights[0] == pytest.approx(direct.weights[0], rel=1e-11)


def test_infer_eval_perfect_signal_auc_one(tmp_path):
    # the rule body exactly identifies the positive test links
    d = tmp_path / "perfect"
    d.mkdir()
    (d / "schema.tsv").write_text("Sig\tevidence\nT\ttarget\n")
    observed, train, test = [], [], []
    for i in range(8):
        observed.append(f"Sig\ta{i}\tb{i}")
        train.append(f"T\ta{i}\tb{i}\t1.0")
        test.append(f"T\ta{i}\tc{i}\t0.0")  # no signal: negative
        observed.append(f"Sig\ta{i}\td{i}")
        test.append(f"T\ta{i}\td{i}\t1.0")  # signal: positive
        train.append(f"T\tb{i}\tc{i}\t0.0")
    (d / "observed.tsv").write_text("\n".join(observed) + "\n")
    (d / "train.tsv").write_text("\n".join(train) + "\n")
    (d / "test.tsv").write_text("\n".join(test) + "\n")
    (d / "model.tsv").write_text("# hlsl-model v1\n2\tSig(V1,V2) -> T(V1,V2)\n1\t-> !T(A,B)\n")
    preds = tmp_path / "preds.tsv"
    metrics = tmp_path / "metrics.tsv"
    base = ("--schema", d / "schema.tsv", "--observed", d / "observed.tsv", "--train", d / "train.tsv")
    assert run("infer", *base, "--test", d / "test.tsv", "--model", d / "model.tsv", "--out", preds) == 0
    assert run("eval", "--predictions", preds, "--labels", d / "test.tsv", "--out", metrics) == 0
    assert float(metrics.read_text().splitlines()[1].split("\t")[0]) == 1.0


def test_infer_lists_the_test_atoms_in_file_order(tmp_path):
    # one prediction per test atom, in the test file's order and with its
    # names as written, also where the constants occur in no other file
    d = tmp_path / "order"
    d.mkdir()
    (d / "schema.tsv").write_text("Sig\tevidence\nT\ttarget\n")
    (d / "observed.tsv").write_text("Sig\ta\tb\nSig\tc\td\n")
    (d / "train.tsv").write_text("T\ta\tb\t1.0\n")
    test = ["T\tc\td\t0", "T\tzz\tyy\t1", "T\tb\ta\t0", "T\ta\td\t1", "T\tZoë\tünseen\t0"]
    (d / "test.tsv").write_text("\n".join(test) + "\n", encoding="utf-8")
    (d / "model.tsv").write_text("# hlsl-model v1\n2\tSig(V1,V2) -> T(V1,V2)\n1\t-> !T(A,B)\n")
    preds = tmp_path / "preds.tsv"
    base = ("--schema", d / "schema.tsv", "--observed", d / "observed.tsv", "--train", d / "train.tsv")
    assert run("infer", *base, "--test", d / "test.tsv", "--model", d / "model.tsv", "--out", preds) == 0
    rows = [line.split("\t") for line in preds.read_text(encoding="utf-8").splitlines()]
    assert [row[:3] for row in rows] == [line.split("\t")[:3] for line in test]
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)


def test_infer_prints_no_negative_zero(tmp_path):
    # a coupled model whose MAP puts most held-out atoms at 0: each must print
    # as "0", never "-0"
    d = tmp_path / "coupled"
    d.mkdir()
    (d / "schema.tsv").write_text("R\tevidence\nT\ttarget\n")
    names = [f"x{i}" for i in range(8)]
    observed = [f"R\t{a}\t{b}" for a, b in zip(names, names[1:] + names[:1])] + ["R\tx0\tx0"]
    test = [f"T\t{a}\t{b}\t{(i + j) % 2}" for i, a in enumerate(names) for j, b in enumerate(names) if i != j]
    (d / "observed.tsv").write_text("\n".join(observed) + "\n")
    (d / "train.tsv").write_text("T\tx0\tx9\t1.0\n")
    (d / "test.tsv").write_text("\n".join(test) + "\n")
    (d / "model.tsv").write_text(
        "# hlsl-model v1\n0.5\tR(V1,V2) -> T(V1,V2)\n0.75\tT(V1,V2) & R(V2,V3) -> T(V1,V3)\n1\t-> !T(A,B)\n"
    )
    preds = tmp_path / "preds.tsv"
    base = ("--schema", d / "schema.tsv", "--observed", d / "observed.tsv", "--train", d / "train.tsv")
    assert run("infer", *base, "--test", d / "test.tsv", "--model", d / "model.tsv", "--out", preds) == 0
    values = [line.split("\t")[3] for line in preds.read_text().splitlines()]
    assert len(values) == len(test) and "0" in values
    assert not any(v.startswith("-") for v in values)


def test_learn_diagnostic_dumps(recovery_dir, tmp_path):
    model = tmp_path / "model.tsv"
    score = tmp_path / "score.tsv"
    grounds = tmp_path / "grounds.tsv"
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", "ppll", "--out", model,
        "--score-report", score, "--dump-groundings", grounds,
    )
    assert code == 0
    assert score.read_text().startswith("total\t")
    first = grounds.read_text().splitlines()[0].split("\t")
    assert first[0].isdigit() and "(" in first[1]


@pytest.mark.parametrize(
    "flags, field",
    [
        pytest.param(flags, field, id=field)
        for flags, field in [
            (("--tolerance", "-1"), "tolerance"),
            (("--w-max", "-1"), "w_max"),
            (("--l2-sigma", "nan"), "l2_sigma"),
            (("--iters", "-3"), "max_iters"),
            (("--method", "gls", "--iters", "-3"), "gls_outer_iters"),
            (("--inner-iters", "-1"), "gls_inner_iters"),
        ]
    ],
)
def test_learn_rejects_bad_config_field(recovery_dir, tmp_path, capsys, flags, field):
    model = tmp_path / "model.tsv"
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", "ppll", "--out", model, *flags,
    )
    assert code == 1
    assert single_error(capsys).startswith(f"error:ValueError:{field} must be")
    assert not model.exists()


@pytest.mark.parametrize("method", ["ppll", "gls"])
def test_learn_tiny_l2_sigma_keeps_no_clause_quietly(recovery_dir, tmp_path, capsys, method):
    # 1 / 1e-320 overflows to inf: the prior holds every weight at 0, and
    # numpy must not warn about it on stderr
    model = tmp_path / "model.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(
            "learn", "--schema", recovery_dir / "schema.tsv",
            "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
            "--clauses", recovery_dir / "candidates.tsv", "--method", method, "--out", model,
            "--l2-sigma", "1e-320",
        )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert model.read_text().splitlines() == ["# hlsl-model v1"]


@pytest.mark.parametrize(
    "method, flags, config, field",
    [
        ("ppll", ("--inner-iters", "5"), "", "inner_iters"),
        ("ppll", (), "inner_iters = 5\n", "inner_iters"),
    ],
)
def test_learn_rejects_option_of_other_method(
    recovery_dir, tmp_path, capsys, method, flags, config, field
):
    model = tmp_path / "model.tsv"
    cfg = tmp_path / "learn.cfg"
    cfg.write_text(config)
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", method, "--out", model,
        "--config", cfg, *flags,
    )
    assert code == 1
    owner = "ppll" if method == "gls" else "gls"
    assert single_error(capsys) == f"error:ValueError:{field} applies to --method {owner} only"
    assert not model.exists()


@pytest.mark.parametrize("method", ["ppll", "gls"])
@pytest.mark.parametrize("key", ["step_size", "init_weight", "zero_tol"])
def test_learn_rejects_retired_options(recovery_dir, tmp_path, capsys, key, method):
    # the gls step is 1 / occurrences, a new gls clause starts at 0 and ppll
    # keeps the clauses above 0: these options no longer exist
    model = tmp_path / "model.tsv"
    learn = (
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", method, "--out", model,
    )
    with pytest.raises(SystemExit) as exc:
        run(*learn, "--" + key.replace("_", "-"), "0.5")
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "learn.cfg"
    cfg.write_text(f"{key} = 0.5\n")
    assert run(*learn, "--config", cfg) == 1
    assert single_error(capsys) == f"error:MalformedLine:line 1: unknown option '{key}'"
    assert not model.exists()


def test_learn_ppll_iters_caps_root_finding_steps(recovery_dir, tmp_path):
    trace = tmp_path / "trace.tsv"
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", "ppll",
        "--out", tmp_path / "model.tsv", "--trace", trace, "--iters", 1,
    )
    assert code == 0
    rows = trace.read_text().splitlines()
    assert rows[0].startswith("#") and len(rows) == 2
    assert rows[1].split("\t")[0] == "1"


def test_neg_ratio_subsampling(recovery_dir, tmp_path):
    # learn with 1:1 subsampling still produces a valid model file
    model = tmp_path / "model.tsv"
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv",
        "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
        "--clauses", recovery_dir / "candidates.tsv", "--method", "ppll",
        "--neg-ratio", 1.0, "--out", model,
    )
    assert code == 0
    assert model.read_text().startswith("# hlsl-model v1")


def test_neg_ratio_beyond_every_negative_keeps_them_all(recovery_dir, tmp_path):
    # 1e308 * 84 positives overflows to inf; like 1e6 it keeps all 169 negatives
    models = []
    for ratio in ("1e308", "1e6"):
        models.append(tmp_path / f"model-{ratio}.tsv")
        code = run(
            "learn", "--schema", recovery_dir / "schema.tsv",
            "--observed", recovery_dir / "observed.tsv", "--train", recovery_dir / "train.tsv",
            "--clauses", recovery_dir / "candidates.tsv", "--method", "ppll",
            "--neg-ratio", ratio, "--out", models[-1],
        )
        assert code == 0
    assert models[0].read_bytes() == models[1].read_bytes()


# -- the shared atom-row reader behind every command ------------------------


def single_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


def test_infer_malformed_test_row(recovery_dir, tmp_path, capsys):
    rows = (recovery_dir / "test.tsv").read_text().splitlines()
    test = tmp_path / "test.tsv"
    test.write_text("\n".join(rows + ["T\tonly_two"]) + "\n")
    code = run(
        "infer", "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", recovery_dir / "train.tsv", "--test", test,
        "--model", recovery_dir / "candidates.tsv", "--out", tmp_path / "preds.tsv",
    )
    assert code == 1
    assert single_error(capsys).startswith(f"error:MalformedLine:line {len(rows) + 1}: {test}:")


def test_neg_ratio_malformed_train_row(recovery_dir, tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_text("T\ta\n" + (recovery_dir / "train.tsv").read_text())
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", train, "--clauses", recovery_dir / "candidates.tsv", "--neg-ratio", 1.0,
        "--out", tmp_path / "model.tsv",
    )
    assert code == 1
    assert single_error(capsys).startswith("error:MalformedLine:line 1:")


@pytest.mark.parametrize(
    "train, error",
    [
        # an unknown predicate before a value out of range
        ("Foo\ta\tb\t1\nT\ta\tb\t1.5\nT\tb\ta\t0\n", "error:UnknownPredicate:Foo"),
        # a repeated atom before a value out of range
        ("T\ta\tb\t1\nT\ta\tb\t0\nT\tb\ta\t7\n", "error:DuplicateAtom:T(a,b)"),
        # a repeated negative, which a draw may drop
        ("T\ta\tb\t1\nT\tb\ta\t0\nT\tb\ta\t0\nT\tc\ta\t0\nT\ta\tc\t0\n", "error:DuplicateAtom:T(b,a)"),
    ],
    ids=["unknown-predicate", "duplicate", "dropped-duplicate"],
)
@pytest.mark.parametrize("ratio", ["0", "1", "2"])
def test_neg_ratio_keeps_the_first_faulty_line(tmp_path, capsys, train, error, ratio):
    # every train row is checked in file order before any negative is dropped
    for name, text in [("schema", "R\tevidence\nT\ttarget\n"), ("observed", "R\ta\tb\n"), ("train", train),
                       ("clauses", "R(V1,V2) -> T(V1,V2)\n")]:
        (tmp_path / f"{name}.tsv").write_text(text)
    model = tmp_path / "model.tsv"
    for seed in range(6):
        code = run(
            "learn", "--schema", tmp_path / "schema.tsv", "--observed", tmp_path / "observed.tsv",
            "--train", tmp_path / "train.tsv", "--clauses", tmp_path / "clauses.tsv",
            "--neg-ratio", ratio, "--seed", seed, "--out", model,
        )
        assert code == 1
        assert single_error(capsys) == error
        assert not model.exists()


@pytest.mark.parametrize(
    "predictions, labels",
    [
        ("T\ta\tb\n", "T\ta\tb\t1\n"),  # prediction without a score
        ("T\ta\tb\tbad\n", "T\ta\tb\t1\n"),  # unparsable score
        ("T\ta\tb\tnan\n", "T\ta\tb\t1\n"),  # non-finite scores
        ("T\ta\tb\tinf\n", "T\ta\tb\t1\n"),
        ("T\ta\tb\t0.5\n", "T\ta\n"),  # label row with two fields
        ("T\ta\tb\t0.5\n", "T\ta\tb\t1\textra\n"),  # label row with five fields
    ],
)
def test_eval_rejects_malformed_rows(tmp_path, capsys, predictions, labels):
    (tmp_path / "p.tsv").write_text(predictions)
    (tmp_path / "l.tsv").write_text(labels)
    code = run("eval", "--predictions", tmp_path / "p.tsv", "--labels", tmp_path / "l.tsv", "--out", tmp_path / "m.tsv")
    assert code == 1
    assert single_error(capsys).startswith("error:MalformedLine:line 1:")


SCORED = "T\ta\tb\t0.5\nT\tc\td\t0.1\n"


@pytest.mark.parametrize(
    "predictions, labels, error",
    [
        ("T\ta\tb\t0.5\nT\tc\td\nT\te\tf\tnan\n", "T\ta\tb\t1\n",
         "MalformedLine:line 2: {p}: expected predicate, arg1, arg2, score"),
        ("T\ta\tb\tnan\nT\tc\td\n", "T\ta\tb\t1\n", "MalformedLine:line 1: {p}: non-finite score nan"),
        ("T\ta\tb\t0.5\nT\ta\tb\t0.7\nT\tc\td\n", "T\ta\tb\t1\n", "DuplicateAtom:T(a,b)"),
        ("T\ta\tb\t0.5\nT\t\td\n", "T\ta\tb\t1\n", "MalformedLine:line 2: {p}: empty field"),
        ("T\ta\tb\t0.5\nT\tc\nT\te\tf\n", "T\ta\tb\t1\n",
         "MalformedLine:line 2: {p}: expected 3 or 4 tab-separated fields, got 2"),
        ("T\ta\tb\t0.5\n\nT\tc\td\n", "T\ta\tb\t1\n",
         "MalformedLine:line 3: {p}: expected predicate, arg1, arg2, score"),
        ("T\ta\tb\t0.5\n \t \t \nT\tc\td\n", "T\ta\tb\t1\n",
         "MalformedLine:line 3: {p}: expected predicate, arg1, arg2, score"),
        ("T\ta\tb\t0.5\nT\tc\td\tx\nT\te\tf\n", "T\ta\tb\t1\n", "MalformedLine:line 2: {p}: bad value 'x'"),
        ("T\ta\tb\t0.5\r\nT\tc\td\r\n", "T\ta\tb\t1\n",
         "MalformedLine:line 2: {p}: expected predicate, arg1, arg2, score"),
        (SCORED, "T\ta\tb\t1\nT\ta\tb\t0\nT\tc\td\t2\n", "DuplicateAtom:T(a,b)"),
        (SCORED, "T\ta\tb\t1.5\nT\ta\tb\t0\n", "ValueOutOfRange:value 1.5 outside [0, 1]"),
        (SCORED, "T\ta\tb\t1\nT\tc\n", "MalformedLine:line 2: {l}: expected 3 or 4 tab-separated fields, got 2"),
    ],
    ids=["missing-score-before-nan", "nan-before-missing-score", "duplicate-before-missing-score",
         "empty-field", "two-fields-before-missing-score", "blank-line-then-missing-score",
         "whitespace-line-skipped", "bad-value", "crlf", "label-duplicate-before-out-of-range",
         "label-out-of-range-before-duplicate", "label-two-fields"],
)
def test_eval_reports_the_first_fault(tmp_path, capsys, predictions, labels, error):
    # the first faulty line of the predictions wins, then of the labels; a
    # row the reader yields is checked before a fault the reader stops at
    p, l = tmp_path / "p.tsv", tmp_path / "l.tsv"
    p.write_bytes(predictions.encode())
    l.write_bytes(labels.encode())
    assert run("eval", "--predictions", p, "--labels", l, "--out", tmp_path / "m.tsv") == 1
    assert single_error(capsys) == "error:" + error.format(p=p, l=l)


def test_eval_rejects_labels_without_prediction(tmp_path, capsys):
    (tmp_path / "p.tsv").write_text("T\ta\tb\t0.9\nT\tc\td\t0.1\nT\tx\ty\t0.5\n")
    (tmp_path / "l.tsv").write_text("T\ta\tb\t1\nT\tb\tc\t0\nT\tc\td\t0\nT\td\te\t1\n")
    code = run("eval", "--predictions", tmp_path / "p.tsv", "--labels", tmp_path / "l.tsv", "--out", tmp_path / "m.tsv")
    assert code == 1
    assert single_error(capsys) == (
        f"error:MissingPrediction:{tmp_path / 'p.tsv'}: labelled atoms without a prediction: 2, the first T(b,c)"
    )
    assert not (tmp_path / "m.tsv").exists()


def test_infer_rejects_test_atom_of_evidence_predicate(recovery_dir, tmp_path, capsys):
    test = tmp_path / "test.tsv"
    test.write_text((recovery_dir / "test.tsv").read_text() + "Link\ta00\tc19\n")
    code = run(
        "infer", "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", recovery_dir / "train.tsv", "--test", test,
        "--model", recovery_dir / "candidates.tsv", "--out", tmp_path / "preds.tsv",
    )
    assert code == 1
    assert single_error(capsys) == (
        f"error:NotATarget:{test}: atoms not of a target predicate: 1, the first Link(a00,c19)"
    )
    assert not (tmp_path / "preds.tsv").exists()


# constants x, y, z (stored from --observed) and w (met only in --test): one
# byte each, or over 8 bytes, sharing their first 8 or 16 bytes
NAMES = {"short": ("x", "y", "z", "w"),
         "long": ("entity_number_0002", "entity_number_0001", "entity_n", "entity_number_00010")}


def write_named(tmp_path, names, **texts):
    """The files named by `texts`, each text formatted with the constants
    x, y, z and w of `names`, beside a schema and an observed file; returns
    their paths."""
    paths = {}
    texts = {"schema": "R\tevidence\nT\ttarget\n", "observed": "R\t{x}\t{y}\nR\t{y}\t{z}\n", **texts}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.tsv"
        paths[name].write_text(text.format(**dict(zip("xyzw", NAMES[names]))))
    return paths


@pytest.mark.parametrize("names", sorted(NAMES))
@pytest.mark.parametrize("flags", [(), ("--neg-ratio", "1")], ids=["plain", "neg-ratio"])
@pytest.mark.parametrize(
    "train, error",
    [
        # an atom first stored from --observed, repeated in --train
        ("T\t{x}\t{z}\t1\nR\t{y}\t{z}\t0.5\n", "DuplicateAtom:R({y},{z})"),
        # a bad value on constants that only --observed introduced
        ("T\t{x}\t{y}\t1\nT\t{z}\t{x}\t1.5\n", "ValueOutOfRange:T({z},{x}) = 1.5"),
    ],
    ids=["duplicate", "out-of-range"],
)
def test_train_faults_name_the_constants_of_the_observed_file(tmp_path, capsys, names, flags, train, error):
    paths = write_named(tmp_path, names, train=train)
    out = tmp_path / "clauses.tsv"
    code = run("generate", "--schema", paths["schema"], "--observed", paths["observed"], "--train", paths["train"],
               *flags, "--out", out)
    assert code == 1
    assert single_error(capsys) == "error:" + error.format(**dict(zip("xyzw", NAMES[names])))
    assert not out.exists()


@pytest.mark.parametrize("names", sorted(NAMES))
def test_infer_names_the_first_stray_test_atom(tmp_path, capsys, names):
    paths = write_named(tmp_path, names, train="T\t{x}\t{z}\t1\n", test="T\t{y}\t{x}\nR\t{z}\t{w}\nR\t{x}\t{z}\n",
                        model="# hlsl-model v1\n1\t-> !T(A,B)\n")
    out = tmp_path / "preds.tsv"
    code = run("infer", "--schema", paths["schema"], "--observed", paths["observed"], "--train", paths["train"],
               "--test", paths["test"], "--model", paths["model"], "--out", out)
    assert code == 1
    _, _, z, w = NAMES[names]
    assert single_error(capsys) == (
        f"error:NotATarget:{paths['test']}: atoms not of a target predicate: 2, the first R({z},{w})"
    )
    assert not out.exists()


@pytest.mark.parametrize("coverage", ["abc", "-3", "1.5"])
def test_learn_rejects_bad_clause_coverage(recovery_dir, tmp_path, capsys, coverage):
    clauses = tmp_path / "clauses.tsv"
    clauses.write_text(f"Link(V1,V2) -> T(V1,V2)\t{coverage}\n-> !T(A,B)\t5\n")
    code = run(
        "learn", "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", recovery_dir / "train.tsv", "--clauses", clauses, "--out", tmp_path / "model.tsv",
    )
    assert code == 1
    assert single_error(capsys) == f"error:MalformedLine:line 1: bad coverage {coverage!r}"
    assert not (tmp_path / "model.tsv").exists()


@pytest.mark.parametrize("head", ["!T(A,A)", "T(X,X)"])
def test_body_less_clause_with_a_repeated_head_variable_is_rejected(recovery_dir, tmp_path, capsys, head):
    # read as `-> T(A,B)`, it would weigh every T atom, not only reflexive ones
    data = ["--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
            "--train", recovery_dir / "train.tsv"]
    error = f"error:MalformedLine:line 2: head variables ({head[-4]},{head[-2]}) do not span the chain"
    clauses = tmp_path / "clauses.tsv"
    clauses.write_text(f"Link(V1,V2) -> T(V1,V2)\t5\n-> {head}\t5\n")
    assert run("learn", *data, "--clauses", clauses, "--out", tmp_path / "model.tsv") == 1
    assert single_error(capsys) == error
    model = tmp_path / "model.tsv"
    model.write_text(f"# hlsl-model v1\n1\t-> {head}\n")
    code = run("infer", *data, "--test", recovery_dir / "test.tsv", "--model", model, "--out", tmp_path / "preds.tsv")
    assert code == 1
    assert single_error(capsys) == error
    assert not (tmp_path / "preds.tsv").exists()


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_infer_rejects_non_finite_weight(recovery_dir, tmp_path, capsys, weight):
    model = tmp_path / "model.tsv"
    model.write_text(f"# hlsl-model v1\n{weight}\t-> !T(A,B)\n")
    code = run(
        "infer", "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", recovery_dir / "train.tsv", "--test", recovery_dir / "test.tsv",
        "--model", model, "--out", tmp_path / "preds.tsv",
    )
    assert code == 1
    assert single_error(capsys).startswith("error:MalformedLine:line 2:")


def test_commands_build_the_adjacency_once(recovery_dir, tmp_path, monkeypatch):
    import hlsl.data

    calls = []
    build = hlsl.data.build_adjacency
    monkeypatch.setattr(hlsl.data, "build_adjacency", lambda *a, **k: calls.append(1) or build(*a, **k))
    base = (
        "--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
        "--train", recovery_dir / "train.tsv",
    )
    model = tmp_path / "model.tsv"
    model.write_text("# hlsl-model v1\n2\tCoassoc(V1,V2) -> T(V1,V2)\n1\t-> !T(A,B)\n")
    assert run("infer", *base, "--test", recovery_dir / "test.tsv", "--model", model, "--out", tmp_path / "p.tsv") == 0
    assert len(calls) == 1
    assert run(
        "learn", *base, "--clauses", recovery_dir / "candidates.tsv", "--neg-ratio", 1.0,
        "--iters", 2, "--out", tmp_path / "m.tsv",
    ) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_learn_rejects_non_finite_or_negative_neg_ratio(tmp_path, capsys, value, via):
    # the inputs do not exist: the check comes before any of them is read
    cfg = tmp_path / "learn.cfg"
    cfg.write_text(f"neg_ratio = {value}\n" if via == "config" else "")
    flags = ("--neg-ratio", value) if via == "flag" else ()
    model = tmp_path / "model.tsv"
    code = run(
        "learn", "--schema", tmp_path / "schema.tsv", "--observed", tmp_path / "observed.tsv",
        "--train", tmp_path / "train.tsv", "--clauses", tmp_path / "candidates.tsv",
        "--config", cfg, *flags, "--out", model,
    )
    assert code == 1
    assert single_error(capsys) == "error:ValueError:neg_ratio must be finite and non-negative"
    assert not model.exists()


# -- the option table: every default and type comes from the configs --------


GENERATE = ("generate", "--out", "c.tsv")
LEARN = ("learn", "--clauses", "c.tsv", "--out", "m.tsv")
INFER = ("infer", "--model", "m.tsv", "--out", "p.tsv")

# one value per option other than its default: the command line both ways
# share, the flag and the same value as a config entry
SAMPLES = {
    "threads": (GENERATE, ("--threads", "3"), "threads = 3"),
    "seed": (GENERATE, ("--seed", "7"), "seed = 7"),
    "schema": (GENERATE, ("--schema", "s.tsv"), "schema = s.tsv"),
    "observed": (GENERATE, ("--observed", "o.tsv"), "observed = o.tsv"),
    "train": (GENERATE, ("--train", "t.tsv"), "train = t.tsv"),
    "test": (INFER, ("--test", "t.tsv"), "test = t.tsv"),
    "strict": (INFER, ("--strict",), "strict = true"),
    "max_depth": (GENERATE, ("--max-depth", "2"), "max_depth = 2"),
    "min_coverage": (GENERATE, ("--min-coverage", "3"), "min_coverage = 3"),
    "top_k": (GENERATE, ("--top-k", "7"), "top_k = 7"),
    "threshold": (GENERATE, ("--threshold", "0.25"), "threshold = 0.25"),
    "include_inverses": (GENERATE, ("--no-include-inverses",), "include_inverses = false"),
    "add_negative_priors": (GENERATE, ("--no-add-negative-priors",), "add_negative_priors = no"),
    "traverse_target_edges": (GENERATE, ("--no-traverse-target-edges",), "traverse_target_edges = 0"),
    "method": (LEARN, ("--method", "gls"), "method = gls"),
    "neg_ratio": (LEARN, ("--neg-ratio", "0.5"), "neg_ratio = 0.5"),
    "iters": (LEARN, ("--iters", "3"), "iters = 3"),
    "inner_iters": ((*LEARN, "--method", "gls"), ("--inner-iters", "4"), "inner_iters = 4"),
    "tolerance": (LEARN, ("--tolerance", "0.01"), "tolerance = 0.01"),
    "w_max": (LEARN, ("--w-max", "9"), "w_max = 9"),
    "l2_sigma": (LEARN, ("--l2-sigma", "0"), "l2_sigma = 0"),
    "p": (LEARN, ("--p", "2"), "p = 2"),
}


def resolve(*argv) -> RunConfig:
    return _resolve(_build_parser().parse_args([str(a) for a in argv]))


@pytest.mark.parametrize("command", [GENERATE, INFER, LEARN, (*LEARN, "--method", "gls")])
def test_resolve_without_options_gives_the_config_defaults(command):
    cfg = resolve(*command)
    assert cfg == RunConfig(method=cfg.method)
    assert cfg.generation == GenerationConfig()
    assert cfg.learning == LearnConfig()


# the options that another command reads as well, on that command
MORE_SAMPLES = {
    "learn-threshold": (LEARN, ("--threshold", "0.25"), "threshold = 0.25"),
    "infer-threshold": (INFER, ("--threshold", "0.25"), "threshold = 0.25"),
    "generate-neg_ratio": (GENERATE, ("--neg-ratio", "0.5"), "neg_ratio = 0.5"),
}


def assert_entry_resolves_like_flag(tmp_path, command, flag, entry, read=True):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    by_flag = resolve(*command, *flag)
    # repr tells an int from an equal float
    assert repr(resolve(*command, "--config", cfg)) == repr(by_flag)
    if read:
        assert by_flag != resolve(*command)


@pytest.mark.parametrize("key", sorted(_OPTIONS))
def test_config_entry_resolves_like_its_flag(tmp_path, key):
    assert_entry_resolves_like_flag(tmp_path, *SAMPLES[key], read=key != "threads")  # nothing reads threads


@pytest.mark.parametrize("case", sorted(MORE_SAMPLES))
def test_config_entry_resolves_like_its_flag_on_every_command_that_reads_it(tmp_path, case):
    assert_entry_resolves_like_flag(tmp_path, *MORE_SAMPLES[case])


@pytest.mark.parametrize("method, field", [("ppll", "max_iters"), ("gls", "gls_outer_iters")])
def test_config_iters_sets_the_budget_of_the_method(tmp_path, method, field):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iters = 3\n")
    learning = resolve(*LEARN, "--method", method, "--config", cfg).learning
    assert learning == replace(LearnConfig(), **{field: 3})


@pytest.mark.parametrize("command", ["generate", "learn", "infer", "eval", "synth"])
def test_every_subcommand_prints_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: hlsl {command}")


def test_bench_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--counts", "1", "--out", str(tmp_path / "bench.csv")])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_of_a_process(recovery_dir, tmp_path, capsys):
    # the parser is built once per process; calls through it end, write and
    # report as the same calls each made on a freshly built parser
    import hlsl.cli

    def calls(out, fresh):
        out.mkdir()
        data = ("--schema", recovery_dir / "schema.tsv", "--observed", recovery_dir / "observed.tsv",
                "--train", recovery_dir / "train.tsv")
        argvs = [
            ("generate", *data, "--out", out / "clauses.tsv"),
            ("learn", *data, "--clauses", out / "clauses.tsv", "--out", out / "none.tsv", "--no-such-flag"),
            ("learn", *data, "--clauses", out / "clauses.tsv", "--out", out / "model.tsv", "--trace", out / "trace.tsv"),
            ("infer", *data, "--test", recovery_dir / "test.tsv", "--model", out / "model.tsv",
             "--out", out / "preds.tsv"),
            ("eval", "--predictions", out / "preds.tsv", "--labels", recovery_dir / "test.tsv",
             "--out", out / "metrics.tsv"),
        ]
        codes, errors = [], []
        for argv in argvs:
            if fresh:
                hlsl.cli._build_parser.cache_clear()
            try:
                codes.append(run(*argv))
            except SystemExit as exc:
                codes.append(exc.code)
            errors.append(capsys.readouterr().err.splitlines())
        return codes, errors, {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    shared = calls(tmp_path / "shared", fresh=False)
    assert shared[0] == [0, 2, 0, 0, 0]
    assert shared[1][1][-1] == "hlsl: error: unrecognized arguments: --no-such-flag"
    assert hlsl.cli._build_parser() is hlsl.cli._build_parser()
    assert calls(tmp_path / "fresh", fresh=True) == shared
