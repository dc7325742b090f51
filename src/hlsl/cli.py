"""Command-line interface.

Subcommands cover the full pipeline: `generate` mines candidate clauses,
`learn` fits a model with either learner, `infer` writes MAP predictions,
`eval` scores them with AUC, and `synth` emits the built-in synthetic
datasets.

Options resolve as: the defaults of the config dataclasses (`RunConfig`,
`GenerationConfig`, `LearnConfig`), then `--config key=value` file entries,
then explicit flags; `learn` rejects an option that only the other
method reads rather than ignore it. Outputs are deterministic for a fixed
seed and configuration. Errors print a single machine-parsable
`error:<Code>:<message>` line and exit nonzero.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .clauses import GenerationConfig, generate_candidates, read_clause_file, write_clause_file
from .data import AtomColumns, AtomDatabase, load_database, read_atom_columns, read_text
from .data import round_value, rounds_to_one
from .data import build_adjacency  # noqa: F401  (a patch point of perfbench/tracer.py)
from .errors import DuplicateAtom, HlslError, MalformedLine, MissingPrediction, NoCandidates, NotATarget
from .grounding import ground_clauses
from .inference import auc_roc, map_infer
from .learning import (
    LearnConfig,
    gls_structure_learn,
    ppll_structure_learn,
    read_model,
    write_model,
    write_trace,
)
from .synth import FIXTURES, write_fixture


@dataclass
class RunConfig:
    """Resolved options for one command invocation."""

    schema: str | None = None
    observed: str | None = None
    train: str | None = None
    test: str | None = None
    method: str = "ppll"
    seed: int = 0
    neg_ratio: float = 0.0
    strict: bool = False
    generation: GenerationConfig = GenerationConfig()
    learning: LearnConfig = LearnConfig()

    def __post_init__(self):
        if not 0.0 <= self.neg_ratio < math.inf:
            raise ValueError("neg_ratio must be finite and non-negative")


# the learner's iteration budgets go by their option names: `iters` is the
# ppll Newton step cap or the gls clause additions, `inner_iters` the gls
# Newton step cap per refit
_ITERS = {"max_iters": "iters", "gls_outer_iters": "iters", "gls_inner_iters": "inner_iters"}

_RUN_KEYS = {f.name for f in fields(RunConfig)} - {"generation", "learning"}
_GENERATION_KEYS = {f.name for f in fields(GenerationConfig)}
_LEARN_KEYS = {_ITERS.get(f.name, f.name) for f in fields(LearnConfig)}

# every option a flag or config entry may set, with a default of its type;
# `threads` is accepted for compatibility and nothing reads it
_OPTIONS: dict[str, object] = {
    "threads": 1,
    **{f.name: f.default for f in fields(RunConfig) if f.name in _RUN_KEYS},
    **{f.name: f.default for f in fields(GenerationConfig)},
    **{_ITERS.get(f.name, f.name): f.default for f in fields(LearnConfig)},
}

# learner options that only one method reads; `learn` rejects them, from a
# flag or a config entry, when the other method runs
_METHOD_ONLY = {"inner_iters": "gls"}


def _learn_field(key: str, method: str) -> str:
    """The `LearnConfig` field an option sets under `method`."""
    if key == "iters":
        return "max_iters" if method == "ppll" else "gls_outer_iters"
    return "gls_inner_iters" if key == "inner_iters" else key


def _parse_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for line_no, raw in enumerate(read_text(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedLine(line_no, f"expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise MalformedLine(line_no, f"unknown option {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value: object):
    """A config-file string as the type of the option's default."""
    kind = type(_OPTIONS[key])
    if not isinstance(value, str) or kind not in (bool, int, float):
        return value
    if kind is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"bad boolean for {key}: {value!r}")
    return kind(value)


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Options given by config entries, then by flags, over the configs' own
    defaults."""
    given: dict[str, object] = {}
    if getattr(args, "config", None):
        given.update(_parse_config_file(args.config))
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    given = {key: _coerce(key, value) for key, value in given.items()}

    method = given.get("method", RunConfig.method)
    if method not in ("gls", "ppll"):
        raise ValueError(f"method must be 'gls' or 'ppll', got {method!r}")
    learning = LearnConfig(
        **{_learn_field(key, method): value for key, value in given.items() if key in _LEARN_KEYS}
    )
    if args.command == "learn":
        for key in sorted(given):
            owner = _METHOD_ONLY.get(key, method)
            if owner != method:
                raise ValueError(f"{key} applies to --method {owner} only")
    return RunConfig(
        **{key: value for key, value in given.items() if key in _RUN_KEYS},
        generation=GenerationConfig(
            **{key: value for key, value in given.items() if key in _GENERATION_KEYS}
        ),
        learning=learning,
    )


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"missing required option --{name}")


def _load_train_db(cfg: RunConfig) -> AtomDatabase:
    _require(cfg, "schema", "observed", "train")
    threshold = cfg.generation.threshold
    if cfg.neg_ratio <= 0.0:
        return load_database(cfg.schema, [cfg.observed, cfg.train], threshold)

    def kept_train(db: AtomDatabase) -> AtomColumns:
        # subsample negative training targets to neg_ratio * positives, once
        # every row has passed the checks of a full load, in file order
        train = read_atom_columns(cfg.train)
        checked = db.copy()
        checked.add_columns(train)
        target = checked.target_mask()[len(db.values):]
        positive = rounds_to_one(train.values, threshold)
        neg = np.flatnonzero(target & ~positive)
        wanted = cfg.neg_ratio * int(np.count_nonzero(target & positive))  # inf for a huge ratio
        keep_n = len(neg) if wanted >= len(neg) else int(round(wanted))
        kept = neg[np.sort(np.random.default_rng(cfg.seed).choice(len(neg), keep_n, replace=False))]
        return train.take(np.concatenate([np.flatnonzero(~target), np.flatnonzero(target & positive), kept]))

    return load_database(cfg.schema, [cfg.observed], threshold, extra_rows=kept_train)


def cmd_generate(cfg: RunConfig, out_path: str) -> None:
    db = _load_train_db(cfg)
    candidates = generate_candidates(db, cfg.generation)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_clause_file(candidates, fh)


def cmd_learn(
    cfg: RunConfig,
    clauses_path: str,
    out_path: str,
    trace_path: str | None,
    score_report_path: str | None = None,
    groundings_path: str | None = None,
) -> None:
    db = _load_train_db(cfg)
    candidates = read_clause_file(read_text(clauses_path), db)
    if not candidates:
        raise NoCandidates(f"no clauses in {clauses_path}")
    trace: list = []
    if cfg.method == "ppll":
        model = ppll_structure_learn(candidates, db, cfg.learning, trace)
    else:
        model = gls_structure_learn(candidates, db, cfg.learning, trace)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_model(model, fh)
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            write_trace(trace, fh)
    if score_report_path or groundings_path:
        from .grounding import dump_grounding_tsv
        from .scoring import log_pll, log_ppll, write_score_tsv

        grounding = ground_clauses(model.clauses, db)
        if groundings_path:
            with open(groundings_path, "w", encoding="utf-8") as fh:
                dump_grounding_tsv(grounding, fh)
        if score_report_path:
            score = log_ppll if cfg.method == "ppll" else log_pll
            report = score(model, grounding, db.value_vector())
            with open(score_report_path, "w", encoding="utf-8") as fh:
                write_score_tsv(report, grounding, fh)


def cmd_infer(cfg: RunConfig, model_path: str, out_path: str) -> None:
    _require(cfg, "schema", "observed", "test")
    paths = [cfg.observed] + ([cfg.train] if cfg.train else [])
    test: list[AtomColumns] = []

    def read_test(_: AtomDatabase) -> AtomColumns:
        # read in command order, after the schema and the other atom files,
        # so that a fault of theirs wins over any of this file
        test.append(read_atom_columns(cfg.test))
        return test[0]

    db = load_database(cfg.schema, paths, cfg.generation.threshold, extra_rows=read_test)
    # the test atoms are the last ones added
    free = np.arange(len(db.atoms) - len(test[0]), len(db.atoms))
    stray = free[~db.target_mask()[free]]
    if len(stray):
        raise NotATarget(f"{cfg.test}: atoms not of a target predicate: {len(stray)}, "
                         f"the first {db.atom_str(stray[0])}")
    model = read_model(read_text(model_path), db)
    grounding = ground_clauses(model.clauses, db, free_atoms=free, strict=cfg.strict)
    solution = map_infer(model, db, free_atoms=free, grounding=grounding)
    names, score = db.pred_names, solution.values
    # only the constants of the rows written are decoded
    rows = zip(db.pred[free].tolist(), db.constants.decode(db.arg1[free]), db.constants.decode(db.arg2[free]),
               free.tolist())
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{names[p]}\t{a}\t{b}\t{score[i]:.12g}\n" for p, a, b, i in rows)


def cmd_eval(predictions_path: str, labels_path: str, out_path: str) -> None:
    scores: dict[tuple[str, str, str], float] = {}
    for line_no, pred, arg1, arg2, score in read_atom_columns(predictions_path, default=None).rows():
        if not math.isfinite(score):
            raise MalformedLine(line_no, f"{predictions_path}: non-finite score {score!r}")
        if (pred, arg1, arg2) in scores:
            raise DuplicateAtom(f"{pred}({arg1},{arg2})")
        scores[(pred, arg1, arg2)] = score
    labels: dict[tuple[str, str, str], int] = {}
    for _, pred, arg1, arg2, value in read_atom_columns(labels_path).rows():
        if (pred, arg1, arg2) in labels:
            raise DuplicateAtom(f"{pred}({arg1},{arg2})")
        labels[(pred, arg1, arg2)] = round_value(value)
    missing = [f"{pred}({arg1},{arg2})" for pred, arg1, arg2 in labels if (pred, arg1, arg2) not in scores]
    if missing:
        raise MissingPrediction(f"{predictions_path}: labelled atoms without a prediction: {len(missing)}, "
                                f"the first {missing[0]}")
    result = auc_roc(scores, labels)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("auc\tn_pos\tn_neg\n")
        fh.write(f"{result.auc:.12g}\t{result.n_pos}\t{result.n_neg}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` keeps
    no state between calls."""
    parser = argparse.ArgumentParser(prog="hlsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    neg_ratio = "subsample negative train targets to this ratio of positives (0 = keep all)"

    def option(p: argparse.ArgumentParser, key: str, **kwargs) -> None:
        """The flag of option `key`, typed like its default."""
        kind = type(_OPTIONS[key])
        if kind is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif kind in (int, float):
            kwargs["type"] = kind
        p.add_argument("--" + key.replace("_", "-"), **kwargs)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value options file; flags override it")
        option(p, "threads", help="accepted for compatibility; has no effect")
        option(p, "seed")
        option(p, "schema", help="predicate schema file")
        option(p, "observed", help="evidence atoms TSV")
        option(p, "train", help="training target atoms TSV")

    g = sub.add_parser("generate", help="mine candidate clauses from training data")
    common(g)
    g.add_argument("--out", required=True, help="output clause file")
    for f in fields(GenerationConfig):
        option(g, f.name)
    option(g, "neg_ratio", help=neg_ratio)

    l = sub.add_parser("learn", help="learn clause weights and structure")
    common(l)
    l.add_argument("--clauses", required=True, help="candidate clause file")
    l.add_argument("--out", required=True, help="output model file")
    l.add_argument("--trace", help="per-iteration trace TSV")
    l.add_argument("--score-report", help="final-model score diagnostic TSV")
    l.add_argument("--dump-groundings", help="ground-clause debug TSV")
    option(l, "method", choices=("gls", "ppll"))
    option(l, "iters", help="iteration budget (ppll: Newton steps, default "
           f"{LearnConfig.max_iters}; gls: clause additions, default {LearnConfig.gls_outer_iters})")
    option(l, "inner_iters", help="gls only: Newton steps per refit, default "
           f"{LearnConfig.gls_inner_iters}")
    option(l, "tolerance", help="bound on each clause's projected gradient that ends a weight "
           "fit; gls also stops once a round gains less than this share of the score")
    option(l, "w_max")
    option(l, "l2_sigma")
    option(l, "p", choices=(1, 2))
    option(l, "neg_ratio", help=neg_ratio)
    option(l, "threshold")

    i = sub.add_parser("infer", help="MAP-predict test target atoms")
    common(i)
    option(i, "test", help="test target atoms TSV (values ignored)")
    i.add_argument("--model", required=True, help="model file")
    i.add_argument("--out", required=True, help="predictions TSV")
    option(i, "strict", help="exclude observed target atoms from clause bodies")
    option(i, "threshold")

    e = sub.add_parser("eval", help="AUC of predictions against labels")
    e.add_argument("--predictions", required=True)
    e.add_argument("--labels", required=True, help="labeled atoms TSV")
    e.add_argument("--out", required=True, help="metrics TSV")

    s = sub.add_parser("synth", help="write a built-in synthetic dataset")
    s.add_argument("--fixture", required=True, choices=sorted(FIXTURES))
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            fixture = FIXTURES[args.fixture]
            fx = fixture(args.seed) if args.fixture != "example" else fixture()
            write_fixture(fx, args.out)
            return 0
        if args.command == "eval":
            cmd_eval(args.predictions, args.labels, args.out)
            return 0
        cfg = _resolve(args)
        if args.command == "generate":
            cmd_generate(cfg, args.out)
        elif args.command == "learn":
            cmd_learn(cfg, args.clauses, args.out, args.trace, args.score_report, args.dump_groundings)
        elif args.command == "infer":
            cmd_infer(cfg, args.model, args.out)
        return 0
    except HlslError as exc:
        message = str(exc).replace("\n", " ")
        print(f"error:{exc.code}:{message}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error:{type(exc).__name__}:{message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
