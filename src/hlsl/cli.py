"""Command-line interface.

Subcommands cover the full pipeline: `generate` mines candidate clauses,
`learn` fits a model with either learner, `infer` writes MAP predictions,
`eval` scores them with AUC, `bench` records runtime against candidate-pool
size, and `synth` emits the built-in synthetic datasets.

Options resolve as: built-in defaults, then `--config key=value` file
entries, then explicit flags; `learn` rejects an option that only the other
method reads rather than ignore it. Outputs are deterministic for a fixed
seed and configuration. Errors print a single machine-parsable
`error:<Code>:<message>` line and exit nonzero.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .clauses import GenerationConfig, generate_candidates, read_clause_file, write_clause_file
from .data import AtomDatabase, load_database, parse_schema, read_atom_file, round_value
from .data import build_adjacency  # noqa: F401  (a patch point of perfbench/tracer.py)
from .errors import DuplicateAtom, HlslError, MalformedLine, NoCandidates
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

_DEFAULTS: dict[str, object] = {
    "method": "ppll",
    "seed": 0,
    "threads": 1,  # accepted for compatibility; nothing reads it
    "neg_ratio": 0.0,
    "strict": False,
    # generation
    "max_depth": 4,
    "min_coverage": 10,
    "top_k": 50,
    "threshold": 0.5,
    "include_inverses": True,
    "add_negative_priors": True,
    "traverse_target_edges": True,
    # learning
    "step_size": 1.0,
    "tolerance": 1e-4,
    "iters": None,  # method-dependent: 150 for ppll, 15 outer rounds for gls
    "inner_iters": 50,
    "w_max": 100.0,
    "l2_sigma": 100.0,
    "p": 1,
    "init_weight": 0.0,
    "zero_tol": 1e-6,
}

# learner options that only one method reads; `learn` rejects them, from a
# flag or a config entry, when the other method runs
_METHOD_ONLY = {"step_size": "gls", "init_weight": "gls", "inner_iters": "gls", "zero_tol": "ppll"}

_BOOL_KEYS = {"include_inverses", "add_negative_priors", "traverse_target_edges", "strict"}
_INT_KEYS = {"seed", "threads", "max_depth", "min_coverage", "top_k", "iters", "inner_iters", "p"}


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


def _parse_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedLine(line_no, f"expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _DEFAULTS and key not in ("schema", "observed", "train", "test"):
                raise MalformedLine(line_no, f"unknown option {key!r}")
            out[key] = value
    return out


def _coerce(key: str, value: object):
    if value is None or not isinstance(value, str):
        return value
    if key in _BOOL_KEYS:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"bad boolean for {key}: {value!r}")
    if key in _INT_KEYS:
        return int(value)
    if key in ("method", "schema", "observed", "train", "test"):
        return value
    return float(value)


def _resolve(args: argparse.Namespace) -> RunConfig:
    merged: dict[str, object] = dict(_DEFAULTS)
    given: set[str] = set()
    if getattr(args, "config", None):
        entries = _parse_config_file(args.config)
        merged.update(entries)
        given.update(entries)
    for key in list(merged) + ["schema", "observed", "train", "test"]:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
            given.add(key)
    merged = {k: _coerce(k, v) for k, v in merged.items()}

    method = str(merged["method"])
    if method not in ("gls", "ppll"):
        raise ValueError(f"method must be 'gls' or 'ppll', got {method!r}")
    iters = merged["iters"]
    learn_kwargs = dict(
        step_size=merged["step_size"],
        tolerance=merged["tolerance"],
        w_max=merged["w_max"],
        l2_sigma=merged["l2_sigma"],
        p=merged["p"],
        init_weight=merged["init_weight"],
        zero_tol=merged["zero_tol"],
        gls_inner_iters=merged["inner_iters"],
    )
    if method == "gls":
        learn_kwargs["gls_outer_iters"] = 15 if iters is None else int(iters)
    else:
        learn_kwargs["max_iters"] = 150 if iters is None else int(iters)
    learning = LearnConfig(**learn_kwargs)
    if args.command == "learn":
        for key in sorted(given):
            owner = _METHOD_ONLY.get(key, method)
            if owner != method:
                raise ValueError(f"{key} applies to --method {owner} only")
    return RunConfig(
        schema=merged.get("schema"),
        observed=merged.get("observed"),
        train=merged.get("train"),
        test=merged.get("test"),
        method=method,
        seed=int(merged["seed"]),
        neg_ratio=float(merged["neg_ratio"]),
        strict=bool(merged["strict"]),
        generation=GenerationConfig(
            max_depth=int(merged["max_depth"]),
            min_coverage=int(merged["min_coverage"]),
            top_k=int(merged["top_k"]),
            threshold=float(merged["threshold"]),
            include_inverses=bool(merged["include_inverses"]),
            add_negative_priors=bool(merged["add_negative_priors"]),
            traverse_target_edges=bool(merged["traverse_target_edges"]),
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
    # subsample negative training targets to neg_ratio * positives
    with open(cfg.schema, encoding="utf-8") as fh:
        target_names = {p.name for p in parse_schema(fh) if p.is_target}
    pos, neg, other = [], [], []
    for row in read_atom_file(cfg.train):
        _, pred, _, _, value = row
        if pred not in target_names:
            other.append(row)
        elif round_value(value, threshold) == 1:
            pos.append(row)
        else:
            neg.append(row)
    rng = np.random.default_rng(cfg.seed)
    keep_n = min(len(neg), int(round(cfg.neg_ratio * len(pos))))
    kept = [neg[i] for i in sorted(rng.choice(len(neg), keep_n, replace=False))] if keep_n else []
    return load_database(cfg.schema, [cfg.observed], threshold, extra_rows=other + pos + kept)


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
    with open(clauses_path, encoding="utf-8") as fh:
        candidates = read_clause_file(fh, db)
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
            report = score(model, grounding, db.value_vector(), p=cfg.learning.p)
            with open(score_report_path, "w", encoding="utf-8") as fh:
                write_score_tsv(report, grounding, fh)


def cmd_infer(cfg: RunConfig, model_path: str, out_path: str) -> None:
    _require(cfg, "schema", "observed", "test")
    paths = [cfg.observed] + ([cfg.train] if cfg.train else [])
    test_rows = read_atom_file(cfg.test)
    db = load_database(cfg.schema, paths, cfg.generation.threshold, extra_rows=test_rows)
    # the test atoms are the last ones added
    free = list(range(len(db.atoms) - len(test_rows), len(db.atoms)))
    with open(model_path, encoding="utf-8") as fh:
        model = read_model(fh, db)
    grounding = ground_clauses(model.clauses, db, free_atoms=frozenset(free), strict=cfg.strict)
    solution = map_infer(model, db, free_atoms=free, grounding=grounding, p=cfg.learning.p)
    with open(out_path, "w", encoding="utf-8") as fh:
        for i in free:
            a = db.atoms[i]
            fh.write(
                f"{a.predicate.name}\t{db.const_name(a.arg1)}\t{db.const_name(a.arg2)}"
                f"\t{solution.values[i]:.12g}\n"
            )


def cmd_eval(predictions_path: str, labels_path: str, out_path: str, threshold: float = 0.5) -> None:
    started = time.perf_counter()
    scores: dict[tuple[str, str, str], float] = {}
    for line_no, pred, arg1, arg2, score in read_atom_file(predictions_path, default=None):
        if score is None:
            raise MalformedLine(line_no, f"{predictions_path}: expected predicate, arg1, arg2, score")
        if not math.isfinite(score):
            raise MalformedLine(line_no, f"{predictions_path}: non-finite score {score!r}")
        if (pred, arg1, arg2) in scores:
            raise DuplicateAtom(f"{pred}({arg1},{arg2})")
        scores[(pred, arg1, arg2)] = score
    labels: dict[tuple[str, str, str], int] = {}
    for _, pred, arg1, arg2, value in read_atom_file(labels_path):
        if (pred, arg1, arg2) in labels:
            raise DuplicateAtom(f"{pred}({arg1},{arg2})")
        labels[(pred, arg1, arg2)] = round_value(value, threshold)
    result = auc_roc(scores, labels)
    runtime = time.perf_counter() - started
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("auc\tn_pos\tn_neg\truntime_s\n")
        fh.write(f"{result.auc:.12g}\t{result.n_pos}\t{result.n_neg}\t{runtime:.6f}\n")


def cmd_bench(cfg: RunConfig, clauses_path: str, counts: list[int], out_path: str) -> None:
    db = _load_train_db(cfg)
    with open(clauses_path, encoding="utf-8") as fh:
        pool = read_clause_file(fh, db)
    if max(counts) > len(pool):
        raise NoCandidates(f"pool has {len(pool)} clauses, bench asked for {max(counts)}")
    rows = []
    for n in counts:
        for method, learner in (("gls", gls_structure_learn), ("ppll", ppll_structure_learn)):
            learn_cfg = cfg.learning
            started = time.perf_counter()
            learner(pool[:n], db, learn_cfg)
            rows.append((method, n, time.perf_counter() - started))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("method,n,seconds\n")
        for method, n, seconds in rows:
            fh.write(f"{method},{n},{seconds:.6f}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hlsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, data: bool = True) -> None:
        p.add_argument("--config", help="key=value options file; flags override it")
        p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
        p.add_argument("--seed", type=int)
        if data:
            p.add_argument("--schema", help="predicate schema file")
            p.add_argument("--observed", help="evidence atoms TSV")
            p.add_argument("--train", help="training target atoms TSV")

    g = sub.add_parser("generate", help="mine candidate clauses from training data")
    common(g)
    g.add_argument("--out", required=True, help="output clause file")
    g.add_argument("--max-depth", type=int, dest="max_depth")
    g.add_argument("--min-coverage", type=int, dest="min_coverage")
    g.add_argument("--top-k", type=int, dest="top_k")
    g.add_argument("--threshold", type=float)
    g.add_argument("--include-inverses", action=argparse.BooleanOptionalAction, dest="include_inverses")
    g.add_argument("--add-negative-priors", action=argparse.BooleanOptionalAction, dest="add_negative_priors")
    g.add_argument("--traverse-target-edges", action=argparse.BooleanOptionalAction, dest="traverse_target_edges")

    l = sub.add_parser("learn", help="learn clause weights and structure")
    common(l)
    l.add_argument("--clauses", required=True, help="candidate clause file")
    l.add_argument("--out", required=True, help="output model file")
    l.add_argument("--trace", help="per-iteration trace TSV")
    l.add_argument("--score-report", dest="score_report", help="final-model score diagnostic TSV")
    l.add_argument("--dump-groundings", dest="dump_groundings", help="ground-clause debug TSV")
    l.add_argument("--method", choices=("gls", "ppll"))
    l.add_argument("--iters", type=int, help="iteration budget (ppll: root-finding steps, "
                   "default 150; gls: clause additions, default 15)")
    l.add_argument("--inner-iters", type=int, dest="inner_iters", help="gls only: gradient steps per refit")
    l.add_argument("--step-size", type=float, dest="step_size", help="gls only: base gradient step")
    l.add_argument("--tolerance", type=float, help="ppll: bound on each clause's projected "
                   "derivative; gls: relative score gain a round or refit step must make")
    l.add_argument("--w-max", type=float, dest="w_max")
    l.add_argument("--l2-sigma", type=float, dest="l2_sigma")
    l.add_argument("--p", type=int, choices=(1, 2))
    l.add_argument("--init-weight", type=float, dest="init_weight",
                   help="gls only: weight a new clause starts at")
    l.add_argument("--zero-tol", type=float, dest="zero_tol",
                   help="ppll only: clauses at or below this weight are dropped")
    l.add_argument("--neg-ratio", type=float, dest="neg_ratio",
                   help="subsample negative train targets to this ratio of positives (0 = keep all)")

    i = sub.add_parser("infer", help="MAP-predict test target atoms")
    common(i)
    i.add_argument("--test", help="test target atoms TSV (values ignored)")
    i.add_argument("--model", required=True, help="model file")
    i.add_argument("--out", required=True, help="predictions TSV")
    i.add_argument("--p", type=int, choices=(1, 2))
    i.add_argument("--strict", action=argparse.BooleanOptionalAction,
                   help="exclude observed target atoms from clause bodies")

    e = sub.add_parser("eval", help="AUC of predictions against labels")
    e.add_argument("--predictions", required=True)
    e.add_argument("--labels", required=True, help="labeled atoms TSV")
    e.add_argument("--out", required=True, help="metrics TSV")

    b = sub.add_parser("bench", help="runtime of both learners vs candidate count")
    common(b)
    b.add_argument("--clauses", required=True, help="candidate pool clause file")
    b.add_argument("--counts", required=True, help="comma-separated clause counts")
    b.add_argument("--out", required=True, help="runtime CSV")
    b.add_argument("--iters", type=int)
    b.add_argument("--inner-iters", type=int, dest="inner_iters")
    b.add_argument("--neg-ratio", type=float, dest="neg_ratio")

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
        elif args.command == "bench":
            counts = [int(part) for part in args.counts.split(",") if part.strip()]
            cmd_bench(cfg, args.clauses, counts, args.out)
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
