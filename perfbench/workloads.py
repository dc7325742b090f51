"""Seeded input generators and the command plan of each workload.

Every workload writes its inputs (schema, evidence, train/test targets and a
clause pool or a fixed model) from `--seed` alone, then runs the same
user-facing commands in the same order: `generate`, `learn --method ppll`,
`learn --method gls`, `infer` once per model and `eval` once per prediction
file. What differs is the data and the size knobs, which decide the layer
that dominates:

  mine-dense    dense evidence graph, depth-2 path mining is most of the run;
  learn-pool    fixed 100-clause pool, grounding/engine/learners do the work;
  map-coupled   fixed model with target-to-target coupling clauses, so MAP
                runs its diagonal line searches;
  sparse-large  many entities, sparse edges, depth-3 mining, two planted
                rules; loading and memory weigh most.

The generators are the benchmark's own (not `hlsl.synth`), so a change to
the package cannot change the inputs it is measured on.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

TARGET = "T"


@dataclass(frozen=True)
class Sizes:
    """Size knobs of one workload; `full` is what the benchmark measures,
    `tiny` what the smoke tests run."""

    entities: int
    preds: int  # evidence predicates R00, R01, ...
    edges: int  # edges per evidence predicate ...
    planted_edges: int  # ... except R00-R02, which carry the planted rules
    train: int  # training target atoms (generate mines from every one)
    test: int  # held-out target atoms
    max_depth: int
    min_coverage: int
    gls_prefix: int  # gls searches the first n pool clauses ...
    gls_rounds: int  # ... for at most this many clause additions
    gls_inner: int = 20
    explained: float = 1 / 3  # share of target pairs drawn from rule-explained ones
    coupling: int = 0  # map-coupled: coupling predicate count
    auc_floor: float | None = None  # every model's held-out AUC must exceed it


SIZES: dict[str, dict[str, Sizes]] = {
    "mine-dense": {
        "full": Sizes(400, 30, 1333, 400, train=160, test=400, max_depth=2, min_coverage=12,
                      gls_prefix=8, gls_rounds=3, explained=0.45, auc_floor=0.8),
        "tiny": Sizes(40, 8, 120, 40, train=20, test=60, max_depth=2, min_coverage=2,
                      gls_prefix=4, gls_rounds=2, gls_inner=10, explained=0.45),
    },
    "learn-pool": {
        "full": Sizes(120, 50, 1200, 240, train=400, test=200, max_depth=1, min_coverage=3,
                      gls_prefix=12, gls_rounds=6, gls_inner=30, auc_floor=0.8),
        "tiny": Sizes(40, 10, 150, 40, train=60, test=40, max_depth=1, min_coverage=2,
                      gls_prefix=4, gls_rounds=2, gls_inner=10, auc_floor=0.6),
    },
    "map-coupled": {
        "full": Sizes(120, 30, 800, 240, train=400, test=1000, max_depth=1, min_coverage=3,
                      gls_prefix=6, gls_rounds=2, coupling=5, auc_floor=0.7),
        "tiny": Sizes(40, 10, 150, 40, train=80, test=80, max_depth=1, min_coverage=2,
                      gls_prefix=4, gls_rounds=2, gls_inner=10, coupling=2, auc_floor=0.55),
    },
    "sparse-large": {
        "full": Sizes(10000, 10, 5000, 2500, train=1000, test=1000, max_depth=3, min_coverage=10,
                      gls_prefix=6, gls_rounds=3, auc_floor=0.85),
        "tiny": Sizes(600, 6, 400, 400, train=150, test=150, max_depth=3, min_coverage=4,
                      gls_prefix=4, gls_rounds=2, gls_inner=10, auc_floor=0.7),
    },
}

# The rules every workload's labels are planted from (see `_planted`).
PLANTED = (
    "R00(V1,V2) & R01(V2,V3) -> T(V1,V3)",
    "R02(V1,V2) -> T(V1,V2)",
)


@dataclass
class Inputs:
    """File paths of one workload's generated inputs."""

    schema: str
    observed: str
    train: str
    test: str
    pool: str | None = None  # fixed clause pool; None means "mine it"
    model: str | None = None  # fixed weighted model (map-coupled)
    test_keys: list[tuple[str, str, str]] = field(default_factory=list)


def _offdiag_pairs(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct (a, b) pairs with a != b, as an int array of shape (k, 2)."""
    flat = rng.choice(n * (n - 1), size=k, replace=False)
    a, r = np.divmod(flat, n - 1)
    b = r + (r >= a)  # skip the diagonal
    return np.stack([a, b], axis=1)


def _rows(pred: str, names: list[str], pairs: np.ndarray, values=None) -> list[str]:
    if values is None:
        return [f"{pred}\t{names[a]}\t{names[b]}" for a, b in pairs]
    return [f"{pred}\t{names[a]}\t{names[b]}\t{v:g}" for (a, b), v in zip(pairs, values)]


def _write(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _planted(rng: np.random.Generator, n: int, edges: list[np.ndarray], k: int, share: float):
    """k distinct target pairs labeled by two planted rules,
    R0(a,b) & R1(b,c) -> T(a,c) and R2(a,c) -> T(a,c), over the first three
    evidence predicates. Pairs either rule explains are positive with
    probability 0.9, other pairs 0.02; `share` of the pairs are drawn from
    the explained ones, the rest uniformly."""
    r0, r1 = edges[0], edges[1]
    r1 = r1[np.argsort(r1[:, 0], kind="stable")]
    lo = np.searchsorted(r1[:, 0], r0[:, 1], "left")
    hi = np.searchsorted(r1[:, 0], r0[:, 1], "right")
    src = np.repeat(r0[:, 0], hi - lo)
    dst = r1[np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)] + [np.zeros(0, int)]), 1]
    chain = np.unique(src * n + dst)
    explained = np.union1d(chain[chain // n != chain % n], edges[2][:, 0] * n + edges[2][:, 1])

    n_pos = min(int(share * k), len(explained))
    pos_keys = rng.choice(explained, size=n_pos, replace=False)
    rand = _offdiag_pairs(rng, n, min(4 * k, n * (n - 1)))
    rand_keys = rand[:, 0] * n + rand[:, 1]
    rand_keys = rand_keys[~np.isin(rand_keys, pos_keys)][: k - n_pos]
    keys = rng.permutation(np.concatenate([pos_keys, rand_keys]))
    labels = (rng.random(len(keys)) < np.where(np.isin(keys, explained), 0.9, 0.02)).astype(float)
    return np.stack([keys // n, keys % n], axis=1), labels


def _graph(rng: np.random.Generator, s: Sizes, prefix: str, width: int):
    """Uniform random evidence and train + test target pairs labeled by the
    planted rules."""
    names = [f"{prefix}{i:0{width}d}" for i in range(s.entities)]
    preds = [f"R{i:02d}" for i in range(s.preds)]
    edges = [_offdiag_pairs(rng, s.entities, s.planted_edges if i < 3 else s.edges) for i in range(s.preds)]
    observed = [row for p, e in zip(preds, edges) for row in _rows(p, names, e)]
    targets, labels = _planted(rng, s.entities, edges, s.train + s.test, s.explained)
    return names, preds, observed, targets, labels


def make_inputs(workload: str, seed: int, out_dir: str, size: str = "full") -> Inputs:
    """Generate and write one workload's inputs under `out_dir`.

    map-coupled ignores `seed`: the cost of coupled MAP jumps with the number
    of diagonal passes an instance happens to need (two to four on these
    instances, 0.9-2.3 s across seeds and 1.1-2.0 s across label draws of one
    graph), which would swamp the change a run is meant to measure. It runs
    one fixed instance instead."""
    s = SIZES[workload][size]
    if workload == "map-coupled":
        seed = 0
    rng = np.random.default_rng([seed, sorted(SIZES).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    inp = Inputs(path("schema.tsv"), path("observed.tsv"), path("train.tsv"), path("test.tsv"))

    prefix, width = ("n", 5) if workload == "sparse-large" else ("e", 3)
    names, preds, observed, targets, labels = _graph(rng, s, prefix, width)
    _write(inp.schema, [f"{p}\tevidence" for p in preds] + [f"{TARGET}\ttarget"])
    _write(inp.observed, observed)
    _write(inp.train, _rows(TARGET, names, targets[: s.train], labels[: s.train]))
    test = targets[s.train:]
    _write(inp.test, _rows(TARGET, names, test, labels[s.train:]))
    inp.test_keys = [(TARGET, names[a], names[b]) for a, b in test]

    if workload in ("learn-pool", "map-coupled"):
        # One-step rules and two-step chains alternate, as in `hlsl synth
        # --fixture scaling`, so every pool prefix grounds a similar amount;
        # the planted rules are the pool's second and fifth clauses.
        singles = [f"{p}(V1,V2) -> T(V1,V2)" for p in preds]
        chains = [f"{p}(V1,V2) & {q}(V2,V3) -> T(V1,V3)" for p, q in zip(preds, preds[1:] + preds[:1])]
        inp.pool = path("pool.tsv")
        _write(inp.pool, [c for pair in zip(singles, chains) for c in pair] + ["-> !T(A,B)"])
    if workload == "map-coupled":
        # MAP runs a fixed model, so learner changes cannot move its cost:
        # the planted rules, a prior, and coupling clauses whose bodies hold
        # a target atom, which tie held-out atoms together through one
        # evidence edge.
        model = ["1.5\t" + PLANTED[0], "1.5\t" + PLANTED[1], "1\t-> !T(A,B)"]
        for p in preds[3: 3 + s.coupling]:
            model.append(f"0.75\tT(V1,V2) & {p}(V2,V3) -> T(V1,V3)")
            model.append(f"0.5\t{p}(V1,V2) & T(V2,V3) -> !T(V1,V3)")
        inp.model = path("model_fixed.tsv")
        _write(inp.model, ["# hlsl-model v1"] + model)
    return inp


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the metric stage it is timed under, its argv, the
    output files whose bytes must repeat across runs of one seed, and an
    untimed `prefix` step (src, dst, n) that writes its clause file first."""

    stage: str
    argv: list[str]
    outputs: tuple[str, ...] = ()
    prefix: tuple[str, str, int] | None = None


def plan(workload: str, inp: Inputs, work: str, size: str = "full") -> list[Command]:
    """The workload's commands in execution order."""
    s = SIZES[workload][size]
    w = lambda name: os.path.join(work, name)  # noqa: E731
    data = ["--schema", inp.schema, "--observed", inp.observed, "--train", inp.train, "--threads", "1"]
    mined = w("clauses.tsv")
    pool = inp.pool or mined
    cmds = [
        Command("generate", ["generate", *data, "--max-depth", str(s.max_depth),
                             "--min-coverage", str(s.min_coverage), "--out", mined], (mined,)),
        Command("learn_ppll", ["learn", *data, "--clauses", pool, "--method", "ppll",
                               "--out", w("model_ppll.tsv"), "--trace", w("trace_ppll.tsv")],
                (w("model_ppll.tsv"),)),
        Command("learn_gls", ["learn", *data, "--clauses", w("pool_gls.tsv"), "--method", "gls",
                              "--iters", str(s.gls_rounds), "--inner-iters", str(s.gls_inner),
                              "--out", w("model_gls.tsv"), "--trace", w("trace_gls.tsv")],
                (w("model_gls.tsv"),), prefix=(pool, w("pool_gls.tsv"), s.gls_prefix)),
    ]
    models = [("ppll", w("model_ppll.tsv")), ("gls", w("model_gls.tsv"))]
    if inp.model:
        models.append(("fixed", inp.model))
    for tag, model in models:
        cmds.append(Command("infer", ["infer", *data, "--test", inp.test, "--model", model,
                                      "--out", w(f"pred_{tag}.tsv")], (w(f"pred_{tag}.tsv"),)))
    for tag, _ in models:
        cmds.append(Command(f"eval_{tag}", ["eval", "--predictions", w(f"pred_{tag}.tsv"),
                                            "--labels", inp.test, "--out", w(f"metrics_{tag}.tsv")]))
    return cmds


def write_prefix(src: str, dst: str, n: int) -> None:
    """Write the first `n` rule clauses of pool file `src`, plus its negative
    priors, to `dst`: the pool gls searches."""
    with open(src, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    rules = [line for line in lines if not line.startswith("->")]
    priors = [line for line in lines if line.startswith("->")]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines(rules[:n] + priors)
