"""Built-in synthetic fixtures.

Three deterministic, seeded datasets back the tests and `hlsl synth`. This
module only generates them and writes them (`write_fixture`); they are read
back as every command reads its inputs, by `data.load_database`:

  example   - the three-atom citation snippet used throughout the docs;
  recovery  - data planted from two known rules plus label noise, bundled
              with ten decoy candidates, for structure-recovery checks;
  scaling   - a larger pool (100 candidates, 600 targets) where many
              clauses carry some signal, for the runtime-vs-clause-count
              study.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .clauses import PathClause, negative_prior, parse_clause, write_clause_file
from .data import PredicateSymbol, serialize_schema


@dataclass
class Fixture:
    name: str
    schema: list[PredicateSymbol]
    observed: list[str]  # TSV rows: pred, arg1, arg2[, value]
    train: list[str]
    test: list[str]
    candidates: list[PathClause]


def _row(pred: str, a: str, b: str, value: float | None = None) -> str:
    if value is None:
        return f"{pred}\t{a}\t{b}"
    return f"{pred}\t{a}\t{b}\t{value:g}"


def example_fixture() -> Fixture:
    """Citation snippet: one paper cites another that mentions a gene."""
    schema = [PredicateSymbol("Cites"), PredicateSymbol("Mentions", is_target=True)]
    observed = [_row("Cites", "Paper1", "Paper2")]
    train = [_row("Mentions", "Paper2", "Gene"), _row("Mentions", "Paper1", "Gene")]
    return Fixture("example", schema, observed, train, [], [])


def recovery_fixture(seed: int = 0) -> Fixture:
    """Two planted rules, label noise, and ten uninformative decoys.

    Rule 1: Link(A,B) & Attr(B,C) -> T(A,C); rule 2: Coassoc(A,C) -> T(A,C).
    Pairs explained by either rule are positive with probability 0.95, all
    others with probability 0.02. Train and test targets are disjoint
    balanced samples of the labeled pairs.
    """
    rng = np.random.default_rng(seed)
    A = [f"a{i:02d}" for i in range(30)]
    B = [f"b{i:02d}" for i in range(20)]
    C = [f"c{i:02d}" for i in range(20)]

    schema = [
        PredicateSymbol("Link"),
        PredicateSymbol("Attr"),
        PredicateSymbol("Coassoc"),
    ]
    for i in range(5):
        schema.append(PredicateSymbol(f"NoiseAC{i}"))
    for i in range(5):
        schema.append(PredicateSymbol(f"NoiseBC{i}"))
    schema.append(PredicateSymbol("T", is_target=True))
    sm = {p.name: p for p in schema}

    observed: list[str] = []
    link: list[tuple[str, str]] = []
    attr: list[tuple[str, str]] = []
    for a in A:
        for b in rng.choice(B, 2, replace=False):
            link.append((a, str(b)))
    for b in B:
        for c in rng.choice(C, 2, replace=False):
            attr.append((b, str(c)))
    observed += [_row("Link", a, b) for a, b in link]
    observed += [_row("Attr", b, c) for b, c in attr]

    attr_by_b: dict[str, list[str]] = {}
    for b, c in attr:
        attr_by_b.setdefault(b, []).append(c)
    reach = {(a, c) for a, b in link for c in attr_by_b.get(b, ())}

    all_pairs = [(a, c) for a in A for c in C]
    coassoc_idx = rng.choice(len(all_pairs), 60, replace=False)
    coassoc = {all_pairs[i] for i in coassoc_idx}
    observed += [_row("Coassoc", a, c) for a, c in sorted(coassoc)]

    for i in range(5):
        idx = rng.choice(len(all_pairs), 60, replace=False)
        observed += [_row(f"NoiseAC{i}", *all_pairs[j]) for j in sorted(idx)]
    bc_pairs = [(b, c) for b in B for c in C]
    for i in range(5):
        idx = rng.choice(len(bc_pairs), 40, replace=False)
        observed += [_row(f"NoiseBC{i}", *bc_pairs[j]) for j in sorted(idx)]

    labels = {}
    for pair in all_pairs:
        signal = pair in reach or pair in coassoc
        labels[pair] = int(rng.random() < (0.95 if signal else 0.02))
    positives = [p for p in all_pairs if labels[p] == 1]
    negatives = [p for p in all_pairs if labels[p] == 0]
    rng.shuffle(positives)
    rng.shuffle(negatives)
    # true links are rare; a 1:2 class ratio keeps the negative prior useful
    negatives = negatives[: 2 * len(positives)]

    def rows(pairs):
        return [_row("T", a, c, float(labels[(a, c)])) for a, c in pairs]

    half_p, half_n = len(positives) // 2, len(negatives) // 2
    train = rows(positives[:half_p]) + rows(negatives[:half_n])
    test = rows(positives[half_p:]) + rows(negatives[half_n:])

    candidates = [
        parse_clause("Link(V1,V2) & Attr(V2,V3) -> T(V1,V3)", sm),
        parse_clause("Coassoc(V1,V2) -> T(V1,V2)", sm),
    ]
    for i in range(5):
        candidates.append(parse_clause(f"NoiseAC{i}(V1,V2) -> T(V1,V2)", sm))
    for i in range(5):
        candidates.append(parse_clause(f"Link(V1,V2) & NoiseBC{i}(V2,V3) -> T(V1,V3)", sm))
    candidates.append(negative_prior("T"))
    return Fixture("recovery", schema, observed, train, test, candidates)


def scaling_fixture(
    seed: int = 0,
    n_entities: int = 120,
    n_preds: int = 50,
    edges_per_pred: int = 1200,
    n_targets: int = 600,
    n_candidates: int = 100,
) -> Fixture:
    """Candidate pool for the runtime study.

    The first twenty predicates carry graded label signal so greedy search
    keeps finding clauses worth adding. One-step rules and two-step chains
    alternate in the candidate list, keeping the grounding size of any
    prefix roughly proportional to its length.
    """
    rng = np.random.default_rng(seed)
    ents = [f"e{i:03d}" for i in range(n_entities)]
    schema = [PredicateSymbol(f"P{i:02d}") for i in range(n_preds)]
    schema.append(PredicateSymbol("T", is_target=True))
    sm = {p.name: p for p in schema}

    edges: list[set[tuple[int, int]]] = []
    observed: list[str] = []
    for i in range(n_preds):
        pick = set()
        while len(pick) < edges_per_pred:
            a, b = rng.integers(0, n_entities, 2)
            if a != b:
                pick.add((int(a), int(b)))
        edges.append(pick)
        observed += [_row(f"P{i:02d}", ents[a], ents[b]) for a, b in sorted(pick)]

    n_signal = min(20, n_preds)
    theta = rng.uniform(0.8, 2.0, n_signal)
    target_pairs = set()
    while len(target_pairs) < n_targets:
        a, b = rng.integers(0, n_entities, 2)
        if a != b:
            target_pairs.add((int(a), int(b)))
    train = []
    for a, b in sorted(target_pairs):
        score = sum(theta[i] for i in range(n_signal) if (a, b) in edges[i])
        p_pos = min(0.95, 0.08 + 0.45 * score)
        train.append(_row("T", ents[a], ents[b], float(rng.random() < p_pos)))

    if n_candidates > n_preds + n_preds * n_preds:
        raise ValueError("candidate pool larger than the clause pattern space")
    singles = [parse_clause(f"P{i:02d}(V1,V2) -> T(V1,V2)", sm) for i in range(n_preds)]
    chains = []
    for k in range(n_candidates - len(singles)):
        lhs = k % n_preds
        rhs = (lhs + 1 + k // n_preds) % n_preds  # spread chain combinations
        chains.append(parse_clause(f"P{lhs:02d}(V1,V2) & P{rhs:02d}(V2,V3) -> T(V1,V3)", sm))
    candidates = []
    for one, two in zip(singles, chains):  # alternate small and large clauses
        candidates.extend((one, two))
    candidates.extend(singles[len(chains):] or chains[len(singles):])
    return Fixture("scaling", schema, observed, train, [], candidates[:n_candidates])


FIXTURES = {
    "example": example_fixture,
    "recovery": recovery_fixture,
    "scaling": scaling_fixture,
}


def write_fixture(fixture: Fixture, out_dir: str) -> dict[str, str]:
    """Write a fixture's files under `out_dir`; returns the path map."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"schema": os.path.join(out_dir, "schema.tsv")}
    with open(paths["schema"], "w", encoding="utf-8") as fh:
        fh.write(serialize_schema(fixture.schema))
    for name, rows in (("observed", fixture.observed), ("train", fixture.train), ("test", fixture.test)):
        if not rows and name == "test":
            continue
        paths[name] = os.path.join(out_dir, f"{name}.tsv")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    if fixture.candidates:
        paths["candidates"] = os.path.join(out_dir, "candidates.tsv")
        with open(paths["candidates"], "w", encoding="utf-8") as fh:
            write_clause_file(fixture.candidates, fh)
    return paths
