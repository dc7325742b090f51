"""Clause generation: path enumeration, variablization, candidate pipeline."""
import io
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_simple_paths, find_atom, ground_terms, random_chain_db

import hlsl.clauses
from hlsl.clauses import (
    GenerationConfig,
    PathClause,
    RowKeys,
    StepGraph,
    bfs_paths,
    format_clause,
    generate_candidates,
    negative_prior,
    parse_clause,
    read_clause_file,
    unique_rows,
    variablize,
    write_clause_file,
)
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency
from hlsl.errors import MalformedLine, NoCandidates, UnknownPredicate
from hlsl.grounding import ground_clauses


def target_atom(db, name, a, b):
    return find_atom(db, name, db._const_ids[a], db._const_ids[b])


def test_bfs_example_path(citation_db):
    atom = target_atom(citation_db, "Mentions", "Paper1", "Gene")
    paths = bfs_paths(citation_db, atom, 2, include_inverses=False)
    db = citation_db
    p1, p2, g = (db._const_ids[c] for c in ("Paper1", "Paper2", "Gene"))
    assert paths == {(("Cites", False, p1, p2), ("Mentions", False, p2, g))}


def test_bfs_excludes_self_step(citation_db):
    atom = target_atom(citation_db, "Mentions", "Paper2", "Gene")
    assert bfs_paths(citation_db, atom, 2, include_inverses=False) == set()


def test_bfs_unreachable_endpoint():
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b")
    db.add_atom("T", "a", "z")
    build_adjacency(db)
    atom = target_atom(db, "T", "a", "z")
    assert bfs_paths(db, atom, 3) == set()


def test_bfs_depth_gate_on_chain():
    # chain a->b->c->d with target t(a,d): no path at depth 2, one at depth 3
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b")
    db.add_atom("P", "b", "c")
    db.add_atom("P", "c", "d")
    db.add_atom("T", "a", "d")
    build_adjacency(db)
    atom = target_atom(db, "T", "a", "d")
    assert bfs_paths(db, atom, 2) == set()
    assert len(bfs_paths(db, atom, 3)) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("include_inverses", [False, True])
def test_bfs_matches_brute_force(seed, include_inverses):
    from conftest import drop_target_self_step

    db = random_chain_db(seed)
    for atom in db.targets[:6]:
        got = bfs_paths(db, atom, 3, include_inverses=include_inverses)
        want = drop_target_self_step(
            brute_force_simple_paths(db, db.arg1[atom], db.arg2[atom], 3, include_inverses=include_inverses),
            db,
            atom,
        )
        assert got == want


def test_bfs_symmetric_atom_is_not_the_self_step():
    # t(b, a) walked backwards is a legitimate one-step path for target
    # t(a, b); only the target atom's own forward step is excluded
    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "a", "b")
    db.add_atom("T", "b", "a")
    build_adjacency(db)
    paths = bfs_paths(db, 0, 1, include_inverses=True)
    assert paths == {(("T", True, db.arg1[0], db.arg2[0]),)}
    clause = variablize(next(iter(paths)), "T")
    assert format_clause(clause) == "T(V2,V1) -> T(V1,V2)"


def test_variablize_example(citation_db):
    atom = target_atom(citation_db, "Mentions", "Paper1", "Gene")
    (path,) = bfs_paths(citation_db, atom, 2, include_inverses=False)
    clause = variablize(path, "Mentions")
    assert format_clause(clause) == "Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)"
    negated = variablize(path, "Mentions", negate_head=True)
    assert format_clause(negated) == "Cites(V1,V2) & Mentions(V2,V3) -> !Mentions(V1,V3)"


def test_variablize_single_step():
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b")
    db.add_atom("T", "a", "b")
    build_adjacency(db)
    atom = target_atom(db, "T", "a", "b")
    (path,) = bfs_paths(db, atom, 1)
    clause = variablize(path, "T")
    assert format_clause(clause) == "P(V1,V2) -> T(V1,V2)"


def test_variablize_inverted_step_regrounds():
    # q(c, b) walked backwards from b must emit q(V3,V2) and re-ground to
    # exactly the originating path's atoms
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b")
    db.add_atom("Q", "c", "b")
    db.add_atom("T", "a", "c")
    build_adjacency(db)
    atom = target_atom(db, "T", "a", "c")
    paths = bfs_paths(db, atom, 2, include_inverses=True)
    assert len(paths) == 1
    clause = variablize(next(iter(paths)), "T")
    assert format_clause(clause) == "P(V1,V2) & Q(V3,V2) -> T(V1,V3)"
    assert clause.steps[1] == ("Q", True)
    (terms,) = ground_terms(ground_clauses([clause], db))
    atoms_used = {a for a, _ in terms}
    assert atoms_used == {0, 1, 2}


def test_generate_candidates_example(citation_db):
    cfg = GenerationConfig(max_depth=2, min_coverage=1, include_inverses=False)
    out = [format_clause(c) for c in generate_candidates(citation_db, cfg)]
    assert out == [
        "Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)",
        "Cites(V1,V2) & Mentions(V2,V3) -> !Mentions(V1,V3)",
        "-> !Mentions(A,B)",
    ]


def test_generate_min_coverage_filters_everything(citation_db):
    cfg = GenerationConfig(max_depth=2, min_coverage=99, include_inverses=False)
    out = generate_candidates(citation_db, cfg)
    assert [format_clause(c) for c in out] == ["-> !Mentions(A,B)"]
    with pytest.raises(NoCandidates):
        generate_candidates(
            citation_db,
            GenerationConfig(max_depth=2, min_coverage=99, include_inverses=False, add_negative_priors=False),
        )


def test_generate_top_k_by_coverage():
    # clause via P covers 5 targets, clause via Q covers 3; top_k=2 keeps
    # only the P pair (positive twin then negation), then the prior
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("T", is_target=True)])
    for i in range(5):
        db.add_atom("P", f"a{i}", f"b{i}")
        db.add_atom("T", f"a{i}", f"b{i}")
    for i in range(3):
        db.add_atom("Q", f"a{i}", f"b{i}")
    build_adjacency(db)
    cfg = GenerationConfig(max_depth=1, min_coverage=1, top_k=2, include_inverses=False)
    out = generate_candidates(db, cfg)
    assert [format_clause(c) for c in out] == [
        "P(V1,V2) -> T(V1,V2)",
        "P(V1,V2) -> !T(V1,V2)",
        "-> !T(A,B)",
    ]
    assert [c.coverage for c in out] == [5, 5, 5]


def test_generated_coverage_is_verified_by_regrounding():
    db = random_chain_db(5)
    cfg = GenerationConfig(max_depth=2, min_coverage=2, top_k=50)
    for clause in generate_candidates(db, cfg):
        if clause.is_prior:
            continue
        heads = {terms[-1][0] for terms in ground_terms(ground_clauses([clause], db))}
        assert len(heads) >= cfg.min_coverage


def test_generation_deterministic():
    a = generate_candidates(random_chain_db(4), GenerationConfig(max_depth=3, min_coverage=1))
    b = generate_candidates(random_chain_db(4), GenerationConfig(max_depth=3, min_coverage=1))
    assert [format_clause(c) for c in a] == [format_clause(c) for c in b]
    assert [c.coverage for c in a] == [c.coverage for c in b]


def test_twins_generated_before_filtering():
    db = random_chain_db(6)
    out = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1, top_k=1000))
    bodies = {}
    for c in out:
        if not c.is_prior:
            bodies.setdefault((c.steps, c.head), set()).add(c.negated)
    assert all(negs == {True, False} for negs in bodies.values())


def test_body_never_exceeds_max_depth():
    db = random_chain_db(7)
    for depth in (1, 2, 3):
        for c in generate_candidates(db, GenerationConfig(max_depth=depth, min_coverage=1)):
            assert len(c.steps) <= depth


def test_no_target_edge_traversal_flag(citation_db):
    cfg = GenerationConfig(max_depth=2, min_coverage=1, include_inverses=False, traverse_target_edges=False)
    out = generate_candidates(citation_db, cfg)
    # the example clause needs a Mentions body atom, so only the prior remains
    assert [format_clause(c) for c in out] == ["-> !Mentions(A,B)"]


# -- clause grammar ---------------------------------------------------------


def test_format_parse_round_trip(citation_db):
    texts = [
        "Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)",
        "Cites(V1,V2) & Mentions(V2,V3) -> !Mentions(V1,V3)",
        "Cites(V2,V1) & Mentions(V2,V3) -> Mentions(V1,V3)",  # inverted first step
        "-> !Mentions(A,B)",
    ]
    for text in texts:
        clause = parse_clause(text, citation_db)
        assert format_clause(clause) == text


def test_parse_clause_infers_inversion(citation_db):
    clause = parse_clause("Cites(V2,V1) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    assert [inverted for _, inverted in clause.steps] == [True, False]


def test_parse_clause_errors(citation_db):
    with pytest.raises(MalformedLine):
        parse_clause("Cites(V1,V2) Mentions(V2,V3)", citation_db)
    with pytest.raises(UnknownPredicate):
        parse_clause("Nope(V1,V2) -> Mentions(V1,V2)", citation_db)
    with pytest.raises(MalformedLine):
        parse_clause("Cites(V1,V2) -> Cites(V1,V2)", citation_db)  # head not a target
    with pytest.raises(MalformedLine):
        parse_clause("Cites(V1,V2) & Cites(V5,V6) -> Mentions(V1,V3)", citation_db)  # broken chain
    with pytest.raises(MalformedLine):
        parse_clause("Cites(V1,V2) -> Mentions(V1,V9)", citation_db)  # head spans nothing


def test_clause_file_round_trip(citation_db, tmp_path):
    cfg = GenerationConfig(max_depth=2, min_coverage=1, include_inverses=False)
    out = generate_candidates(citation_db, cfg)
    buf = io.StringIO()
    write_clause_file(out, buf)
    again = read_clause_file(io.StringIO(buf.getvalue()), citation_db)
    assert [format_clause(c) for c in again] == [format_clause(c) for c in out]
    assert [c.coverage for c in again] == [c.coverage for c in out]


def test_prior_shape():
    prior = negative_prior("T")
    assert prior.is_prior and prior.negated
    assert format_clause(prior) == "-> !T(A,B)"


# -- the chain-join kernel against the depth-first oracle ---------------------


def reference_coverage(db, cfg):
    """(head, steps) -> distinct target atoms, from `bfs_paths` one target at
    a time."""
    covered = {}
    for i in db.targets:
        head = db.pred_names[db.pred[i]]
        paths = bfs_paths(db, i, cfg.max_depth, cfg.include_inverses, cfg.traverse_target_edges)
        for path in paths:
            steps = tuple((pred, inverted) for pred, inverted, _, _ in path)
            covered.setdefault((head, steps), set()).add(i)
    return {key: len(atoms) for key, atoms in covered.items()}


def mined_coverage(db, cfg):
    """(head, steps) -> distinct target atoms, as mining counts them: the
    positive non-prior clauses of `generate_candidates` with no coverage
    floor and a cut above twice the bodies."""
    every = generate_candidates(db, replace(cfg, min_coverage=1, top_k=sys.maxsize))
    return {(c.head, c.steps): c.coverage for c in every if not (c.is_prior or c.negated)}


def reference_candidates(db, cfg):
    """`generate_candidates` rebuilt from `variablize(bfs_paths(...))` with
    the same coverage filter, twins, ranking, cut and priors."""
    unique, covered = {}, {}
    for i in db.targets:
        head = db.pred_names[db.pred[i]]
        for path in bfs_paths(db, i, cfg.max_depth, cfg.include_inverses, cfg.traverse_target_edges):
            clause = variablize(path, head)
            key = (clause.steps, head)
            unique.setdefault(key, clause)
            covered.setdefault(key, set()).add(i)
    out = []
    for key, clause in unique.items():
        cov = len(covered[key])
        if cov >= cfg.min_coverage:
            out.append(PathClause(clause.head, clause.steps, coverage=cov))
            out.append(PathClause(clause.head, clause.steps, negated=True, coverage=cov))

    def sort_key(c):
        positive = PathClause(c.head, c.steps)
        return (-c.coverage, format_clause(positive), c.negated)

    out = sorted(out, key=sort_key)[: cfg.top_k]
    if cfg.add_negative_priors:
        for pred in db.target_predicates():
            n = sum(1 for i in db.targets if db.pred_names[db.pred[i]] == pred.name)
            out.append(PathClause(pred.name, negated=True, coverage=n))
    return out


def clause_lines(clauses):
    buf = io.StringIO()
    write_clause_file(clauses, buf)
    return buf.getvalue().splitlines()


NODES = [f"n{i}" for i in range(6)]
SCHEMA_PREDS = ["P", "Q", "T", "U"]  # T and U are targets


@st.composite
def small_graphs(draw):
    """Up to six constants, two evidence and two target predicates, values
    on both sides of and exactly at the 0.5 threshold, self-pairs t(a, a),
    and parallel atoms of different predicates over one pair."""
    n = draw(st.integers(2, 6))
    node = st.sampled_from(NODES[:n])
    keys = draw(st.sets(st.tuples(st.sampled_from(SCHEMA_PREDS), node, node), min_size=1, max_size=24))
    if draw(st.booleans()):  # force parallel atoms over one pair
        pred_a, pred_b, a, b = draw(st.sampled_from(SCHEMA_PREDS)), "P", draw(node), draw(node)
        keys |= {(pred_a, a, b), (pred_b, a, b)}
    db = AtomDatabase([
        PredicateSymbol("P"), PredicateSymbol("Q"),
        PredicateSymbol("T", is_target=True), PredicateSymbol("U", is_target=True),
    ])
    for pred, a, b in sorted(keys):
        db.add_atom(pred, a, b, draw(st.sampled_from([0.0, 0.3, 0.5, 0.5, 0.8, 1.0])))
    return build_adjacency(db)


@settings(max_examples=150, deadline=None)
@given(
    small_graphs(),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.integers(1, 3),
    st.integers(1, 12),
)
def test_generate_matches_dfs_oracle(db, depth, inverses, target_edges, min_coverage, top_k):
    cfg = GenerationConfig(
        max_depth=depth, min_coverage=min_coverage, top_k=top_k,
        include_inverses=inverses, traverse_target_edges=target_edges,
    )
    coverage, lines = reference_coverage(db, cfg), clause_lines(reference_candidates(db, cfg))
    for budget, packed in [(None, True), (2, True), (None, False), (2, False)]:
        with pytest.MonkeyPatch.context() as mp:
            if budget:
                mp.setattr(hlsl.clauses, "ROW_BUDGET", budget)
            if not packed:  # every key stays a row, sorted by lexsort
                mp.setattr(hlsl.clauses, "KEY_SPAN", 0)
                assert not RowKeys([0], [2]).packed
            assert mined_coverage(db, cfg) == coverage
            assert clause_lines(generate_candidates(db, cfg)) == lines


def test_target_atom_own_step_is_dropped_but_parallel_atoms_count():
    # T(a,b) itself is no path for T(a,b), but U(a,b) and P(a,b) over the same
    # pair are one-step paths, and T(a,b) is one for U(a,b)
    db = AtomDatabase([
        PredicateSymbol("P"), PredicateSymbol("T", is_target=True), PredicateSymbol("U", is_target=True),
    ])
    db.add_atom("T", "a", "b")
    db.add_atom("U", "a", "b", 0.5)  # exactly at the threshold: an edge
    db.add_atom("P", "a", "b")
    db.add_atom("T", "a", "a")  # a self-pair connects nothing
    build_adjacency(db)
    cfg = GenerationConfig(max_depth=1, min_coverage=1, include_inverses=False)
    assert mined_coverage(db, cfg) == {
        ("T", (("P", False),)): 1,
        ("T", (("U", False),)): 1,
        ("U", (("P", False),)): 1,
        ("U", (("T", False),)): 1,
    }
    assert mined_coverage(db, cfg) == reference_coverage(db, cfg)


def test_coverage_ties_across_the_cut_rank_as_the_oracle(monkeypatch):
    # T and Z over the same six pairs; evidence bodies cover 3, 3, 3, 2, 2
    # and 1 of them, forward, inverted and two steps long; T is a one-step
    # path for all six Z atoms, and Z (an edge on three pairs) for three T
    db = AtomDatabase([PredicateSymbol(p) for p in "PQRSUWV"] + [
        PredicateSymbol("T", is_target=True), PredicateSymbol("Z", is_target=True),
    ])
    for i in range(6):
        db.add_atom("T", f"a{i}", f"b{i}")
        db.add_atom("Z", f"a{i}", f"b{i}", float(i < 3))
    for i in range(3):
        db.add_atom("P", f"a{i}", f"b{i}")
        db.add_atom("Q", f"b{i}", f"a{i}")
        db.add_atom("R", f"a{i}", f"c{i}")
        db.add_atom("S", f"c{i}", f"b{i}")
    for i in range(2):
        db.add_atom("U", f"a{i}", f"b{i}")
        db.add_atom("W", f"b{i}", f"a{i}")
    db.add_atom("V", "a0", "b0")
    build_adjacency(db)
    decoded = []
    chain_bodies = hlsl.clauses._chain_bodies

    def recording(db, body_keys, keys):
        decoded.append(len(keys))
        return chain_bodies(db, body_keys, keys)

    monkeypatch.setattr(hlsl.clauses, "_chain_bodies", recording)
    ranked = sorted(reference_coverage(db, GenerationConfig(max_depth=2)).values(), reverse=True)
    assert ranked == [6] + [3] * 7 + [2] * 4 + [1] * 2
    for packed in (True, False):
        if not packed:
            monkeypatch.setattr(hlsl.clauses, "KEY_SPAN", 0)
        for min_coverage in (1, 2, 3, 4):
            for top_k in range(1, 2 * len(ranked) + 3):
                cfg = GenerationConfig(max_depth=2, min_coverage=min_coverage, top_k=top_k)
                decoded.clear()
                got = clause_lines(generate_candidates(db, cfg))
                assert got == clause_lines(reference_candidates(db, cfg)), (packed, min_coverage, top_k)
                # only the bodies tied with or above the last one kept are named
                kept = [c for c in ranked if c >= min_coverage]
                cut = kept[min(len(kept), (top_k + 1) // 2) - 1] if kept else min_coverage
                assert decoded == [sum(c >= cut for c in kept)]


def rows_case(name):
    """(rows, low, radix) of a named dedup case, repeats included."""
    rng = np.random.default_rng(7)
    if name == "padded":  # head, two labels padded with -1, target row
        lengths = rng.integers(1, 3, 300)
        labels = np.where(np.arange(2) < lengths[:, None], rng.integers(0, 6, (300, 2)), -1)
        rows = np.column_stack([rng.integers(0, 3, 300), labels, rng.integers(0, 5, 300)])
        return rows, [0, -1, -1, 0], [3, 7, 7, 5]
    if name == "no rows":
        return np.zeros((0, 4), dtype=np.int64), [0, -1, -1, 0], [3, 7, 7, 5]
    if name == "no targets":
        return np.zeros((0, 3), dtype=np.int64), [0, -1, 0], [3, 7, 0]
    # 2**63 distinct keys (the largest is 2**63 - 1), or 2**63 + 1 of them
    radix = [2**31, 2**32] if name == "2**63" else [27, 19, 43, 5419, 77158673929]
    low = [0, -1] + [0] * (len(radix) - 2)
    top = np.array(low) + np.array(radix) - 1
    rows = np.vstack([rng.integers(low, top, (40, len(radix)), endpoint=True), top, top, low])
    return rows[rng.permutation(len(rows))], low, radix


@pytest.mark.parametrize("name", ["padded", "no rows", "no targets", "2**63", "above 2**63"])
@pytest.mark.parametrize("packed", [True, False])
def test_row_dedup_matches_numpy_unique(name, packed):
    rows, low, radix = rows_case(name)
    assert RowKeys(low, radix).packed == (name != "above 2**63")
    if packed and name == "above 2**63":
        packed = None  # too wide to pack: the codec keeps rows
    codec = RowKeys(low, radix, packed)
    keys = codec.pack(rows.T)
    assert keys.ndim == (1 if codec.packed else 2)
    want, want_counts = np.unique(rows, axis=0, return_counts=True)
    got, counts = unique_rows(keys, np.ones(len(rows), dtype=np.int64))
    assert codec.unpack(got).tolist() == want.tolist() and codec.unpack(got).shape == want.shape
    assert counts.tolist() == want_counts.tolist()
    assert np.array_equal(unique_rows(keys), got)
    # dropping the last column keeps the key order: sorted keys stay sorted
    prefix = codec.prefix()
    assert prefix.unpack(codec.drop_last(got)).tolist() == want[:, :-1].tolist()


def high_degree_db(seed=0, n=12, p_edge=0.45):
    rng = np.random.default_rng(seed)
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("T", is_target=True)])
    for pred in ("P", "Q"):
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < p_edge:
                    db.add_atom(pred, f"c{a}", f"c{b}")
    for k in range(8):
        a, b = rng.choice(n, 2, replace=False)
        if find_atom(db, "T", db.constants.index(f"c{a}"), db.constants.index(f"c{b}")) is None:
            db.add_atom("T", f"c{a}", f"c{b}", float(k % 2))
    return build_adjacency(db)


def test_depth4_high_degree_mining_runs_in_bounded_chunks(monkeypatch):
    db = high_degree_db()
    cfg = GenerationConfig(max_depth=4, min_coverage=1)
    graph = StepGraph(db)
    max_degree = int(graph.degree(np.arange(graph.n_nodes)).max())
    budget = 64
    sizes = []
    expand = StepGraph.expand

    def recording(self, nodes):
        out = expand(self, nodes)
        sizes.append(len(out[0]))
        return out

    monkeypatch.setattr(StepGraph, "expand", recording)
    monkeypatch.setattr(hlsl.clauses, "ROW_BUDGET", budget)
    got = mined_coverage(db, cfg)
    monkeypatch.undo()
    # an unsplit walk would expand far past the budget at depth 3
    assert sum(sizes) > 50 * budget
    assert max(sizes) < budget + max_degree
    assert got == reference_coverage(db, cfg)
    assert mined_coverage(db, cfg) == got


def test_depth9_chains_over_many_predicates_match_the_oracle():
    names = [f"R{i:02d}" for i in range(40)]
    db = AtomDatabase([PredicateSymbol(p) for p in names] + [PredicateSymbol("T", is_target=True)])
    for i in range(9):
        db.add_atom(names[39 - i], f"x{i}", f"x{i + 1}")
        db.add_atom(names[i], f"y{i}", f"y{i + 1}")
    db.add_atom("T", "x0", "x9")
    db.add_atom("T", "y0", "y9")
    db.add_atom("T", "x9", "x0")
    build_adjacency(db)
    cfg = GenerationConfig(max_depth=9, min_coverage=1)
    got = mined_coverage(db, cfg)
    assert got == reference_coverage(db, cfg)
    # two nine-step chains, and T(x0,x9) walked backwards for T(x9,x0)
    assert sorted(len(steps) for _, steps in got) == [1, 9, 9, 9]
