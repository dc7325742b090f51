"""Grounding: lazy instantiation, hinge penalties, the engine's incidence."""
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dfs_ground_clause, find_atom, ground_terms, grounding_of, random_chain_db

from hlsl.clauses import (
    GenerationConfig, PathClause, format_clause, generate_candidates, negative_prior, parse_clause,
)
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency, round_value
from hlsl.engine import Workspace
from hlsl.grounding import ground_clause, ground_clauses


def herbrand_groundings(clause, db, threshold=0.5):
    """Oracle: try every constant tuple for the variables the clause's text
    names, so it reads the clause as written, not through its steps."""
    body_text, head_text = format_clause(clause).split("->")
    body = re.findall(r"(\w+)\((\w+),(\w+)\)", body_text)
    ((head_pred, h1, h2),) = re.findall(r"(\w+)\((\w+),(\w+)\)", head_text)
    names = sorted({v for _, v1, v2 in body for v in (v1, v2)} | {h1, h2})
    targets = set(db.targets.tolist())
    out = []
    for combo in itertools.product(range(len(db.constants)), repeat=len(names)):
        bind = dict(zip(names, combo))
        atoms = []
        for pred, v1, v2 in body:
            idx = find_atom(db, pred, bind[v1], bind[v2])
            if idx is None or round_value(db.values[idx], threshold) != 1:
                break
            atoms.append(idx)
        else:
            head = find_atom(db, head_pred, bind[h1], bind[h2])
            if head is not None and head in targets:
                out.append(tuple(atoms) + (head,))
    return sorted(out)


def test_ground_example_clause(citation_db):
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    (terms,) = ground_terms(ground_clause(clause, citation_db))
    minus = {a for a, s in terms if s == -1}
    plus = {a for a, s in terms if s == 1}
    assert minus == {0, 1} and plus == {2}


def test_ground_negative_prior(citation_db):
    grounds = ground_clause(negative_prior("Mentions"), citation_db)
    assert ground_terms(grounds) == [((1, -1),), ((2, -1),)]


def test_ground_absent_predicate_body(citation_db):
    db = AtomDatabase(
        [PredicateSymbol("Cites"), PredicateSymbol("Absent"), PredicateSymbol("Mentions", is_target=True)]
    )
    db.add_atom("Cites", "a", "b")
    db.add_atom("Mentions", "a", "b")
    build_adjacency(db)
    clause = parse_clause("Absent(V1,V2) -> Mentions(V1,V2)", db)
    assert len(ground_clause(clause, db)) == 0


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_lazy_grounding_matches_herbrand(seed):
    db = random_chain_db(seed, n_a=6, n_b=5, n_c=5)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1, top_k=30))
    for clause in cands:
        if clause.is_prior:
            continue
        got = sorted(tuple(a for a, _ in terms) for terms in ground_terms(ground_clause(clause, db)))
        assert got == herbrand_groundings(clause, db)


def three_atom_grounding(terms):
    """One ground clause with the given signed terms over atoms 0, 1, 2."""
    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    for k in range(3):
        db.add_atom("T", f"a{k}", "b")
    build_adjacency(db)
    return grounding_of([negative_prior("T")], [(0, terms)], db)


def test_hinge_penalty_examples():
    # body atoms x1, x2 in the negated set at 1, head y at 0.3
    grounding = three_atom_grounding(((0, -1), (1, -1), (2, 1)))
    assign = np.array([1.0, 1.0, 0.3])
    assert grounding.penalties(assign, 1) == pytest.approx([0.7])
    assert grounding.penalties(assign, 2) == pytest.approx([0.49])
    # falsified body satisfies the implication for any head value
    for y in np.linspace(0, 1, 7):
        assert grounding.penalties(np.array([0.0, 1.0, y])).tolist() == [0.0]


def test_hinge_penalty_midpoint_convex():
    rng = np.random.default_rng(11)
    grounding = three_atom_grounding(((0, -1), (1, -1), (2, 1)))
    for p in (1, 2):
        for _ in range(200):
            x = rng.uniform(0, 1, 3)
            y = rng.uniform(0, 1, 3)
            fx, fy, fmid = (grounding.penalties(v, p)[0] for v in (x, y, (x + y) / 2))
            assert fmid <= (fx + fy) / 2 + 1e-12


def test_hinge_penalty_bounds():
    rng = np.random.default_rng(12)
    grounding = three_atom_grounding(((0, 1), (1, -1), (2, 1)))
    for _ in range(100):
        assign = rng.uniform(0, 1, 3)
        inner = 1 - assign[0] - (1 - assign[1]) - assign[2]
        for p in (1, 2):
            value = grounding.penalties(assign, p)[0]
            assert value >= 0.0
            assert value <= max(1.0, inner) ** p + 1e-12


def term_pairs(grounding):
    """(ground clause, target atom) -> summed coefficient, read term by term."""
    targets = set(grounding.db.targets)
    out = {}
    for g, atom, coef in zip(grounding.term_ground, grounding.term_atom, grounding.term_coef):
        if int(atom) in targets:
            key = (int(g), int(atom))
            out[key] = out.get(key, 0.0) + float(coef)
    return out


def test_incidence_is_exact(citation_db):
    # every distinct (ground clause, target atom) occurrence is exactly one
    # engine pair, carrying the atom's summed coefficient
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    db = random_chain_db(2)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    repeated = AtomDatabase([PredicateSymbol("T", is_target=True)])
    repeated.add_atom("T", "a", "a")
    repeated.add_atom("T", "a", "b")
    build_adjacency(repeated)
    cases = [
        ground_clauses([clause, negative_prior("Mentions")], citation_db),
        ground_clauses([negative_prior("Mentions")], citation_db),
        ground_clauses([], citation_db),
        ground_clauses(cands, db),
        # one atom twice in a ground clause: its two coefficients sum to 0
        grounding_of([negative_prior("T")], [(0, ((0, -1), (0, 1), (1, 1)))], repeated),
    ]
    for grounding in cases:
        for mode in ("pll", "ppll"):
            ws = Workspace(grounding, grounding.db.value_vector(), mode=mode)
            keys = list(zip(ws.pair_ground.tolist(), ws.pair_atom.tolist()))
            assert len(set(keys)) == ws.n_pairs == len(keys)
            assert dict(zip(keys, ws.pair_b.tolist())) == term_pairs(grounding)
    assert Workspace(cases[4], repeated.value_vector()).pair_b.tolist() == [0.0, -1.0]


def test_incidence_example(citation_db):
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    grounding = ground_clauses([clause, negative_prior("Mentions")], citation_db)
    ws = Workspace(grounding, citation_db.value_vector())
    # rule grounding touches both Mentions atoms; each prior grounding one
    counts = np.bincount(ws.pair_atom, minlength=3)
    assert counts[2] == 2  # head of the rule + its prior
    assert counts[1] == 2  # body of the rule + its prior
    assert counts[0] == 0  # Cites is evidence, never a pair


def test_incidence_empty_and_prior_only(citation_db):
    empty = Workspace(ground_clauses([], citation_db), citation_db.value_vector())
    assert empty.n_pairs == 0
    prior = ground_clauses([negative_prior("Mentions")], citation_db)
    ws = Workspace(prior, citation_db.value_vector())
    assert ws.pair_atom.tolist() == [1, 2] and ws.pair_b.tolist() == [1.0, 1.0]
    assert np.bincount(ws.pair_atom, minlength=3)[1:].tolist() == [1, 1]


def test_lazy_grounding_only_frees_targets():
    # under rounded body evidence every returned potential's non-evidence
    # terms are target atoms
    db = random_chain_db(8)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    targets = set(db.targets)
    for terms in ground_terms(grounding):
        for atom, _ in terms[:-1]:
            assert atom in targets or round_value(db.values[atom]) == 1


def test_restrict_matches_fresh_grounding():
    db = random_chain_db(1)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    pool = ground_clauses(cands, db)
    ids = [2, 0, len(cands) - 1]
    sub = pool.restrict(ids)
    fresh = ground_clauses([cands[i] for i in ids], db)
    assert np.array_equal(sub.g_clause, fresh.g_clause)
    assert np.array_equal(sub.term_atom, fresh.term_atom)
    assert np.array_equal(sub.term_coef, fresh.term_coef)
    assert np.allclose(sub.g_const0, fresh.g_const0)
    assert ground_terms(sub) == ground_terms(fresh)


def test_grounding_twice_gives_identical_arrays():
    db = random_chain_db(1)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    free = db.targets[::3]
    a = ground_clauses(cands, db, free_atoms=free)
    b = ground_clauses(cands, db, free_atoms=free)
    for name in ("g_clause", "g_const0", "term_count", "term_start", "term_ground", "term_atom", "term_coef"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_free_atoms_bypass_body_gate():
    # a free target atom with stored value 0 still supports body matches
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b")
    db.add_atom("T", "b", "c", 0.0)
    db.add_atom("T", "a", "c", 0.0)
    build_adjacency(db)
    clause = parse_clause("P(V1,V2) & T(V2,V3) -> T(V1,V3)", db)
    assert len(ground_clause(clause, db)) == 0
    free = [1, 2]
    grounds = ground_clause(clause, db, free_atoms=free)
    assert len(grounds) == 1


def test_strict_mode_drops_observed_target_bodies(citation_db):
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    assert len(ground_clause(clause, citation_db)) == 1
    assert len(ground_clause(clause, citation_db, strict=True)) == 0


def test_mined_clause_grounds_a_repeated_constant():
    # Mining counts simple paths only: T(a,a) has none, and T(c,e) yields the
    # chain below. Grounding binds variables independently, so the same
    # clause also grounds on a -> b -> a with head T(a,a).
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "c", "d")
    db.add_atom("Q", "d", "e")
    db.add_atom("T", "c", "e")
    db.add_atom("P", "a", "b")
    db.add_atom("Q", "b", "a")
    db.add_atom("T", "a", "a")
    build_adjacency(db)
    mined = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1, include_inverses=False))
    rule = mined[0]
    assert rule.id == "P(V1,V2) & Q(V2,V3) -> T(V1,V3)"
    assert rule.coverage == 1  # only T(c,e)
    heads = sorted(db.atom_str(terms[-1][0]) for terms in ground_terms(ground_clause(rule, db)))
    assert heads == ["T(a,a)", "T(c,e)"]


def test_threshold_value_is_an_edge_and_passes_the_gate():
    # "the threshold rounds up" holds for the mining index and the grounding gate
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b", 0.5)
    db.add_atom("T", "a", "b")
    db.add_atom("P", "b", "c", 0.4999)
    db.add_atom("T", "b", "c")
    build_adjacency(db, 0.5)
    assert db.outgoing[0] == [("P", 1, 0), ("T", 1, 1)]
    mined = generate_candidates(db, GenerationConfig(max_depth=1, min_coverage=1, include_inverses=False))
    assert [(c.id, c.coverage) for c in mined[:1]] == [("P(V1,V2) -> T(V1,V2)", 1)]
    assert ground_terms(ground_clause(mined[0], db)) == [((0, -1), (1, 1))]


@st.composite
def small_dbs(draw):
    """A small random database over a few constants, so substitutions
    repeat constants."""
    consts = ["c0", "c1", "c2"]
    db = AtomDatabase([
        PredicateSymbol("P"), PredicateSymbol("Q"),
        PredicateSymbol("T", is_target=True), PredicateSymbol("U", is_target=True),
    ])
    cells = draw(st.lists(
        st.tuples(st.sampled_from("PQTU"), st.sampled_from(consts), st.sampled_from(consts)),
        unique=True, min_size=8, max_size=36,
    ))
    for pred, a, b in cells:
        db.add_atom(pred, a, b, draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0, 1.0])))
    return build_adjacency(db)


@st.composite
def grounding_cases(draw):
    """A small random database (`small_dbs`), one random clause (inverted
    literals, depth 0-4, negated or not), free atoms and strict mode."""
    db = draw(small_dbs())
    depth = draw(st.integers(0, 4))
    steps = draw(st.lists(st.tuples(st.sampled_from("PQTU"), st.booleans()), min_size=depth, max_size=depth))
    body = [f"{p}(V{k + 1},V{k})" if inv else f"{p}(V{k},V{k + 1})" for k, (p, inv) in enumerate(steps, 1)]
    bang = "!" if draw(st.booleans()) else ""
    head = draw(st.sampled_from("TU"))
    text = " & ".join(body) + f" -> {bang}{head}(V1,V{len(steps) + 1})" if body else f"-> {bang}{head}(A,B)"
    clause = parse_clause(text, db)
    free = np.array(sorted(draw(st.sets(st.sampled_from(range(len(db.atoms)))))), dtype=np.int64)
    return db, clause, free, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(grounding_cases())
def test_ground_clause_matches_dfs_oracle(case):
    db, clause, free, strict = case
    got = ground_clause(clause, db, free_atoms=free, strict=strict)
    assert ground_terms(got) == dfs_ground_clause(clause, db, free, strict)
    prior = dfs_ground_clause(negative_prior("T"), db)
    both = ground_clauses([negative_prior("T"), clause], db, free_atoms=free, strict=strict)
    assert ground_terms(both) == prior + ground_terms(got)
    assert both.g_clause.tolist() == [0] * len(prior) + [1] * len(got)


# -- a clause is its chain: text, equality and grounding read one field -------

chain_clauses = st.builds(
    PathClause,
    st.sampled_from("TU"),
    st.lists(st.tuples(st.sampled_from("PQTU"), st.booleans()), min_size=1, max_size=4).map(tuple),
    st.booleans(),
)
any_clauses = chain_clauses | st.builds(PathClause, st.sampled_from("TU"), negated=st.booleans())


@st.composite
def clause_pairs(draw):
    """A random chain or prior, and a second clause: an independent one, a
    copy with another coverage, or the first with one field changed."""
    a = draw(any_clauses)
    edits = [lambda: draw(any_clauses), lambda: replace(a, coverage=draw(st.integers(0, 9))),
             lambda: replace(a, negated=not a.negated), lambda: replace(a, head="U" if a.head == "T" else "T")]
    if a.steps:
        k = draw(st.integers(0, len(a.steps) - 1))
        flipped = a.steps[:k] + ((a.steps[k][0], not a.steps[k][1]),) + a.steps[k + 1:]
        edits.append(lambda: replace(a, steps=flipped))
    return a, draw(st.sampled_from(edits))()


@settings(max_examples=200, deadline=None)
@given(small_dbs(), clause_pairs())
def test_a_clause_is_its_chain(db, pair):
    a, b = pair
    text = format_clause(a)
    assert parse_clause(text, db) == a
    assert (text == format_clause(b)) == (a == b and hash(a) == hash(b))
    got = ground_terms(ground_clause(a, db))
    assert sorted(tuple(atom for atom, _ in terms) for terms in got) == herbrand_groundings(a, db)
    assert {terms[-1][1] for terms in got} <= {-1 if a.negated else 1}


@settings(max_examples=200, deadline=None)
@given(small_dbs(), st.lists(any_clauses, min_size=1, max_size=5), st.data(), st.booleans())
def test_ground_clauses_joins_each_clauses_own_grounding(db, clauses, data, strict):
    # one step graph of the union of the clauses' labels grounds every clause
    # as a graph of its own labels does
    free = np.array(sorted(data.draw(st.sets(st.sampled_from(range(len(db.atoms)))))), dtype=np.int64)
    joined = ground_clauses(clauses, db, free_atoms=free, strict=strict)
    terms, owners = [], []
    for k, clause in enumerate(clauses):
        own = ground_terms(ground_clause(clause, db, free_atoms=free, strict=strict))
        assert own == dfs_ground_clause(clause, db, free, strict)
        terms += own
        owners += [k] * len(own)
    assert ground_terms(joined) == terms
    assert joined.g_clause.tolist() == owners
