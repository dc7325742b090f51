"""MAP inference and AUC evaluation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import candidate_values, dict_map_infer, random_chain_db, random_map_instance

from hlsl.clauses import GenerationConfig, generate_candidates, negative_prior, parse_clause
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency
from hlsl.errors import DegenerateLabels
from hlsl.grounding import ground_clauses
from hlsl.inference import _line_costs, auc_roc, map_infer
from hlsl.learning import WeightedModel


def test_map_prior_only():
    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "x", "y", 1.0)
    build_adjacency(db)
    sol = map_infer(WeightedModel([negative_prior("T")], np.array([3.0])), db)
    assert sol.values[0] == 0.0 and sol.objective == 0.0


def rule_and_prior_db():
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "x", "y")
    db.add_atom("T", "x", "y", 1.0)
    build_adjacency(db)
    rule = parse_clause("P(V1,V2) -> T(V1,V2)", db)
    return db, rule


def test_map_rule_beats_prior():
    db, rule = rule_and_prior_db()
    model = WeightedModel([rule, negative_prior("T")], np.array([2.0, 1.0]))
    sol = map_infer(model, db)
    assert sol.values[1] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_map_flat_tie_resolves_to_zero():
    db, rule = rule_and_prior_db()
    model = WeightedModel([rule, negative_prior("T")], np.array([1.0, 1.0]))
    sol = map_infer(model, db)
    assert sol.values[1] == 0.0


def test_map_empty_model_values_zero():
    db = random_chain_db(2)
    sol = map_infer(WeightedModel([], np.zeros(0)), db)
    assert all(v == 0.0 for v in sol.values.values())
    assert sol.objective == 0.0


def test_map_objective_nonincreasing_over_sweeps():
    db = random_chain_db(3)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    rng = np.random.default_rng(0)
    model = WeightedModel(list(cands), rng.uniform(0, 3, len(cands)))
    grounding = ground_clauses(model.clauses, db, free_atoms=frozenset(db.targets))
    objectives = []
    for sweeps in range(1, 6):
        sol = map_infer(model, db, grounding=grounding, max_sweeps=sweeps, tol=0.0)
        objectives.append(sol.objective)
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_map_matches_grid_search_small(seed):
    from conftest import chain_grid_min

    db, model, grounding, free = random_map_instance(seed)
    sol = map_infer(model, db, free_atoms=free, grounding=grounding)
    want = chain_grid_min(model, grounding, db, free)
    assert abs(sol.objective - want) <= 1e-3


def test_map_on_clause_groundings_matches_grid():
    # end-to-end variant: potentials produced by real clause grounding
    rng = np.random.default_rng(77)
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("Q"), PredicateSymbol("T", is_target=True)])
    consts = ["u", "v", "w", "z"]
    for a in consts:
        for b in consts:
            if a != b and rng.random() < 0.5:
                db.add_atom("P", a, b)
            if a != b and rng.random() < 0.4:
                db.add_atom("Q", a, b)
    db.add_atom("T", "u", "v", 0.0)
    db.add_atom("T", "v", "w", 0.0)
    build_adjacency(db)
    clauses = [
        parse_clause("P(V1,V2) -> T(V1,V2)", db),
        parse_clause("P(V1,V2) & Q(V2,V3) -> T(V1,V3)", db),
        negative_prior("T"),
    ]
    model = WeightedModel(clauses, np.round(rng.uniform(0.2, 2.0, 3), 3))
    free = list(db.targets)
    grounding = ground_clauses(model.clauses, db, free_atoms=frozenset(free))
    sol = map_infer(model, db, free_atoms=free, grounding=grounding)
    from conftest import chain_grid_min

    want = chain_grid_min(model, grounding, db, free)
    assert abs(sol.objective - want) <= 1e-3


@pytest.mark.parametrize("p", [1, 2])
def test_map_matches_dict_oracle(p):
    # exact equality: a last-bit change in a cost can flip a flat minimum
    for seed in range(150):
        db, model, grounding, free = random_map_instance(seed)
        sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
        values, objective = dict_map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
        assert sol.values == values and sol.objective == objective, seed


def test_line_costs_match_python_loops():
    # Python's float ** 2 (the C library's pow) and numpy's square differ in
    # the last bit for about one value in a thousand, and numpy's pairwise
    # sum differs from a loop's from 8 terms on; the costs must match loops
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        w, a = rng.uniform(0.1, 2.0, n), rng.uniform(-2.0, 2.0, n)
        b = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], n)
        line = rng.random() < 0.5
        lo, hi, extra = (rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0), (0.0,)) if line else (0.0, 1.0, ())
        hinges = list(zip(w.tolist(), a.tolist(), b.tolist()))
        for p in (1, 2):
            t, cost = _line_costs(w, a, b, lo, hi, p, extra)
            want = sorted(candidate_values(hinges, lo, hi, p).union(extra))
            assert t.tolist() == want
            assert cost.tolist() == [sum(wj * max(aj + bj * y, 0.0) ** p for wj, aj, bj in hinges) for y in want]


COUPLED_CLAUSES = [
    "R(V1,V2) -> T(V1,V2)",
    "R(V1,V2) & R(V2,V3) -> T(V1,V3)",
    "T(V1,V2) & R(V2,V3) -> T(V1,V3)",
    "R(V1,V2) & T(V2,V3) -> !T(V1,V3)",
    "T(V1,V2) & R(V3,V2) -> T(V1,V3)",
]


@st.composite
def coupled_instances(draw):
    """A chain database over one pool of constants whose model has
    target-in-body clauses, so that free target atoms share ground clauses.
    T(x0,x1), T(x0,x2) and R(x1,x2) are always present, which couples the
    two targets through `T(V1,V2) & R(V2,V3) -> T(V1,V3)`."""
    n = draw(st.integers(3, 9))
    names = [f"x{i}" for i in range(n)]
    cells = [(a, b) for a in names for b in names if a != b]
    edges = draw(st.lists(st.sampled_from(cells), unique=True, min_size=n, max_size=4 * n))
    targets = draw(st.lists(st.sampled_from(cells), unique=True, min_size=n, max_size=3 * n))
    # values and weights off the binary lattice, so that sums round
    value = st.integers(0, 1000).map(lambda k: k / 1000)
    db = AtomDatabase([PredicateSymbol("R"), PredicateSymbol("T", is_target=True)])
    for a, b in [("x1", "x2")] + [e for e in edges if e != ("x1", "x2")]:
        db.add_atom("R", a, b, 1.0 if (a, b) == ("x1", "x2") else draw(value))
    for a, b in [("x0", "x1"), ("x0", "x2")] + [t for t in targets if t not in (("x0", "x1"), ("x0", "x2"))]:
        db.add_atom("T", a, b, draw(value))
    build_adjacency(db)
    texts = draw(st.lists(st.sampled_from(COUPLED_CLAUSES), unique=True, min_size=1))
    if "T(V1,V2) & R(V2,V3) -> T(V1,V3)" not in texts:
        texts.append("T(V1,V2) & R(V2,V3) -> T(V1,V3)")
    clauses = [parse_clause(t, db) for t in texts] + [negative_prior("T")]
    weight = st.integers(100, 2000).map(lambda k: k / 1000)
    weights = draw(st.lists(weight, min_size=len(clauses), max_size=len(clauses)))
    targets = list(db.targets)
    free = targets if draw(st.booleans()) else sorted(draw(st.sets(st.sampled_from(targets), min_size=1)) | set(targets[:2]))
    return db, WeightedModel(clauses, np.array(weights)), free, draw(st.sampled_from([1, 2]))


@settings(max_examples=200, deadline=None)
@given(coupled_instances())
def test_map_matches_dict_oracle_on_coupled_chain_databases(instance):
    db, model, free, p = instance
    grounding = ground_clauses(model.clauses, db, free_atoms=frozenset(free))
    # some ground clause holds two distinct free atoms, so diagonal moves run
    is_free = np.isin(grounding.term_atom, free)
    assert any(
        len(set(grounding.term_atom[s : s + c][is_free[s : s + c]])) >= 2
        for s, c in zip(grounding.term_start, grounding.term_count)
    )
    sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
    values, objective = dict_map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
    assert sol.values == values and sol.objective == objective


def test_map_line_moves_keep_the_margin():
    # a shrunk instance of the hypothesis test above on which a line move
    # without the 1e-15 margin takes a rounding-noise decrease at p=2
    db = AtomDatabase([PredicateSymbol("R"), PredicateSymbol("T", is_target=True)])
    for a, b, v in [("x1", "x2", 1.0), ("x2", "x3", 0.5), ("x0", "x5", 0.5), ("x3", "x5", 0.751), ("x5", "x4", 0.501)]:
        db.add_atom("R", a, b, v)
    free = [db.add_atom("T", "x0", f"x{k}", 0.0).index for k in range(1, 6)]
    for a, b in [("x0", "x6"), ("x1", "x0"), ("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x1", "x5"), ("x1", "x6"),
                 ("x2", "x0"), ("x2", "x1"), ("x2", "x3")]:
        db.add_atom("T", a, b, 0.0)
    build_adjacency(db)
    clauses = [parse_clause(text, db) for text in COUPLED_CLAUSES] + [negative_prior("T")]
    model = WeightedModel(clauses, np.full(len(clauses), 0.1))
    grounding = ground_clauses(model.clauses, db, free_atoms=frozenset(free))
    sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=2)
    values, objective = dict_map_infer(model, db, free_atoms=free, grounding=grounding, p=2)
    assert sol.values == values and sol.objective == objective


def test_auc_examples():
    assert auc_roc({"p": 1.0, "n": 0.0}, {"p": 1, "n": 0}).auc == 1.0
    r = auc_roc({"a": 0.3, "b": 0.3, "c": 0.3}, {"a": 1, "b": 0, "c": 0})
    assert r.auc == 0.5
    r = auc_roc({"p1": 0.9, "p2": 0.4, "n1": 0.6, "n2": 0.1}, {"p1": 1, "p2": 1, "n1": 0, "n2": 0})
    assert r.auc == pytest.approx(0.75)
    assert (r.n_pos, r.n_neg) == (2, 2)


def test_auc_degenerate():
    with pytest.raises(DegenerateLabels):
        auc_roc({"a": 0.5, "b": 0.1}, {"a": 1, "b": 1})


def test_auc_pair_counting_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(4, 30))
        scores = {i: float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])) for i in range(n)}
        labels = {i: int(rng.random() < 0.4) for i in range(n)}
        if sum(labels.values()) in (0, n):
            continue
        pos = [scores[i] for i in labels if labels[i] == 1]
        neg = [scores[i] for i in labels if labels[i] == 0]
        want = sum(1.0 if sp > sn else 0.5 if sp == sn else 0.0 for sp in pos for sn in neg)
        want /= len(pos) * len(neg)
        assert auc_roc(scores, labels).auc == pytest.approx(want, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(15)
    scores = {i: float(rng.uniform(0, 1)) for i in range(40)}
    labels = {i: int(rng.random() < 0.5) for i in range(40)}
    base = auc_roc(scores, labels).auc
    warped = {k: float(np.exp(3 * v) - 0.2) for k, v in scores.items()}
    assert auc_roc(warped, labels).auc == pytest.approx(base, abs=1e-12)
