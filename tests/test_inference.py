"""MAP inference and AUC evaluation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import admm_oracle, grounding_of, load_eval_db, map_oracle, random_chain_db, random_map_instance

from hlsl.clauses import GenerationConfig, generate_candidates, negative_prior, parse_clause
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency
from hlsl.errors import DegenerateLabels
from hlsl.grounding import ground_clauses
from hlsl.inference import MAX_ITERS, auc_roc, map_infer
from hlsl.learning import WeightedModel
from hlsl.synth import recovery_fixture


def map_targets(model, db, p=1):
    """MAP over every target atom, grounded as `infer` grounds its free atoms."""
    return map_infer(model, db, db.targets, ground_clauses(model.clauses, db, free_atoms=db.targets), p)


def test_map_prior_only():
    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "x", "y", 1.0)
    build_adjacency(db)
    model = WeightedModel([negative_prior("T")], np.array([3.0]))
    sol = map_targets(model, db)
    assert sol.values[0] == 0.0 and sol.objective == 0.0
    with pytest.raises(ValueError):
        map_targets(model, db, p=3)


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
    sol = map_targets(model, db)
    assert sol.values[1] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_map_flat_tie_resolves_to_zero():
    # rule and prior of equal weight: every value in [0, 1] is optimal at
    # cost 1, and the solver may end anywhere in that flat minimum
    db, rule = rule_and_prior_db()
    model = WeightedModel([rule, negative_prior("T")], np.array([1.0, 1.0]))
    sol = map_targets(model, db)
    assert 0.0 <= sol.values[1] <= 1.0
    assert sol.objective == pytest.approx(1.0, abs=1e-5)


def test_map_empty_model_values_zero():
    db = random_chain_db(2)
    sol = map_targets(WeightedModel([], np.zeros(0)), db)
    assert all(v == 0.0 for v in sol.values.values())
    assert sol.objective == 0.0


def within_oracle(sol, want):
    return abs(sol.objective - want) <= 1e-5 * max(1.0, abs(want))


def test_map_objective_nonincreasing_over_sweeps():
    # ADMM is not monotone in the objective: what must hold is that its end
    # point reaches the optimum of a mined model
    db = random_chain_db(3)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    rng = np.random.default_rng(0)
    model = WeightedModel(list(cands), rng.uniform(0, 3, len(cands)))
    free = list(db.targets)
    grounding = ground_clauses(model.clauses, db, free_atoms=free)
    for p in (1, 2):
        sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
        assert sol.converged and within_oracle(sol, map_oracle(model, grounding, db, free, p)), p


@pytest.mark.parametrize("p", [1, 2])
def test_map_matches_oracle_on_random_instances(p):
    for seed in range(300):
        db, model, grounding, free = random_map_instance(seed)
        sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
        assert sol.converged and within_oracle(sol, map_oracle(model, grounding, db, free, p)), seed


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
    grounding = ground_clauses(model.clauses, db, free_atoms=free)
    sol = map_infer(model, db, free_atoms=free, grounding=grounding)
    from conftest import chain_grid_min

    want = chain_grid_min(model, grounding, db, free)
    assert abs(sol.objective - want) <= 1e-3


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
def test_map_reaches_oracle_on_coupled_chain_databases(instance):
    db, model, free, p = instance
    grounding = ground_clauses(model.clauses, db, free_atoms=free)
    # some ground clause holds two distinct free atoms
    is_free = np.isin(grounding.term_atom, free)
    assert any(
        len(set(grounding.term_atom[s : s + c][is_free[s : s + c]])) >= 2
        for s, c in zip(grounding.term_start, grounding.term_count)
    )
    sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
    assert sol.converged and within_oracle(sol, map_oracle(model, grounding, db, free, p))


# iteration caps that stop ADMM before, and at, its own stopping test
CAPS = (1, 2, 7, MAX_ITERS)


def assert_admm_oracle(model, db, free, grounding):
    for p in (1, 2):
        for cap in CAPS:
            got = map_infer(model, db, free_atoms=free, grounding=grounding, p=p, max_iters=cap)
            # repr tells -0.0 from 0.0, so every field must match bit for bit
            assert repr(got) == repr(admm_oracle(model, db, free, grounding, p, cap)), (p, cap)


def test_map_equals_admm_oracle_on_random_instances():
    for seed in range(60):
        db, model, grounding, free = random_map_instance(seed)
        assert_admm_oracle(model, db, free, grounding)


@settings(max_examples=60, deadline=None)
@given(coupled_instances())
def test_map_equals_admm_oracle_on_coupled_chain_databases(instance):
    db, model, free, _ = instance
    assert_admm_oracle(model, db, free, ground_clauses(model.clauses, db, free_atoms=free))


@pytest.mark.parametrize("p", [1, 2])
def test_map_stop_record(p):
    # five free targets tied together by `T(V1,V2) & R(V2,V3) -> T(V1,V3)`
    db = AtomDatabase([PredicateSymbol("R"), PredicateSymbol("T", is_target=True)])
    for a, b, v in [("x1", "x2", 1.0), ("x2", "x3", 0.5), ("x0", "x5", 0.5), ("x3", "x5", 0.751), ("x5", "x4", 0.501)]:
        db.add_atom("R", a, b, v)
    free = [db.add_atom("T", "x0", f"x{k}", 0.0) for k in range(1, 6)]
    for a, b in [("x0", "x6"), ("x1", "x0"), ("x1", "x2"), ("x1", "x3"), ("x2", "x0"), ("x2", "x3")]:
        db.add_atom("T", a, b, 0.0)
    build_adjacency(db)
    clauses = [parse_clause(text, db) for text in COUPLED_CLAUSES] + [negative_prior("T")]
    model = WeightedModel(clauses, np.linspace(0.5, 2.0, len(clauses)))
    grounding = ground_clauses(model.clauses, db, free_atoms=free)
    sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
    assert sol.converged and sol.iterations > 1
    assert 0.0 <= sol.primal_residual <= 1e-4 and 0.0 <= sol.dual_residual <= 1e-4
    assert within_oracle(sol, map_oracle(model, grounding, db, free, p))
    # the run stopped at the first iteration whose residuals passed
    short = map_infer(model, db, free_atoms=free, grounding=grounding, p=p, max_iters=sol.iterations - 1)
    assert not short.converged and short.iterations == sol.iterations - 1
    capped = map_infer(model, db, free_atoms=free, grounding=grounding, p=p, max_iters=1)
    assert not capped.converged and capped.iterations == 1
    assert all(0.0 <= y <= 1.0 for y in capped.values.values())


@pytest.mark.parametrize("p", [1, 2])
def test_map_zero_norm_hinges(p):
    # a free atom in both body and head of a ground clause: its coefficients cancel
    db = AtomDatabase([PredicateSymbol("R"), PredicateSymbol("T", is_target=True)])
    db.add_atom("R", "x", "x", 1.0)  # a self-loop edge
    db.add_atom("R", "x", "y", 0.8)
    for a, b in [("a", "x"), ("a", "y"), ("b", "b")]:
        db.add_atom("T", a, b, 0.0)
    build_adjacency(db)
    free = list(db.targets)
    clauses = [parse_clause("T(V1,V2) & R(V2,V3) -> T(V1,V3)", db), negative_prior("T")]
    model = WeightedModel(clauses, np.array([1.5, 0.5]))
    cases = [
        ground_clauses(clauses, db, free_atoms=free),
        # T(a,x) twice plus T(a,y) in one ground, and T(b,b) alone twice
        grounding_of(clauses, [(0, ((free[0], -1), (free[0], 1), (free[1], 1))), (0, ((free[2], -1), (free[2], 1))),
                               (1, ((free[1], -1),))], db),
    ]
    for grounding in cases:
        assert (grounding.pairs(np.isin(np.arange(len(db.atoms)), free))[2] == 0.0).any()
        with np.errstate(all="raise"):
            sol = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
        assert sol.converged and all(np.isfinite(list(sol.values.values())))
        assert within_oracle(sol, map_oracle(model, grounding, db, free, p))


@pytest.mark.parametrize("p", [1, 2])
def test_map_converges_at_small_weights(tmp_path, p):
    # Coassoc(V1,V2) -> T(V1,V2) has the optimum y = 1 on every held-out pair
    # its rule covers, whatever the weight; the second clause grounds on no
    # free atom, so its weight 1 must not set ADMM's scale
    db, free, _ = load_eval_db(recovery_fixture(0), tmp_path)
    clauses = [parse_clause(t, db) for t in ("Coassoc(V1,V2) -> T(V1,V2)", "Link(V1,V2) -> T(V2,V1)")]
    grounding = ground_clauses(clauses, db, free_atoms=free)
    assert set(grounding.g_clause) == {0}
    iterations = []
    for w in (1.0, 1e-2, 1e-4, 1e-6):
        sol = map_infer(WeightedModel(clauses, np.array([w, 1.0])), db, free_atoms=free, grounding=grounding, p=p)
        iterations.append(sol.iterations)
        assert sol.converged and max(sol.values.values()) == pytest.approx(1.0, abs=1e-6), w
    assert iterations == iterations[:1] * 4, iterations


@pytest.mark.parametrize("p", [1, 2])
def test_map_invariant_to_weight_scale(p):
    # scaling every weight by c scales the objective by c and keeps its argmin
    for seed in range(40):
        db, model, grounding, free = random_map_instance(seed)
        base = map_infer(model, db, free_atoms=free, grounding=grounding, p=p)
        for c in (1e-6, 1e-3, 1e3):
            scaled = WeightedModel(model.clauses, model.weights * c)
            sol = map_infer(scaled, db, free_atoms=free, grounding=grounding, p=p)
            assert (sol.iterations, sol.converged) == (base.iterations, base.converged), (seed, c)
            assert all(abs(sol.values[i] - base.values[i]) <= 1e-9 for i in free), (seed, c)
            assert sol.objective == pytest.approx(c * base.objective, rel=1e-8, abs=0.0), (seed, c)


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
