"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria are property-based or use deterministic synthetic data; tolerances
and budgets are fixed here and nowhere else.
"""
import filecmp
import itertools
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from conftest import (
    chain_grid_min,
    greedy_reference,
    hinge_workspace,
    random_chain_db,
    random_map_instance,
)

from hlsl.cli import main as cli_main
from hlsl.clauses import GenerationConfig, generate_candidates, format_clause
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency
from hlsl.grounding import ground_clauses
from hlsl.inference import auc_roc, map_infer
from hlsl.learning import (
    LearnConfig,
    WeightedModel,
    gls_structure_learn,
    learn_weights,
    objective_gradient,
    ppll_structure_learn,
)
from hlsl.scoring import log_pll, log_ppll
from hlsl.synth import recovery_fixture, scaling_fixture, write_fixture


def report(num: int, name: str, passed: bool, detail: str = ""):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# -- 1. closed-form integrals vs adaptive quadrature -------------------------


def test_c01_integral_oracle():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst_z = worst_e = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        hinges = [
            (float(rng.uniform(0, 5)), float(rng.uniform(-2, 2)), float(rng.choice([-1.0, 1.0])))
            for _ in range(n)
        ]
        pts = sorted({0.0, 1.0} | {-a / b for _w, a, b in hinges if b and 0 < -a / b < 1})
        f = lambda y: sum(w * max(a + b * y, 0.0) for w, a, b in hinges)
        z = quad(lambda y: np.exp(-f(y)), 0, 1, points=pts, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
        ha, hb = float(rng.uniform(-1.5, 1.5)), float(rng.choice([-1.0, 1.0]))
        # the engine over one variable observed at 0, one ground clause per
        # hinge; the measured hinge is a weight-0 clause, so its root joins
        # the tiling without changing the profile
        ws, w = hinge_workspace(hinges + [(0.0, ha, hb)])
        worst_z = max(worst_z, abs(float(ws.log_partitions(w)[0]) - np.log(z)))
        cut = sorted(set(pts) | ({-ha / hb} if 0 < -ha / hb < 1 else set()))
        num = quad(
            lambda y: max(ha + hb * y, 0.0) * np.exp(-f(y)),
            0, 1, points=cut, limit=200, epsabs=1e-12, epsrel=1e-12,
        )[0]
        worst_e = max(worst_e, abs(float(ws.expected_penalties(w)[-1]) - num / z))
    elapsed = time.perf_counter() - started
    ok = worst_z <= 1e-8 and worst_e <= 1e-8 and elapsed <= 10.0
    report(1, "integral-oracle", ok, f"logZ err {worst_z:.2e}, E err {worst_e:.2e}, {elapsed:.1f}s")


# -- 2. analytic gradients vs central finite differences ---------------------


def test_c02_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    h = 1e-5
    worst = 0.0
    checked = 0
    instances = [random_chain_db(s) for s in (41, 42)]
    for db in instances:
        cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
        grounding = ground_clauses(cands, db)
        obs = db.value_vector()
        for objective, score in (("pll", log_pll), ("ppll", log_ppll)):
            for _ in range(25):
                w = rng.uniform(0.1, 3.0, len(cands))
                model = WeightedModel(list(cands), w)
                grad = objective_gradient(model, grounding, obs, objective)
                for i in range(len(cands)):
                    wp, wm = w.copy(), w.copy()
                    wp[i] += h
                    wm[i] -= h
                    fd = (
                        score(WeightedModel(list(cands), wp), grounding, obs).total
                        - score(WeightedModel(list(cands), wm), grounding, obs).total
                    ) / (2 * h)
                    worst = max(worst, abs(grad[i] - fd) / max(1e-6, abs(fd)))
                checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and checked >= 100 and elapsed <= 30.0
    report(2, "gradient-check", ok, f"{checked} points, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- 3. decoupling: joint piecewise fit equals independent per-clause fits ---


def test_c03_decoupled_weight_learning():
    fx = recovery_fixture(3)
    db = fx.train_db()
    cands = fx.candidates[:10]
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    cfg = LearnConfig(tolerance=0.0, max_iters=400)
    joint = learn_weights(WeightedModel(list(cands), np.zeros(10)), grounding, obs, "ppll", cfg)
    gaps = []
    for i, clause in enumerate(cands):
        alone = learn_weights(
            WeightedModel([clause], np.zeros(1)), grounding.restrict([i]), obs, "ppll", cfg
        )
        gaps.append(abs(joint.weights[i] - alone.weights[0]))
    worst = max(gaps)
    report(3, "joint-equals-independent", worst <= 1e-6, f"worst weight gap {worst:.2e}")


# -- 4. fitting all clauses then pruning matches exhaustive subset search ----


def test_c04_subset_search_collapse():
    db = random_chain_db(1004, n_a=17, n_b=9, n_c=9)  # >= 50 target atoms
    assert len(db.targets) >= 50
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1, top_k=4))
    assert len(cands) == 5  # 4 mined clauses + negative prior
    obs = db.value_vector()
    pool = ground_clauses(cands, db)
    cfg = LearnConfig(tolerance=0.0, max_iters=300)

    best_subset = 0.0  # the empty model scores zero
    for r in range(1, 6):
        for subset in itertools.combinations(range(5), r):
            sub = pool.restrict(list(subset))
            clauses = [cands[i] for i in subset]
            fitted = learn_weights(WeightedModel(clauses, np.zeros(r)), sub, obs, "ppll", cfg)
            best_subset = max(best_subset, log_ppll(fitted, sub, obs).total)

    pruned = ppll_structure_learn(cands, db, cfg)
    pruned_grounding = ground_clauses(pruned.clauses, db)
    pruned_score = log_ppll(pruned, pruned_grounding, obs).total if pruned.clauses else 0.0
    gap = abs(best_subset - pruned_score)
    report(4, "subset-search-collapse", gap <= 1e-5,
           f"best subset {best_subset:.6f}, prune {pruned_score:.6f}, gap {gap:.2e}")


# -- 5. the citation example yields exactly the expected clauses -------------


def test_c05_clause_generation_fixture():
    db = AtomDatabase([PredicateSymbol("Cites"), PredicateSymbol("Mentions", is_target=True)])
    db.add_atom("Cites", "Paper1", "Paper2")
    db.add_atom("Mentions", "Paper2", "Gene")
    db.add_atom("Mentions", "Paper1", "Gene")
    build_adjacency(db)
    cfg = GenerationConfig(max_depth=2, min_coverage=1, include_inverses=False)
    got = [format_clause(c) for c in generate_candidates(db, cfg)]
    want = [
        "Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)",
        "Cites(V1,V2) & Mentions(V2,V3) -> !Mentions(V1,V3)",
        "-> !Mentions(A,B)",
    ]
    report(5, "clause-generation-fixture", got == want, f"got {got}")


# -- 6. greedy engine matches a reference simulation -------------------------


def test_c06_greedy_reference():
    ok = True
    detail = []
    for seed in (61, 62, 63):
        db = random_chain_db(seed)
        cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:4]
        cfg = LearnConfig(gls_outer_iters=4)
        engine = gls_structure_learn(cands, db, cfg)
        ref_ids, ref_w, _ = greedy_reference(cands, db, cfg)
        same_seq = [c.id for c in engine.clauses] == [cands[i].id for i in ref_ids]
        same_w = np.allclose(engine.weights, ref_w, atol=1e-9)
        # the first pick must be the best single-clause model by brute force
        first_ok = True
        if engine.clauses:
            inner = replace(cfg, max_iters=cfg.gls_inner_iters)
            scores = []
            for c in cands:
                g = ground_clauses([c], db)
                fitted = learn_weights(WeightedModel([c], np.zeros(1)), g, db.value_vector(), "pll", inner)
                scores.append(log_pll(fitted, g, db.value_vector()).total)
            first_ok = engine.clauses[0].id == cands[int(np.argmax(scores))].id
        ok = ok and same_seq and same_w and first_ok
        detail.append(f"seed {seed}: seq={same_seq} w={same_w} first={first_ok}")
    report(6, "greedy-reference", ok, "; ".join(detail))


# -- 7. structure recovery on planted rules ----------------------------------


def test_c07_synthetic_recovery():
    started = time.perf_counter()
    fx = recovery_fixture(0)
    db = fx.train_db()
    true_ids = {fx.candidates[0].id, fx.candidates[1].id}
    decoy_ids = {c.id for c in fx.candidates[2:12]}
    cfg = LearnConfig()

    ppll_model = ppll_structure_learn(fx.candidates, db, cfg)
    gls_model = gls_structure_learn(fx.candidates, db, cfg)

    ppll_w = {c.id: float(w) for c, w in zip(ppll_model.clauses, ppll_model.weights)}
    ppll_retains = true_ids <= set(ppll_w)
    gls_retains = true_ids <= {c.id for c in gls_model.clauses}
    max_decoy = max((ppll_w.get(d, 0.0) for d in decoy_ids), default=0.0)
    min_true = min(ppll_w.get(t, 0.0) for t in true_ids)
    weights_ok = min_true > max_decoy

    edb, free, labels = fx.eval_db()
    aucs = {}
    for name, model in (("ppll", ppll_model), ("gls", gls_model)):
        grounding = ground_clauses(model.clauses, edb, free_atoms=free)
        sol = map_infer(model, edb, free_atoms=free, grounding=grounding)
        scores = {}
        for i in free:
            names = edb.pred_names[edb.pred[i]], edb.constants[edb.arg1[i]], edb.constants[edb.arg2[i]]
            scores[names] = sol.values[i]
        aucs[name] = auc_roc(scores, labels).auc
    elapsed = time.perf_counter() - started
    ok = (
        ppll_retains and gls_retains and weights_ok
        and min(aucs.values()) >= 0.9 and elapsed <= 120.0
    )
    report(7, "synthetic-recovery", ok,
           f"true w min {min_true:.2f} > decoy max {max_decoy:.2f}, "
           f"AUC ppll {aucs['ppll']:.3f} gls {aucs['gls']:.3f}, {elapsed:.0f}s")


# -- 8. runtime scaling: decoupled learning vs greedy search ------------------


def test_c08_scaling_study():
    started = time.perf_counter()
    fx = scaling_fixture(0)
    db = fx.train_db()
    assert len(db.targets) >= 500 and len(fx.candidates) == 100
    cfg = LearnConfig()

    def timed(learner, n):
        t0 = time.perf_counter()
        learner(fx.candidates[:n], db, cfg)
        return time.perf_counter() - t0

    t_ppll_25 = timed(ppll_structure_learn, 25)
    t_ppll_100 = timed(ppll_structure_learn, 100)
    t_gls_100 = timed(gls_structure_learn, 100)
    elapsed = time.perf_counter() - started
    ratio = t_gls_100 / t_ppll_100
    growth = t_ppll_100 / t_ppll_25
    ok = ratio >= 10.0 and growth <= 6.0 and elapsed <= 900.0
    report(8, "scaling-study", ok,
           f"gls/ppll at n=100: {ratio:.1f}x, ppll growth 25->100: {growth:.2f}x, total {elapsed:.0f}s")


# -- 9. byte-identical outputs across thread counts ---------------------------


def test_c09_determinism(tmp_path):
    fixture_dir = tmp_path / "fx"
    write_fixture(recovery_fixture(0), str(fixture_dir))

    def pipeline(tag, threads):
        clauses = tmp_path / f"clauses_{tag}.tsv"
        model = tmp_path / f"model_{tag}.tsv"
        preds = tmp_path / f"preds_{tag}.tsv"
        base = (
            "--schema", fixture_dir / "schema.tsv", "--observed", fixture_dir / "observed.tsv",
            "--train", fixture_dir / "train.tsv", "--threads", threads, "--seed", 7,
        )
        assert cli_main([str(a) for a in (
            "generate", *base, "--out", clauses, "--max-depth", 2, "--min-coverage", 3)]) == 0
        assert cli_main([str(a) for a in (
            "learn", *base, "--clauses", clauses, "--method", "ppll", "--out", model)]) == 0
        assert cli_main([str(a) for a in (
            "infer", *base, "--test", fixture_dir / "test.tsv", "--model", model, "--out", preds)]) == 0
        return clauses, model, preds

    first = pipeline("t1", 1)
    second = pipeline("t8", 8)
    same = [filecmp.cmp(a, b, shallow=False) for a, b in zip(first, second)]
    report(9, "determinism", all(same), f"clauses/model/predictions identical: {same}")


# -- 10. ADMM MAP vs exhaustive grid search -----------------------------------


def test_c10_map_grid_oracle():
    worst = 0.0
    for seed in range(50):
        db, model, grounding, free = random_map_instance(seed)
        sol = map_infer(model, db, free_atoms=free, grounding=grounding)
        want = chain_grid_min(model, grounding, db, free)
        worst = max(worst, abs(sol.objective - want))
    report(10, "map-grid-oracle", worst <= 1e-3, f"worst objective gap {worst:.2e}")
