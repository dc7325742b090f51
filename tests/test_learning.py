"""Learning: gradients, projected Newton fits, both structure learners, model IO."""
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from conftest import random_chain_db

from hlsl.clauses import GenerationConfig, format_clause, generate_candidates, negative_prior, parse_clause
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency
from hlsl.engine import Workspace
from hlsl.errors import MalformedLine, NoCandidates
from hlsl.grounding import ground_clauses
from hlsl.learning import (
    LearnConfig,
    WeightedModel,
    _refit_extensions,
    gls_structure_learn,
    learn_weights,
    objective_gradient,
    ppll_structure_learn,
    read_model,
    write_model,
    write_trace,
)
from hlsl.scoring import log_pll, log_ppll


def single_target_db(value: float) -> AtomDatabase:
    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "x", "y", value)
    return build_adjacency(db)


def test_gradient_prior_at_zero_weight():
    # uniform density: expected penalty 0.5, observed 0.3 -> gradient 0.2
    db = single_target_db(0.3)
    prior = negative_prior("T")
    grounding = ground_clauses([prior], db)
    model = WeightedModel([prior], np.zeros(1))
    grad = objective_gradient(model, grounding, db.value_vector(), "pll")
    assert grad[0] == pytest.approx(0.2, abs=1e-12)


def test_gradient_zero_at_stationary_point():
    db = single_target_db(0.5)
    prior = negative_prior("T")
    grounding = ground_clauses([prior], db)
    model = WeightedModel([prior], np.zeros(1))
    for objective in ("pll", "ppll"):
        grad = objective_gradient(model, grounding, db.value_vector(), objective)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_gradient_single_clause_pll_equals_ppll():
    db = random_chain_db(0)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses([cands[0]], db)
    model = WeightedModel([cands[0]], np.array([0.9]))
    obs = db.value_vector()
    a = objective_gradient(model, grounding, obs, "pll")
    b = objective_gradient(model, grounding, obs, "ppll")
    assert a[0] == pytest.approx(b[0], abs=1e-12)


@pytest.mark.parametrize("objective", ["pll", "ppll"])
def test_gradient_matches_finite_differences(objective):
    db = random_chain_db(13)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    score = log_pll if objective == "pll" else log_ppll
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(8):
        w = rng.uniform(0.1, 3.0, len(cands))
        grad = objective_gradient(WeightedModel(list(cands), w), grounding, obs, objective)
        for i in range(len(cands)):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (
                score(WeightedModel(list(cands), wp), grounding, obs).total
                - score(WeightedModel(list(cands), wm), grounding, obs).total
            ) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_gradient_includes_gaussian_prior_term():
    db = single_target_db(0.3)
    prior = negative_prior("T")
    grounding = ground_clauses([prior], db)
    model = WeightedModel([prior], np.array([2.0]))
    bare = objective_gradient(model, grounding, db.value_vector(), "pll", l2_sigma=0.0)
    reg = objective_gradient(model, grounding, db.value_vector(), "pll", l2_sigma=50.0)
    assert reg[0] == pytest.approx(bare[0] - 2.0 / 50.0, abs=1e-12)


def test_learn_weights_stationary_start_stays():
    # observed 0.5 is the uniform conditional's mean, so the gradient at w = 0
    # is 0: the clause is held at its lower bound with residual 0, and the
    # fit takes no step
    db = single_target_db(0.5)
    prior = negative_prior("T")
    grounding = ground_clauses([prior], db)
    trace = []
    model = learn_weights(
        WeightedModel([prior], np.zeros(1)), grounding, db.value_vector(), "pll",
        LearnConfig(l2_sigma=0.0), trace,
    )
    assert model.weights[0] == 0.0
    assert trace == []


def test_learn_weights_separable_hits_cap():
    # observed 0 with no prior: the optimum is at infinity, the cap binds.
    # The objective grows like log w, so a Newton step about doubles w:
    # 0 -> 6.x -> 12.x -> clipped at 20, where the gradient still points up,
    # so the clause is held there with residual 0
    db = single_target_db(0.0)
    prior = negative_prior("T")
    grounding = ground_clauses([prior], db)
    cfg = LearnConfig(tolerance=1e-12, max_iters=600, l2_sigma=0.0, w_max=20.0)
    trace = []
    model = learn_weights(WeightedModel([prior], np.zeros(1)), grounding, db.value_vector(), "pll", cfg, trace)
    assert model.weights[0] == 20.0
    assert len(trace) == 3 and trace[-1][2] == 0.0


def test_learn_weights_monotone_trace_and_projection():
    # at tolerance 0 the last steps gain less than the objective's rounding
    # error; the Armijo test allows 1e-13 of max(1, |objective|) for it, so
    # on objectives below 10 in size the trace never falls by 1e-12, and the
    # first step that gains no more than that ends the fit before its cap
    cfg = LearnConfig(max_iters=60, tolerance=0.0)
    for seed in (3, 5, 17):
        db = random_chain_db(seed)
        cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
        grounding = ground_clauses(cands, db)
        obs = db.value_vector()
        for objective in ("pll", "ppll"):
            trace = []
            model = learn_weights(
                WeightedModel(list(cands), np.zeros(len(cands))), grounding, obs, objective, cfg, trace,
            )
            objectives = [row[1] for row in trace]
            assert len(trace) < cfg.max_iters
            assert max(abs(o) for o in objectives) < 10.0
            assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))
            assert model.weights.min() >= 0.0
            assert model.weights.max() <= 100.0
            grad = objective_gradient(model, grounding, obs, objective, cfg.l2_sigma)
            residual = np.abs(np.clip(model.weights + grad, 0.0, cfg.w_max) - model.weights).max()
            assert trace[-1][2] == residual


def test_joint_ppll_equals_independent_runs():
    db = random_chain_db(19)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    cfg = LearnConfig(tolerance=0.0, max_iters=400)
    joint = learn_weights(WeightedModel(list(cands), np.zeros(len(cands))), grounding, obs, "ppll", cfg)
    for i, clause in enumerate(cands):
        alone = learn_weights(
            WeightedModel([clause], np.zeros(1)), grounding.restrict([i]), obs, "ppll", cfg
        )
        assert joint.weights[i] == pytest.approx(alone.weights[0], abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1, 2]),
    l2_sigma=st.sampled_from([0.0, 1.0, 100.0]),
)
def test_ppll_weights_match_per_clause_brentq(seed, p, l2_sigma):
    # each clause's weight maximizes its own piecewise term: the sign rule
    # puts it at a bound, else it is the root of its single-clause derivative
    db = random_chain_db(seed)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    cfg = LearnConfig(p=p, l2_sigma=l2_sigma, tolerance=1e-12, max_iters=200)
    model = learn_weights(WeightedModel(list(cands), np.zeros(len(cands))), grounding, obs, "ppll", cfg)
    for i, clause in enumerate(cands):
        alone = grounding.restrict([i])

        def derivative(w):
            one = WeightedModel([clause], np.array([w]))
            return objective_gradient(one, alone, obs, "ppll", l2_sigma, p)[0]

        w = model.weights[i]
        if derivative(0.0) <= 0.0:
            assert w == 0.0
        elif derivative(cfg.w_max) >= 0.0:
            assert w == cfg.w_max
        else:
            root = brentq(derivative, 0.0, cfg.w_max, xtol=1e-14, rtol=1e-15, maxiter=500)
            assert w == pytest.approx(root, abs=1e-8)
    grad = objective_gradient(model, grounding, obs, "ppll", l2_sigma, p)
    residual = np.abs(np.clip(model.weights + grad, 0.0, cfg.w_max) - model.weights)
    assert residual.max() <= cfg.tolerance


def test_ppll_trace_ends_with_the_stop_residual():
    db = random_chain_db(43)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    cfg = LearnConfig()
    for budget, converged in ((1, False), (150, True)):
        trace = []
        model = learn_weights(
            WeightedModel(list(cands), np.zeros(len(cands))), grounding, obs, "ppll",
            LearnConfig(max_iters=budget), trace,
        )
        grad = objective_gradient(model, grounding, obs, "ppll", cfg.l2_sigma)
        residual = np.abs(np.clip(model.weights + grad, 0.0, cfg.w_max) - model.weights).max()
        assert len(trace) <= budget and trace[-1][0] == len(trace)
        assert trace[-1][2] == pytest.approx(residual, rel=1e-9, abs=1e-12)
        assert (residual <= cfg.tolerance) == converged


def test_every_evaluated_point_costs_one_engine_pass(monkeypatch):
    # a fit's engine passes are its evaluated points, the start and each
    # line-search trial, each pass returning gradient, totals and curvature;
    # no pass is spent per clause. Every step of these fits takes its full
    # Newton step, so each step costs exactly one pass.
    calls = []
    gradient = Workspace.gradient

    def counted(self, w, **kwargs):
        calls.append(kwargs)
        return gradient(self, w, **kwargs)

    monkeypatch.setattr(Workspace, "gradient", counted)

    class Steps(list):
        """A trace that keeps, per step, the passes made so far."""

        def append(self, row):
            super().append(len(calls))

    db = random_chain_db(5)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    pool, obs = ground_clauses(cands, db), db.value_vector()
    cfg = LearnConfig(gls_inner_iters=50)
    assert len(cands) >= 5

    steps = Steps()
    learn_weights(WeightedModel(list(cands), np.zeros(len(cands))), pool, obs, "pll", cfg, steps)
    assert len(steps) >= 2 and list(steps) == list(range(2, len(steps) + 2))
    assert all(kwargs == {"with_terms": True, "with_curvature": True} for kwargs in calls)

    # one gls round: a block per extension of [clause 0], in lockstep for as
    # many steps as its slowest block takes alone
    calls.clear()
    remaining = list(range(1, len(cands)))
    _refit_extensions(pool, obs, [0], np.array([1.0]), remaining, cfg)
    round_passes = len(calls)
    longest = 0
    for cand in remaining:
        calls.clear()
        steps = Steps()
        inner = replace(cfg, max_iters=cfg.gls_inner_iters)
        start = WeightedModel([cands[0], cands[cand]], np.array([1.0, 0.0]))
        learn_weights(start, pool.restrict([0, cand]), obs, "pll", inner, steps)
        assert list(steps) == list(range(2, len(steps) + 2))
        longest = max(longest, len(steps))
    assert round_passes == 1 + longest


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("l2_sigma", [0.0, 100.0])
def test_refit_scores_are_the_totals_of_the_returned_weights(monkeypatch, p, l2_sigma):
    # a round's scores come from its fit's own engine passes, with no
    # separate `Workspace.total` pass, and equal that pass bit for bit. The
    # seeds and starts include rounds whose last step backtracks in some
    # blocks only, so a score taken from the wrong line-search pass shows.
    total = Workspace.total
    calls = []
    monkeypatch.setattr(Workspace, "total", lambda self, w: calls.append(w) or total(self, w))
    for seed in (8, 25):
        db = random_chain_db(seed)
        cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:6]
        pool, obs = ground_clauses(cands, db), db.value_vector()
        for inner in (1, 2, 4):
            cfg = LearnConfig(p=p, l2_sigma=l2_sigma, gls_inner_iters=inner)
            for chosen, chosen_w in (([], np.zeros(0)), ([0], np.array([20.0])), ([0, 2], np.array([0.5, 2.0]))):
                remaining = [c for c in range(len(cands)) if c not in chosen]
                w, scores, _ = _refit_extensions(pool, obs, chosen, chosen_w, remaining, cfg)
                assert calls == []
                sub = pool.restrict([i for cand in remaining for i in chosen + [cand]])
                blocks = np.repeat(np.arange(len(remaining)), len(chosen) + 1)
                ws = Workspace(sub, obs, p=p, clause_block=blocks)
                assert np.array_equal(scores, total(ws, w.ravel()))


def test_ppll_structure_learn_prunes_vacuous():
    # a clause whose body never grounds keeps weight 0 and is dropped
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "x", "y", 0.0)
    build_adjacency(db)
    vacuous = parse_clause("P(V1,V2) -> T(V1,V2)", db)
    model = ppll_structure_learn([vacuous], db, LearnConfig(l2_sigma=0.0))
    assert model.clauses == []
    # and one with support but zero observed penalty is retained
    model = ppll_structure_learn([negative_prior("T")], db, LearnConfig(l2_sigma=0.0))
    assert len(model.clauses) == 1 and model.weights[0] > 0.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1, 2]),
    l2_sigma=st.sampled_from([0.0, 1.0, 100.0]),
)
def test_ppll_structure_learn_keeps_the_clauses_fit_above_zero(seed, p, l2_sigma):
    db = random_chain_db(seed)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    cfg = LearnConfig(p=p, l2_sigma=l2_sigma)
    fit = learn_weights(WeightedModel(list(cands), np.zeros(len(cands))), grounding, obs, "ppll", cfg)
    model = ppll_structure_learn(cands, db, cfg)
    kept = fit.weights > 0.0
    assert model.clauses == [c for c, k in zip(cands, kept) if k]
    assert model.weights.tolist() == fit.weights[kept].tolist()
    assert fit.weights[~kept].tolist() == [0.0] * int((~kept).sum())
    # the KKT residual as the benchmark computes it from a model file:
    # every pool clause the model lacks counts at w = 0
    weights = {format_clause(c): w for c, w in zip(model.clauses, model.weights)}
    w = np.array([weights.get(format_clause(c), 0.0) for c in cands])
    grad = objective_gradient(WeightedModel(list(cands), w), grounding, obs, "ppll", l2_sigma, p)
    residual = np.abs(np.clip(w + grad, 0.0, cfg.w_max) - w)
    assert residual[~kept].max(initial=0.0) <= cfg.tolerance


def test_ppll_structure_learn_empty_candidates():
    db = single_target_db(1.0)
    with pytest.raises(NoCandidates):
        ppll_structure_learn([], db, LearnConfig())
    with pytest.raises(NoCandidates):
        gls_structure_learn([], db, LearnConfig())


def test_gls_matches_reference_greedy():
    from conftest import greedy_reference

    db = random_chain_db(23)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:4]
    cfg = LearnConfig(gls_outer_iters=4)
    engine = gls_structure_learn(cands, db, cfg)
    ref_ids, ref_w, _ = greedy_reference(cands, db, cfg)
    assert [c.id for c in engine.clauses] == [cands[i].id for i in ref_ids]
    assert np.allclose(engine.weights, ref_w, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 6),
    p=st.sampled_from([1, 2]),
    l2_sigma=st.sampled_from([0.0, 100.0]),
    inner=st.integers(1, 7),
    duplicate=st.booleans(),
)
def test_gls_equals_the_reference_greedy_exactly(seed, n, p, l2_sigma, inner, duplicate):
    # small inner budgets stop the refits of one round at different steps
    from conftest import greedy_reference

    db = random_chain_db(seed)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:n]
    if duplicate:
        # an equal copy ties with the first clause; the first must win
        cands.append(parse_clause(format_clause(cands[0]), db))
    cfg = LearnConfig(p=p, l2_sigma=l2_sigma, gls_inner_iters=inner, gls_outer_iters=4)
    model = gls_structure_learn(cands, db, cfg)
    ref_ids, ref_w, _ = greedy_reference(cands, db, cfg)
    assert [next(i for i, c in enumerate(cands) if c is m) for m in model.clauses] == ref_ids
    assert np.array_equal(model.weights, ref_w)


def test_gls_trace_holds_the_chosen_refits_projected_gradient():
    db = random_chain_db(47)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:6]
    obs = db.value_vector()
    residuals = []
    for cfg in (LearnConfig(gls_outer_iters=3, gls_inner_iters=3), LearnConfig(gls_outer_iters=3, l2_sigma=0.0, p=2)):
        trace = []
        model = gls_structure_learn(cands, db, cfg, trace)
        assert [row[0] for row in trace] == list(range(1, len(model) + 1))
        for r, row in enumerate(trace, start=1):
            # the first r rounds of a longer search are a search of r rounds
            fit = gls_structure_learn(cands, db, replace(cfg, gls_outer_iters=r))
            grad = objective_gradient(fit, ground_clauses(fit.clauses, db), obs, "pll", cfg.l2_sigma, cfg.p)
            residual = np.abs(np.clip(fit.weights + grad, 0.0, cfg.w_max) - fit.weights).max()
            assert row[2] == pytest.approx(residual, rel=1e-9, abs=1e-12)
            residuals.append(residual)
    assert max(residuals) > 1e-6


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1, 2]),
    l2_sigma=st.sampled_from([0.0, 100.0]),
    inner=st.integers(1, 4),
)
def test_every_gls_refit_converges_or_spends_its_step_cap(seed, p, l2_sigma, inner):
    # replays gls's rounds: every refit of a round ends with a residual of at
    # most `tolerance`, or took all `inner` steps (as its own run shows) and
    # reports the residual its weights have
    db = random_chain_db(seed)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:5]
    cfg = LearnConfig(p=p, l2_sigma=l2_sigma, gls_inner_iters=inner, gls_outer_iters=3)
    pool, obs = ground_clauses(cands, db), db.value_vector()
    trace = []
    model = gls_structure_learn(cands, db, cfg, trace)
    chosen, chosen_w, remaining = [], np.zeros(0), list(range(len(cands)))
    for row in trace + [None]:
        if not remaining or len(chosen) == cfg.gls_outer_iters:
            break
        w, scores, residual = _refit_extensions(pool, obs, chosen, chosen_w, remaining, cfg)
        for b, cand in enumerate(remaining):
            if residual[b] <= cfg.tolerance:
                continue
            fit = WeightedModel([cands[i] for i in chosen + [cand]], w[b])
            grounding = ground_clauses(fit.clauses, db)
            steps = []
            learn_weights(
                WeightedModel(fit.clauses, np.append(chosen_w, 0.0)), grounding, obs, "pll",
                replace(cfg, max_iters=inner), steps,
            )
            assert len(steps) == inner
            grad = objective_gradient(fit, grounding, obs, "pll", l2_sigma, p)
            assert residual[b] == np.abs(np.clip(fit.weights + grad, 0.0, cfg.w_max) - fit.weights).max()
        if row is None:
            break
        best = int(np.argmax(scores))
        assert row[2] == residual[best]
        chosen.append(remaining.pop(best))
        chosen_w = w[best]
    assert [cands[i] for i in chosen] == model.clauses


def test_learners_survive_a_clause_without_curvature():
    # with no prior, a clause without groundings has gradient and curvature
    # 0: away from its bounds it is a free clause whose Newton system only
    # the ridge keeps solvable
    db = random_chain_db(53)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:4]
    vacuous = parse_clause("P(V1,V2) & P(V2,V3) -> T(V1,V3)", db)  # P leaves only a* atoms
    clauses = cands + [vacuous]
    grounding = ground_clauses(clauses, db)
    assert len(grounding.restrict([len(cands)])) == 0
    cfg = LearnConfig(l2_sigma=0.0)
    start = np.append(np.ones(len(cands)), 0.7)
    fit = learn_weights(WeightedModel(clauses, start), grounding, db.value_vector(), "pll", cfg)
    assert np.isfinite(fit.weights).all() and fit.weights[-1] == 0.7
    for learner in (gls_structure_learn, ppll_structure_learn):
        model = learner(clauses, db, cfg)
        assert np.isfinite(model.weights).all() and len(model) > 0
        assert all(c is not vacuous for c in model.clauses)


def test_gls_first_pick_is_best_single_clause():
    db = random_chain_db(29)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:4]
    cfg = LearnConfig(gls_outer_iters=1)
    engine = gls_structure_learn(cands, db, cfg)
    observed = db.value_vector()
    from dataclasses import replace

    inner = replace(cfg, max_iters=cfg.gls_inner_iters)
    scores = []
    for c in cands:
        g = ground_clauses([c], db)
        fitted = learn_weights(WeightedModel([c], np.zeros(1)), g, observed, "pll", inner)
        scores.append(log_pll(fitted, g, observed).total)
    best = int(np.argmax(scores))
    if scores[best] > cfg.tolerance:
        assert engine.clauses[0].id == cands[best].id
    else:
        assert engine.clauses == []


def test_gls_huge_tolerance_returns_empty():
    db = random_chain_db(31)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:3]
    model = gls_structure_learn(cands, db, LearnConfig(tolerance=1e9))
    assert model.clauses == []


def test_gls_respects_outer_budget():
    db = random_chain_db(37)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))[:3]
    model = gls_structure_learn(cands, db, LearnConfig(gls_outer_iters=2, tolerance=0.0))
    assert len(model.clauses) <= 2
    model = gls_structure_learn(cands, db, LearnConfig(gls_outer_iters=0))
    assert model.clauses == []


def test_learners_run_with_squared_hinge():
    db = random_chain_db(41)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    cfg = LearnConfig(p=2, max_iters=40, gls_outer_iters=3)
    pm = ppll_structure_learn(cands, db, cfg)
    gm = gls_structure_learn(cands, db, cfg)
    assert all(w >= 0 for w in pm.weights)
    assert all(w >= 0 for w in gm.weights)


def test_model_file_round_trip(citation_db, tmp_path):
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    model = WeightedModel([clause, negative_prior("Mentions")], np.array([1.234567890123, 0.5]))
    buf = io.StringIO()
    write_model(model, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "# hlsl-model v1"
    again = read_model(io.StringIO(text), citation_db)
    assert [c.id for c in again.clauses] == [c.id for c in model.clauses]
    assert np.allclose(again.weights, model.weights, atol=1e-11)


def test_model_file_errors(citation_db):
    with pytest.raises(MalformedLine):
        read_model(io.StringIO("not a header\n"), citation_db)
    with pytest.raises(MalformedLine):
        read_model(io.StringIO("# hlsl-model v1\n-1.0\t-> !Mentions(A,B)\n"), citation_db)
    for weight in ("nan", "inf", "-nan"):
        with pytest.raises(MalformedLine, match="non-finite"):
            read_model(io.StringIO(f"# hlsl-model v1\n{weight}\t-> !Mentions(A,B)\n"), citation_db)


def test_trace_format():
    buf = io.StringIO()
    write_trace([(1, -3.5, 0.25)], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split("\t")[0] == "1"


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_weighted_model_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError, match="finite"):
        WeightedModel([negative_prior("T")], [weight])


# one bad value per field runs through the CLI in test_cli; these are the rest
@pytest.mark.parametrize(
    "field, value",
    [
        ("tolerance", float("inf")),
        ("w_max", 0.0),
        ("w_max", float("inf")),
        ("l2_sigma", -1.0),
        ("p", 3),
    ],
)
def test_learn_config_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        LearnConfig(**{field: value})


def test_learn_config_accepts_zero_budgets_and_tolerance():
    cfg = LearnConfig(max_iters=0, gls_outer_iters=0, gls_inner_iters=0, tolerance=0.0, l2_sigma=0.0)
    assert cfg.gls_outer_iters == 0 and cfg.tolerance == 0.0
