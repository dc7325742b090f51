"""Scoring: the engine's integrals against closed forms and adaptive
quadrature, both objectives."""
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import hinge_workspace, random_chain_db

from hlsl.clauses import GenerationConfig, generate_candidates, negative_prior, parse_clause
from hlsl.data import AtomDatabase, PredicateSymbol, build_adjacency
from hlsl.engine import Workspace, exp_moments
from hlsl.grounding import ground_clauses
from hlsl.learning import WeightedModel
from hlsl.scoring import log_pll, log_ppll


def folded_hinges(grounding, atom, weights, observed, clause_ids=None):
    """(weight, a, b) of every ground clause that holds `atom`, with all other
    atoms folded at their observed values: the atom's conditional energy is
    sum w * max(a + b*y, 0)**p. Reads the flat arrays term by term."""
    out = []
    for g, (start, count) in enumerate(zip(grounding.term_start, grounding.term_count)):
        clause = int(grounding.g_clause[g])
        if clause_ids is not None and clause not in clause_ids:
            continue
        atoms = grounding.term_atom[start : start + count]
        if atom not in atoms:
            continue
        a, b = float(grounding.g_const0[g]), 0.0
        for other, c in zip(atoms, grounding.term_coef[start : start + count]):
            if other == atom:
                b += float(c)
            else:
                a += float(c) * float(observed[other])
        out.append((float(weights[clause]), a, b))
    return out


def quad_log_partition(hinges, p=1):
    """log integral_0^1 exp(-sum w * max(a + b*y, 0)**p) dy by adaptive
    quadrature, split at the hinge roots."""
    f = lambda y: sum(w * max(a + b * y, 0.0) ** p for w, a, b in hinges)
    cuts = hinge_cuts(hinges)
    z, _ = quad(lambda y: np.exp(-f(y)), 0.0, 1.0, points=cuts, limit=200, epsabs=1e-13, epsrel=1e-13)
    return np.log(z)


def quad_expected(hinges, hinge, p=1):
    """E[max(a + b*y, 0)**p] for `hinge` = (a, b) under the density
    proportional to exp(-sum w * max(a_j + b_j y, 0)**p), by adaptive
    quadrature split at every hinge root."""
    a, b = hinge
    f = lambda y: sum(w * max(aa + bb * y, 0.0) ** p for w, aa, bb in hinges)
    cuts = hinge_cuts(hinges + [(0.0, a, b)])
    opts = dict(points=cuts, limit=200, epsabs=1e-13, epsrel=1e-13)
    num, _ = quad(lambda y: max(a + b * y, 0.0) ** p * np.exp(-f(y)), 0.0, 1.0, **opts)
    z, _ = quad(lambda y: np.exp(-f(y)), 0.0, 1.0, **opts)
    return num / z


def hinge_cuts(hinges):
    """0, 1 and the hinge roots inside (0, 1), sorted."""
    return sorted({0.0, 1.0} | {-a / b for _w, a, b in hinges if b != 0.0 and 0.0 < -a / b < 1.0})


def random_hinges(rng, max_hinges=8, w_hi=5.0):
    n = int(rng.integers(1, max_hinges + 1))
    return [
        (float(rng.uniform(0.0, w_hi)), float(rng.uniform(-2.0, 2.0)), float(rng.choice([-1.0, 1.0])))
        for _ in range(n)
    ]


def log_z(hinges, p=1):
    """log Z of the one-variable profile built from `hinges`."""
    ws, w = hinge_workspace(hinges, p)
    return float(ws.log_partitions(w)[0])


def expected(hinges, hinge, p=1):
    """E[max(a + b*y, 0)**p] under the `hinges` profile: `hinge` rides along
    as a weight-0 clause, so its root joins the tiling."""
    ws, w = hinge_workspace(hinges + [(0.0, *hinge)], p)
    return float(ws.expected_penalties(w)[-1])


# -- profiles of the running example -----------------------------------------


def test_profile_trivial_cases(citation_db):
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    prior = negative_prior("Mentions")
    grounding = ground_clauses([clause, prior], citation_db)
    ws = Workspace(grounding, citation_db.value_vector(), mode="pll")
    (head,) = np.flatnonzero(ws.group_atom == 2)

    # head variable with body all 1, w=1, prior off: f(y) = 1 - y
    assert ws.log_partitions(np.array([1.0, 0.0]))[head] == pytest.approx(np.log(1 - np.exp(-1)), abs=1e-12)
    # negative prior only, w=2: f(y) = 2y
    assert ws.log_partitions(np.array([0.0, 2.0]))[head] == pytest.approx(np.log((1 - np.exp(-2)) / 2), abs=1e-12)
    # head clause w=1 plus prior w=1: constant profile f = 1, a uniform density
    w = np.array([1.0, 1.0])
    assert ws.log_partitions(w)[head] == pytest.approx(-1.0, abs=1e-12)
    mine = ws.pair_atom == 2
    assert ws.expected_penalties(w)[mine] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_profile_matches_pointwise_sum():
    db = random_chain_db(3)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    rng = np.random.default_rng(0)
    w = rng.uniform(0, 3, len(cands))
    ws = Workspace(grounding, obs, mode="pll")
    alpha, beta = ws._segment_coeffs(w)
    for g, atom in enumerate(ws.group_atom[:8]):
        hinges = folded_hinges(grounding, atom, w, obs)
        segs = range(ws.group_seg_start[g], ws.group_seg_start[g] + ws.seg_count[g])
        assert ws.seg_lo[segs[0]] == 0.0 and ws.seg_hi[segs[-1]] == 1.0
        for s in segs:
            for y in np.linspace(ws.seg_lo[s], ws.seg_hi[s], 5):
                direct = sum(wc * max(a + b * y, 0.0) for wc, a, b in hinges)
                assert alpha[s] + beta[s] * y == pytest.approx(direct, abs=1e-10)


# -- integrals ---------------------------------------------------------------


def test_log_partition_flat_profile():
    assert log_z([(0.0, 0.0, 1.0)]) == pytest.approx(0.0)
    # constant energy alpha: Z = exp(-alpha)
    assert log_z([(1.7, 1.0, 0.0)]) == pytest.approx(-1.7)


def test_log_partition_known_values():
    # f(y) = 1 - y: Z = 1 - exp(-1); f(y) = 2y: Z = (1 - exp(-2)) / 2
    assert log_z([(1.0, 1.0, -1.0)]) == pytest.approx(np.log(1 - np.exp(-1)), abs=1e-12)
    assert log_z([(2.0, 0.0, 1.0)]) == pytest.approx(np.log((1 - np.exp(-2)) / 2), abs=1e-12)


def test_expected_penalty_uniform_cases():
    assert expected([], (0.0, 1.0)) == pytest.approx(0.5)
    assert expected([], (1.0, -1.0)) == pytest.approx(0.5)
    want = quad(lambda y: y * np.exp(-2 * y), 0, 1)[0] / quad(lambda y: np.exp(-2 * y), 0, 1)[0]
    assert expected([(2.0, 0.0, 1.0)], (0.0, 1.0)) == pytest.approx(want, abs=1e-10)


def test_integrals_against_quadrature_randomized():
    rng = np.random.default_rng(123)
    for _ in range(200):
        hinges = random_hinges(rng)
        assert log_z(hinges) == pytest.approx(quad_log_partition(hinges), abs=1e-9)
        hinge = (float(rng.uniform(-1.5, 1.5)), float(rng.choice([-1.0, 1.0])))
        assert expected(hinges, hinge) == pytest.approx(quad_expected(hinges, hinge), abs=1e-9)


@pytest.mark.parametrize(
    "v",
    [0.0, 1e-12, 1e-6, 1.1e-6, 3e-6, 1e-5, 0.3, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 10.0, 100.0, 1e3, 1e4],
)
def test_exp_moment2_against_quadrature(v):
    # every J_r of the family up to r = 2, on both sides of the series cut
    # at v = 1, at the small v where a closed form cancels, and on steep
    # profiles whose mass sits in the first 1/v of the interval
    got = exp_moments(np.array([v]))
    for r in range(3):
        want, _ = quad(lambda s: s**r * np.exp(-v * s), 0.0, 1.0, points=[min(1.0, 10.0 / max(v, 1.0))],
                       limit=200, epsabs=0.0, epsrel=1e-13)
        assert got[r, 0] == pytest.approx(want, rel=1e-12)


def test_exp_moment2_finite_at_the_ends():
    out = exp_moments(np.array([0.0, 1e150, 1e300, np.finfo(np.float64).max]))
    assert np.isfinite(out).all() and (out[:, 1:] >= 0.0).all()
    assert out[:, 0] == pytest.approx([1.0, 1.0 / 2.0, 1.0 / 3.0], rel=1e-15)


def test_integrals_extreme_weights_stay_finite():
    # energies large enough to underflow exp(-f) outside log space:
    # f = 900 on [0, 0.5], 900 + 200 (y - 0.5)^p on [0.5, 1]; quadrature
    # resolves the profile without its constant 900
    steep = (200.0, -0.5, 1.0)
    hinges = [(900.0, 1.0, 0.0), steep]
    for p in (1, 2):
        lz = log_z(hinges, p)
        assert np.isfinite(lz) and lz == pytest.approx(quad_log_partition([steep], p) - 900.0, abs=1e-9)
        e = expected(hinges, (0.5, 1.0), p)
        assert np.isfinite(e) and e == pytest.approx(quad_expected([steep], (0.5, 1.0), p), abs=1e-9)
    assert log_z(hinges) == pytest.approx(-900.0 + np.log(0.5 + (1 - np.exp(-100)) / 200), abs=1e-9)


def test_quadratic_profile_partition_and_expectation():
    db = AtomDatabase([PredicateSymbol("P"), PredicateSymbol("T", is_target=True)])
    db.add_atom("P", "a", "b")
    db.add_atom("T", "a", "b", 0.4)
    build_adjacency(db)
    clause = parse_clause("P(V1,V2) -> T(V1,V2)", db)
    grounding = ground_clauses([clause, negative_prior("T")], db)
    ws = Workspace(grounding, db.value_vector(), mode="pll", p=2)
    w = np.array([1.3, 0.7])
    f = lambda y: 1.3 * max(1 - y, 0.0) ** 2 + 0.7 * max(y, 0.0) ** 2
    z = quad(lambda y: np.exp(-f(y)), 0, 1, epsabs=1e-13)[0]
    assert ws.log_partitions(w) == pytest.approx([np.log(z)], abs=1e-9)
    num = quad(lambda y: max(1 - y, 0.0) ** 2 * np.exp(-f(y)), 0, 1, epsabs=1e-13)[0]
    # pair 0 is the rule's hinge 1 - y on T(a,b)
    assert ws.pair_atom[0] == 1 and (ws.pair_a[0], ws.pair_b[0]) == (1.0, -1.0)
    assert ws.expected_penalties(w)[0] == pytest.approx(num / z, abs=1e-8)


# -- model objectives --------------------------------------------------------


def test_log_pll_empty_model(citation_db):
    grounding = ground_clauses([], citation_db)
    report = log_pll(WeightedModel([], np.zeros(0)), grounding, citation_db.value_vector())
    assert report.total == 0.0


def test_log_pll_prior_only_value():
    db = AtomDatabase([PredicateSymbol("T", is_target=True)])
    db.add_atom("T", "x", "y", 0.0)
    build_adjacency(db)
    prior = negative_prior("T")
    grounding = ground_clauses([prior], db)
    report = log_pll(WeightedModel([prior], np.array([2.0])), grounding, db.value_vector())
    # -log Z with Z = (1 - exp(-2)) / 2, observed energy 0
    assert report.total == pytest.approx(-np.log((1 - np.exp(-2)) / 2), abs=1e-9)
    assert report.total == pytest.approx(0.8384, abs=1e-3)


def test_all_zero_weights_score_zero():
    db = random_chain_db(4)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    model = WeightedModel(list(cands), np.zeros(len(cands)))
    assert log_pll(model, grounding, obs).total == pytest.approx(0.0, abs=1e-12)
    assert log_ppll(model, grounding, obs).total == pytest.approx(0.0, abs=1e-12)


def test_empty_model_scores_zero_with_no_clause_terms():
    db = random_chain_db(4)
    model, grounding = WeightedModel([], np.zeros(0)), ground_clauses([], db)
    assert log_pll(model, grounding, db.value_vector()).total == 0.0
    report = log_ppll(model, grounding, db.value_vector())
    assert report.total == 0.0 and report.per_clause == {}


def test_single_clause_ppll_equals_pll():
    db = random_chain_db(5)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses([cands[0]], db)
    obs = db.value_vector()
    model = WeightedModel([cands[0]], np.array([1.7]))
    assert log_ppll(model, grounding, obs).total == pytest.approx(
        log_pll(model, grounding, obs).total, abs=1e-12
    )


def test_ppll_additivity_and_decomposition(citation_db):
    clause = parse_clause("Cites(V1,V2) & Mentions(V2,V3) -> Mentions(V1,V3)", citation_db)
    prior = negative_prior("Mentions")
    obs = citation_db.value_vector()
    both = ground_clauses([clause, prior], citation_db)
    model = WeightedModel([clause, prior], np.array([1.2, 0.8]))
    report = log_ppll(model, both, obs)
    # the piecewise total is the sum of the two single-clause pseudolikelihoods
    singles = []
    for i, c in enumerate([clause, prior]):
        g = ground_clauses([c], citation_db)
        singles.append(log_pll(WeightedModel([c], model.weights[i : i + 1]), g, obs).total)
    assert report.total == pytest.approx(sum(singles), abs=1e-12)
    assert report.per_clause[0] == pytest.approx(singles[0], abs=1e-12)
    assert report.per_clause[1] == pytest.approx(singles[1], abs=1e-12)
    # report totals equal the sum of their parts
    assert report.total == pytest.approx(sum(report.per_clause.values()), abs=1e-9)
    assert report.total == pytest.approx(sum(-z - e for z, e in report.per_variable.values()), abs=1e-9)


def test_single_clause_concavity_in_weight():
    db = random_chain_db(6)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    rng = np.random.default_rng(9)
    ws = Workspace(grounding, obs, mode="ppll")
    for _ in range(40):
        w = rng.uniform(0.05, 4.0, len(cands))
        delta = rng.uniform(0.01, 0.05)
        lo, mid, hi = (
            ws.per_clause_totals(np.maximum(w - delta, 0.0)),
            ws.per_clause_totals(w),
            ws.per_clause_totals(w + delta),
        )
        assert np.all(mid >= (lo + hi) / 2 - 1e-9)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_block_totals_equal_each_blocks_own_workspace(p, seed):
    """Under any contiguous clause -> block map, each entry of `total` is bit
    for bit the one-block `total` of a workspace over that block's clauses
    alone, each block's slice of `gradient` is bit for bit that workspace's
    gradient, and `gradient(with_terms=True)` returns the same totals."""
    db = random_chain_db(40 + seed)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    rng = np.random.default_rng(seed)
    n = len(cands)
    block = np.concatenate([[0], np.cumsum(rng.random(n - 1) < 0.3)])
    w = rng.uniform(0.0, 3.0, n)
    ws = Workspace(grounding, obs, p=p, clause_block=block)
    totals, grad = ws.total(w), ws.gradient(w)
    assert len(totals) == block[-1] + 1 > 1
    for k in range(len(totals)):
        own = np.flatnonzero(block == k)
        solo = Workspace(grounding.restrict(own.tolist()), obs, p=p)
        assert np.array_equal(solo.total(w[own]), totals[k : k + 1])
        assert np.array_equal(solo.gradient(w[own]), grad[own])
    assert np.array_equal(ws.gradient(w, with_terms=True)[1], totals)


def assert_engine_matches_quadrature(grounding, obs, w, mode, p, tol):
    """Every group's log Z and every pair's expected penalty against
    adaptive quadrature over the hinges folded from the grounding's arrays."""
    ws = Workspace(grounding, obs, mode=mode, p=p)
    lz = ws.log_partitions(w)
    e = ws.expected_penalties(w)
    for g in range(ws.n_groups):
        atom = int(ws.group_atom[g])
        clause_ids = None if mode == "pll" else {int(ws.group_block[g])}
        hinges = folded_hinges(grounding, atom, w, obs, clause_ids)
        assert float(lz[g]) == pytest.approx(quad_log_partition(hinges, p), abs=tol)
        for k in np.flatnonzero(ws.pair_group == g):
            hinge = (float(ws.pair_a[k]), float(ws.pair_b[k]))
            assert float(e[k]) == pytest.approx(quad_expected(hinges, hinge, p), abs=tol)


def test_engine_matches_quadrature_pll_and_ppll():
    db = random_chain_db(7)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    rng = np.random.default_rng(21)
    w = rng.uniform(0, 2.5, len(cands))
    for mode in ("pll", "ppll"):
        assert_engine_matches_quadrature(grounding, obs, w, mode, p=1, tol=1e-10)


def test_engine_squared_hinge_matches_profiles_and_quadrature():
    db = random_chain_db(33)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 2.0, len(cands))
    for mode in ("pll", "ppll"):
        assert_engine_matches_quadrature(grounding, obs, w, mode, p=2, tol=1e-9)
    # gradient against finite differences of the p=2 objective
    from hlsl.learning import objective_gradient

    h = 1e-5
    model = WeightedModel(list(cands), w)
    grad = objective_gradient(model, grounding, obs, "pll", p=2)
    for i in range(len(cands)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (
            log_pll(WeightedModel(list(cands), wp, 2), grounding, obs).total
            - log_pll(WeightedModel(list(cands), wm, 2), grounding, obs).total
        ) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_scores_deterministic_across_runs():
    db = random_chain_db(8)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    grounding = ground_clauses(cands, db)
    obs = db.value_vector()
    model = WeightedModel(list(cands), np.linspace(0, 2, len(cands)))
    a = log_pll(model, grounding, obs).total
    b = log_pll(model, grounding, obs).total
    assert a == b


def central_curvature(ws, w, h=1e-5):
    """Minus every block's Hessian, (blocks, width, width), by central
    differences of `Workspace.gradient`."""
    fd = np.zeros((ws.n_blocks, ws.width, ws.width))
    for c in range(ws.n_clauses):
        step = h * max(1.0, abs(w[c]))
        up, down = w.copy(), w.copy()
        up[c] += step
        down[c] -= step
        column = -(ws.gradient(up) - ws.gradient(down)) / (2.0 * step)
        own = ws.clause_block == ws.clause_block[c]
        fd[ws.clause_block[c], ws.clause_slot[own], ws.clause_slot[c]] = column[own]
    return fd


def assert_combos_are_the_incidences_where_hinges_are_on(ws):
    """Every combo's hinge is positive at its segment's midpoint, and each
    pair's combos are exactly the segments of its group where it is."""
    mid = ws.seg_mid[ws.combo_seg]
    assert (ws.pair_a[ws.combo_pair] + ws.pair_b[ws.combo_pair] * mid > 0.0).all()
    want = []
    for i in range(ws.n_pairs):
        first = ws.group_seg_start[ws.pair_group[i]]
        for s in range(first, first + ws.seg_count[ws.pair_group[i]]):
            if ws.pair_a[i] + ws.pair_b[i] * ws.seg_mid[s] > 0.0:
                want.append((i, s))
    assert list(zip(ws.combo_pair.tolist(), ws.combo_seg.tolist())) == want


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_curvature_matches_central_differences(p, seed):
    """`gradient(with_curvature=True)` against central differences of the
    gradient under the pll, ppll and lockstep (a block per gls extension)
    maps, on soft evidence whose groups hold several segments, with one
    steep clause and one clause that grounds nowhere; a lockstep block's
    matrix is bit for bit that of a workspace over its clauses alone. The
    combos are only the incidences where a hinge is on."""
    db = random_chain_db(60 + seed)
    cands = generate_candidates(db, GenerationConfig(max_depth=2, min_coverage=1))
    vacuous = parse_clause("P(V1,V2) & P(V2,V3) -> T(V1,V3)", db)  # P leaves only a* atoms
    clauses = cands + [vacuous]
    n = len(clauses)
    pool, obs = ground_clauses(clauses, db), db.value_vector()
    assert len(pool.restrict([n - 1])) == 0
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 3.0, n)
    w[0] = 60.0
    extensions = [[0, c] for c in range(1, n)]
    lockstep = [i for ext in extensions for i in ext]
    maps = [
        (pool, np.zeros(n, dtype=np.int64), w),
        (pool, np.arange(n), w),
        (pool.restrict(lockstep), np.repeat(np.arange(len(extensions)), 2), w[lockstep]),
    ]
    for grounding, block, wv in maps:
        ws = Workspace(grounding, obs, p=p, clause_block=block)
        assert (ws.seg_count > 1).any()
        assert_combos_are_the_incidences_where_hinges_are_on(ws)
        if p == 1:
            _alpha, beta = ws._segment_coeffs(wv)
            assert (np.abs(beta) * ws.seg_len).max() > 20.0  # a steep segment
        grad, totals, curv = ws.gradient(wv, with_terms=True, with_curvature=True)
        assert np.array_equal(grad, ws.gradient(wv)) and np.array_equal(totals, ws.total(wv))
        np.testing.assert_allclose(curv, central_curvature(ws, wv), rtol=1e-7, atol=1e-7)
        # the clause that grounds nowhere has no curvature with any clause
        assert not curv[ws.clause_block[-1], ws.clause_slot[-1]].any()
        assert not curv[ws.clause_block[-1], :, ws.clause_slot[-1]].any()
    ws = Workspace(maps[2][0], obs, p=p, clause_block=maps[2][1])
    curv = ws.gradient(maps[2][2], with_curvature=True)[1]
    for b, ext in enumerate(extensions):
        solo = Workspace(pool.restrict(ext), obs, p=p)
        assert np.array_equal(solo.gradient(w[ext], with_curvature=True)[1][0], curv[b])
