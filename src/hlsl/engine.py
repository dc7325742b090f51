"""Vectorized per-variable conditional scoring core.

Pseudolikelihood objectives reduce to one-dimensional integrals of
exp(-energy) over [0, 1], where the energy seen by a single variable is a
nonnegative weighted sum of hinges w * max(a + b*y, 0). The hinge roots
-a/b do not depend on the weights, so for a fixed grounding and observed
assignment the segment structure is static and every weight update only
re-accumulates per-segment affine coefficients. This module builds that
static structure once and evaluates partition functions, observed energies
and expectation gradients as flat array passes.

Grouping decides the objective. Every clause belongs to a block and hinges
are grouped by (block, variable); a block's objective is the sum of its
groups' terms -log Z - energy(observed), and `Workspace.total` returns
every block's at once. With one block this is the pseudolikelihood; with a
block per clause it is the piecewise factorization, whose per-clause terms
decouple; with a block per model it is the pseudolikelihood of several
independent models over one set of arrays, so their fits can step together.

All accumulations run in log space with per-group max subtraction, and all
reductions follow a fixed array order, so repeated runs give bit-identical
results.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .data import spans
from .grounding import Grounding

BETA_FLAT = 1e-12  # below this slope a segment integrates as a constant
_J1_SERIES_CUT = 1e-6


@lru_cache(maxsize=4)
def gauss_legendre_01(n: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights rescaled to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def exp_moment0(v: np.ndarray) -> np.ndarray:
    """integral_0^1 exp(-v s) ds, stable for v >= 0."""
    v = np.asarray(v, dtype=np.float64)
    small = v <= BETA_FLAT
    safe = np.where(small, 1.0, v)
    return np.where(small, 1.0 - v / 2.0, -np.expm1(-safe) / safe)


def exp_moment1(v: np.ndarray) -> np.ndarray:
    """integral_0^1 s exp(-v s) ds, stable for v >= 0."""
    v = np.asarray(v, dtype=np.float64)
    small = v <= _J1_SERIES_CUT
    safe = np.where(small, 1.0, v)
    series = 0.5 - v / 3.0 + v * v / 8.0
    exact = (-np.expm1(-safe) - safe * np.exp(-safe)) / (safe * safe)
    return np.where(small, series, exact)


def segment_log_partition(
    alpha: np.ndarray, beta: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """log integral_lo^hi exp(-(alpha + beta*y)) dy per segment.

    The exponential is factored at the segment end where it peaks, so the
    result stays finite for arbitrarily large energies.
    """
    length = hi - lo
    anchor = np.where(beta >= 0.0, lo, hi)
    peak = -(alpha + beta * anchor)
    u = np.abs(beta) * length
    flat = np.abs(beta) <= BETA_FLAT
    safe_u = np.where(flat, 1.0, u)
    ratio = np.where(flat, 1.0, -np.expm1(-safe_u) / safe_u)
    return peak + np.log(length * ratio)


def segment_log_moment(
    alpha: np.ndarray,
    beta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """log integral_lo^hi (a + b*y) exp(-(alpha + beta*y)) dy.

    Callers guarantee a + b*y >= 0 on the segment; the tiny negative
    brackets that cancellation can produce are clamped to zero, giving -inf.
    """
    length = hi - lo
    pos = beta >= 0.0
    anchor = np.where(pos, lo, hi)
    v = np.abs(beta) * length
    j0 = exp_moment0(v)
    j1 = exp_moment1(v)
    bracket = (a + b * anchor) * j0 + np.where(pos, 1.0, -1.0) * b * length * j1
    bracket = np.maximum(bracket, 0.0)
    with np.errstate(divide="ignore"):
        return -(alpha + beta * anchor) + np.log(length * bracket)


def _gauss_legendre_log_mass(
    lo: np.ndarray,
    length: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    hinge: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """log integral_lo^(lo+length) h(y) exp(-(c0 + c1*y + c2*y**2)) dy per row
    by Gauss-Legendre quadrature, factored at the nodes' peak; h is 1, or
    max(a + b*y, 0)**2 for `hinge` = (a, b)."""
    nodes, weights = gauss_legendre_01()
    y = lo[:, None] + length[:, None] * nodes[None, :]
    f = c0[:, None] + c1[:, None] * y + c2[:, None] * y * y
    peak = f.min(axis=1)
    mass = np.exp(peak[:, None] - f)
    if hinge is not None:
        a, b = hinge
        mass = np.maximum(a[:, None] + b[:, None] * y, 0.0) ** 2 * mass
    with np.errstate(divide="ignore"):
        return -peak + np.log(length * np.einsum("sn,n->s", mass, weights))


def group_logsumexp(values: np.ndarray, starts: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Log-sum-exp of `values` within contiguous groups.

    `starts` are the group start offsets into `values`; `group_ids` maps each
    element back to its group. Groups whose every element is -inf yield -inf.
    """
    if len(values) == 0:
        return np.full(n_groups, -np.inf)
    gmax = np.maximum.reduceat(values, starts)
    shift = np.where(np.isfinite(gmax), gmax, 0.0)
    total = np.bincount(group_ids, weights=np.exp(values - shift[group_ids]), minlength=n_groups)
    with np.errstate(divide="ignore"):
        return shift + np.log(total)


class Workspace:
    """Static integration structure for one grounding + observed assignment.

    `clause_block` maps every clause to its block (nonnegative ids) and
    hinges are grouped by (block, variable). By default `mode` picks the
    map: 'pll' puts every clause in block 0, 'ppll' each clause in a block
    of its own. Groups are sorted by (block, variable), so each block's
    groups are one contiguous run, and `total` gives one objective per
    block, summed in that order. All arrays are flat and index-aligned:

      pairs  - one entry per (ground clause, variable) occurrence, as
               `Grounding.pairs` gives them for the target atoms, holding
               the hinge coefficients (a, b) with every other atom folded at
               its observed value, the owning clause, and the penalty of the
               whole ground clause at the observed assignment;
      segs   - the [0,1] tiling of each group at the pairs' hinge roots;
      combos - the (pair, segment) incidences, pair-major, with a static
               activity flag (whether the hinge is positive on the segment).
    """

    def __init__(
        self,
        grounding: Grounding,
        values: np.ndarray,
        mode: str = "pll",
        p: int = 1,
        clause_block: np.ndarray | None = None,
    ):
        if mode not in ("pll", "ppll"):
            raise ValueError(f"unknown mode {mode!r}")
        if p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        self.p = p
        self.n_clauses = grounding.n_clauses
        db = grounding.db
        n_atoms = np.int64(len(db.atoms))
        if clause_block is None:
            clause_block = np.arange(self.n_clauses) if mode == "ppll" else np.zeros(self.n_clauses)
        self.clause_block = np.asarray(clause_block, dtype=np.int64)
        self.n_blocks = int(self.clause_block.max(initial=-1)) + 1

        inner_obs = grounding.inner_values(values)
        obs_phi = np.maximum(inner_obs, 0.0) ** p

        self.pair_ground, self.pair_atom, self.pair_b = grounding.pairs(db.target_mask())
        self.pair_a = inner_obs[self.pair_ground] - self.pair_b * values[self.pair_atom]
        self.pair_clause = grounding.g_clause[self.pair_ground]
        self.pair_obs_phi = obs_phi[self.pair_ground]
        self.n_pairs = len(self.pair_ground)

        gkey = self.clause_block[self.pair_clause] * n_atoms + self.pair_atom
        guniq, self.pair_group = np.unique(gkey, return_inverse=True)
        self.n_groups = len(guniq)
        self.group_atom = guniq % n_atoms
        self.group_block = guniq // n_atoms

        self._build_segments()
        self._build_combos()

    # -- static structure --------------------------------------------------

    def _build_segments(self) -> None:
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.where(self.pair_b != 0.0, -self.pair_a / self.pair_b, np.nan)
        keep = np.isfinite(roots) & (roots > 0.0) & (roots < 1.0)
        rg = self.pair_group[keep]
        rr = roots[keep]
        order = np.lexsort((rr, rg))
        rg, rr = rg[order], rr[order]
        if len(rg):
            fresh = np.ones(len(rg), dtype=bool)
            fresh[1:] = (rg[1:] != rg[:-1]) | (rr[1:] != rr[:-1])
            rg, rr = rg[fresh], rr[fresh]
        n_roots = np.bincount(rg, minlength=self.n_groups).astype(np.int64)

        self.seg_count = n_roots + 1
        total = int(self.seg_count.sum())
        self.seg_group = np.repeat(np.arange(self.n_groups, dtype=np.int64), self.seg_count)
        self.group_seg_start = (np.cumsum(self.seg_count) - self.seg_count).astype(np.int64)
        self.seg_lo = np.zeros(total)
        self.seg_hi = np.ones(total)
        # the roots are sorted by group, so their slots are the groups' first
        # n_roots segments in order; root k splits segments k and k + 1
        _, base = spans(self.group_seg_start, self.group_seg_start + n_roots)
        self.seg_lo[base + 1] = rr
        self.seg_hi[base] = rr
        self.seg_len = self.seg_hi - self.seg_lo
        self.seg_mid = 0.5 * (self.seg_lo + self.seg_hi)

    def _build_combos(self) -> None:
        per_pair = self.seg_count[self.pair_group]
        first = self.group_seg_start[self.pair_group]
        self.combo_pair, self.combo_seg = spans(first, first + per_pair)
        self.pair_combo_start = (np.cumsum(per_pair) - per_pair).astype(np.int64)
        a = self.pair_a[self.combo_pair]
        b = self.pair_b[self.combo_pair]
        self.combo_active = a + b * self.seg_mid[self.combo_seg] > 0.0
        # weight-independent gathers, made once: the owning clause, the
        # hinge coefficients masked to zero on inactive combos (so these add
        # nothing to the coefficients and have a moment of exactly 0), and
        # the segment bounds the moment integrals read
        self._combo_clause = self.pair_clause[self.combo_pair]
        self._combo_a = np.where(self.combo_active, a, 0.0)
        self._combo_b = np.where(self.combo_active, b, 0.0)
        self._combo_lo = self.seg_lo[self.combo_seg]
        if self.p == 1:
            self._combo_hi = self.seg_hi[self.combo_seg]
        else:
            self._combo_len = self.seg_len[self.combo_seg]

    # -- weight-dependent evaluations ---------------------------------------

    def _segment_coeffs(self, w: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-segment coefficients of the summed active hinges: (alpha, beta)
        of alpha + beta*y for p=1, (c0, c1, c2) of c0 + c1*y + c2*y**2 for p=2."""
        cw = w[self._combo_clause]
        a, b = self._combo_a, self._combo_b
        S = len(self.seg_lo)
        if self.p == 1:
            alpha = np.bincount(self.combo_seg, weights=cw * a, minlength=S)
            beta = np.bincount(self.combo_seg, weights=cw * b, minlength=S)
            return alpha, beta
        c0 = np.bincount(self.combo_seg, weights=cw * a * a, minlength=S)
        c1 = np.bincount(self.combo_seg, weights=cw * 2.0 * a * b, minlength=S)
        c2 = np.bincount(self.combo_seg, weights=cw * b * b, minlength=S)
        return c0, c1, c2

    def _log_partitions(self, coeffs: tuple[np.ndarray, ...]) -> np.ndarray:
        if self.p == 1:
            seg_logz = segment_log_partition(*coeffs, self.seg_lo, self.seg_hi)
        else:
            seg_logz = _gauss_legendre_log_mass(self.seg_lo, self.seg_len, *coeffs)
        return group_logsumexp(seg_logz, self.group_seg_start, self.seg_group, self.n_groups)

    def log_partitions(self, w: np.ndarray) -> np.ndarray:
        """log Z per group."""
        return self._log_partitions(self._segment_coeffs(w))

    def observed_energies(self, w: np.ndarray) -> np.ndarray:
        """Energy of the observed assignment per group."""
        return np.bincount(
            self.pair_group, weights=w[self.pair_clause] * self.pair_obs_phi, minlength=self.n_groups
        )

    def total(self, w: np.ndarray) -> np.ndarray:
        """The objective of every block: the sum of its groups' terms -log Z
        - energy(observed), added in group order, so a block's value equals
        `total` of a workspace built for that block alone."""
        return self._block_sums(w, self.log_partitions(w))

    per_clause_totals = total  # the same method (a patch point of perfbench/tracer.py)

    def _block_sums(self, w: np.ndarray, logz: np.ndarray) -> np.ndarray:
        terms = -logz - self.observed_energies(w)
        return np.bincount(self.group_block, weights=terms, minlength=self.n_blocks)

    def _expected(self, coeffs: tuple[np.ndarray, ...], logz: np.ndarray) -> np.ndarray:
        """`expected_penalties` from the segment coefficients and log Z."""
        cs = self.combo_seg
        a, b = self._combo_a, self._combo_b
        if self.p == 1:
            alpha, beta = coeffs
            logj = segment_log_moment(alpha[cs], beta[cs], a, b, self._combo_lo, self._combo_hi)
        else:
            c0, c1, c2 = coeffs
            logj = _gauss_legendre_log_mass(
                self._combo_lo, self._combo_len, c0[cs], c1[cs], c2[cs], hinge=(a, b)
            )
        lognum = group_logsumexp(logj, self.pair_combo_start, self.combo_pair, self.n_pairs)
        return np.exp(lognum - logz[self.pair_group])

    def expected_penalties(self, w: np.ndarray) -> np.ndarray:
        """E[hinge penalty] per pair under its group's conditional density."""
        if self.n_pairs == 0:
            return np.zeros(0)
        coeffs = self._segment_coeffs(w)
        return self._expected(coeffs, self._log_partitions(coeffs))

    def gradient(self, w: np.ndarray, with_terms: bool = False):
        """Ascent gradient of the grouped objective: per clause, the summed
        expected-minus-observed penalties of its hinge occurrences.

        With `with_terms` it returns (gradient, `total`), the totals read
        off the same partition functions.
        """
        grad = np.zeros(self.n_clauses)
        logz = np.zeros(0)
        if self.n_pairs:
            coeffs = self._segment_coeffs(w)
            logz = self._log_partitions(coeffs)
            expected = self._expected(coeffs, logz)
            grad = np.bincount(
                self.pair_clause, weights=expected - self.pair_obs_phi, minlength=self.n_clauses
            )
        if not with_terms:
            return grad
        return grad, self._block_sums(w, logz)

    def per_variable(self, w: np.ndarray) -> dict[int, tuple[float, float]]:
        """Per-variable (log Z, observed energy), aggregated over groups."""
        if self.n_groups == 0:
            return {}
        # bincount adds in group order, as a loop over the groups would
        logz = np.bincount(self.group_atom, weights=self.log_partitions(w))
        energy = np.bincount(self.group_atom, weights=self.observed_energies(w))
        return {int(a): (float(logz[a]), float(energy[a])) for a in np.unique(self.group_atom)}
