"""Vectorized per-variable conditional scoring core.

Pseudolikelihood objectives reduce to one-dimensional integrals of
exp(-energy) over [0, 1], where the energy seen by a single variable is a
nonnegative weighted sum of hinges w * max(a + b*y, 0). The hinge roots
-a/b do not depend on the weights, so for a fixed grounding and observed
assignment the segment structure is static and every weight update only
re-accumulates per-segment affine coefficients. This module builds that
static structure once and evaluates partition functions, observed energies
and expectation gradients as flat array passes. The same pass can return
the exact curvature: minus the Hessian of a group's term is the covariance
of its clauses' penalties under the conditional density, and on each
segment every penalty is a polynomial in y, so the covariance needs only
the segment's mass and central moments (closed forms for p=1, the
Gauss-Legendre nodes for p=2).

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

import math
from functools import lru_cache

import numpy as np

from .data import spans
from .grounding import Grounding

BETA_FLAT = 1e-12  # below this slope a segment integrates as a constant
_J1_SERIES_CUT = 1e-6
_J2_SERIES_CUT = 1.0
# (-1)^n / (n! (n + 3)) for n = 0..18: the terms of exp_moment2's series, the
# last below 1e-17 at the cut
_J2_SERIES = np.array([(-1.0) ** n / (math.factorial(n) * (n + 3)) for n in range(19)])


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


def exp_moment2(v: np.ndarray) -> np.ndarray:
    """integral_0^1 s**2 exp(-v s) ds, stable for v >= 0.

    The closed form (2 - exp(-v) (v**2 + 2v + 2)) / v**3 cancels for small
    v, so up to v = 1 the alternating series sum_n (-v)^n / (n! (n + 3))
    replaces it."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    small = v <= _J2_SERIES_CUT
    head = v[small]
    series = np.full_like(head, _J2_SERIES[-1])
    for coef in _J2_SERIES[-2::-1]:  # Horner, in place
        series *= head
        series += coef
    out[small] = series
    big = v[~small]
    # exp(-v) underflows to 0 long before v reaches 800, so the capped tail is
    # exact and (v**2 + 2v + 2) cannot meet it as inf * 0
    capped = np.minimum(big, 800.0)
    tail = np.exp(-capped) * ((capped + 2.0) * capped + 2.0)
    out[~small] = (2.0 - tail) / big / big / big
    return out


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

    For the curvature every clause has a slot, its rank within its block
    (`clause_slot`, below `width`, the widest block's size), and
    `_seg_poly` (width, S, p + 1) holds per slot and segment the summed
    active hinges of the slot's clause as a polynomial in y.
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
        self._build_hinge_polynomials()

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
        # the segment lengths (and for p=2 starts) the moment integrals read
        self._combo_clause = self.pair_clause[self.combo_pair]
        self._combo_a = np.where(self.combo_active, a, 0.0)
        self._combo_b = np.where(self.combo_active, b, 0.0)
        self._combo_len = self.seg_len[self.combo_seg]
        if self.p == 2:
            self._combo_lo = self.seg_lo[self.combo_seg]

    def _build_hinge_polynomials(self) -> None:
        # slots follow clause order within a block; a slot's polynomial is
        # (a, b) for p=1 and (a^2, 2ab, b^2) for p=2, summed over its
        # clause's active combos on the segment
        order = np.argsort(self.clause_block, kind="stable")
        sizes = np.bincount(self.clause_block, minlength=self.n_blocks)
        self.width = int(sizes.max(initial=0))
        self.clause_slot = np.empty(self.n_clauses, dtype=np.int64)
        self.clause_slot[order] = np.arange(self.n_clauses) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        a, b = self._combo_a, self._combo_b
        terms = (a, b) if self.p == 1 else (a * a, 2.0 * a * b, b * b)
        S, k = len(self.seg_lo), self.width
        cell = self.clause_slot[self._combo_clause] * S + self.combo_seg
        self._seg_poly = np.stack(
            [np.bincount(cell, weights=t, minlength=k * S).reshape(k, S) for t in terms], axis=2
        )
        self._seg_block = self.group_block[self.seg_group]
        self._block_seg_bounds = np.searchsorted(self._seg_block, np.arange(self.n_blocks + 1))

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

    def _segment_log_partitions(self, coeffs: tuple[np.ndarray, ...]) -> np.ndarray:
        if self.p == 1:
            return segment_log_partition(*coeffs, self.seg_lo, self.seg_hi)
        return _gauss_legendre_log_mass(self.seg_lo, self.seg_len, *coeffs)

    def _log_partitions(self, seg_logz: np.ndarray) -> np.ndarray:
        return group_logsumexp(seg_logz, self.group_seg_start, self.seg_group, self.n_groups)

    def log_partitions(self, w: np.ndarray) -> np.ndarray:
        """log Z per group."""
        return self._log_partitions(self._segment_log_partitions(self._segment_coeffs(w)))

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

    def _peaks(self, beta: np.ndarray) -> tuple[np.ndarray, ...]:
        """For p=1, per segment: the end where exp(-energy) peaks, the
        direction (+1 or -1) from it into the segment, v = |beta| * length,
        and J0(v), J1(v), with which t in [0, 1] measured from that end has
        the density exp(-v t) / J0(v)."""
        pos = beta >= 0.0
        v = np.abs(beta) * self.seg_len
        anchor, sign = np.where(pos, self.seg_lo, self.seg_hi), np.where(pos, 1.0, -1.0)
        return anchor, sign, v, exp_moment0(v), exp_moment1(v)

    def _expected(
        self, coeffs: tuple[np.ndarray, ...], logz: np.ndarray, peaks: tuple | None
    ) -> np.ndarray:
        """`expected_penalties` from the segment coefficients, log Z and, for
        p=1, `_peaks`."""
        cs = self.combo_seg
        a, b = self._combo_a, self._combo_b
        if self.p == 1:
            # log integral over the segment of (a + b*y) exp(-(alpha + beta*y));
            # a + b*y >= 0 on active combos, and the tiny negative brackets
            # that cancellation can produce are clamped to zero, giving -inf
            alpha, beta = coeffs
            anchor, sign, _v, j0, j1 = peaks
            length = self._combo_len
            bracket = (a + b * anchor[cs]) * j0[cs] + sign[cs] * b * length * j1[cs]
            bracket = np.maximum(bracket, 0.0)
            with np.errstate(divide="ignore"):
                logj = (-(alpha + beta * anchor))[cs] + np.log(length * bracket)
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
        peaks = self._peaks(coeffs[1]) if self.p == 1 else None
        return self._expected(coeffs, self._log_partitions(self._segment_log_partitions(coeffs)), peaks)

    def _segment_moments(
        self, coeffs: tuple[np.ndarray, ...], peaks: tuple | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every segment's mean of y under its own density and the central
        moments E[(y - mean)^r], r = 0..2p, as an (S, 2p + 1) array.

        For p=1 the density is exponential: with t in [0, 1] measured from
        the peak end, E[t^r] = J_r(v) / J_0(v) at v = |beta| * length, so the
        mean is that end moved by length * E[t] and the variance is
        length^2 * Var[t]. For p=2 they are the Gauss-Legendre sums of the
        log partition."""
        S = len(self.seg_lo)
        mom = np.zeros((S, 2 * self.p + 1))
        mom[:, 0] = 1.0
        if self.p == 1:
            anchor, sign, v, j0, j1 = peaks
            e1, e2 = j1 / j0, exp_moment2(v) / j0
            mean = anchor + sign * self.seg_len * e1
            mom[:, 2] = self.seg_len * self.seg_len * np.maximum(e2 - e1 * e1, 0.0)
            return mean, mom
        c0, c1, c2 = coeffs
        nodes, weights = gauss_legendre_01()
        y = self.seg_lo[:, None] + self.seg_len[:, None] * nodes[None, :]
        f = c0[:, None] + c1[:, None] * y + c2[:, None] * y * y
        mass = weights * np.exp(f.min(axis=1)[:, None] - f)
        mass /= mass.sum(axis=1)[:, None]
        mean = np.einsum("sn,sn->s", mass, y)
        z = y - mean[:, None]
        for r in range(1, 5):
            mom[:, r] = np.einsum("sn,sn->s", mass, z**r)
        return mean, mom

    def _curvature(
        self, coeffs: tuple[np.ndarray, ...], peaks: tuple | None, seg_logz: np.ndarray, logz: np.ndarray
    ) -> np.ndarray:
        """Minus the Hessian of every block's objective, (n_blocks, width,
        width) with clauses at their slots: per group, the covariance of its
        clauses' penalties under the group's density, summed over groups.

        On a segment each slot's penalty is a polynomial in z = y - mean;
        G (width, S, p + 1) holds its coefficients, the constant term
        centred by the group's expected penalty. With q the segment's share
        of its group's mass and M its central moments E[z^(r+c)], a block's
        matrix is the sum over its run of segments of q_s G_s M_s G_s^T:
        one product G U^T with U_s = q_s G_s M_s, or, when every block holds
        one clause (ppll, a first gls round), one sum per block."""
        k, n = self.width, self.p + 1
        curv = np.zeros((self.n_blocks, k, k))
        if self.n_pairs == 0:
            return curv
        q = np.exp(seg_logz - logz[self.seg_group])
        mean, mom = self._segment_moments(coeffs, peaks)
        poly = self._seg_poly
        G = poly.copy()
        for row in G:  # one slot at a time, so no temporary is width * S
            if self.p == 1:
                row[:, 0] += mean * row[:, 1]
                expected = row[:, 0]
            else:
                row[:, 0] += mean * (row[:, 1] + mean * row[:, 2])
                row[:, 1] += 2.0 * mean * row[:, 2]
                expected = row[:, 0] + mom[:, 1] * row[:, 1] + mom[:, 2] * row[:, 2]
            group_mean = np.bincount(self.seg_group, weights=q * expected, minlength=self.n_groups)
            row[:, 0] -= np.repeat(group_mean, self.seg_count)
        if self.p == 1:  # E[z] = 0 exactly, so M is diagonal
            U = G * np.stack([q, q * mom[:, 2]], axis=1)
        else:
            U = np.zeros_like(G)
            for r in range(n):
                for c in range(n):
                    U[..., r] += q * mom[:, r + c] * G[..., c]
        if k == 1:  # the products are numbers; a loop over blocks would cost more
            per_seg = (G[0] * U[0]).sum(axis=1)
            curv[:, 0, 0] = np.bincount(self._seg_block, weights=per_seg, minlength=self.n_blocks)
            return curv
        # the terms of a segment are adjacent, so a block's run is one
        # (width, n * run) slice and its matrix one product
        G, U = G.reshape(k, -1), U.reshape(k, -1)
        bounds = (n * self._block_seg_bounds).tolist()
        for blk in range(self.n_blocks):
            lo, hi = bounds[blk], bounds[blk + 1]
            np.matmul(G[:, lo:hi], U[:, lo:hi].T, out=curv[blk])
        return curv

    def gradient(self, w: np.ndarray, with_terms: bool = False, with_curvature: bool = False):
        """Ascent gradient of the grouped objective: per clause, the summed
        expected-minus-observed penalties of its hinge occurrences.

        `with_terms` adds `total`, the block totals read off the same
        partition functions, and `with_curvature` minus each block's Hessian
        (`_curvature`), read off the same segment coefficients: it returns
        (gradient, total, curvature), or the requested ones in that order.
        """
        grad = np.zeros(self.n_clauses)
        seg_logz, logz = np.zeros(0), np.zeros(0)
        coeffs: tuple[np.ndarray, ...] = ()
        peaks = None
        if self.n_pairs:
            coeffs = self._segment_coeffs(w)
            seg_logz = self._segment_log_partitions(coeffs)
            logz = self._log_partitions(seg_logz)
            peaks = self._peaks(coeffs[1]) if self.p == 1 else None
            expected = self._expected(coeffs, logz, peaks)
            grad = np.bincount(
                self.pair_clause, weights=expected - self.pair_obs_phi, minlength=self.n_clauses
            )
        out = [grad]
        if with_terms:
            out.append(self._block_sums(w, logz))
        if with_curvature:
            out.append(self._curvature(coeffs, peaks, seg_logz, logz))
        return out[0] if len(out) == 1 else tuple(out)

    def per_variable(self, w: np.ndarray) -> dict[int, tuple[float, float]]:
        """Per-variable (log Z, observed energy), aggregated over groups."""
        if self.n_groups == 0:
            return {}
        # bincount adds in group order, as a loop over the groups would
        logz = np.bincount(self.group_atom, weights=self.log_partitions(w))
        energy = np.bincount(self.group_atom, weights=self.observed_energies(w))
        return {int(a): (float(logz[a]), float(energy[a])) for a in np.unique(self.group_atom)}
