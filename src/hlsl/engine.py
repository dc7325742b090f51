"""Vectorized per-variable conditional scoring core.

Pseudolikelihood objectives reduce to one-dimensional integrals of
exp(-energy) over [0, 1], where the energy seen by a single variable is a
nonnegative weighted sum of hinges w * max(a + b*y, 0)**p. The hinge roots
-a/b do not depend on the weights, so for a fixed grounding and observed
assignment the segment structure is static: on each segment every hinge is
either off or the polynomial (a + b*y)**p. Only the (hinge, segment)
incidences where it is on are kept, and every weight update only
re-accumulates per-segment polynomial coefficients.

One profile pass integrates each segment once, for its log mass, its mean
and its central moments (closed forms for p=1, Gauss-Legendre nodes for
p=2), and everything else is read off those numbers. log Z of a group is
the log-sum-exp of its segments' masses. With q the share of a segment in
its group's mass, a hinge's expected penalty is the q-weighted sum of its
segment means, each a polynomial in the segment's moments; the gradient is
these minus the observed penalties. The exact curvature follows the same
way: minus the Hessian of a group's term is the covariance of its clauses'
penalties under the conditional density, the q-weighted sum over segments
of the penalty polynomials' second moments.

Grouping decides the objective. Every clause belongs to a block and hinges
are grouped by (block, variable); a block's objective is the sum of its
groups' terms -log Z - energy(observed), and `Workspace.total` returns
every block's at once. With one block this is the pseudolikelihood; with a
block per clause it is the piecewise factorization, whose per-clause terms
decouple; with a block per model it is the pseudolikelihood of several
independent models over one set of arrays, so their fits can step together.

Segment masses stay in log space, factored at each segment's peak and
summed with per-group max subtraction, so arbitrarily large energies stay
finite; all reductions follow a fixed array order, so repeated runs give
bit-identical results.
"""
from __future__ import annotations

import math

import numpy as np

from .data import spans
from .grounding import Grounding

# (-1)^n / (n! (n + r + 1)) for r = 0..2 and n = 0..18: the series of
# exp_moments' J_r, whose last term is below 1e-17 at v = 1
_SERIES = np.array([[(-1.0) ** n / (math.factorial(n) * (n + r + 1)) for n in range(19)] for r in range(3)])


# 32 Gauss-Legendre nodes and weights, rescaled from [-1, 1] to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0


def exp_moments(v: np.ndarray, r_max: int = 2) -> np.ndarray:
    """J_r(v) = integral_0^1 s**r exp(-v s) ds for r = 0..r_max (r_max <= 2),
    stable for v >= 0, as an (r_max + 1, len(v)) array.

    The closed forms cancel for small v, so up to v = 1 the alternating
    series sum_n (-v)^n / (n! (n + r + 1)) gives each J_r. Above it
    J_0 = -expm1(-v) / v and, by parts, J_r = (r J_(r-1) - exp(-v)) / v,
    which amplifies the error of J_(r-1) by at most r / v < 2."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty((r_max + 1, len(v)))
    small = v <= 1.0
    head = v[small]
    coefs = _SERIES[: r_max + 1]
    series = np.repeat(coefs[:, -1:], len(head), axis=1)
    for n in range(coefs.shape[1] - 2, -1, -1):  # Horner, in place
        series *= head
        series += coefs[:, n : n + 1]
    out[:, small] = series
    big = v[~small]
    tail = np.exp(-big)
    j = -np.expm1(-big) / big
    out[0, ~small] = j
    for r in range(1, r_max + 1):
        j = (r * j - tail) / big
        out[r, ~small] = j
    return out


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
      combos - the (pair, segment) incidences where the hinge is on
               (positive at the segment's midpoint), pair-major.

    Every weight-dependent method runs one profile pass (`_profile`): the
    combos accumulate each segment's energy polynomial, each segment is
    integrated once, and log Z, the pairs' expected penalties (one sum over
    combos), the gradient and the curvature are read off the segments'
    masses and moments. For the curvature every clause has a slot, its rank
    within its block (`clause_slot`, below `width`, the widest block's
    size), and `_seg_poly` (width, S, p + 1) holds per slot and segment the
    summed active hinges of the slot's clause as a polynomial in y.
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
        pair, seg = spans(first, first + per_pair)
        on = self.pair_a[pair] + self.pair_b[pair] * self.seg_mid[seg] > 0.0
        self.combo_pair, self.combo_seg = pair[on], seg[on]
        # weight-independent gathers, made once: the owning clause, (a, b),
        # and the hinge's polynomial in y, (a, b) or (a^2, 2ab, b^2) for p=2
        self._combo_clause = self.pair_clause[self.combo_pair]
        a = self._combo_a = self.pair_a[self.combo_pair]
        b = self._combo_b = self.pair_b[self.combo_pair]
        self._combo_poly = (a, b) if self.p == 1 else (a * a, 2.0 * a * b, b * b)

    def _build_hinge_polynomials(self) -> None:
        # slots follow clause order within a block; a slot's polynomial sums
        # its clause's combo polynomials on the segment
        order = np.argsort(self.clause_block, kind="stable")
        sizes = np.bincount(self.clause_block, minlength=self.n_blocks)
        self.width = int(sizes.max(initial=0))
        self.clause_slot = np.empty(self.n_clauses, dtype=np.int64)
        self.clause_slot[order] = np.arange(self.n_clauses) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        S, k = len(self.seg_lo), self.width
        cell = self.clause_slot[self._combo_clause] * S + self.combo_seg
        self._seg_poly = np.stack(
            [np.bincount(cell, weights=t, minlength=k * S).reshape(k, S) for t in self._combo_poly], axis=2
        )
        self._seg_block = self.group_block[self.seg_group]
        self._block_seg_bounds = np.searchsorted(self._seg_block, np.arange(self.n_blocks + 1))

    # -- weight-dependent evaluations ---------------------------------------

    def _segment_coeffs(self, w: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-segment coefficients of the summed active hinges: (alpha, beta)
        of alpha + beta*y for p=1, (c0, c1, c2) of c0 + c1*y + c2*y**2 for p=2."""
        cw = w[self._combo_clause]
        S = len(self.seg_lo)
        return tuple(np.bincount(self.combo_seg, weights=cw * t, minlength=S) for t in self._combo_poly)

    def _profile(self, coeffs: tuple[np.ndarray, ...], r_max: int) -> tuple[np.ndarray, ...]:
        """Every segment's log mass (the log integral of exp(-energy) over
        it), the mean of y under its own density, and the central moments
        E[(y - mean)^r], r = 0..r_max, as an (S, r_max + 1) array.

        For p=1 the density is exponential: with t in [0, 1] measured from
        the end where it peaks, it is exp(-v t) / J_0(v) at v = |beta| *
        length, so the mass is the peak times length * J_0(v), E[t^r] =
        J_r(v) / J_0(v) (`exp_moments`), the mean is that end moved by
        length * E[t] and the variance is length^2 * Var[t]. For p=2 they
        are Gauss-Legendre sums, factored at the nodes' peak."""
        S = len(self.seg_lo)
        length = self.seg_len
        mom = np.zeros((S, r_max + 1))
        mom[:, 0] = 1.0
        if self.p == 1:
            alpha, beta = coeffs
            pos = beta >= 0.0
            anchor, sign = np.where(pos, self.seg_lo, self.seg_hi), np.where(pos, 1.0, -1.0)
            j = exp_moments(np.abs(beta) * length, max(r_max, 1))
            e1 = j[1] / j[0]
            mean = anchor + sign * length * e1
            if r_max >= 2:
                mom[:, 2] = length * length * np.maximum(j[2] / j[0] - e1 * e1, 0.0)
            return -(alpha + beta * anchor) + np.log(length * j[0]), mean, mom
        c0, c1, c2 = coeffs
        y = np.multiply.outer(length, _GL_NODES)
        y += self.seg_lo[:, None]
        mass = c2[:, None] * y  # the energy, then the weighted density, in place
        mass += c1[:, None]
        mass *= y
        mass += c0[:, None]
        peak = mass.min(axis=1)
        np.subtract(peak[:, None], mass, out=mass)
        np.exp(mass, out=mass)
        mass *= _GL_WEIGHTS
        total = mass.sum(axis=1)
        mass /= total[:, None]
        mean = np.einsum("sn,sn->s", mass, y)
        z, zr = y - mean[:, None], 1.0
        for r in range(1, r_max + 1):  # z**r by products: pow is ~40x slower
            zr = zr * z
            mom[:, r] = np.einsum("sn,sn->s", mass, zr)
        return -peak + np.log(length * total), mean, mom

    def _log_partitions(self, seg_logz: np.ndarray) -> np.ndarray:
        return group_logsumexp(seg_logz, self.group_seg_start, self.seg_group, self.n_groups)

    def log_partitions(self, w: np.ndarray) -> np.ndarray:
        """log Z per group."""
        return self._log_partitions(self._profile(self._segment_coeffs(w), 0)[0])

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

    def _pass(self, w: np.ndarray, r_max: int) -> tuple[np.ndarray, ...]:
        """One profile pass at weights `w`: log Z per group, each segment's
        share q of its group's mass, its mean and its central moments up to
        `r_max`."""
        seg_logz, mean, mom = self._profile(self._segment_coeffs(w), r_max)
        logz = self._log_partitions(seg_logz)
        return logz, np.exp(seg_logz - logz[self.seg_group]), mean, mom

    def _expected(self, q: np.ndarray, mean: np.ndarray, mom: np.ndarray) -> np.ndarray:
        """`expected_penalties` from the segments' mass shares and moments.

        On a segment where it is active a hinge is h(y) = a + b*y >= 0, so
        its mean there is h(mean) for p=1 and h(mean)^2 + 2 h(mean) b E[z] +
        b^2 E[z^2] for p=2, z = y - mean; a pair's expectation sums these
        weighted by q over its group's segments."""
        cs = self.combo_seg
        b = self._combo_b
        h = np.maximum(self._combo_a + b * mean[cs], 0.0)
        if self.p == 2:
            h = h * h + 2.0 * h * b * mom[cs, 1] + b * b * mom[cs, 2]
        expected = np.bincount(self.combo_pair, weights=q[cs] * h, minlength=self.n_pairs)
        return expected.astype(float, copy=False)  # bincount over no combos gives int64

    def expected_penalties(self, w: np.ndarray) -> np.ndarray:
        """E[hinge penalty] per pair under its group's conditional density."""
        _logz, q, mean, mom = self._pass(w, self.p)
        return self._expected(q, mean, mom)

    def _curvature(self, q: np.ndarray, mean: np.ndarray, mom: np.ndarray) -> np.ndarray:
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
        G = self._seg_poly.copy()
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
        (`_curvature`), read off the same profile pass: it returns
        (gradient, total, curvature), or the requested ones in that order.
        """
        logz, q, mean, mom = self._pass(w, 2 * self.p if with_curvature else self.p)
        expected = self._expected(q, mean, mom)
        grad = np.bincount(self.pair_clause, weights=expected - self.pair_obs_phi, minlength=self.n_clauses)
        out = [grad.astype(float, copy=False)]  # as in `_expected`
        if with_terms:
            out.append(self._block_sums(w, logz))
        if with_curvature:
            out.append(self._curvature(q, mean, mom))
        return out[0] if len(out) == 1 else tuple(out)

    def per_variable(self, w: np.ndarray) -> dict[int, tuple[float, float]]:
        """Per-variable (log Z, observed energy), aggregated over groups."""
        if self.n_groups == 0:
            return {}
        # bincount adds in group order, as a loop over the groups would
        logz = np.bincount(self.group_atom, weights=self.log_partitions(w))
        energy = np.bincount(self.group_atom, weights=self.observed_energies(w))
        atoms = np.flatnonzero(np.bincount(self.group_atom))  # the atoms that have a group, ascending
        return dict(zip(atoms.tolist(), zip(logz[atoms].tolist(), energy[atoms].tolist())))
