"""Model scores over a grounding: log pseudolikelihood and its piecewise
factorization.

Both scores are `engine.Workspace.total`, which integrates every
variable's conditional profile: the log pseudolikelihood is its one block,
the piecewise pseudolikelihood groups hinges by (clause, variable), a block
per clause, so its total splits exactly into per-clause terms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Workspace
from .grounding import Grounding


@dataclass(frozen=True)
class ScoreReport:
    """A model score with its per-variable (and, for the piecewise
    objective, per-clause) decomposition; `total` is the sum of its parts."""

    total: float
    per_variable: dict[int, tuple[float, float]]  # atom -> (log Z, observed energy)
    per_clause: dict[int, float] | None = None


def log_pll(model, grounding: Grounding, observed: np.ndarray, p: int = 1) -> ScoreReport:
    """Log pseudolikelihood: sum over variables of -log Z_i minus the
    variable's observed conditional energy, the workspace's one block (none
    without clauses). Variables untouched by any ground clause contribute zero."""
    ws = Workspace(grounding, observed, mode="pll", p=p)
    w = np.asarray(model.weights, dtype=np.float64)
    return ScoreReport(total=float(ws.total(w).sum()), per_variable=ws.per_variable(w))


def log_ppll(model, grounding: Grounding, observed: np.ndarray, p: int = 1) -> ScoreReport:
    """Piecewise pseudolikelihood: the per-variable factors are additionally
    split per clause, so the total decomposes exactly into the single-clause
    pseudolikelihoods reported in `per_clause`."""
    ws = Workspace(grounding, observed, mode="ppll", p=p)
    w = np.asarray(model.weights, dtype=np.float64)
    totals = ws.total(w)
    return ScoreReport(float(totals.sum()), ws.per_variable(w), dict(enumerate(totals.tolist())))


def write_score_tsv(report: ScoreReport, grounding: Grounding, stream) -> None:
    """Diagnostic dump: one line per variable (and per clause when present)."""
    db = grounding.db
    stream.write(f"total\t{report.total:.12g}\n")
    for atom, (z, e) in sorted(report.per_variable.items()):
        stream.write(f"variable\t{db.atom_str(atom)}\t{z:.12g}\t{e:.12g}\n")
    if report.per_clause is not None:
        for cid, val in sorted(report.per_clause.items()):
            stream.write(f"clause\t{grounding.clauses[cid].id}\t{val:.12g}\n")
