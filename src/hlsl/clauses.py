"""Path-constrained clause generation.

Candidate first-order Horn clauses are mined from the data: for every target
atom t(a, b) the simple paths of bounded length that connect a to b along
rounded-1 atoms are variablized into chain clauses whose head is the target
literal, and each clause is emitted together with its head-negated twin.
Candidates are deduplicated, filtered by how many target atoms they cover,
and capped at a fixed pool size; a body-less negative prior clause per
target predicate is appended last.

Mining runs as one chain join over a sparse step graph for all target atoms
at once (`data.StepGraph`, `chain_coverage`); `bfs_paths` is the per-target
reference enumeration of the same paths.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .data import AtomDatabase, GroundAtom, PredicateSymbol, StepGraph
from .errors import MalformedLine, NoCandidates, UnknownPredicate

# One step of a ground relational path: predicate name, whether the edge was
# walked against its direction, source constant, destination constant.
PathStep = tuple[str, bool, int, int]
RelationalPath = tuple[PathStep, ...]


@dataclass(frozen=True)
class Literal:
    """A variablized atom. Variable ids are 1-based chain positions.

    An inverted literal was produced by walking an edge backwards; it is
    materialized with the original predicate and swapped argument order, so
    `inverted` is provenance metadata only.
    """

    predicate: str
    var1: int
    var2: int
    negated: bool = False
    inverted: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class PathClause:
    """A chain-shaped Horn clause: body literals imply a (possibly negated)
    target head over the chain's endpoints. Negative priors have an empty
    body. `coverage` counts the distinct target training atoms the clause
    connects and does not participate in clause identity.
    """

    body: tuple[Literal, ...]
    head: Literal
    coverage: int = field(default=0, compare=False)

    @property
    def head_negated(self) -> bool:
        return self.head.negated

    @property
    def is_prior(self) -> bool:
        return not self.body

    @property
    def id(self) -> str:
        return format_clause(self)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return format_clause(self)


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for candidate generation; defaults follow the shipped protocol."""

    max_depth: int = 4
    min_coverage: int = 10
    top_k: int = 50
    threshold: float = 0.5
    include_inverses: bool = True
    add_negative_priors: bool = True
    # Paths may walk through target-predicate edges by default; disable to
    # keep training labels out of clause bodies entirely.
    traverse_target_edges: bool = True

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_coverage < 1:
            raise ValueError("min_coverage must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


# -- path enumeration ------------------------------------------------------


def bfs_paths(
    db: AtomDatabase,
    target_atom: GroundAtom,
    max_depth: int,
    include_inverses: bool = True,
    traverse_target_edges: bool = True,
) -> set[RelationalPath]:
    """Enumerate ground paths from target_atom.arg1 to target_atom.arg2.

    Paths follow edges (atoms that round to 1), never revisit a
    constant, and have 1..max_depth steps. Backward edges are taken when
    `include_inverses`. The single-step path consisting of the target atom
    itself is excluded. `generate_candidates` counts the same paths with
    `chain_coverage`; this per-target enumeration is its reference.
    """
    if not target_atom.predicate.is_target:
        raise ValueError("bfs_paths roots at a target atom")
    start, goal = target_atom.arg1, target_atom.arg2
    found: set[RelationalPath] = set()
    if start == goal:
        return found  # simple paths cannot return to the root

    outgoing, incoming = db.outgoing, db.incoming if include_inverses else {}

    def expand(node: int) -> list[PathStep]:
        steps: list[PathStep] = []
        for pred, nbr, _ in outgoing.get(node, ()):  # forward edges
            steps.append((pred, False, node, nbr))
        for pred, nbr, _ in incoming.get(node, ()):  # backward edges
            steps.append((pred, True, node, nbr))
        if not traverse_target_edges:
            steps = [s for s in steps if not db.predicates[s[0]].is_target]
        return steps

    # Depth-first enumeration of simple paths; visits the same path set as a
    # breadth-first tree expansion but with O(depth) state. Only the forward
    # single step is the target atom itself; a backward single step walks the
    # distinct atom t(goal, start).
    stack: list[tuple[int, tuple[PathStep, ...], frozenset[int]]] = [
        (start, (), frozenset((start,)))
    ]
    self_step = (target_atom.predicate.name, False, start, goal)
    while stack:
        node, path, visited = stack.pop()
        for step in expand(node):
            nbr = step[3]
            if nbr in visited:
                continue
            new_path = path + (step,)
            if nbr == goal:
                if new_path != (self_step,):
                    found.add(new_path)
                continue  # extending past the goal would revisit it
            if len(new_path) < max_depth:
                stack.append((nbr, new_path, visited | {nbr}))
    return found


def _chain_clause(
    steps: Sequence[tuple[str, bool]], head: str, negate_head: bool = False, coverage: int = 0
) -> PathClause:
    """Chain clause over (predicate, inverted) body steps; step k joins
    variables k and k+1, and an inverted step swaps them."""
    body = tuple(
        Literal(pred, pos + 1, pos, inverted=True) if inverted else Literal(pred, pos, pos + 1)
        for pos, (pred, inverted) in enumerate(steps, start=1)
    )
    return PathClause(body, Literal(head, 1, len(steps) + 1, negated=negate_head), coverage)


def variablize(path: RelationalPath, target: GroundAtom, negate_head: bool = False) -> PathClause:
    """Turn a ground path into a first-order chain clause.

    Constants are replaced position-wise by variables 1..s+1; an inverted
    step emits the original predicate with its variables swapped. The head
    is the target predicate over the chain endpoints.
    """
    if not path:
        raise ValueError("cannot variablize an empty path")
    steps = [(pred, inverted) for pred, inverted, _src, _dst in path]
    return _chain_clause(steps, target.predicate.name, negate_head)


def negative_prior(pred: PredicateSymbol | str, coverage: int = 0) -> PathClause:
    """Body-less clause penalizing high values of a target predicate."""
    name = pred if isinstance(pred, str) else pred.name
    return PathClause((), Literal(name, 1, 2, negated=True), coverage)


# -- chain joins -----------------------------------------------------------

# Most steps one frontier expansion may materialize. A wider expansion is
# split into pieces walked one after another, so the working set is bounded
# by this budget times the depth (plus one node's degree), not by the number
# of targets or paths.
ROW_BUDGET = 1 << 16


def chain_coverage(db: AtomDatabase, config: GenerationConfig) -> dict[tuple[str, tuple[tuple[str, bool], ...]], int]:
    """Coverage of every chain body that connects some target atom.

    Maps (head predicate, body steps as (predicate, inverted) pairs) to the
    number of distinct target atoms t(a, b) that at least one simple path
    with those steps connects, from a to b, along the step graph: the paths
    `bfs_paths` enumerates, counted per relation sequence.

    The walk is a frontier over all target atoms at once. Each frontier row
    is a partial path: its target row, its end node, its step labels (one
    column per depth, -1 past its length), and the nodes it has visited.
    Each depth is closed by a lookup of (end node, goal) steps; rows are
    then extended by one step, dropping any that revisits a node or reaches
    the goal (the lookup already found those). Expansions wider than
    `ROW_BUDGET` steps are split into pieces walked depth first.
    """
    names = db.pred_names
    depth = config.max_depth
    graph = StepGraph(db, config.include_inverses, config.traverse_target_edges)
    start, goal, head = db.arg1[db.targets], db.arg2[db.targets], db.pred[db.targets]

    # every (head, labels...) key seen, and its coverage over finished chunks
    keys = np.zeros((0, depth + 1), dtype=np.int64)
    counts = np.zeros(0, dtype=np.int64)

    def pieces(nodes: np.ndarray):
        """Consecutive slices whose steps fit the row budget (a single node
        of higher degree forms its own slice)."""
        deg = graph.degree(nodes)
        piece = (np.cumsum(deg) - deg) // ROW_BUDGET
        cuts = np.flatnonzero(np.diff(piece)) + 1
        return zip(np.r_[0, cuts], np.r_[cuts, len(nodes)])

    def extend(row, node, labels, visited):
        """The frontier one step further, one piece at a time, without rows
        that revisit a node or reach the goal (the lookup finds those)."""
        length = visited.shape[1] - 1
        for lo, hi in pieces(node):
            i, s = graph.expand(node[lo:hi])
            i += lo
            nxt = graph.dst[s]
            keep = (nxt != goal[row[i]]) & (visited[i] != nxt[:, None]).all(axis=1)
            i, s, nxt = i[keep], s[keep], nxt[keep]
            grown = labels[i]
            grown[:, length] = graph.label[s]
            yield row[i], nxt, grown, np.column_stack([visited[i], nxt])

    # Simple paths cannot return to their root, so t(a, a) connects nothing.
    roots = np.flatnonzero(start != goal)
    for lo, hi in pieces(start[roots]):
        rows = roots[lo:hi]
        found: list[np.ndarray] = []  # [head, labels..., row] of the paths found
        found_limit = ROW_BUDGET
        no_steps = np.full((len(rows), depth), -1, dtype=np.int64)
        # depth first over frontier pieces, so one piece per depth is live
        stack = [iter([(rows, start[rows], no_steps, start[rows][:, None])])]
        while stack:
            frontier = next(stack[-1], None)
            if frontier is None:
                stack.pop()
                continue
            row, node, labels, visited = frontier
            length = visited.shape[1] - 1
            i, s = graph.lookup(node, goal[row])
            label = graph.label[s]
            if length == 0:  # the target atom's own forward step is no path
                keep = label != 2 * head[row[i]]
                i, label = i[keep], label[keep]
            paths = labels[i]
            paths[:, length] = label
            found.append(np.unique(np.column_stack([head[row[i]], paths, row[i]]), axis=0))
            if sum(map(len, found)) > found_limit:  # drop repeats, at doubling sizes
                found = [np.unique(np.concatenate(found), axis=0)]
                found_limit = max(ROW_BUDGET, 2 * len(found[0]))
            if length + 1 < depth and len(row):
                stack.append(extend(row, node, labels, visited))
        # a chunk holds every row of its targets, so its coverage is final
        chunk_keys, chunk_counts = np.unique(
            np.unique(np.concatenate(found), axis=0)[:, :-1], axis=0, return_counts=True
        )
        keys, where = np.unique(np.concatenate([keys, chunk_keys]), axis=0, return_inverse=True)
        counts = np.bincount(where, np.concatenate([counts, chunk_counts]), len(keys)).astype(np.int64)

    return {
        (names[key[0]], tuple((names[lab // 2], bool(lab % 2)) for lab in key[1:] if lab >= 0)): count
        for key, count in zip(keys.tolist(), counts.tolist())
    }


def generate_candidates(db: AtomDatabase, config: GenerationConfig) -> list[PathClause]:
    """Mine, deduplicate, filter and rank candidate clauses.

    Paths are mined from every target training atom by `chain_coverage`;
    each unique clause and its head-negated twin share the coverage of their
    body, clauses with coverage below `min_coverage` are dropped, survivors
    are ordered by coverage (descending, ties by clause text with the
    positive twin first) and truncated to `top_k`, and negative priors are
    appended.
    """
    candidates: list[PathClause] = []
    for (head, steps), cov in chain_coverage(db, config).items():
        if cov >= config.min_coverage:
            candidates.extend(_chain_clause(steps, head, negated, cov) for negated in (False, True))

    # Coverage descending; ties by the positive-form clause text, with the
    # positive twin ahead of its negation so files read rule-then-negation.
    def sort_key(c: PathClause):
        positive_form = PathClause(c.body, Literal(c.head.predicate, c.head.var1, c.head.var2))
        return (-c.coverage, format_clause(positive_form), c.head_negated)

    candidates.sort(key=sort_key)
    candidates = candidates[: config.top_k]

    if config.add_negative_priors:
        target_preds = db.pred[db.targets]
        for pred in db.target_predicates():
            n_atoms = int(np.count_nonzero(target_preds == db.pred_ids[pred.name]))
            candidates.append(negative_prior(pred, n_atoms))
    elif not candidates:
        raise NoCandidates("no clause covers enough target atoms and priors are disabled")
    return candidates


# -- clause text grammar ---------------------------------------------------
#
#   BODY1(V1,V2) & BODY2(V2,V3) -> [!]HEAD(V1,V3)
#   -> !HEAD(A,B)                                  (negative prior)

_LITERAL_RE = re.compile(r"^\s*(!?)\s*([A-Za-z_]\w*)\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*$")


def _var_name(clause: PathClause, v: int) -> str:
    if clause.is_prior:
        return "A" if v == 1 else "B"
    return f"V{v}"


def format_clause(clause: PathClause) -> str:
    """Render a clause in the interchange grammar; this string is also the
    clause's canonical identity."""
    parts = []
    for lit in clause.body:
        parts.append(f"{lit.predicate}(V{lit.var1},V{lit.var2})")
    body_text = " & ".join(parts)
    head = clause.head
    bang = "!" if head.negated else ""
    head_text = f"{bang}{head.predicate}({_var_name(clause, head.var1)},{_var_name(clause, head.var2)})"
    return f"{body_text} -> {head_text}" if body_text else f"-> {head_text}"


def parse_clause(text: str, schema: dict[str, PredicateSymbol] | AtomDatabase) -> PathClause:
    """Parse the clause grammar back into a PathClause.

    Arbitrary variable names are accepted; the chain orientation of each body
    literal is inferred by walking variables from the head's first argument,
    and a literal written against the chain direction is marked inverted.
    A malformed clause raises `MalformedLine` at line 0; the file readers
    re-raise its detail at the clause's line.
    """
    predicates = schema.predicates if isinstance(schema, AtomDatabase) else schema
    if "->" not in text:
        raise MalformedLine(0, f"missing '->' in clause {text!r}")
    body_text, head_text = text.split("->", 1)
    m = _LITERAL_RE.match(head_text)
    if not m:
        raise MalformedLine(0, f"bad head literal in {text!r}")
    bang, head_pred, hv1, hv2 = m.groups()
    if head_pred not in predicates:
        raise UnknownPredicate(head_pred)
    if not predicates[head_pred].is_target:
        raise MalformedLine(0, f"head predicate {head_pred!r} is not a target")
    if hv1 == hv2:
        raise MalformedLine(0, f"head variables ({hv1},{hv2}) do not span the chain")

    raw_body = []
    if body_text.strip():
        for part in body_text.split("&"):
            lm = _LITERAL_RE.match(part)
            if not lm:
                raise MalformedLine(0, f"bad body literal {part.strip()!r}")
            lbang, pred, v1, v2 = lm.groups()
            if lbang:
                raise MalformedLine(0, "body literals cannot be negated")
            if pred not in predicates:
                raise UnknownPredicate(pred)
            raw_body.append((pred, v1, v2))

    if not raw_body:
        return PathClause((), Literal(head_pred, 1, 2, negated=bool(bang)))

    # Walk the chain from the head's first variable, assigning positions.
    seen = {hv1}
    steps: list[tuple[str, bool]] = []
    current = hv1
    for pred, v1, v2 in raw_body:
        if v1 == current:
            nxt, inverted = v2, False
        elif v2 == current:
            nxt, inverted = v1, True
        else:
            raise MalformedLine(0, f"literal {pred}({v1},{v2}) breaks the variable chain")
        if nxt in seen:
            raise MalformedLine(0, f"variable {nxt!r} reused outside the chain")
        seen.add(nxt)
        steps.append((pred, inverted))
        current = nxt
    if current != hv2:
        raise MalformedLine(0, f"head variables ({hv1},{hv2}) do not span the chain")
    return _chain_clause(steps, head_pred, bool(bang))


def write_clause_file(clauses: Sequence[PathClause], stream: IO[str]) -> None:
    """Emit one `clause<TAB>coverage` line per candidate."""
    for c in clauses:
        stream.write(f"{format_clause(c)}\t{c.coverage}\n")


def read_clause_file(
    stream: IO[str] | Iterable[str], schema: dict[str, PredicateSymbol] | AtomDatabase
) -> list[PathClause]:
    """Read clauses written by `write_clause_file`; the coverage column is
    optional and restored when present, and must be a non-negative integer."""
    clauses = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        try:
            clause = parse_clause(fields[0], schema)
        except MalformedLine as exc:
            raise MalformedLine(line_no, exc.detail) from None
        if len(fields) > 1 and fields[1].strip():
            if not fields[1].strip().isdecimal():
                raise MalformedLine(line_no, f"bad coverage {fields[1]!r}")
            clause = PathClause(clause.body, clause.head, coverage=int(fields[1]))
        clauses.append(clause)
    return clauses
