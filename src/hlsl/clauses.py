"""Path-constrained clause generation.

Candidate first-order Horn clauses are mined from the data: for every target
atom t(a, b) the simple paths of bounded length that connect a to b along
rounded-1 atoms are variablized into chain clauses whose head is the target
predicate, and each clause is emitted together with its head-negated twin.
A clause is its chain (`PathClause`): the head predicate and the sequence of
(predicate, inverted) steps, which the clause text, clause equality and
grounding all read.
Candidates are deduplicated, filtered by how many target atoms they cover,
and capped at a fixed pool size; a body-less negative prior clause per
target predicate is appended last.

Mining runs as one chain join over a sparse step graph for all target atoms
at once (`data.StepGraph`, `chain_coverage`); `bfs_paths` is the per-target
reference enumeration of the same paths.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .data import PREDICATE_NAME, AtomDatabase, PredicateSymbol, StepGraph
from .errors import MalformedLine, NoCandidates, UnknownPredicate

# One step of a ground relational path: predicate name, whether the edge was
# walked against its direction, source constant, destination constant.
PathStep = tuple[str, bool, int, int]
RelationalPath = tuple[PathStep, ...]


# A step of a chain clause: predicate name, whether the chain walks the
# predicate's edges backwards.
ChainStep = tuple[str, bool]


@dataclass(frozen=True)
class PathClause:
    """A chain-shaped Horn clause: its body steps imply a (possibly negated)
    target head over the chain's endpoints.

    Step k joins the chain variables Vk and Vk+1: it reads P(Vk,Vk+1), or
    P(Vk+1,Vk) when inverted, and the head over n steps reads T(V1,Vn+1).
    Negative priors have no steps and read `-> !T(A,B)`. The steps are the
    clause: its text, its equality and its groundings all read them.
    `coverage` counts the distinct target training atoms the clause
    connects and does not participate in clause identity.
    """

    head: str
    steps: tuple[ChainStep, ...] = ()
    negated: bool = False
    coverage: int = field(default=0, compare=False)

    @property
    def is_prior(self) -> bool:
        return not self.steps

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
    target: int,
    max_depth: int,
    include_inverses: bool = True,
    traverse_target_edges: bool = True,
) -> set[RelationalPath]:
    """Enumerate ground paths from the first to the second constant of the
    atom with index `target`, which must be of a target predicate.

    Paths follow edges (atoms that round to 1), never revisit a
    constant, and have 1..max_depth steps. Backward edges are taken when
    `include_inverses`. The single-step path consisting of the target atom
    itself is excluded. `generate_candidates` counts the same paths with
    `chain_coverage`; this per-target enumeration is its reference.
    """
    if not db.is_target_pred[db.pred[target]]:
        raise ValueError("bfs_paths roots at a target atom")
    start, goal = int(db.arg1[target]), int(db.arg2[target])
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
    self_step = (db.pred_names[db.pred[target]], False, start, goal)
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


def variablize(path: RelationalPath, head: str, negate_head: bool = False) -> PathClause:
    """Turn a ground path into a first-order chain clause.

    Constants are replaced position-wise by the chain variables, so the
    clause keeps each step's predicate and direction. The head is the
    target predicate named `head` over the chain endpoints.
    """
    if not path:
        raise ValueError("cannot variablize an empty path")
    return PathClause(head, tuple((pred, inverted) for pred, inverted, _src, _dst in path), negate_head)


def negative_prior(pred: PredicateSymbol | str, coverage: int = 0) -> PathClause:
    """Body-less clause penalizing high values of a target predicate."""
    name = pred if isinstance(pred, str) else pred.name
    return PathClause(name, negated=True, coverage=coverage)


# -- chain joins -----------------------------------------------------------

# Most steps one frontier expansion may materialize. A wider expansion is
# split into pieces walked one after another, so the working set is bounded
# by this budget times the depth (plus one node's degree), not by the number
# of targets or paths.
ROW_BUDGET = 1 << 16

# Number of distinct packed keys an int64 holds (0 .. 2**63 - 1). Rows with
# more possible values than this stay rows, sorted by lexsort.
KEY_SPAN = 1 << 63


class RowKeys:
    """Integer rows as sort keys, packed into one int64 each when they fit.

    Column j of a row holds values in [low[j], low[j] + radix[j]). A row packs
    to the mixed-radix number of its offsets from `low`, the first column most
    significant, so integer order is the row order of `np.unique(axis=0)`.
    When the radix product exceeds `KEY_SPAN` the keys are the rows
    themselves. The product is taken in Python ints: numpy int64 wraps
    silently.
    """

    def __init__(self, low: Sequence[int], radix: Sequence[int], packed: bool | None = None):
        self.low = np.asarray(low, dtype=np.int64)
        self.radix = np.maximum(np.asarray(radix, dtype=np.int64), 1)
        self.packed = math.prod(self.radix.tolist()) <= KEY_SPAN if packed is None else packed

    def pack(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Keys of the rows whose columns are `columns` (`rows.T` of rows)."""
        if not self.packed:
            return np.column_stack(columns)
        keys = np.zeros(len(columns[0]), dtype=np.int64)
        for col, low, radix in zip(columns, self.low, self.radix):
            keys *= radix
            keys += col - low
        return keys

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The rows `keys` stand for."""
        if not self.packed:
            return keys
        rows = np.empty((len(keys), len(self.radix)), dtype=np.int64)
        for j in reversed(range(len(self.radix))):
            keys, rows[:, j] = np.divmod(keys, self.radix[j])
        return rows + self.low

    def prefix(self) -> RowKeys:
        """The keys of the rows without their last column."""
        return RowKeys(self.low[:-1], self.radix[:-1], self.packed)

    def drop_last(self, keys: np.ndarray) -> np.ndarray:
        """`keys` as `prefix()` keys: a prefix of the key order, so sorted
        keys stay sorted."""
        return keys // self.radix[-1] if self.packed else keys[:, :-1]


def unique_rows(keys: np.ndarray, weights: np.ndarray | None = None):
    """`keys` ascending without repeats, as `np.unique(keys, axis=0)` returns
    them, and with `weights` also the summed weight of each distinct key.

    Packed keys (1-D int64) sort as plain integers, rows (2-D) by a lexsort
    over their columns. Packed keys are never deduplicated by a plain
    `np.unique`: under numpy 2.4 it hashes int64 values, tens of times slower
    than a sort (2M distinct keys on a 2-core Xeon VM: 2.1 s, against 0.03 s
    for `np.sort` and the adjacent test).
    """
    if keys.ndim == 1 and weights is None:
        keys = np.sort(keys)
    else:  # a stable sort merges already sorted runs (the running set, a chunk) in one pass
        order = np.argsort(keys, kind="stable") if keys.ndim == 1 else np.lexsort(keys.T[::-1])
        keys = keys[order]
    new = keys[1:] != keys[:-1]
    if keys.ndim == 2:
        new = new.any(axis=1)
    first = np.flatnonzero(np.r_[len(keys) > 0, new])
    if weights is None:
        return keys[first]
    return keys[first], np.add.reduceat(weights[order], first) if len(first) else weights[:0]


def _mine(db: AtomDatabase, config: GenerationConfig) -> tuple[RowKeys, np.ndarray, np.ndarray]:
    """`chain_coverage` as keys: (the codec of (head, labels...) rows, every
    chain body's key in ascending order, its coverage)."""
    depth = config.max_depth
    labels = np.array([[True, config.include_inverses]] * len(db.predicates))  # (forward, backward) steps
    labels[db.is_target_pred] &= config.traverse_target_edges
    graph = StepGraph(db, labels=labels.ravel())
    start, goal, head = db.arg1[db.targets], db.arg2[db.targets], db.pred[db.targets]
    # a found path is the row [head, labels..., target row]
    path_keys = RowKeys([0] + [-1] * depth + [0], [len(db.predicates)] + [graph.n_labels + 1] * depth + [len(start)])
    body_keys = path_keys.prefix()

    # every (head, labels...) key seen, and its coverage over finished chunks
    keys = body_keys.pack(np.zeros((depth + 1, 0), dtype=np.int64))
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
        found: list[np.ndarray] = []  # keys of the paths found
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
            found.append(unique_rows(path_keys.pack([head[row[i]], *paths.T, row[i]])))
            if sum(map(len, found)) > found_limit:  # drop repeats, at doubling sizes
                found = [unique_rows(np.concatenate(found))]
                found_limit = max(ROW_BUDGET, 2 * len(found[0]))
            if length + 1 < depth and len(row):
                stack.append(extend(row, node, labels, visited))
        # a chunk holds every row of its targets, so its coverage is final;
        # its distinct paths sorted are its bodies sorted, each once per target
        bodies = path_keys.drop_last(unique_rows(np.concatenate(found)))
        chunk_keys, chunk_counts = unique_rows(bodies, np.ones(len(bodies), dtype=np.int64))
        keys, counts = unique_rows(np.concatenate([keys, chunk_keys]), np.concatenate([counts, chunk_counts]))

    return body_keys, keys, counts


def _chain_bodies(db: AtomDatabase, body_keys: RowKeys, keys: np.ndarray) -> list[tuple[str, tuple[ChainStep, ...]]]:
    """(head predicate, body steps as (predicate, inverted) pairs) of each key."""
    names = db.pred_names
    return [
        (names[key[0]], tuple((names[lab // 2], bool(lab % 2)) for lab in key[1:] if lab >= 0))
        for key in body_keys.unpack(keys).tolist()
    ]


def chain_coverage(db: AtomDatabase, config: GenerationConfig) -> dict[tuple[str, tuple[ChainStep, ...]], int]:
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

    Each path found is packed into one int64 key (`RowKeys`): its head
    predicate, then every label + 1 (the -1 padding becomes 0), then its
    target row, as a mixed-radix number. Repeats are dropped by sorting the
    keys as plain integers. A key divided by the number of targets is its
    body's key, so a chunk's sorted distinct paths run-length into its
    bodies' coverage, merged into the running set by one more sort. When the
    radix product does not fit an int64, the same steps run on the rows,
    sorted by lexsort.
    """
    body_keys, keys, counts = _mine(db, config)
    return dict(zip(_chain_bodies(db, body_keys, keys), counts.tolist()))


def generate_candidates(db: AtomDatabase, config: GenerationConfig) -> list[PathClause]:
    """Mine, deduplicate, filter and rank candidate clauses.

    Paths are mined from every target training atom by `chain_coverage`;
    each unique clause and its head-negated twin share the coverage of their
    body, clauses with coverage below `min_coverage` are dropped, survivors
    are ordered by coverage (descending, ties by clause text with the
    positive twin first) and truncated to `top_k`, and negative priors are
    appended.
    """
    body_keys, keys, counts = _mine(db, config)
    # Twins sort next to each other, so the cut keeps the best-covered
    # ceil(top_k / 2) bodies: only bodies covering at least as much as the
    # last of those are named and built.
    keep = counts >= config.min_coverage
    n_bodies = (config.top_k + 1) // 2
    if np.count_nonzero(keep) > n_bodies:
        keep &= counts >= np.sort(counts[keep])[-n_bodies]
    candidates = [
        PathClause(head, steps, negated, cov)
        for (head, steps), cov in zip(_chain_bodies(db, body_keys, keys[keep]), counts[keep].tolist())
        for negated in (False, True)
    ]
    # Coverage descending; ties by the positive twin's text, with the
    # positive twin ahead of its negation so files read rule-then-negation.
    candidates.sort(key=lambda c: (-c.coverage, format_clause(replace(c, negated=False)), c.negated))
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

_LITERAL_RE = re.compile(rf"^\s*(!?)\s*({PREDICATE_NAME})\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*$")


def format_clause(clause: PathClause) -> str:
    """Render a clause in the interchange grammar; this string is also the
    clause's canonical identity."""
    body = [f"{pred}(V{k + 1},V{k})" if inverted else f"{pred}(V{k},V{k + 1})"
            for k, (pred, inverted) in enumerate(clause.steps, start=1)]
    head = f"{'!' if clause.negated else ''}{clause.head}" + (f"(V1,V{len(body) + 1})" if body else "(A,B)")
    return f"{' & '.join(body)} -> {head}" if body else f"-> {head}"


def parse_clause(text: str, schema: dict[str, PredicateSymbol] | AtomDatabase) -> PathClause:
    """Parse the clause grammar back into a PathClause.

    Arbitrary variable names are accepted; the chain orientation of each body
    literal is inferred by walking variables from the head's first argument,
    and a literal written against the chain direction is an inverted step.
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
        return PathClause(head_pred, negated=bool(bang))

    # Walk the chain from the head's first variable, assigning positions.
    seen = {hv1}
    steps: list[ChainStep] = []
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
    return PathClause(head_pred, tuple(steps), bool(bang))


def write_clause_file(clauses: Sequence[PathClause], stream: IO[str]) -> None:
    """Emit one `clause<TAB>coverage` line per candidate."""
    for c in clauses:
        stream.write(f"{format_clause(c)}\t{c.coverage}\n")


def read_clause_file(
    stream: IO[str] | Iterable[str], schema: dict[str, PredicateSymbol] | AtomDatabase
) -> list[PathClause]:
    """Read clauses written by `write_clause_file`; the coverage column is
    optional and restored when present, and must be a non-negative integer.
    A line with more than those two fields is malformed."""
    clauses = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) > 2:
            raise MalformedLine(line_no, "expected 'clause[<TAB>coverage]'")
        try:
            clause = parse_clause(fields[0], schema)
        except MalformedLine as exc:
            raise MalformedLine(line_no, exc.detail) from None
        if len(fields) > 1 and fields[1].strip():
            if not fields[1].strip().isdecimal():
                raise MalformedLine(line_no, f"bad coverage {fields[1]!r}")
            clause = replace(clause, coverage=int(fields[1]))
        clauses.append(clause)
    return clauses
