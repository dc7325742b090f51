"""Structure learning for hinge-loss Markov random fields.

Pipeline: mine path-constrained Horn clauses from relational data, learn
clause weights (greedy pseudolikelihood search, or one fit of the decoupled
piecewise objective; both by projected Newton steps), then predict held-out
target atoms by convex MAP inference and evaluate with AUC.
"""

from .clauses import (
    GenerationConfig,
    PathClause,
    bfs_paths,
    format_clause,
    generate_candidates,
    negative_prior,
    parse_clause,
    variablize,
)
from .data import (
    AtomDatabase,
    PredicateSymbol,
    build_adjacency,
    load_database,
    parse_schema,
    parse_tsv,
    round_value,
    serialize_tsv,
)
from .errors import (
    DegenerateLabels,
    DuplicateAtom,
    HlslError,
    MalformedLine,
    NoCandidates,
    NonFiniteObjective,
    UnknownPredicate,
    ValueOutOfRange,
)
from .grounding import Grounding, ground_clauses
from .inference import MapSolution, RocResult, auc_roc, map_infer
from .learning import (
    LearnConfig,
    WeightedModel,
    gls_structure_learn,
    learn_weights,
    objective_gradient,
    ppll_structure_learn,
    read_model,
    write_model,
)
from .scoring import ScoreReport, log_pll, log_ppll

__version__ = "0.1.0"
