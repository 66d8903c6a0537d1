"""Coxeter word problem, Stallings folds, and special-graph decompositions."""

from .coxeter import (
    CoxeterMatrix,
    Indeterminate,
    INF,
    InvariantViolation,
    alternating_word,
    equal_in_group,
    find_almost_relator,
    is_identity,
    is_reduced,
    kappa,
    mod2_rank_bound,
    petersen_thom_bound,
    reduce_word,
    tits_closure,
)
from .graphs import (
    BasedGraph,
    GraphBuilder,
    GraphPath,
    LabeledGraph,
    MoveRejected,
    accepts,
    ao_move,
    based_isomorphic,
    betti,
    components,
    euler,
    fold,
    fold_based,
    fold_once,
    is_folded,
    pi1_generators,
    wedge_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
