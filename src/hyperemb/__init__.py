"""Joint node/hyperedge embedding learning on hypergraphs.

The library half covers structure (hypergraph), features, the layer
family (model), optimization (training), and metrics/splits/ranking
(evaluation); the ``hyperemb`` CLI drives the end-to-end experiments.
"""

from .errors import ConfigError, DataError, HypergraphWarning, NumericError
from .hypergraph import (
    DegreeProfile,
    FlatSets,
    Hypergraph,
    build_hypergraph,
    degrees,
    hyperedge_adjacency,
    incidence_matrix,
    line_graph,
    node_adjacency,
    replace_edges,
    transition_matrices,
)
from .features import (
    init_hyperedge_features,
    init_node_features,
    randomized_svd,
    svd_features,
)
from .model import (
    EmbeddingState,
    ModelParams,
    PropagationOperators,
    VariantKind,
    build_operators,
    default_dims,
    export_embedding_set,
    forward,
    hyperedge_dependent_embedding,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    LabeledHyperedgeSet,
    TrainConfig,
    TrainState,
    backward,
    build_labeled_set,
    hyperedge_bce_loss,
    node_ce_loss,
    sample_negatives,
    score_maxmin,
    score_mean_pairwise,
    score_sets,
    train,
)
from .evaluation import (
    EvalReport,
    auc,
    baseline_rankers,
    hit_rate_at_k,
    multiclass_auc,
    ndcg_at_k,
    rank_positions,
    recommend,
    split_hyperedges,
    split_links,
)
from .data import Dataset, load_dataset, write_dataset
from .convert import convert_hypergcn, generate_node_splits

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "HypergraphWarning", "NumericError",
    "DegreeProfile", "FlatSets", "Hypergraph", "build_hypergraph", "degrees",
    "hyperedge_adjacency", "incidence_matrix", "line_graph",
    "node_adjacency", "replace_edges", "transition_matrices",
    "init_hyperedge_features", "init_node_features", "randomized_svd",
    "svd_features",
    "EmbeddingState", "ModelParams", "PropagationOperators", "VariantKind",
    "build_operators", "default_dims", "export_embedding_set", "forward",
    "hyperedge_dependent_embedding", "init_params", "load_checkpoint",
    "save_checkpoint",
    "LabeledHyperedgeSet", "TrainConfig", "TrainState", "backward",
    "build_labeled_set", "hyperedge_bce_loss", "node_ce_loss",
    "sample_negatives", "score_maxmin", "score_mean_pairwise", "score_sets", "train",
    "EvalReport", "auc", "baseline_rankers", "hit_rate_at_k",
    "multiclass_auc", "ndcg_at_k", "rank_positions", "recommend", "split_hyperedges",
    "split_links",
    "Dataset", "load_dataset", "write_dataset",
    "convert_hypergcn", "generate_node_splits",
]
