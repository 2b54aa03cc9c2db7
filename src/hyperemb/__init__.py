"""Joint node/hyperedge embedding learning on hypergraphs.

The library half covers structure (hypergraph), features, the layer
family (model), optimization (training), and metrics/splits/ranking
(evaluation); the ``hyperemb`` CLI drives the end-to-end experiments.
"""

from .errors import ConfigError, DataError, HypergraphWarning, NumericError
from .hypergraph import (
    FlatSets,
    GraphPack,
    Hypergraph,
    build_hypergraph,
    incidence_matrix,
)
from .features import (
    init_hyperedge_features,
    init_node_features,
    randomized_svd,
    svd_features,
)
from .model import (
    EmbeddingState,
    ForwardInputs,
    ModelParams,
    PropagationOperators,
    VariantKind,
    build_operators,
    default_dims,
    forward,
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
    score_sets,
    train,
)
from .evaluation import (
    EvalReport,
    auc,
    baseline_rankers,
    multiclass_auc,
    rank_positions,
    split_hyperedges,
    split_links,
)
from .data import Dataset, load_dataset, write_dataset
from .convert import convert_hypergcn, generate_node_splits

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "HypergraphWarning", "NumericError",
    "FlatSets", "GraphPack", "Hypergraph", "build_hypergraph",
    "incidence_matrix",
    "init_hyperedge_features", "init_node_features", "randomized_svd",
    "svd_features",
    "EmbeddingState", "ForwardInputs", "ModelParams", "PropagationOperators", "VariantKind",
    "build_operators", "default_dims", "forward",
    "init_params", "load_checkpoint", "save_checkpoint",
    "LabeledHyperedgeSet", "TrainConfig", "TrainState", "backward",
    "build_labeled_set", "hyperedge_bce_loss", "node_ce_loss",
    "sample_negatives", "score_sets", "train",
    "EvalReport", "auc", "baseline_rankers", "multiclass_auc",
    "rank_positions", "split_hyperedges", "split_links",
    "Dataset", "load_dataset", "write_dataset",
    "convert_hypergcn", "generate_node_splits",
]
