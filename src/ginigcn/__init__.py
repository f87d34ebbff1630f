"""Gini-regularized multi-task graph convolutional regression with attribution."""

from .attribution import (
    AttributionMap,
    FukuiRecord,
    atom_maps,
    condensed_fukui,
    contribution_terms,
    fukui_compare,
    per_atom_map,
    rank_correlation,
    top_representations,
)
from .gini import GiniConfig, RegularizerReport, gini, gini_gradient, layer_gini_blocks, regularized_loss
from .model import Model, ModelConfig, init_model, load_checkpoint, save_checkpoint
from .molecules import (
    Atom,
    MolecularGraph,
    MoleculeError,
    featurize,
    kfold_split,
    load_dataset,
    parse_graph_file,
    parse_smiles_subset,
    write_dataset,
)
from .toydata import ToySpec, generate, generate_graphs
from .training import (
    History,
    TargetStats,
    TrainConfig,
    TrainingDivergence,
    cross_validate,
    evaluate_mae,
    train,
)

__version__ = "0.1.0"
