"""Weighted-graph clustering: contraction, edge-weight-aware sparse attention, fuzzy c-means."""

from .attention import AttentionRecord, LayerParams, ModelParams
from .config import TrainConfig
from .contraction import ContractionConfig, SubgraphSelection
from .fcm import ClusterAssignment, fcm_fit, hard_labels
from .graph import LabeledGraph, WeightedGraph, inject_noise_edges, load_edge_list, synth_weighted_sbm
from .losses import LossBreakdown, modularity, total_loss, update_edge_weights
from .metrics import EvalReport
from .ml100k import Ml100kBuildReport, build_ml100k
from .trainer import TrainedModel, infer, train

__version__ = "0.1.0"
