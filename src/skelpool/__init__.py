"""Region-aware graph pooling networks for skeleton action recognition."""

from .blocks import classifier_head, cross_fusion_block, information_supplement
from .data import (Dataset, LabeledSequence, ScoreFile, fuse_scores, load_dataset,
                   resample_frames, save_dataset, synth_generate)
from .flops import FlopsReport, count_flops, no_pooling_control
from .gradcheck import check_gradients, run_all
from .model import (Model, ModelConfig, build_model, load_checkpoint,
                    save_checkpoint)
from .pooling import PoolingParams, correlation, spatial_pool, st_pool
from .skeleton import (PartitionScheme, SkeletonTopology, build_assignment,
                       builtin_partition, builtin_topology, coarsen_adjacency,
                       load_topology, normalized_adjacency)
from .tensor import (GradientSet, NonFiniteError, Parameter, Tape, Tensor,
                     concat_channels, cross_entropy, gradients, verify_replay)
from .train import (TrainConfig, evaluate, lr_at, random_rotate, sgd_nesterov_step,
                    train_loop)

__all__ = [
    "Dataset", "FlopsReport", "GradientSet", "LabeledSequence", "Model",
    "ModelConfig", "NonFiniteError", "Parameter", "PartitionScheme",
    "PoolingParams", "ScoreFile", "SkeletonTopology", "Tape", "Tensor",
    "TrainConfig", "build_assignment", "build_model",
    "builtin_partition", "builtin_topology", "check_gradients",
    "classifier_head", "coarsen_adjacency", "concat_channels", "correlation",
    "count_flops", "cross_entropy", "cross_fusion_block", "evaluate",
    "fuse_scores", "gradients", "information_supplement", "load_checkpoint",
    "load_dataset", "load_topology", "lr_at",
    "no_pooling_control", "normalized_adjacency", "random_rotate",
    "resample_frames", "run_all", "save_checkpoint", "save_dataset",
    "sgd_nesterov_step", "spatial_pool", "st_pool", "synth_generate",
    "train_loop", "verify_replay",
]

__version__ = "0.1.0"
