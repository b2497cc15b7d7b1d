"""Training infrastructure: datasets, trainer, metrics, fine-tuning."""

from repro.train.dataset import (
    CircuitSample,
    build_dataset,
    build_reliability_dataset,
    dataset_workloads,
)
from repro.train.finetune import (
    FinetuneConfig,
    finetune_for_reliability,
    finetune_grannite,
    finetune_on_workloads,
    workload_suite,
)
from repro.train.metrics import EvalMetrics, avg_prediction_error
from repro.train.trainer import EpochStats, TrainConfig, Trainer, evaluate

__all__ = [
    "CircuitSample",
    "build_dataset",
    "build_reliability_dataset",
    "dataset_workloads",
    "FinetuneConfig",
    "finetune_for_reliability",
    "finetune_grannite",
    "finetune_on_workloads",
    "workload_suite",
    "EvalMetrics",
    "avg_prediction_error",
    "EpochStats",
    "TrainConfig",
    "Trainer",
    "evaluate",
]
