"""Residual-boosted deep CTR prediction.

A sigmoid-head classifier is trained, its signed prediction errors are
learned by dedicated tanh-head regressors, and the scaled predicted errors
are fed back to the classifier through appended placeholder feature
columns. The package also ships the surrounding experiment machinery:
chronological splits, sub-training carving, class weighting, cold-start
filtering, AUC/log-loss evaluation and a CLI harness.
"""

from .boosting import (XDBoostModel, create_xdboost, predict_xdboost,
                       train_unboosted, train_xdboost)
from .data import (ClassWeights, ClickLog, DesignMatrix, FeatureSchema,
                   FieldSpec, SplitSpec, append_placeholders, build_schema,
                   chronological_split, class_weights, cold_start_filter,
                   encode, ingest_csv, records_hash, sub_training)
from .errors import (ConfigError, DataError, EvaluationError, TrainingError,
                     UsageError, XDBoostError)
from .kernels import BACKEND
from .metrics import MetricsReport, auc, evaluate, log_loss
from .models import BaseNet, BaseNetConfig, FitHistory
from .synth import SynthConfig, generate_records

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BaseNet",
    "BaseNetConfig",
    "ClassWeights",
    "ClickLog",
    "ConfigError",
    "DataError",
    "DesignMatrix",
    "EvaluationError",
    "FeatureSchema",
    "FieldSpec",
    "FitHistory",
    "MetricsReport",
    "SplitSpec",
    "SynthConfig",
    "TrainingError",
    "UsageError",
    "XDBoostError",
    "XDBoostModel",
    "append_placeholders",
    "auc",
    "build_schema",
    "chronological_split",
    "class_weights",
    "cold_start_filter",
    "create_xdboost",
    "encode",
    "evaluate",
    "generate_records",
    "ingest_csv",
    "log_loss",
    "predict_xdboost",
    "records_hash",
    "sub_training",
    "train_unboosted",
    "train_xdboost",
    "__version__",
]
