"""Native models, cross-validation, and the three attack tasks."""

from .crossval import (
    ModelSpec,
    SearchSpec,
    contiguous_shuffle_folds,
    fit_model,
    kfold_eval,
    stratified_folds,
)
from .forest import ForestHyperParams, ForestModel, feature_importance, train_forest
from .linear import LinearEpsHyperParams, LinearEpsModel, train_linear_epsilon
from .metrics import accuracy, precision_recall, r_squared
from .mlp import MlpHyperParams, MlpModel, gradient_check, train_mlp
from .tasks import (
    ModelReport,
    group_task,
    random_search,
    save_report,
    spoof_task,
    value_task,
)

__all__ = [
    "ModelSpec", "SearchSpec", "contiguous_shuffle_folds", "fit_model",
    "kfold_eval", "random_search", "stratified_folds",
    "ForestHyperParams", "ForestModel", "feature_importance", "train_forest",
    "LinearEpsHyperParams", "LinearEpsModel", "train_linear_epsilon",
    "accuracy", "precision_recall", "r_squared",
    "MlpHyperParams", "MlpModel", "gradient_check", "train_mlp",
    "ModelReport", "group_task", "save_report", "spoof_task", "value_task",
]
