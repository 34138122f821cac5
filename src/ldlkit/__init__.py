"""Label-distribution learning with low-rank auxiliary multi-label structure.

The package fits linear label-distribution regressors whose labels are tied
together through an auxiliary multi-label task: the distributions are degraded
into binary relevance vectors, and the predicted multi-label matrix is pushed
toward low rank by a nuclear-norm penalty solved with an alternating
splitting scheme.  Degradation procedures, the six standard evaluation
measures, dataset I/O, synthetic generation and a cross-validation CLI are
included.
"""
from . import errors
from .data import (
    Dataset,
    FoldPlan,
    kfold,
    load_dataset,
    resolve_data_path,
    save_dataset,
    synth_lowrank,
)
from .degrade import degrade, threshold_degrade, topk_degrade
from .metrics import (
    METRIC_NAMES,
    EvalReport,
    canberra,
    chebyshev,
    clark,
    cosine,
    evaluate,
    intersection,
    kl_divergence,
)
from .solver import (
    FitResult,
    fit,
    load_model,
    predict,
    save_model,
    svt,
    update_o,
    update_w,
)
from .types import (
    Degradation,
    FeatureMatrix,
    Hyperparams,
    LabelDistributionMatrix,
    LdlModel,
    MultiLabelMatrix,
    Standardizer,
    ThresholdDegrade,
    TopKDegrade,
    Variant,
    parse_degradation,
    validate_distribution_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Degradation",
    "EvalReport",
    "FeatureMatrix",
    "FitResult",
    "FoldPlan",
    "Hyperparams",
    "LabelDistributionMatrix",
    "LdlModel",
    "METRIC_NAMES",
    "MultiLabelMatrix",
    "Standardizer",
    "ThresholdDegrade",
    "TopKDegrade",
    "Variant",
    "canberra",
    "chebyshev",
    "clark",
    "cosine",
    "degrade",
    "errors",
    "evaluate",
    "fit",
    "intersection",
    "kfold",
    "kl_divergence",
    "load_dataset",
    "load_model",
    "parse_degradation",
    "predict",
    "resolve_data_path",
    "save_dataset",
    "save_model",
    "svt",
    "synth_lowrank",
    "threshold_degrade",
    "topk_degrade",
    "update_o",
    "update_w",
    "validate_distribution_matrix",
]
