"""misslab: a laboratory for structured missingness.

Simulate data, impose missingness mechanisms across the full
MCAR/MAR/MNAR-by-structure taxonomy, analyse the resulting indicator
structure, multiply impute by chained equations, and pool with the
multiple-imputation combining rules.
"""

from .tabular import (
    DataMatrix,
    MissMask,
    PatternSummary,
    pattern_summary,
    read_csv,
    write_csv,
)
from .mechanisms import (
    Comparison,
    EvaluationError,
    ForceClause,
    LatentBlock,
    LogicalClause,
    LogisticClause,
    MechanismRule,
    MechanismSpec,
    PredictorRef,
    SpecificationError,
    TableClause,
    TaxonomyLabel,
    classify,
    load_spec,
    mask_law,
    save_spec,
    simulate_mask,
)
from .builtins import BUILTIN_NAMES, builtin_structures
from .graphs import export_dot
from .analyzer import (
    DependenceReport,
    pairwise_dependence,
    sequential_signature,
)
from .impute import (
    ImputationConfig,
    ImputationResult,
    chain_diagnostics,
    fcs_impute,
    fit_norm_draw,
    fit_pmm_draw,
)
from .inference import (
    MetricsRecord,
    PooledEstimate,
    pool,
    predict_mse,
    replicate_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "MissMask",
    "PatternSummary",
    "pattern_summary",
    "read_csv",
    "write_csv",
    "Comparison",
    "EvaluationError",
    "ForceClause",
    "LatentBlock",
    "LogicalClause",
    "LogisticClause",
    "MechanismRule",
    "MechanismSpec",
    "PredictorRef",
    "SpecificationError",
    "TableClause",
    "TaxonomyLabel",
    "classify",
    "load_spec",
    "mask_law",
    "save_spec",
    "simulate_mask",
    "BUILTIN_NAMES",
    "builtin_structures",
    "export_dot",
    "DependenceReport",
    "pairwise_dependence",
    "sequential_signature",
    "ImputationConfig",
    "ImputationResult",
    "chain_diagnostics",
    "fcs_impute",
    "fit_norm_draw",
    "fit_pmm_draw",
    "MetricsRecord",
    "PooledEstimate",
    "pool",
    "predict_mse",
    "replicate_metrics",
]
