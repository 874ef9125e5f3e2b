"""misslab: a laboratory for structured missingness.

Simulate data, impose missingness mechanisms across the full
MCAR/MAR/MNAR-by-structure taxonomy, analyse the resulting indicator
structure, multiply impute by chained equations, and pool with the
multiple-imputation combining rules.

Importing the package loads numpy and :mod:`misslab.tabular`, the
containers every verb reads; any other public name loads its module on
first access (PEP 562), so a process pays only for the code it runs.
"""

from importlib import import_module

from . import tabular

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOME = {name: module for module, names in {
    "tabular": "DataMatrix MissMask PatternSummary pattern_summary read_csv write_csv",
    "mechanisms": "Comparison EvaluationError ForceClause LatentBlock LogicalClause "
                  "LogisticClause MechanismRule MechanismSpec PredictorRef "
                  "SpecificationError TableClause TaxonomyLabel classify load_spec "
                  "mask_law save_spec simulate_mask",
    "builtins": "BUILTIN_NAMES builtin_structures",
    "graphs": "export_dot",
    "analyzer": "DependenceReport pairwise_dependence sequential_signature",
    "impute": "ImputationConfig ImputationResult chain_diagnostics fcs_impute "
              "fit_norm_draw fit_pmm_draw",
    "inference": "MetricsRecord PooledEstimate pool predict_mse replicate_metrics",
}.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    # Not cached here: the name always reads its module's current binding.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
