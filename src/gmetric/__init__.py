"""Fixed-point toolkit for G-metric (ternary-distance) spaces.

Verify the distance axioms and contractive conditions on concrete spaces
and maps, run Picard iteration with certified error bounds, and
exhaustively validate the fixed-point theorems on small finite spaces
with exact rational arithmetic.

Each public name is imported from its module on first read (PEP 562), so
``import gmetric`` loads no layer and a program loads only the layers
whose names it reads.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "errors": ("CapExceededError", "ConfigError", "DomainError", "GMetricError",
               "ParameterError"),
    "spaces": ("AxiomReport", "ConditionVerdict", "ConvergenceDiagnosis", "FiniteCarrier",
               "FiniteMetric", "GMetricSpace", "RealCarrier", "Verdict", "build_gmetric",
               "check_axioms", "check_symmetry", "derived_metric", "diagnose_sequence",
               "eval_g", "load_metric_table", "random_metric"),
    "dynamics": ("ConvergenceClass", "FixedPointCertificate", "OrbitTrace", "SelfMap",
                 "apriori_bound", "detect_cluster_point", "iterations_needed", "orbit",
                 "probe_injectivity", "probe_orbital_continuity", "solve_picard",
                 "write_trace_csv"),
    "conditions": ("AuxWeight", "Certificate", "ConditionSpec", "ExtensionVerdicts",
                   "GaugeFunction", "GaugeReport", "UniquenessReport", "certify_on_samples",
                   "check_aux_bound", "check_gauge_admissible", "check_uniqueness_conditions",
                   "contraction_factor", "eval_condition", "eval_extension"),
    "oracle": ("TheoremCheckReport", "enumerate_self_maps", "exhaustive_axiom_check",
               "exhaustive_theorem_check", "table_self_map"),
}
_MODULES = ("errors", "spaces", "dynamics", "sampling", "conditions", "oracle", "catalog",
            "reports")
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME, "catalog", "reports", "sampling"])


def __getattr__(name: str):
    if name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
