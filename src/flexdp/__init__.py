"""Differentially private SQL counting queries via elastic sensitivity.

The pipeline: parse a counting query into relational algebra, bound its
sensitivity at every replacement distance using per-column max-frequency
metrics, smooth the bound, and release the true result with calibrated
Laplace noise. Brute-force enumeration on tiny databases (``bruteforce``)
backs the bound with ground truth.

Each public name is imported from its module on first use (PEP 562), so
``import flexdp.parser`` loads the parser and what it imports, not the
evaluator or the command line.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it, in ``__all__`` order
_HOMES = {
    "Aliased": "relalg",
    "AttrRef": "relalg",
    "BudgetExhausted": "errors",
    "BudgetLedger": "mechanism",
    "Catalog": "relalg",
    "Comparison": "relalg",
    "Count": "relalg",
    "CountGrouped": "relalg",
    "EvaluationError": "errors",
    "FlexError": "errors",
    "FormatError": "errors",
    "InvalidParams": "errors",
    "InvalidScale": "errors",
    "Join": "relalg",
    "MetricsStore": "metrics",
    "MicroDatabase": "oracle",
    "MissingMetric": "errors",
    "NegativeCount": "errors",
    "ParseError": "errors",
    "PrivacyParams": "mechanism",
    "Project": "relalg",
    "ProtectedBinLabels": "errors",
    "RelExpr": "relalg",
    "ReleaseResult": "mechanism",
    "ScopeEntry": "relalg",
    "Select": "relalg",
    "SmoothBound": "mechanism",
    "Table": "relalg",
    "TooLargeToEnumerate": "errors",
    "UnknownColumn": "errors",
    "UnknownTable": "errors",
    "UnresolvedAttribute": "errors",
    "UnsupportedQuery": "errors",
    "attribute_index": "relalg",
    "ball_size": "bruteforce",
    "catalog_from_metrics": "metrics",
    "column_max_frequency": "oracle",
    "elastic_sensitivity": "sensitivity",
    "eval_query": "oracle",
    "eval_rows": "oracle",
    "join_count": "sensitivity",
    "join_nodes": "relalg",
    "laplace_inverse_cdf": "mechanism",
    "laplace_sample": "mechanism",
    "load_metrics": "metrics",
    "local_sensitivity_at": "bruteforce",
    "make_params": "mechanism",
    "metrics_collection_sql": "metrics",
    "mf_at_distance": "sensitivity",
    "neighbors_at": "bruteforce",
    "parse_query": "parser",
    "release_count": "mechanism",
    "release_histogram": "mechanism",
    "root_count": "relalg",
    "save_metrics": "metrics",
    "scope_of": "relalg",
    "sensitivity_log_profile": "sensitivity",
    "sensitivity_polynomials": "sensitivity",
    "smooth_bound": "mechanism",
    "validate_store": "metrics",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOMES[name], __name__), name)
    globals()[name] = value  # the next lookup finds it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
