"""repro: a reproduction of "Resugaring: Lifting Evaluation Sequences
through Syntactic Sugar" (Pombrio & Krishnamurthi, PLDI 2014).

The package implements the paper's CONFECTION tool — desugaring with
origin tags, resugaring, and lifting of core evaluation sequences into
surface evaluation sequences — together with the substrates the paper's
evaluation depends on: a reduction-semantics engine (``repro.redex``), a
stateful lambda-calculus core language (``repro.lambdacore``), a
Pyret-like core object language (``repro.pyretcore``), and libraries of
syntactic sugar (``repro.sugars``).
"""

from repro.core import (
    BodyTag,
    Const,
    DisjointnessMode,
    HeadTag,
    Node,
    Pattern,
    PList,
    PVar,
    Rule,
    RuleList,
    Symbol,
    Tagged,
    desugar,
    lift_evaluation,
    lift_evaluation_tree,
    match,
    resugar,
    subst,
    transparent,
    unify,
)
from repro.lang import parse_pattern, parse_rulelist, parse_rules, parse_term, render

__version__ = "1.0.0"

__all__ = [
    "Backend",
    "Confection",
    "Const",
    "Node",
    "PList",
    "PVar",
    "Pattern",
    "Symbol",
    "Tagged",
    "HeadTag",
    "BodyTag",
    "Rule",
    "RuleList",
    "DisjointnessMode",
    "match",
    "subst",
    "unify",
    "desugar",
    "resugar",
    "transparent",
    "lift_evaluation",
    "lift_evaluation_tree",
    "parse_pattern",
    "parse_rules",
    "parse_rulelist",
    "parse_term",
    "render",
    "__version__",
    "register_backend",
    "get_backend",
    "available_backends",
    "LiftConfig",
    "lift_stream",
    "lift_tree_stream",
]

_LAZY_EXPORTS = {
    # Confection pulls in the stepper machinery, and the engine pulls in
    # Confection; import them lazily so that ``import repro`` stays
    # cheap for users of the core only.
    "Confection": ("repro.confection", "Confection"),
    "Backend": ("repro.engine.registry", "Backend"),
    "register_backend": ("repro.engine.registry", "register_backend"),
    "get_backend": ("repro.engine.registry", "get_backend"),
    "available_backends": ("repro.engine.registry", "available_backends"),
    "LiftConfig": ("repro.engine.config", "LiftConfig"),
    "lift_stream": ("repro.engine.stream", "lift_stream"),
    "lift_tree_stream": ("repro.engine.stream", "lift_tree_stream"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(module_name), attr)
