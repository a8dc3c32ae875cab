"""The resugaring engine: the paper's primary contribution.

Everything here is language-agnostic: terms and patterns, matching and
substitution, transformation rules with origin tags, recursive
desugaring/resugaring, the lens laws, and the evaluation-sequence
lifting loop.  Object languages (``repro.lambdacore``,
``repro.pyretcore``, anything built on ``repro.redex``) plug in through
the :class:`~repro.core.lift.Stepper` protocol.
"""

from repro.core.bindings import Env, EllipsisBinding, ListBinding
from repro.core.desugar import desugar, resugar, resugar_raw
from repro.core.errors import (
    DisjointnessError,
    ExpansionError,
    LanguageError,
    ParseError,
    PatternError,
    ReproError,
    StuckError,
    SubstitutionError,
    WellFormednessError,
)
from repro.core.hygiene import HygieneWarning, lint_hygiene
from repro.core.incremental import CacheStats, ResugarCache
from repro.core.intern import (
    clear_intern_caches,
    intern,
    intern_stats,
    is_interned,
)
from repro.core.lenses import (
    check_desugar_resugar_inverse,
    check_get_put,
    check_put_get,
    emulates,
)
from repro.core.lift import (
    EmulationViolation,
    FunctionStepper,
    LiftedStep,
    LiftResult,
    Stepper,
    SurfaceTree,
    lift_evaluation,
    lift_evaluation_tree,
)
from repro.core.matching import match, matches
from repro.core.rules import Expansion, Rule, RuleList
from repro.core.substitution import subst
from repro.core.tags import (
    has_head_tags,
    has_opaque_body_tags,
    insert_body_tags,
    is_surface_term,
    transparent,
)
from repro.core.terms import (
    BodyTag,
    Const,
    HeadTag,
    Node,
    Pattern,
    PList,
    PVar,
    Symbol,
    Tag,
    Tagged,
    Term,
    is_term,
    pattern_variables,
    strip_body_tags,
    strip_tags,
    subterms,
    term_depth,
    term_size,
    untagged,
)
from repro.core.unification import rename_variables, subsumes, unifiable, unify
from repro.core.wellformed import (
    DisjointnessMode,
    check_disjointness,
    check_rule_wellformed,
)

__all__ = [
    # terms & patterns
    "Pattern", "Term", "PVar", "Const", "Node", "PList", "Symbol",
    "Tag", "HeadTag", "BodyTag", "Tagged",
    "is_term", "pattern_variables", "strip_tags", "strip_body_tags",
    "subterms", "term_size", "term_depth", "untagged",
    # bindings
    "Env", "ListBinding", "EllipsisBinding",
    # operations
    "match", "matches", "subst", "unify", "unifiable", "subsumes",
    "rename_variables",
    # rules
    "Rule", "RuleList", "Expansion", "DisjointnessMode",
    "check_rule_wellformed", "check_disjointness",
    # tags
    "transparent", "insert_body_tags", "has_opaque_body_tags",
    "has_head_tags", "is_surface_term",
    # desugar/resugar
    "desugar", "resugar", "resugar_raw",
    # lenses
    "check_get_put", "check_put_get", "check_desugar_resugar_inverse",
    "emulates",
    # hygiene
    "lint_hygiene", "HygieneWarning",
    # lifting
    "Stepper", "FunctionStepper", "lift_evaluation", "lift_evaluation_tree",
    "LiftResult", "LiftedStep", "SurfaceTree", "EmulationViolation",
    # performance layer
    "intern", "is_interned", "intern_stats", "clear_intern_caches",
    "ResugarCache", "CacheStats",
    # errors
    "ReproError", "PatternError", "WellFormednessError", "DisjointnessError",
    "SubstitutionError", "ExpansionError", "ParseError", "StuckError",
    "LanguageError",
]
