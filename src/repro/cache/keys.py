"""Content-addressed cache keys: term digests and config fingerprints.

A cached lift is only reusable when *everything* that determines its
output is part of the key.  Lifting is a deterministic function of three
inputs — the surface program, the rulelist, and the engine configuration
— so the persistent cache (:mod:`repro.cache.store`) keys every entry on
the triple::

    (term_digest(program), ruleset_fingerprint(rules), engine_fingerprint(...))

All three are hex blake2b digests of a canonical byte serialization:

* :func:`term_digest` walks the term structurally, so the digest is a
  property of the term's *value*, not of the process that built it — it
  is invariant under ``clear_intern_caches()``, pickling round-trips,
  and rebuilding the term from source.  Hash-consed terms are DAGs
  (doubling-chain programs share subtrees exponentially), so the walk
  memoizes per object and costs O(distinct subterms).
* :func:`ruleset_fingerprint` digests every rule (name, patterns,
  atomic variables) plus the disjointness mode, so *any* edit to any
  rule changes the fingerprint — the invalidation contract is "new
  rules, new namespace", never "stale hit".
* :func:`engine_fingerprint` covers the stepper identity plus the key
  fields of the :class:`~repro.engine.config.LiftConfig` (sequence vs
  tree mode, dedup, emulation checking, and the constant ``;inc=True``
  every key has carried), derived from the config itself so no option
  can be left out by hand.
  Steppers may expose a ``cache_fingerprint()`` hook; steppers with no
  recognizable identity (an arbitrary function stepper) yield ``None``,
  which callers must treat as *uncacheable*.

Budgets and ``on_budget`` are deliberately *not* key material:
every budgeted run is a prefix of the one complete lift, so the engine
records only complete streams and answers any budget by cutting the
replay (see :mod:`repro.engine.stream`).

The serialization starts every entry with :data:`KEY_SCHEMA` so a change
to the encoding itself retires all old keys wholesale.
"""

from __future__ import annotations

import weakref
from hashlib import blake2b
from typing import Dict, List, Optional

from repro.core.rules import RuleList
from repro.core.terms import (
    BodyTag,
    Const,
    HeadTag,
    Node,
    Pattern,
    PList,
    PVar,
    Symbol,
    Tagged,
)

__all__ = [
    "KEY_SCHEMA",
    "term_digest",
    "ruleset_fingerprint",
    "stepper_fingerprint",
    "engine_fingerprint",
    "lift_key",
]

# Bump when the byte serialization below changes shape: every digest is
# prefixed with it, so old cache entries become unreachable, not wrong.
KEY_SCHEMA = b"repro-cache-key/2"

_DIGEST_SIZE = 16  # 128-bit; collisions are out of reach for a cache


def _hash(parts) -> str:
    h = blake2b(KEY_SCHEMA, digest_size=_DIGEST_SIZE)
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _atom_bytes(value) -> bytes:
    """Serialize one atomic constant, type-faithfully: ``Const(True)``,
    ``Const(1)``, and ``Const(1.0)`` are distinct terms and must digest
    distinctly (term equality is by value *and* type)."""
    if isinstance(value, Symbol):
        return b"sym:" + value.name.encode()
    return type(value).__name__.encode() + b":" + repr(value).encode()


def _binding_parts(binding, digest) -> List[bytes]:
    """Serialize one stand-in binding (pattern / list / ellipsis
    binding) using ``digest`` for the pattern leaves."""
    from repro.core.bindings import EllipsisBinding, ListBinding

    if isinstance(binding, ListBinding):
        out = [b"[|"]
        for item in binding.items:
            out.extend(_binding_parts(item, digest))
        out.append(b"|]")
        return out
    if isinstance(binding, EllipsisBinding):
        out = [b"[|"]
        for item in binding.items:
            out.extend(_binding_parts(item, digest))
        out.append(b"*")
        out.extend(_binding_parts(binding.tail, digest))
        out.append(b"|]")
        return out
    return [b"p:", digest(binding).encode()]


def _tag_parts(tag, digest) -> List[bytes]:
    if isinstance(tag, HeadTag):
        out = [b"H:", str(tag.index).encode()]
        for name, binding in tag.stand_in:
            out.append(b"(" + name.encode() + b"=")
            out.extend(_binding_parts(binding, digest))
            out.append(b")")
        return out
    if isinstance(tag, BodyTag):
        return [b"B:1" if tag.transparent else b"B:0"]
    return [b"T:", type(tag).__qualname__.encode(), repr(tag).encode()]


def term_digest(term: Pattern) -> str:
    """Structural digest of a term or pattern (hex).

    Purely a function of the term's value: two structurally equal terms
    digest identically whether or not they are interned, in which
    process they were built, or how often the intern table was cleared
    in between.  The walk is iterative and memoized per object, so
    hash-consed DAGs cost O(distinct subterms) and arbitrarily deep
    terms cannot overflow the Python stack.
    """
    memo: Dict[int, str] = {}
    keep_alive: List[Pattern] = []  # pin ids for the walk's lifetime

    def digest(t: Pattern) -> str:
        cached = memo.get(id(t))
        if cached is not None:
            return cached
        # Iterative post-order: (node, children_done) frames.
        stack: List[tuple] = [(t, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in memo:
                continue
            if not ready:
                stack.append((node, True))
                if isinstance(node, Node):
                    stack.extend((c, False) for c in node.children)
                elif isinstance(node, PList):
                    stack.extend((c, False) for c in node.items)
                    if node.ellipsis is not None:
                        stack.append((node.ellipsis, False))
                elif isinstance(node, Tagged):
                    stack.append((node.term, False))
                continue
            parts: List[bytes]
            if isinstance(node, Const):
                parts = [b"c(", _atom_bytes(node.value), b")"]
            elif isinstance(node, PVar):
                parts = [b"v(", node.name.encode(), b")"]
            elif isinstance(node, Node):
                parts = [b"n(", node.label.encode(), b";"]
                parts.extend(memo[id(c)].encode() for c in node.children)
                parts.append(b")")
            elif isinstance(node, PList):
                parts = [b"l("]
                parts.extend(memo[id(c)].encode() for c in node.items)
                if node.ellipsis is not None:
                    parts.append(b"*" + memo[id(node.ellipsis)].encode())
                parts.append(b")")
            elif isinstance(node, Tagged):
                parts = [b"g("]
                # Stand-in bindings hold full patterns; digesting them
                # recurses through this same memo via ``digest``.
                parts.extend(_tag_parts(node.tag, digest))
                parts.append(b";" + memo[id(node.term)].encode() + b")")
            else:
                # Pattern-only extension forms (NTRef, AtomPred, ...):
                # fall back to class + repr, which is stable for the
                # frozen dataclasses these are.
                parts = [
                    b"x(",
                    type(node).__qualname__.encode(),
                    repr(node).encode(),
                    b")",
                ]
            memo[id(node)] = _hash(parts)
            keep_alive.append(node)
        return memo[id(t)]

    return digest(term)


# RuleList -> fingerprint, alive as long as the rulelist is (the same
# pattern per_rule_counters uses); rulelists are immutable after
# construction, so the cached value can never go stale.
_RULESET_FP: "weakref.WeakKeyDictionary[RuleList, str]" = (
    weakref.WeakKeyDictionary()
)


def ruleset_fingerprint(rules: RuleList) -> str:
    """Digest of an entire rulelist: order, names, patterns, atomic-vars
    declarations, and the disjointness mode.  Editing, reordering,
    inserting, or deleting any rule changes the fingerprint."""
    cached = _RULESET_FP.get(rules)
    if cached is not None:
        return cached
    parts: List[bytes] = [b"rules/", rules.disjointness.name.encode()]
    for rule in rules.rules:
        parts.append(b"|" + rule.name.encode())
        parts.append(b";av=" + ",".join(rule.atomic_vars).encode())
        parts.append(b";l=" + term_digest(rule.lhs).encode())
        parts.append(b";r=" + term_digest(rule.rhs).encode())
    fp = _hash(parts)
    _RULESET_FP[rules] = fp
    return fp


def stepper_fingerprint(stepper) -> Optional[str]:
    """A stable identity for a stepper, or ``None`` when it has none.

    Steppers may implement ``cache_fingerprint() -> str`` to opt in
    explicitly.  A :class:`~repro.redex.reduction.RedexStepper` is
    fingerprinted from its semantics (name, value nonterminal, reduction
    rule names) plus its mode and stuck policy.  Anything else — e.g. a
    :class:`~repro.core.lift.FunctionStepper` wrapping an arbitrary
    closure — returns ``None``: there is no way to know two runs mean
    the same evaluator, so lifts through it must never be cached.
    """
    hook = getattr(stepper, "cache_fingerprint", None)
    if hook is not None:
        return str(hook())
    semantics = getattr(stepper, "semantics", None)
    if semantics is None:
        return None
    cls = type(stepper)
    parts = [
        b"stepper/",
        f"{cls.__module__}.{cls.__qualname__}".encode(),
        b";on_stuck=" + str(getattr(stepper, "on_stuck", None)).encode(),
        b";mode=" + str(getattr(stepper, "mode", None)).encode(),
        b";sem=" + str(getattr(semantics, "name", "")).encode(),
        b";val=" + str(getattr(semantics, "value_nonterminal", "")).encode(),
    ]
    for rule in getattr(semantics, "rules", ()) or ():
        parts.append(b"|" + str(getattr(rule, "name", rule)).encode())
    return _hash(parts)


def engine_fingerprint(stepper, config) -> Optional[str]:
    """Digest of the stepper identity and ``config``'s key fields
    (:meth:`~repro.engine.config.LiftConfig.key_parts`), or ``None``
    when the stepper is unidentifiable (= this lift is uncacheable).

    The stepper's own mode is part of its fingerprint, so a refocusing
    stepper and ``with_mode("naive")`` of it key apart.
    """
    step_fp = stepper_fingerprint(stepper)
    if step_fp is None:
        return None
    return _hash([b"engine/", step_fp.encode(), *config.key_parts()])


def lift_key(
    rules: RuleList, stepper, surface_term: Pattern, config
) -> Optional[str]:
    """The whole-lift cache key for one request, or ``None`` when the
    request is uncacheable (see :func:`engine_fingerprint`)."""
    engine_fp = engine_fingerprint(stepper, config)
    if engine_fp is None:
        return None
    return _hash(
        [
            b"lift/",
            term_digest(surface_term).encode(),
            b";",
            ruleset_fingerprint(rules).encode(),
            b";",
            engine_fp.encode(),
        ]
    )
