"""Incremental resugaring: reuse work across the steps of a lifted run.

The lifting loop (section 5.3) resugars the *entire* core term after
every reduction step, and — when emulation checking is on — also
re-desugars every emitted surface term.  But a reduction step rewrites
the term only along one spine; everything else is shared.  A
:class:`ResugarCache` exploits that: terms are hash-consed
(:mod:`repro.core.intern`), every per-subterm computation is memoized on
canonical identity, and a step therefore costs O(rewritten spine) instead
of O(term size):

* ``resugar`` — the paper's ``R`` (bottom-up unexpansion), the
  opaque-tag/head-tag check, and the transparent-tag strip, each memoized
  per interned subterm;
* ``desugar`` — the paper's topdown recursive expansion, memoized per
  interned subterm (sound because expansion is context-free);
* ``emulates`` — Emulation at one step, as an O(1) identity comparison
  of memoized tag-free skeletons.

A cache is valid for one rulelist and one interning generation; the
lifting loop creates one per run and desugars the program through it,
so its Emulation checks start from a filled ``_desugar`` memo.  Results
are structurally identical to the pure functions in
:mod:`repro.core.desugar` — the equivalence test suite asserts this over
the whole golden corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.desugar import (
    DEFAULT_MAX_EXPANSION_DEPTH,
    DEFAULT_MAX_EXPANSIONS,
)
from repro.core.errors import ExpansionError
from repro.core.intern import (
    _intern,
    _intern_node,
    _intern_plist,
    _intern_tagged,
    intern_generation,
)
from repro.core.recursion import deep_recursion
from repro.core.rules import RuleList
from repro.core.tags import has_opaque_body_tags
from repro.obs import _state as _obs
from repro.obs import provenance as _prov
from repro.obs.metrics import (
    DESUGAR_CACHE_HITS,
    DESUGAR_CACHE_MISSES,
    DESUGAR_DEPTH,
    RESUGAR_CACHE_HITS,
    RESUGAR_CACHE_MISSES,
    RESUGAR_CALLS,
    RESUGAR_FAIL_PROPAGATIONS,
)
from repro.obs.trace import span as _span
from repro.core.terms import (
    BodyTag,
    Const,
    HeadTag,
    Node,
    Pattern,
    PList,
    Tagged,
)

__all__ = ["ResugarCache", "CacheStats"]

_FAIL = object()  # memoized "resugaring fails here" marker


@dataclass
class CacheStats:
    """Work counters for one lifted run.

    ``*_visits`` counts subterm-walk entries that did real work (cache
    misses); ``*_hits`` counts entries answered from the cache — each hit
    short-circuits an entire subtree that the naive path would re-walk.
    """

    resugar_calls: int = 0
    resugar_visits: int = 0
    resugar_hits: int = 0
    desugar_calls: int = 0
    desugar_visits: int = 0
    desugar_hits: int = 0
    unexpansions: int = 0
    expansions: int = 0

    @property
    def resugar_hit_rate(self) -> float:
        total = self.resugar_visits + self.resugar_hits
        return self.resugar_hits / total if total else 0.0

    @property
    def desugar_hit_rate(self) -> float:
        total = self.desugar_visits + self.desugar_hits
        return self.desugar_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "resugar_calls": self.resugar_calls,
            "resugar_visits": self.resugar_visits,
            "resugar_hits": self.resugar_hits,
            "resugar_hit_rate": self.resugar_hit_rate,
            "desugar_calls": self.desugar_calls,
            "desugar_visits": self.desugar_visits,
            "desugar_hits": self.desugar_hits,
            "desugar_hit_rate": self.desugar_hit_rate,
            "unexpansions": self.unexpansions,
            "expansions": self.expansions,
        }


class ResugarCache:
    """Memoized desugar/resugar for one rulelist (see module docstring).

    All memo tables key on canonical (interned) term objects, so lookups
    are identity-fast and a reduction step invalidates exactly the spine
    it rewrote: the fresh spine objects are new keys, everything else
    hits.
    """

    def __init__(self, rules: RuleList) -> None:
        self.rules = rules
        self.stats = CacheStats()
        self._generation = intern_generation()
        self._fuel = DEFAULT_MAX_EXPANSIONS
        # core subterm -> raw resugaring (interned) or _FAIL
        self._raw: Dict[Pattern, object] = {}
        # _FAIL-memoized subterm -> provenance event of the original
        # failure (see repro.obs.provenance), kept so cached skips can
        # still name the rule and mismatch that caused them; populated
        # only while observability is enabled.
        self._fail_info: Dict[Pattern, Optional[dict]] = {}
        # raw subterm -> has surviving opaque-body or head tags?
        self._bad: Dict[Pattern, bool] = {}
        # raw subterm -> transparent-tags-stripped (interned)
        self._strip: Dict[Pattern, Pattern] = {}
        # surface subterm -> fully desugared (interned)
        self._desugar: Dict[Pattern, Pattern] = {}
        # any subterm -> tag-free skeleton (interned)
        self._skel: Dict[Pattern, Pattern] = {}

    def _check_generation(self) -> None:
        if self._generation != intern_generation():
            raise ExpansionError(
                "ResugarCache used across clear_intern_caches(); create a "
                "fresh cache instead"
            )

    # --- resugaring --------------------------------------------------

    def resugar(self, core_term: Pattern) -> Optional[Pattern]:
        """Equivalent to :func:`repro.core.desugar.resugar`, incremental."""
        self._check_generation()
        self.stats.resugar_calls += 1
        if _obs.enabled:
            RESUGAR_CALLS.inc()
        with deep_recursion():
            raw = self._raw_walk(_intern(core_term))
            if raw is _FAIL:
                return None
            if self._bad_walk(raw):
                if _obs.enabled:
                    _prov.on_tag_blocked(
                        "opaque_body_tag"
                        if has_opaque_body_tags(raw)
                        else "head_tag"
                    )
                return None
            return self._strip_walk(raw)

    def _raw_walk(self, t: Pattern):
        memo = self._raw
        cached = memo.get(t, None)
        if cached is not None:
            self.stats.resugar_hits += 1
            if _obs.enabled:
                RESUGAR_CACHE_HITS.inc()
                if cached is _FAIL:
                    _prov.on_cached_fail(self._fail_info.get(t))
            return cached
        self.stats.resugar_visits += 1
        if _obs.enabled:
            RESUGAR_CACHE_MISSES.inc()
        result = self._raw_compute(t)
        memo[t] = result
        return result

    def _propagate_fail(self, t: Pattern, child: Pattern) -> None:
        """A subterm failure just made ``t`` fail too: carry the
        original failure's provenance up so a later memo hit on ``t``
        can still explain itself (enabled paths only)."""
        RESUGAR_FAIL_PROPAGATIONS.inc()
        self._fail_info[t] = self._fail_info.get(child)

    def _raw_compute(self, t: Pattern):
        if isinstance(t, Const):
            return t
        if isinstance(t, Tagged):
            inner = self._raw_walk(t.term)
            if inner is _FAIL:
                if _obs.enabled:
                    self._propagate_fail(t, t.term)
                return _FAIL
            if isinstance(t.tag, HeadTag):
                self.stats.unexpansions += 1
                back = self.rules.unexpand(t.tag.index, inner, t.tag.stand_in)
                if _obs.enabled:
                    event = _prov.on_unexpand(
                        self.rules, t.tag.index, inner, back is not None
                    )
                    if back is None:
                        self._fail_info[t] = event
                return _FAIL if back is None else _intern(back)
            if inner is t.term:
                return t
            return _intern_tagged(t.tag, inner)
        if isinstance(t, Node):
            children = []
            changed = False
            for c in t.children:
                rc = self._raw_walk(c)
                if rc is _FAIL:
                    if _obs.enabled:
                        self._propagate_fail(t, c)
                    return _FAIL
                if rc is not c:
                    changed = True
                children.append(rc)
            if not changed:
                return t
            return _intern_node(t.label, tuple(children))
        if isinstance(t, PList):
            if t.ellipsis is not None:
                return _FAIL  # an ellipsis pattern can never arise in a term
            items = []
            changed = False
            for c in t.items:
                rc = self._raw_walk(c)
                if rc is _FAIL:
                    if _obs.enabled:
                        self._propagate_fail(t, c)
                    return _FAIL
                if rc is not c:
                    changed = True
                items.append(rc)
            if not changed:
                return t
            return _intern_plist(tuple(items))
        return _FAIL

    def _bad_walk(self, t: Pattern) -> bool:
        """Does ``t`` still contain an opaque body tag or a head tag?"""
        memo = self._bad
        cached = memo.get(t)
        if cached is not None:
            return cached
        result = False
        if isinstance(t, Tagged):
            if isinstance(t.tag, HeadTag):
                result = True
            elif isinstance(t.tag, BodyTag) and not t.tag.transparent:
                result = True
            else:
                result = self._bad_walk(t.term)
        elif isinstance(t, Node):
            result = any(self._bad_walk(c) for c in t.children)
        elif isinstance(t, PList):
            result = any(self._bad_walk(c) for c in t.items)
        memo[t] = result
        return result

    def _strip_walk(self, t: Pattern) -> Pattern:
        """Strip transparent body tags (the surviving kind), memoized."""
        memo = self._strip
        cached = memo.get(t)
        if cached is not None:
            return cached
        if isinstance(t, Const):
            result: Pattern = t
        elif isinstance(t, Tagged):
            inner = self._strip_walk(t.term)
            if isinstance(t.tag, BodyTag) and t.tag.transparent:
                result = inner
            elif inner is t.term:
                result = t
            else:
                result = _intern_tagged(t.tag, inner)
        elif isinstance(t, Node):
            children = tuple(self._strip_walk(c) for c in t.children)
            result = (
                t
                if all(a is b for a, b in zip(children, t.children))
                else _intern_node(t.label, children)
            )
        elif isinstance(t, PList):
            items = tuple(self._strip_walk(c) for c in t.items)
            result = (
                t
                if all(a is b for a, b in zip(items, t.items))
                else _intern_plist(items)
            )
        else:
            result = t
        memo[t] = result
        return result

    # --- desugaring and emulation ------------------------------------

    def desugar(self, surface_term: Pattern) -> Pattern:
        """Equivalent to :func:`repro.core.desugar.desugar` (topdown
        order), incremental; traced as the same ``desugar`` span."""
        self._check_generation()
        self.stats.desugar_calls += 1
        self._fuel = DEFAULT_MAX_EXPANSIONS
        with deep_recursion():
            if _obs.enabled:
                with _span("desugar", order="topdown"):
                    return self._desugar_walk(_intern(surface_term), 0)
            return self._desugar_walk(_intern(surface_term), 0)

    def _desugar_walk(self, t: Pattern, depth: int) -> Pattern:
        memo = self._desugar
        cached = memo.get(t)
        if cached is not None:
            self.stats.desugar_hits += 1
            if _obs.enabled:
                DESUGAR_CACHE_HITS.inc()
            return cached
        self.stats.desugar_visits += 1
        if _obs.enabled:
            DESUGAR_CACHE_MISSES.inc()
        result = self._desugar_compute(t, depth)
        memo[t] = result
        return result

    def _desugar_compute(self, t: Pattern, depth: int) -> Pattern:
        if isinstance(t, Const):
            return t
        if isinstance(t, Tagged):
            inner = self._desugar_walk(t.term, depth)
            if inner is t.term:
                return t
            return _intern_tagged(t.tag, inner)
        if isinstance(t, PList):
            items = tuple(self._desugar_walk(c, depth) for c in t.items)
            if all(a is b for a, b in zip(items, t.items)):
                return t
            return _intern_plist(items)
        assert isinstance(t, Node)
        expansion = self.rules.expand(t)
        if expansion is None:
            children = tuple(self._desugar_walk(c, depth) for c in t.children)
            if all(a is b for a, b in zip(children, t.children)):
                return t
            return _intern_node(t.label, children)
        self.stats.expansions += 1
        if _obs.enabled:
            DESUGAR_DEPTH.observe(depth + 1)
            _prov.on_expand(self.rules, expansion.index)
        self._fuel -= 1
        if self._fuel < 0:
            raise ExpansionError(
                f"desugaring exceeded {DEFAULT_MAX_EXPANSIONS} expansions; "
                f"the rulelist likely contains a diverging sugar"
            )
        if depth >= DEFAULT_MAX_EXPANSION_DEPTH:
            raise ExpansionError(
                f"expansions nested more than {DEFAULT_MAX_EXPANSION_DEPTH} "
                f"deep; the rulelist likely contains a diverging sugar"
            )
        head = HeadTag(expansion.index, expansion.stand_in)
        body = self._desugar_walk(_intern(expansion.term), depth + 1)
        return _intern_tagged(head, body)

    def _skel_walk(self, t: Pattern) -> Pattern:
        """Tag-free skeleton (``strip_tags``), memoized and interned."""
        memo = self._skel
        cached = memo.get(t)
        if cached is not None:
            return cached
        if isinstance(t, Tagged):
            result = self._skel_walk(t.term)
        elif isinstance(t, Node):
            children = tuple(self._skel_walk(c) for c in t.children)
            result = (
                t
                if all(a is b for a, b in zip(children, t.children))
                else _intern_node(t.label, children)
            )
        elif isinstance(t, PList):
            items = tuple(self._skel_walk(c) for c in t.items)
            result = (
                t
                if all(a is b for a, b in zip(items, t.items))
                else _intern_plist(items)
            )
        else:
            result = t
        memo[t] = result
        return result

    def emulates(self, surface_term: Pattern, core_term: Pattern) -> bool:
        """Equivalent to :func:`repro.core.lenses.emulates`: does the
        surface term desugar into the core term, modulo tags?

        Both skeletons are interned, so the comparison itself is a single
        identity check.  Each check gets the full expansion fuel, as
        each :meth:`desugar` call does.
        """
        self._check_generation()
        self._fuel = DEFAULT_MAX_EXPANSIONS
        with deep_recursion():
            core_skeleton = self._skel_walk(_intern(core_term))
            surface_core = self._desugar_walk(_intern(surface_term), 0)
            return self._skel_walk(surface_core) is core_skeleton
