"""Incremental resugaring: reuse work across the steps of a lifted run.

The lifting loop (section 5.3) resugars the *entire* core term after
every reduction step and checks Emulation (Theorem 3) on every step it
shows.  But a reduction step rewrites the term only along one spine;
everything else is shared.  A :class:`ResugarCache` exploits that:
terms are hash-consed (:mod:`repro.core.intern`), and one walk, memoized
per canonical core node, computes everything a step needs of a node the
first time the node is seen:

* its raw resugaring, the paper's ``R`` (bottom-up unexpansion);
* which tags survive in it — opaque body and head tags block the
  step, transparent body tags are stripped from a shown surface term
  (lazily, only then);
* whether it *emulates*: whether desugaring its resugaring gives back
  the node, modulo tags.

A step therefore visits only the nodes it created, once each.

Emulation is local because desugaring is context-free, so (section 6.1)
it can fail only at two kinds of node:

* an untagged node the resugared term still shows as sugar — no rule
  may expand it there, or desugaring would rewrite it;
* an unexpansion site ``Head(i) inner`` with surface ``back`` —
  re-expanding ``back`` must choose rule ``i`` again and rebuild
  ``inner`` modulo tags (PutGet for that one rule application).

Everywhere else a node emulates when its children do.  When the local
test does not prove Emulation — a violation, or a surface term that is
not this cache's own resugaring of the core term — :meth:`emulates`
answers with the whole-term check, :func:`repro.core.lenses.emulates`.

``desugar`` — the paper's topdown recursive expansion, memoized per
interned subterm (sound because expansion is context-free) — is how the
lifting loop desugars its program.  A cache is valid for one rulelist
and one interning generation; the lifting loop creates one per run.
Results are structurally identical to the pure functions in
:mod:`repro.core.desugar`; the equivalence suites assert this over the
whole golden corpus, and ``tests/core/test_local_emulation.py`` asserts
that the local Emulation verdict equals the whole-term one.
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
from repro.core.lenses import emulates as _whole_term_emulates
from repro.core.recursion import deep_recursion
from repro.core.rules import RuleList
from repro.core.wellformed import DisjointnessMode
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

# Which tags survive in a raw resugaring (bit flags).  Opaque body and
# head tags block the step (Abstraction); transparent ones are stripped.
_OPAQUE, _HEAD, _TRANSPARENT = 1, 2, 4
_BLOCKING = _OPAQUE | _HEAD


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
    """Memoized resugar, Emulation and desugar for one rulelist (see
    module docstring).

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
        self._sugar_labels = frozenset(rules.labels)
        # Definition 1: in a STRICT rule list no rule of higher priority
        # than ``i`` matches an instance of rule ``i``'s LHS, so the
        # priority test of an unexpansion site is decided statically.
        self._recheck_priority = rules.disjointness is not DisjointnessMode.STRICT
        # core node -> (raw resugaring, surviving-tag bits, emulates?),
        # or _FAIL when resugaring fails there
        self._memo: Dict[Pattern, object] = {}
        # _FAIL-memoized node -> provenance event of the original
        # failure (see repro.obs.provenance), kept so cached skips can
        # still name the rule and mismatch that caused them; populated
        # only while observability is enabled.
        self._fail_info: Dict[Pattern, Optional[dict]] = {}
        # raw subterm that is not its own core node (a rebuilt spine, an
        # unexpansion's surface, a stand-in) -> surviving-tag bits
        self._bits: Dict[Pattern, int] = {}
        # raw subterm holding transparent tags -> stripped (interned)
        self._strip: Dict[Pattern, Pattern] = {}
        # surface subterm -> fully desugared (interned)
        self._desugar: Dict[Pattern, Pattern] = {}

    def _check_generation(self) -> None:
        if self._generation != intern_generation():
            raise ExpansionError(
                "ResugarCache used across clear_intern_caches(); create a "
                "fresh cache instead"
            )

    # --- resugaring and Emulation ------------------------------------

    def resugar(self, core_term: Pattern) -> Optional[Pattern]:
        """Equivalent to :func:`repro.core.desugar.resugar`, incremental."""
        self._check_generation()
        self.stats.resugar_calls += 1
        if _obs.enabled:
            RESUGAR_CALLS.inc()
        with deep_recursion():
            entry = self._entry(_intern(core_term))
            if entry is _FAIL:
                return None
            raw, bits, _ok = entry
            if bits & _BLOCKING:
                if _obs.enabled:
                    _prov.on_tag_blocked(
                        "opaque_body_tag" if bits & _OPAQUE else "head_tag"
                    )
                return None
            return self._stripped(raw) if bits & _TRANSPARENT else raw

    def resugar_shown(self, core_term: Pattern) -> Optional[Pattern]:
        """:meth:`resugar`, with a step's skip decided before any walk
        where the root shows it (:meth:`_skips_at_root`): no unexpansion
        runs and no memo entry is computed for such a step.  The answer
        is :meth:`resugar`'s, but no provenance is recorded, so the
        lifting loop calls this only with observability off."""
        self._check_generation()
        if self._skips_at_root(_intern(core_term)):
            self.stats.resugar_calls += 1
            return None
        return self.resugar(core_term)

    def _skips_at_root(self, t: Pattern) -> bool:
        """Does core node ``t``'s root already show that resugaring it
        fails or is blocked?

        With no head tag above it, an opaque body tag survives into the
        raw resugaring, and so does a failing or blocked memo entry.  So
        the answer is yes when ``t``, or a direct child of it, under
        nothing but body tags, is opaque-body-tagged or memoized as
        failing or blocked; and when a head-tagged root's inner term is
        memoized as failing (failure propagates through unexpansion
        sites).
        """
        memo = self._memo
        while t.__class__ is Tagged:
            tag = t.tag
            if tag.__class__ is HeadTag:
                return memo.get(t.term) is _FAIL
            if not tag.transparent:
                return True
            t = t.term
        cls = t.__class__
        for c in t.children if cls is Node else t.items if cls is PList else ():
            if c.__class__ is Tagged:
                tag = c.tag
                if tag.__class__ is BodyTag and not tag.transparent:
                    return True
            entry = memo.get(c)
            if entry is _FAIL or entry is not None and entry[1] & _BLOCKING:
                return True
        return False

    def emulates(self, surface_term: Pattern, core_term: Pattern) -> bool:
        """Equivalent to :func:`repro.core.lenses.emulates`: does the
        surface term desugar into the core term, modulo tags?

        When ``surface_term`` is this cache's resugaring of ``core_term``
        the walk has already decided it, node by node; otherwise, or when
        the local test does not prove Emulation, the whole-term check
        answers (with its own expansion fuel, as each :meth:`desugar`
        call has).
        """
        self._check_generation()
        with deep_recursion():
            entry = self._memo.get(core_term)  # equal terms hash alike
            if entry is not None and entry is not _FAIL:
                raw, bits, ok = entry
                if ok and not bits & _BLOCKING:
                    mine = self._stripped(raw) if bits & _TRANSPARENT else raw
                    if surface_term == mine:
                        return True
            return _whole_term_emulates(self.rules, surface_term, core_term)

    def _entry(self, t: Pattern):
        """The memo entry of core node ``t``, computed on a miss."""
        entry = self._memo.get(t)
        if entry is None:
            return self._visit(t)
        self.stats.resugar_hits += 1
        if _obs.enabled:
            self._observe_hit(t, entry)
        return entry

    def _observe_hit(self, t: Pattern, entry) -> None:
        RESUGAR_CACHE_HITS.inc()
        if entry is _FAIL:
            _prov.on_cached_fail(self._fail_info.get(t))

    def _propagate_fail(self, t: Pattern, child: Pattern) -> None:
        """A subterm failure just made ``t`` fail too: carry the
        original failure's provenance up so a later memo hit on ``t``
        can still explain itself (enabled paths only)."""
        RESUGAR_FAIL_PROPAGATIONS.inc()
        self._fail_info[t] = self._fail_info.get(child)

    def _children(self, t: Pattern, parts):
        """``(raws, bits, ok)`` over ``t``'s children — their raw
        resugarings (``None`` when all are the children themselves),
        surviving tags and verdicts — or ``_FAIL`` at the first failing
        child (later children are not visited, as in ``R``)."""
        memo = self._memo
        raws = []
        changed = False
        bits = 0
        ok = True
        hits = 0
        for c in parts:
            entry = memo.get(c)
            if entry is None:
                entry = self._visit(c)
            else:
                hits += 1
                if _obs.enabled:
                    self._observe_hit(c, entry)
            if entry is _FAIL:
                self.stats.resugar_hits += hits
                if _obs.enabled:
                    self._propagate_fail(t, c)
                return _FAIL
            raw, child_bits, child_ok = entry
            raws.append(raw)
            if raw is not c:
                changed = True
            bits |= child_bits
            ok = ok and child_ok
        self.stats.resugar_hits += hits
        return (tuple(raws) if changed else None), bits, ok

    def _visit(self, t: Pattern):
        """Compute and memoize the entry of a node not seen before."""
        self.stats.resugar_visits += 1
        if _obs.enabled:
            RESUGAR_CACHE_MISSES.inc()
        cls = t.__class__
        entry = _FAIL
        if cls is Node:
            kids = self._children(t, t.children)
            if kids is not _FAIL:
                raws, bits, ok = kids
                raw = t if raws is None else _intern_node(t.label, raws)
                if ok and t.label in self._sugar_labels:
                    # Shown untagged, this node must stay core when the
                    # surface term is desugared again.
                    ok = self.rules.matching_rule(raw) is None
                entry = (raw, bits, ok)
        elif cls is Const:
            entry = (t, 0, True)
        elif cls is Tagged:
            kids = self._children(t, (t.term,))
            if kids is not _FAIL:
                raws, bits, ok = kids
                inner = t.term if raws is None else raws[0]
                tag = t.tag
                if tag.__class__ is HeadTag:
                    entry = self._unexpand(t, tag, inner, ok)
                else:
                    bits |= _TRANSPARENT if tag.transparent else _OPAQUE
                    raw = t if raws is None else _intern_tagged(tag, inner)
                    entry = (raw, bits, ok)
        elif cls is PList and t.ellipsis is None:
            # (an ellipsis pattern never arises in a term)
            kids = self._children(t, t.items)
            if kids is not _FAIL:
                raws, bits, ok = kids
                raw = t if raws is None else _intern_plist(raws)
                entry = (raw, bits, ok)
        self._memo[t] = entry
        if entry is not _FAIL and entry[0] is not t:
            self._bits[entry[0]] = entry[1]
        return entry

    def _unexpand(self, t: Tagged, tag: HeadTag, inner: Pattern, ok: bool):
        """``R`` at a head tag, with the Emulation test of that site."""
        self.stats.unexpansions += 1
        back = self.rules.unexpand(tag.index, inner, tag.stand_in)
        if _obs.enabled:
            event = _prov.on_unexpand(
                self.rules, tag.index, inner, back is not None
            )
            if back is None:
                self._fail_info[t] = event
        if back is None:
            return _FAIL
        back = _intern(back)
        # PutGet at this site.  Rule ``tag.index`` matches ``back`` (its
        # LHS instance) and rebuilds ``inner`` modulo tags (from the very
        # bindings unexpansion read off ``inner``), so desugaring ``back``
        # again reproduces this node unless a rule of higher priority
        # matches ``back`` first.
        if ok and self._recheck_priority:
            ok = self.rules.matching_rule(back, before=tag.index) is None
        return back, self._raw_bits(back), ok

    def _raw_bits(self, r: Pattern) -> int:
        """Surviving-tag bits of raw subterm ``r``: memoized for every
        raw the walk built, computed here for an unexpansion's new
        template nodes and stand-ins."""
        known = self._known_bits(r)
        if known is not None:
            return known
        cls = r.__class__
        bits = 0
        if cls is Tagged:
            tag = r.tag
            if tag.__class__ is HeadTag:
                bits = _HEAD
            else:
                bits = _TRANSPARENT if tag.transparent else _OPAQUE
            bits |= self._raw_bits(r.term)
        elif cls is Node or cls is PList:
            for c in r.children if cls is Node else r.items:
                known = self._known_bits(c)
                bits |= self._raw_bits(c) if known is None else known
        self._bits[r] = bits
        return bits

    def _known_bits(self, r: Pattern) -> Optional[int]:
        bits = self._bits.get(r)
        if bits is None:
            entry = self._memo.get(r)
            if entry is not None and entry is not _FAIL and entry[0] is r:
                return entry[1]  # a core node that is its own raw
        return bits

    def _stripped(self, r: Pattern) -> Pattern:
        """``r`` without its transparent body tags (the surviving kind);
        built only for shown steps, and only below transparent tags."""
        if not self._raw_bits(r) & _TRANSPARENT:
            return r
        memo = self._strip
        result = memo.get(r)
        if result is not None:
            return result
        cls = r.__class__
        if cls is Tagged:
            inner = self._stripped(r.term)
            if isinstance(r.tag, BodyTag) and r.tag.transparent:
                result = inner
            elif inner is r.term:
                result = r
            else:
                result = _intern_tagged(r.tag, inner)
        elif cls is Node:
            children = tuple(self._stripped(c) for c in r.children)
            result = _intern_node(r.label, children)
        else:
            result = _intern_plist(tuple(self._stripped(c) for c in r.items))
        memo[r] = result
        return result

    # --- desugaring --------------------------------------------------

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

    def _desugar_all(self, parts, depth: int):
        """Desugared ``parts``, or ``None`` when each is unchanged."""
        memo = self._desugar
        out = []
        changed = False
        hits = 0
        for c in parts:
            d = memo.get(c)
            if d is None:
                d = self._desugar_walk(c, depth)
            else:
                hits += 1
            out.append(d)
            if d is not c:
                changed = True
        self.stats.desugar_hits += hits
        if hits and _obs.enabled:
            DESUGAR_CACHE_HITS.inc(hits)
        return tuple(out) if changed else None

    def _desugar_compute(self, t: Pattern, depth: int) -> Pattern:
        cls = t.__class__
        if cls is Const:
            return t
        if cls is Tagged:
            inner = self._desugar_walk(t.term, depth)
            if inner is t.term:
                return t
            return _intern_tagged(t.tag, inner)
        if cls is PList:
            items = self._desugar_all(t.items, depth)
            return t if items is None else _intern_plist(items)
        assert cls is Node
        expansion = (
            self.rules.expand(t) if t.label in self._sugar_labels else None
        )
        if expansion is None:
            children = self._desugar_all(t.children, depth)
            return t if children is None else _intern_node(t.label, children)
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
