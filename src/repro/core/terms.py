"""Terms, patterns, and origin tags (Figure 1 of the paper).

The paper defines patterns ``P`` as::

    P := x                  (pattern variable)
       | a                  (constant)
       | l(P1, ..., Pn)     (node labeled l, fixed arity)
       | (P1 ... Pn)        (list of length n)
       | (P1 ... Pn Pe*)    (list of length >= n; Pe* is an ellipsis)
       | (Tag O P)          (origin tag)

and a *term* ``T`` is a pattern without variables or ellipses.  We mirror
that design: one family of immutable classes represents both terms and
patterns, and :func:`is_term` distinguishes the two.

Constants ``a`` are atomic values: Python ``int``, ``float``, ``str``,
``bool``, ``None``, or a :class:`Symbol` (a bare identifier, distinct from
a string literal).

Tags come in two kinds (section 5.2.1):

* :class:`HeadTag` marks the outermost term produced by a rule
  application.  It records the index of the rule used (so only that rule
  may be applied in reverse, preserving Emulation) and the *stand-in*
  environment ``sigma`` holding bindings for LHS variables that the RHS
  dropped.
* :class:`BodyTag` marks each non-atomic term constructed by a rule's
  RHS, distinguishing sugar-generated code from user code (preserving
  Abstraction).  A body tag is *transparent* if the sugar author prefixed
  the subterm with ``!``, and *opaque* otherwise.

Performance notes.  The recursive classes (:class:`Const`, :class:`Node`,
:class:`PList`, :class:`Tagged`) are hand-rolled immutable classes rather
than dataclasses so they can carry extra slots:

* ``_hash`` — the structural hash, computed once on first use and cached.
  Terms are immutable, so the cache never invalidates; repeated hashing
  (memo tables, dedup, dict keys) is O(1) instead of O(size).
* ``_interned`` — the hash-consing generation stamp managed by
  :mod:`repro.core.intern`.  Interned terms are canonical: structurally
  equal interned terms are pointer-identical, so ``==`` degenerates to
  ``is`` and caches can key on identity.
* ``_free`` (not on :class:`Const`) — the names the term has *free*
  under a backend's binder table (:func:`free_names`), set on first
  use.  A substitution asks it at each subterm and returns the subterms
  where its variable is not free untouched, by identity.

``__eq__`` additionally fast-paths on identity and on cached-hash
disagreement before falling back to the structural walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.core.errors import PatternError

__all__ = [
    "Symbol",
    "Atom",
    "Pattern",
    "Term",
    "PVar",
    "Const",
    "Node",
    "PList",
    "Tag",
    "HeadTag",
    "BodyTag",
    "Tagged",
    "is_term",
    "is_atomic",
    "pattern_variables",
    "variable_depths",
    "strip_tags",
    "untagged",
    "free_names",
    "strip_body_tags",
    "subterms",
    "term_size",
    "term_depth",
]


@dataclass(frozen=True, slots=True)
class Symbol:
    """A bare identifier constant, distinct from a string literal.

    ``Const(Symbol("x"))`` prints as ``x`` while ``Const("x")`` prints as
    ``"x"``.  Symbols are what object-language identifiers desugar from.
    """

    name: str

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"

    def __str__(self) -> str:
        return self.name


Atom = Union[int, float, str, bool, None, Symbol]


class Pattern:
    """Abstract base class for patterns (and therefore terms)."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from repro.lang.render import render

        return render(self)


# ``Term`` is an alias that documents intent: a Pattern that contains no
# pattern variables and no ellipses (checked by ``is_term``).
Term = Pattern


@dataclass(frozen=True, slots=True)
class PVar(Pattern):
    """A pattern variable ``x``.  Never appears in a term."""

    name: str

    def __repr__(self) -> str:
        return f"PVar({self.name!r})"


class Const(Pattern):
    """An atomic constant: number, string, boolean, ``None``, or symbol.

    Equality is by value *and* type, so ``Const(True) != Const(1)`` and
    ``Const(1) != Const(1.0)`` even though Python considers the underlying
    values equal.  Matching and unification rely on this.
    """

    __slots__ = ("value", "_hash", "_interned")

    def __init__(self, value: Atom) -> None:
        if not isinstance(value, (int, float, str, bool, Symbol, type(None))):
            raise PatternError(
                f"Const value must be atomic, got {type(value).__name__}"
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_interned", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Const):
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((type(self.value).__name__, self.value))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Const({self.value!r})"

    def __reduce__(self):
        from repro.core.intern import _unpickle_const

        return (_unpickle_const, (self.value,))


class Node(Pattern):
    """A labeled node ``l(P1, ..., Pn)`` with fixed arity."""

    __slots__ = ("label", "children", "_hash", "_interned", "_free")

    def __init__(self, label: str, children: Tuple[Pattern, ...] = ()) -> None:
        if not isinstance(label, str) or not label:
            raise PatternError("Node label must be a non-empty string")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_interned", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        h1, h2 = self._hash, other._hash
        if h1 is not None and h2 is not None and h1 != h2:
            return False
        return self.label == other.label and self.children == other.children

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.label, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.children)
        return f"Node({self.label!r}, ({inner}))"

    def __reduce__(self):
        from repro.core.intern import _unpickle_node

        return (_unpickle_node, (self.label, self.children))


class PList(Pattern):
    """A list pattern ``(P1 ... Pn)`` or ``(P1 ... Pn Pe*)``.

    ``items`` is the fixed prefix; ``ellipsis``, when present, matches zero
    or more further elements (the paper's ``Pe*``).  A list *term* always
    has ``ellipsis is None``.
    """

    __slots__ = ("items", "ellipsis", "_hash", "_interned", "_free")

    def __init__(
        self,
        items: Tuple[Pattern, ...] = (),
        ellipsis: Optional[Pattern] = None,
    ) -> None:
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "ellipsis", ellipsis)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_interned", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PList):
            return NotImplemented
        h1, h2 = self._hash, other._hash
        if h1 is not None and h2 is not None and h1 != h2:
            return False
        return self.items == other.items and self.ellipsis == other.ellipsis

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.items, self.ellipsis))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.items)
        if self.ellipsis is None:
            return f"PList(({inner}))"
        return f"PList(({inner}), ellipsis={self.ellipsis!r})"

    def __reduce__(self):
        from repro.core.intern import _unpickle_plist

        return (_unpickle_plist, (self.items, self.ellipsis))


class Tag:
    """Abstract base for origin tags."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class HeadTag(Tag):
    """``(Head i sigma)``: the outermost term produced by applying rule
    ``index`` of a rulelist.

    ``stand_in`` is the environment for LHS variables the RHS dropped
    (section 5.1.4); it is needed to reconstruct the surface term during
    unexpansion.  It is stored as a tuple of (name, binding) pairs so the
    tag stays hashable.
    """

    index: int
    stand_in: Tuple[Tuple[str, object], ...] = ()

    def __repr__(self) -> str:
        return f"HeadTag({self.index}, {dict(self.stand_in)!r})"


@dataclass(frozen=True, slots=True)
class BodyTag(Tag):
    """``(Body bool)``: a non-atomic term constructed by a rule's RHS.

    ``transparent`` is True when the sugar author marked the subterm with
    ``!`` (section 3.4), allowing it to appear in surface output.
    """

    transparent: bool = False

    def __repr__(self) -> str:
        kind = "transparent" if self.transparent else "opaque"
        return f"BodyTag({kind})"


class Tagged(Pattern):
    """``(Tag O P)``: a pattern or term carrying an origin tag."""

    __slots__ = ("tag", "term", "_hash", "_interned", "_free")

    def __init__(self, tag: Tag, term: Pattern) -> None:
        if not isinstance(tag, Tag):
            raise PatternError(f"Tagged.tag must be a Tag, got {tag!r}")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_interned", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tagged):
            return NotImplemented
        h1, h2 = self._hash, other._hash
        if h1 is not None and h2 is not None and h1 != h2:
            return False
        return self.tag == other.tag and self.term == other.term

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.tag, self.term))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Tagged({self.tag!r}, {self.term!r})"

    def __reduce__(self):
        from repro.core.intern import _unpickle_tagged

        return (_unpickle_tagged, (self.tag, self.term))


def is_atomic(p: Pattern) -> bool:
    """True for constants — the paper's atoms ``a``."""
    return isinstance(p, Const)


def is_term(p: Pattern) -> bool:
    """True when ``p`` contains no pattern variables and no ellipses."""
    if isinstance(p, Const):
        return True
    if isinstance(p, PVar):
        return False
    if isinstance(p, Node):
        return all(is_term(c) for c in p.children)
    if isinstance(p, PList):
        return p.ellipsis is None and all(is_term(c) for c in p.items)
    if isinstance(p, Tagged):
        return is_term(p.term)
    raise PatternError(f"not a pattern: {p!r}")


def pattern_variables(p: Pattern) -> Tuple[str, ...]:
    """All variable names in ``p``, in in-order traversal order
    (duplicates included, so callers can check linearity)."""
    out: list[str] = []

    def walk(q: Pattern) -> None:
        if isinstance(q, PVar):
            out.append(q.name)
        elif isinstance(q, Node):
            for c in q.children:
                walk(c)
        elif isinstance(q, PList):
            for c in q.items:
                walk(c)
            if q.ellipsis is not None:
                walk(q.ellipsis)
        elif isinstance(q, Tagged):
            walk(q.term)

    walk(p)
    return tuple(out)


def variable_depths(p: Pattern) -> dict[str, int]:
    """Map each variable in ``p`` to its ellipsis depth.

    A variable under no ellipsis has depth 0; directly under one ellipsis,
    depth 1; and so on (the paper's depth convention in criterion 3).
    """
    depths: dict[str, int] = {}

    def walk(q: Pattern, depth: int) -> None:
        if isinstance(q, PVar):
            depths[q.name] = depth
        elif isinstance(q, Node):
            for c in q.children:
                walk(c, depth)
        elif isinstance(q, PList):
            for c in q.items:
                walk(c, depth)
            if q.ellipsis is not None:
                walk(q.ellipsis, depth + 1)
        elif isinstance(q, Tagged):
            walk(q.term, depth)

    walk(p, 0)
    return depths


def untagged(t: Pattern) -> Pattern:
    """``t`` with its outermost tags removed (the subterms keep theirs)."""
    while t.__class__ is Tagged:
        t = t.term
    return t


_NO_NAMES: frozenset = frozenset()


# A backend's binder table: node label -> (the names such a node binds,
# the child positions they scope over; ``None`` for every child).
Binders = Dict[str, Tuple[Callable[["Node"], Iterable[str]], Optional[Tuple[int, ...]]]]


def free_names(t: Pattern, binders: Binders) -> frozenset:
    """The string constants of ``t`` outside the scope of a binder of
    the same name, under ``binders``: every variable a substitution into
    ``t`` can reach.  A superset of the free variables proper (a binder
    position or a literal counts too when not shadowed), so a name
    outside it is certainly not free.  Cached in the node's ``_free``
    slot for the last table asked; a parent whose set equals one
    child's shares that child's set object."""
    cls = t.__class__
    if cls is Const:
        v = t.value
        return frozenset((v,)) if v.__class__ is str else _NO_NAMES
    try:
        table, cached = t._free
    except AttributeError:
        pass
    else:
        if table is binders:
            return cached
    binder = None
    if cls is Node:
        parts = t.children
        binder = binders.get(t.label)
    elif cls is PList:
        parts = t.items if t.ellipsis is None else t.items + (t.ellipsis,)
    elif cls is Tagged:
        parts = (t.term,)
    else:
        return _NO_NAMES
    names = _NO_NAMES
    if binder is not None:
        bound_by, scope = binder
        bound = frozenset(bound_by(t))
    for i, part in enumerate(parts):
        sub = free_names(part, binders)
        if binder is not None and bound and (scope is None or i in scope):
            sub = sub - bound
        if not sub or sub is names:
            continue
        names = sub if not names else (
            names if sub <= names else names | sub
        )
    object.__setattr__(t, "_free", (binders, names))
    return names


def strip_tags(t: Pattern) -> Pattern:
    """Remove every tag from ``t``, producing a plain term or pattern."""
    if isinstance(t, (Const, PVar)):
        return t
    if isinstance(t, Tagged):
        return strip_tags(t.term)
    if isinstance(t, Node):
        return Node(t.label, tuple(strip_tags(c) for c in t.children))
    if isinstance(t, PList):
        ell = strip_tags(t.ellipsis) if t.ellipsis is not None else None
        return PList(tuple(strip_tags(c) for c in t.items), ell)
    raise PatternError(f"not a pattern: {t!r}")


def strip_body_tags(t: Pattern, transparent_only: bool = True) -> Pattern:
    """Remove body tags from ``t`` (by default only transparent ones).

    Used when presenting a resugared term: transparent body tags are
    *allowed* to survive resugaring but must not appear in output.
    """
    if isinstance(t, (Const, PVar)):
        return t
    if isinstance(t, Tagged):
        drop = isinstance(t.tag, BodyTag) and (
            t.tag.transparent or not transparent_only
        )
        inner = strip_body_tags(t.term, transparent_only)
        return inner if drop else Tagged(t.tag, inner)
    if isinstance(t, Node):
        return Node(
            t.label, tuple(strip_body_tags(c, transparent_only) for c in t.children)
        )
    if isinstance(t, PList):
        ell = (
            strip_body_tags(t.ellipsis, transparent_only)
            if t.ellipsis is not None
            else None
        )
        return PList(
            tuple(strip_body_tags(c, transparent_only) for c in t.items), ell
        )
    raise PatternError(f"not a pattern: {t!r}")


def subterms(t: Pattern) -> Iterator[Pattern]:
    """Yield ``t`` and every subterm of it, pre-order."""
    yield t
    if isinstance(t, Node):
        for c in t.children:
            yield from subterms(c)
    elif isinstance(t, PList):
        for c in t.items:
            yield from subterms(c)
        if t.ellipsis is not None:
            yield from subterms(t.ellipsis)
    elif isinstance(t, Tagged):
        yield from subterms(t.term)


def term_size(t: Pattern) -> int:
    """Number of subterms in ``t`` (tags do not add to the count)."""
    if isinstance(t, Tagged):
        return term_size(t.term)
    if isinstance(t, Node):
        return 1 + sum(term_size(c) for c in t.children)
    if isinstance(t, PList):
        n = 1 + sum(term_size(c) for c in t.items)
        if t.ellipsis is not None:
            n += term_size(t.ellipsis)
        return n
    return 1


def term_depth(t: Pattern) -> int:
    """Height of the term tree (a constant has depth 1)."""
    if isinstance(t, Tagged):
        return term_depth(t.term)
    children: Tuple[Pattern, ...] = ()
    if isinstance(t, Node):
        children = t.children
    elif isinstance(t, PList):
        children = t.items + ((t.ellipsis,) if t.ellipsis is not None else ())
    if not children:
        return 1
    return 1 + max(term_depth(c) for c in children)
