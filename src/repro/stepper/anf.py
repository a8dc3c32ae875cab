"""A-normalization (section 7).

The paper's steppers use "a more efficient transformation — based on
A-normalization — to obtain a representation of each stack frame": in
A-normal form every intermediate result is named, so the continuation at
any point of evaluation is a simple chain of let-frames, trivially
reconstructable as source.

``anf`` rewrites a pure lambda-core term so that every application,
conditional test, and primitive argument is either a constant, a
variable, or a lambda; compound subexpressions are bound to fresh
``%anfN`` temporaries with ``Let``-sugar shaped nodes (the shape the
shadow stack records).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.terms import Const, Node, Pattern, PList, untagged

__all__ = ["anf", "is_anf", "is_trivial"]


def is_trivial(t: Pattern) -> bool:
    """Constants, variables, and lambdas need no naming."""
    b = untagged(t)
    if isinstance(b, Const):
        return True
    return isinstance(b, Node) and b.label in ("Id", "Lam", "Unit", "Undefined")


def anf(term: Pattern) -> Pattern:
    """A-normalize a pure lambda-core term."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"%anf{counter[0]}"

    def norm(t: Pattern) -> Pattern:
        """Normalize to an ANF *expression* (lets may appear at the top)."""
        bindings: List[Tuple[str, Pattern]] = []
        result = norm_into(t, bindings)
        for name, value in reversed(bindings):
            result = Node(
                "Let",
                (
                    PList((Node("Binding", (Const(name), value)),)),
                    result,
                ),
            )
        return result

    def norm_into(t: Pattern, bindings) -> Pattern:
        """Produce a trivial-or-head expression, emitting bindings for
        compound subterms."""
        b = untagged(t)
        if is_trivial(b):
            if isinstance(b, Node) and b.label == "Lam":
                return Node("Lam", (b.children[0], norm(b.children[1])))
            return b
        assert isinstance(b, Node)
        if b.label == "App":
            fn = atomize(b.children[0], bindings)
            arg = atomize(b.children[1], bindings)
            return Node("App", (fn, arg))
        if b.label == "If":
            cond = atomize(b.children[0], bindings)
            return Node(
                "If", (cond, norm(b.children[1]), norm(b.children[2]))
            )
        if b.label == "Op":
            args = untagged(b.children[1])
            atoms = tuple(atomize(a, bindings) for a in args.items)
            return Node("Op", (b.children[0], PList(atoms)))
        if b.label == "Seq":
            body = untagged(b.children[0])
            exprs = tuple(norm(e) for e in body.items)
            return Node("Seq", (PList(exprs),))
        # Anything else passes through with normalized children.
        return Node(b.label, tuple(norm(c) for c in b.children))

    def atomize(t: Pattern, bindings) -> Pattern:
        """Force ``t`` into a trivial expression, binding it if needed."""
        b = untagged(t)
        if is_trivial(b):
            return norm_into(b, bindings)
        head = norm_into(b, bindings)
        name = fresh()
        bindings.append((name, head))
        return Node("Id", (Const(name),))

    return norm(term)


def is_anf(term: Pattern) -> bool:
    """Is ``term`` in A-normal form (all redex operands trivial)?"""
    b = untagged(term)
    if is_trivial(b):
        if isinstance(b, Node) and b.label == "Lam":
            return is_anf(b.children[1])
        return True
    if not isinstance(b, Node):
        return False
    if b.label == "App":
        return all(is_trivial(c) for c in b.children)
    if b.label == "If":
        return (
            is_trivial(b.children[0])
            and is_anf(b.children[1])
            and is_anf(b.children[2])
        )
    if b.label == "Op":
        args = untagged(b.children[1])
        return all(is_trivial(a) for a in args.items)
    if b.label == "Seq":
        body = untagged(b.children[0])
        return all(is_anf(e) for e in body.items)
    if b.label == "Let":
        bindings = untagged(b.children[0])
        for binding in bindings.items:
            bb = untagged(binding)
            if not is_anf(bb.children[1]):
                return False
        return is_anf(b.children[1])
    return all(is_anf(c) for c in b.children)
