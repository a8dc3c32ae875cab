"""Primitive operations (delta rules) for the lambda core language.

Arithmetic and comparison over numbers, boolean negation, and the string
operations the Automaton macro needs to process its input stream
(``first``, ``rest``, ``empty?``).
"""

from __future__ import annotations

from numbers import Number
from typing import Callable, Dict, List

from repro.core.errors import StuckError
from repro.core.terms import Const, Node, Pattern, untagged

__all__ = ["apply_primitive", "PRIMITIVE_NAMES"]


def _number(name: str, t: Pattern):
    bare = untagged(t)
    if isinstance(bare, Const) and isinstance(bare.value, Number) \
            and not isinstance(bare.value, bool):
        return bare.value
    raise StuckError(f"{name}: expected a number, got {bare}")


def _string(name: str, t: Pattern) -> str:
    bare = untagged(t)
    if isinstance(bare, Const) and isinstance(bare.value, str):
        return bare.value
    raise StuckError(f"{name}: expected a string, got {bare}")


def _boolean(name: str, t: Pattern) -> bool:
    bare = untagged(t)
    if isinstance(bare, Const) and isinstance(bare.value, bool):
        return bare.value
    raise StuckError(f"{name}: expected a boolean, got {bare}")


def _arity(name: str, args: List[Pattern], n: int) -> None:
    if len(args) != n:
        raise StuckError(f"{name}: expected {n} argument(s), got {len(args)}")


def _numeric_fold(fn, unit=None):
    def run(name: str, args: List[Pattern]) -> Const:
        if not args:
            if unit is None:
                raise StuckError(f"{name}: expected >= 1 argument")
            return Const(unit)
        acc = _number(name, args[0])
        for a in args[1:]:
            acc = fn(acc, _number(name, a))
        return Const(acc)

    return run


def _comparison(fn):
    def run(name: str, args: List[Pattern]) -> Const:
        _arity(name, args, 2)
        return Const(bool(fn(_number(name, args[0]), _number(name, args[1]))))

    return run


def _equal(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 2)
    from repro.core.terms import strip_tags

    return Const(strip_tags(args[0]) == strip_tags(args[1]))


def _not(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    return Const(not _boolean(name, args[0]))


def _zero(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    return Const(_number(name, args[0]) == 0)


def _divide(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 2)
    denominator = _number(name, args[1])
    if denominator == 0:
        raise StuckError("/: division by zero")
    return Const(_number(name, args[0]) / denominator)


def _first(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    s = _string(name, args[0])
    if not s:
        raise StuckError("first: empty string")
    return Const(s[0])


def _rest(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    s = _string(name, args[0])
    if not s:
        raise StuckError("rest: empty string")
    return Const(s[1:])


def _empty(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    return Const(_string(name, args[0]) == "")


def _string_append(name: str, args: List[Pattern]) -> Const:
    return Const("".join(_string(name, a) for a in args))


def _modulo(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 2)
    divisor = _number(name, args[1])
    if divisor == 0:
        raise StuckError("modulo: division by zero")
    return Const(_number(name, args[0]) % divisor)


def _abs(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    return Const(abs(_number(name, args[0])))


def _string_length(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    return Const(len(_string(name, args[0])))


def _nil(name: str, args: List[Pattern]) -> Node:
    _arity(name, args, 0)
    return Node("Nil", ())


def _cons(name: str, args: List[Pattern]) -> Node:
    _arity(name, args, 2)
    return Node("Pair", (args[0], args[1]))


def _pair_part(index: int):
    def run(name: str, args: List[Pattern]) -> Pattern:
        _arity(name, args, 1)
        bare = untagged(args[0])
        if isinstance(bare, Node) and bare.label == "Pair":
            return bare.children[index]
        raise StuckError(f"{name}: expected a pair, got {bare}")

    return run


def _null(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    bare = untagged(args[0])
    return Const(isinstance(bare, Node) and bare.label == "Nil")


def _pair_pred(name: str, args: List[Pattern]) -> Const:
    _arity(name, args, 1)
    bare = untagged(args[0])
    return Const(isinstance(bare, Node) and bare.label == "Pair")


def _heavy_work(name: str, args: List[Pattern]) -> Const:
    # A deliberately work-heavy primitive standing in for uninstrumented
    # runtime-library work in the section 7 overhead experiment.
    _arity(name, args, 1)
    return Const(sum(range(int(_number(name, args[0])))) % 97)


_TABLE: Dict[str, Callable[[str, List[Pattern]], Pattern]] = {
    "+": _numeric_fold(lambda a, b: a + b, unit=0),
    "-": _numeric_fold(lambda a, b: a - b),
    "*": _numeric_fold(lambda a, b: a * b, unit=1),
    "/": _divide,
    "<": _comparison(lambda a, b: a < b),
    ">": _comparison(lambda a, b: a > b),
    "<=": _comparison(lambda a, b: a <= b),
    ">=": _comparison(lambda a, b: a >= b),
    "=": _equal,
    "equal?": _equal,
    "not": _not,
    "zero?": _zero,
    "first": _first,
    "rest": _rest,
    "empty?": _empty,
    "string-append": _string_append,
    "min": _numeric_fold(min),
    "max": _numeric_fold(max),
    "abs": _abs,
    "modulo": _modulo,
    "string-length": _string_length,
    "nil": _nil,
    "cons": _cons,
    "car": _pair_part(0),
    "cdr": _pair_part(1),
    "null?": _null,
    "pair?": _pair_pred,
    "heavy-work": _heavy_work,
}

PRIMITIVE_NAMES = frozenset(_TABLE)


def apply_primitive(name: str, args: List[Pattern]) -> Pattern:
    """Apply primitive ``name`` to fully evaluated arguments."""
    try:
        fn = _TABLE[name]
    except KeyError:
        raise StuckError(f"unknown primitive operation {name!r}") from None
    return fn(name, args)
