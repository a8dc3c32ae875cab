"""A small s-expression reader and writer.

The lambda-core language (section 8.1 of the paper) uses a parenthesized
concrete syntax — ``(let ((x 1)) (+ x 2))`` — and the paper's lifting
pipeline needs ``s->t`` / ``t->s`` style bridges between concrete syntax
and the term language.  This module supplies the concrete half: reading
source text into nested Python lists of atoms and writing them back.

Atoms are ints, floats, booleans (``#t`` / ``#f``), strings (double
quoted), and :class:`~repro.core.terms.Symbol` for everything else.
"""

from __future__ import annotations

import re
from typing import List, Union

from repro.core.errors import ParseError
from repro.core.terms import Symbol

__all__ = ["SExpr", "read_sexpr", "read_sexprs", "write_sexpr"]

SExpr = Union[int, float, bool, str, Symbol, List["SExpr"]]

# One scan over the source: whitespace and comments match unnamed
# alternatives, every token the ``token`` group.  The only character no
# token can start with is the ``"`` of an unterminated string, which
# ``bad`` catches; only then is the source scanned again, to report
# where it is.
_SEXPR_TOKEN_RE = re.compile(
    r"""
    \s+
  | ;[^\n]*
  | (?P<token>[()\[\]] | "(?:[^"\\]|\\.)*" | [^\s()\[\];"]+)
  | (?P<bad>(?s:.))
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> List[str]:
    found = _SEXPR_TOKEN_RE.findall(source)  # (token, bad) per match
    tokens = [token for token, _bad in found if token]
    if '"' in source and any(bad for _token, bad in found):
        for m in _SEXPR_TOKEN_RE.finditer(source):
            if m.lastgroup == "bad":
                raise ParseError(
                    f"unexpected character {m.group()!r} at {m.start()}"
                )
    return tokens


def _parse_atom(token: str) -> SExpr:
    if token == "#t":
        return True
    if token == "#f":
        return False
    if token.startswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return Symbol(token)


def read_sexprs(source: str) -> List[SExpr]:
    """Read every s-expression in ``source``."""
    tokens = _tokenize(source)
    out: List[SExpr] = []
    stack: List[List[SExpr]] = []
    for token in tokens:
        if token in "([":
            stack.append([])
        elif token in ")]":
            if not stack:
                raise ParseError("unbalanced closing parenthesis")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                out.append(done)
        else:
            atom = _parse_atom(token)
            if stack:
                stack[-1].append(atom)
            else:
                out.append(atom)
    if stack:
        raise ParseError("unbalanced opening parenthesis")
    return out


def read_sexpr(source: str) -> SExpr:
    """Read exactly one s-expression from ``source``."""
    exprs = read_sexprs(source)
    if len(exprs) != 1:
        raise ParseError(f"expected one s-expression, found {len(exprs)}")
    return exprs[0]


def write_sexpr(expr: SExpr) -> str:
    """Render an s-expression back into source text."""
    if isinstance(expr, bool):
        return "#t" if expr else "#f"
    if isinstance(expr, (int, float)):
        return repr(expr)
    if isinstance(expr, Symbol):
        return expr.name
    if isinstance(expr, str):
        escaped = expr.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(expr, list):
        return "(" + " ".join(write_sexpr(e) for e in expr) + ")"
    raise ParseError(f"cannot write {expr!r} as an s-expression")
