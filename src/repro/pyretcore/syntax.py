"""Concrete syntax for the Pyret-like language (sections 4 and 8.3).

A parser for the Pyret subset the paper's case study exercises::

    fun len(x):
      cases(List) x:
        | empty() => 0
        | link(_, tail) => len(tail) + 1
      end
    end
    len([1, 2])

and a pretty-printer that renders terms the way the paper prints them
(``cases(List) [1, 2]: | empty() => 0 | ... end``, ``<func>`` for
resolved functionals, ``[1, 2]`` for list values).  The printer reads
through tags as it goes, so a tagged core term prints in one pass,
exactly as its tag-free copy would.

Parsing produces *surface* terms full of the Figure 5 sugar nodes
(FunDecl, Cases, CasesElse, IfE, When, For, Op, Not, Paren, LeftApp,
ListLit, Dot, Colon, OpCurryL/OpCurryR); the rules in
:mod:`repro.sugars.pyret_sugars` rewrite them into the core.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.core.errors import ParseError
from repro.core.terms import Const, Node, Pattern, PList, untagged
from repro.lang.textmemo import ACTIVE, MAX_MEMO_TEXT, write_with

__all__ = ["parse_program", "pretty"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>=>)
  | (?P<op><=|>=|==|<>|\+|-|\*|/|<|>)
  | (?P<brlookup>\.\[)
  | (?P<anncolon>::)
  | (?P<punct>[()\[\]{},:.|^=])
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "fun", "end", "cases", "if", "else", "when", "for", "from",
    "true", "false", "nothing", "not", "raise", "block", "datatype",
    "and", "or",
}

_OP_METHODS = {
    "+": "_plus",
    "-": "_minus",
    "*": "_times",
    "/": "_divide",
    "<": "_lessthan",
    ">": "_greaterthan",
    "<=": "_lessequal",
    ">=": "_greaterequal",
    "==": "_equals",
}
_METHOD_OPS = {m: o for o, m in _OP_METHODS.items()}


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text!r}"


def _tokenize(source: str) -> List[_Token]:
    out, pos, line = [], 0, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"line {line}: unexpected character {source[pos]!r}")
        kind, text = m.lastgroup, m.group()
        if kind not in ("ws", "comment"):
            out.append(_Token(kind, text, line))
        line += text.count("\n")
        pos = m.end()
    out.append(_Token("eof", "", line))
    return out


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            got = repr(tok.text) if tok.text else "end of input"
            raise ParseError(f"line {tok.line}: expected {text!r}, got {got}")
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # --- program & blocks -------------------------------------------

    def parse_program(self) -> Pattern:
        body = self.parse_block(stop={"eof-sentinel"})
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"line {tok.line}: trailing input {tok.text!r}")
        return body

    def parse_block(self, stop) -> Pattern:
        """A sequence of statements; fun/let declarations scope over the
        rest of the block."""
        statements: List = []
        while self.peek().kind != "eof" and self.peek().text not in stop:
            statements.append(self._parse_statement(stop))
        if not statements:
            raise ParseError(f"line {self.peek().line}: empty block")
        return self._fold_block(statements)

    def _fold_block(self, statements) -> Pattern:
        head = statements[0]
        if isinstance(head, tuple):  # a declaration awaiting its scope
            if len(statements) == 1:
                raise ParseError(
                    f"declaration of {head[1]!r} ends its block"
                )
            rest = self._fold_block(statements[1:])
            if head[0] == "fun":
                _, name, params, body = head
                return Node("FunDecl", (Const(name), params, body, rest))
            if head[0] == "datatype":
                _, name, variants = head
                return Node("Datatype", (Const(name), variants, rest))
            _, name, value = head
            return Node("LetDecl", (Const(name), value, rest))
        if len(statements) == 1:
            return head
        rest = self._fold_block(statements[1:])
        if isinstance(rest, Node) and rest.label == "Block":
            items = rest.children[0].items
            return Node("Block", (PList((head,) + items),))
        return Node("Block", (PList((head, rest)),))

    def _parse_statement(self, stop):
        if self.at("fun") and self.peek(1).kind == "name":
            return self._parse_fun_decl()
        if self.at("datatype"):
            return self._parse_datatype()
        if (
            self.peek().kind == "name"
            and self.peek().text not in _KEYWORDS
            and self.peek(1).text == "="
            and self.peek(2).text != "="
        ):
            name = self.next().text
            self.expect("=")
            return ("let", name, self.parse_expr())
        return self.parse_expr()

    def _parse_datatype(self):
        # datatype Shape: | circle(r) | square(s) end   (extension:
        # Figure 5 marks this "no"; see repro.sugars.pyret_sugars).
        self.expect("datatype")
        name = self._name("datatype")
        self.expect(":")
        variants = []
        while self.at("|"):
            self.next()
            tag = self._name("variant")
            params = self._parse_params()
            variants.append(Node("Variant", (Const(tag), params)))
        self.expect("end")
        if not variants:
            raise ParseError(f"datatype {name!r} needs at least one variant")
        return ("datatype", name, PList(tuple(variants)))

    def _parse_fun_decl(self):
        self.expect("fun")
        name = self._name("fun")
        params = self._parse_params()
        self.expect(":")
        body = self.parse_block(stop={"end"})
        self.expect("end")
        return ("fun", name, params, body)

    def _parse_params(self) -> PList:
        self.expect("(")
        names = []
        if not self.at(")"):
            names.append(Const(self._name("parameter")))
            while self.at(","):
                self.next()
                names.append(Const(self._name("parameter")))
        self.expect(")")
        return PList(tuple(names))

    def _name(self, what: str) -> str:
        tok = self.next()
        if tok.kind != "name" or tok.text in _KEYWORDS - {"_"}:
            raise ParseError(f"line {tok.line}: expected a {what} name")
        return tok.text

    # --- expressions --------------------------------------------------

    def parse_expr(self) -> Pattern:
        return self._parse_binop()

    def _parse_binop(self) -> Pattern:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op":
                method = _OP_METHODS[self.next().text]
                left = self._combine_op(method, left, self._parse_unary())
            elif tok.text in ("and", "or"):
                label = "OpAnd" if self.next().text == "and" else "OpOr"
                left = Node(label, (left, self._parse_unary()))
            else:
                return left

    @staticmethod
    def _combine_op(method, left, right) -> Node:
        blank_l = isinstance(left, Node) and left.label == "Blank"
        blank_r = isinstance(right, Node) and right.label == "Blank"
        if blank_l and blank_r:
            raise ParseError("at most one operand of an operator may be _")
        if blank_l:
            return Node("OpCurryL", (Const(method), right))
        if blank_r:
            return Node("OpCurryR", (Const(method), left))
        return Node("Op", (Const(method), left, right))

    def _parse_unary(self) -> Pattern:
        if self.at("not"):
            self.next()
            return Node("Not", (self._parse_unary(),))
        return self._parse_postfix()

    def _parse_postfix(self) -> Pattern:
        expr = self._parse_primary()
        while True:
            tok = self.peek()
            if tok.text == "(":
                expr = self._parse_call(expr)
            elif tok.kind == "brlookup":
                self.next()
                key = self.parse_expr()
                self.expect("]")
                expr = Node("Bracket", (expr, key))
            elif tok.text == "." and self.peek(1).kind == "name":
                self.next()
                expr = Node("Dot", (expr, Const(self._name("field"))))
            elif tok.text == ":" and self.peek(1).kind == "name" \
                    and self.peek(1).text not in _KEYWORDS:
                # direct (colon) field lookup: o:x
                self.next()
                expr = Node("Colon", (expr, Const(self._name("field"))))
            elif tok.text == "^":
                # left-app infix notation: x ^ f(args)
                self.next()
                fn = self._parse_postfix_no_call()
                self.expect("(")
                args = self._parse_args()
                expr = Node("LeftApp", (expr, fn, args))
            else:
                return expr

    def _parse_postfix_no_call(self) -> Pattern:
        expr = self._parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == "brlookup":
                self.next()
                key = self.parse_expr()
                self.expect("]")
                expr = Node("Bracket", (expr, key))
            elif tok.text == "." and self.peek(1).kind == "name":
                self.next()
                expr = Node("Dot", (expr, Const(self._name("field"))))
            else:
                return expr

    def _parse_call(self, fn: Pattern) -> Node:
        self.expect("(")
        args = self._parse_args()
        blanks = [
            i
            for i, a in enumerate(args.items)
            if isinstance(a, Node) and a.label == "Blank"
        ]
        if len(blanks) == 1 and len(args.items) >= 1:
            # currying in application position: f(_, 3).
            others = [a for a in args.items if not (
                isinstance(a, Node) and a.label == "Blank")]
            if len(blanks) == 1 and len(args.items) - len(others) == 1:
                if blanks[0] == 0 and len(args.items) == 2:
                    return Node("CurryAppL", (fn, args.items[1]))
                if blanks[0] == 1 and len(args.items) == 2:
                    return Node("CurryAppR", (fn, args.items[0]))
                if len(args.items) == 1:
                    return Node("CurryApp1", (fn,))
            raise ParseError("unsupported currying shape")
        return Node("App", (fn, args))

    def _parse_args(self) -> PList:
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.at(","):
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        return PList(tuple(args))

    def _parse_primary(self) -> Pattern:
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.text) if "." in tok.text else int(tok.text))
        if tok.kind == "string":
            return Const(tok.text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return Node("Paren", (inner,))
        if tok.text == "[":
            items = []
            if not self.at("]"):
                items.append(self.parse_expr())
                while self.at(","):
                    self.next()
                    items.append(self.parse_expr())
            self.expect("]")
            return Node("ListLit", (PList(tuple(items)),))
        if tok.text == "{":
            fields = []
            if not self.at("}"):
                fields.append(self._parse_field())
                while self.at(","):
                    self.next()
                    fields.append(self._parse_field())
            self.expect("}")
            return Node("Obj", (PList(tuple(fields)),))
        if tok.kind == "name":
            return self._parse_keyword_or_name(tok)
        raise ParseError(f"line {tok.line}: unexpected {tok.text!r}")

    def _parse_field(self) -> Node:
        tok = self.next()
        if tok.kind == "string":
            name = tok.text[1:-1]
        elif tok.kind == "name":
            name = tok.text
        else:
            raise ParseError(f"line {tok.line}: expected a field name")
        self.expect(":")
        return Node("Field", (Const(name), self.parse_expr()))

    def _parse_keyword_or_name(self, tok: _Token) -> Pattern:
        text = tok.text
        if text == "true":
            return Const(True)
        if text == "false":
            return Const(False)
        if text == "nothing":
            return Node("Nothing", ())
        if text == "_":
            return Node("Blank", ())
        if text == "raise":
            self.expect("(")
            value = self.parse_expr()
            self.expect(")")
            return Node("Raise", (value,))
        if text == "fun":
            params = self._parse_params()
            self.expect(":")
            body = self.parse_block(stop={"end"})
            self.expect("end")
            return Node("FunE", (params, body))
        if text == "when":
            cond = self.parse_expr()
            self.expect(":")
            body = self.parse_block(stop={"end"})
            self.expect("end")
            return Node("When", (cond, body))
        if text == "if":
            return self._parse_if()
        if text == "cases":
            return self._parse_cases()
        if text == "for":
            return self._parse_for()
        if text == "block":
            self.expect(":")
            body = self.parse_block(stop={"end"})
            self.expect("end")
            return body
        return Node("Id", (Const(text),))

    def _parse_if(self) -> Node:
        clauses = []
        cond = self.parse_expr()
        self.expect(":")
        body = self.parse_block(stop={"else", "end"})
        clauses.append(Node("Clause", (cond, body)))
        otherwise: Optional[Pattern] = None
        while self.at("else"):
            self.next()
            if self.at("if"):
                self.next()
                cond = self.parse_expr()
                self.expect(":")
                body = self.parse_block(stop={"else", "end"})
                clauses.append(Node("Clause", (cond, body)))
            else:
                self.expect(":")
                otherwise = self.parse_block(stop={"end"})
                break
        self.expect("end")
        if otherwise is None:
            return Node("IfNoElse", (PList(tuple(clauses)),))
        return Node("IfE", (PList(tuple(clauses)), otherwise))

    def _parse_cases(self) -> Node:
        self.expect("(")
        ann = self._name("annotation")
        self.expect(")")
        scrutinee = self.parse_expr()
        self.expect(":")
        branches = []
        otherwise: Optional[Pattern] = None
        while self.at("|"):
            self.next()
            if self.at("else"):
                self.next()
                self.expect("=>")
                otherwise = self.parse_expr()
                break
            name = self._name("constructor")
            params = self._parse_params()
            self.expect("=>")
            body = self.parse_expr()
            branches.append(Node("Branch", (Const(name), params, body)))
        self.expect("end")
        if otherwise is None:
            return Node(
                "Cases", (Const(ann), scrutinee, PList(tuple(branches)))
            )
        return Node(
            "CasesElse",
            (Const(ann), scrutinee, PList(tuple(branches)), otherwise),
        )

    def _parse_for(self) -> Node:
        fn = self._parse_postfix_no_call()
        self.expect("(")
        binds = []
        if not self.at(")"):
            binds.append(self._parse_from_bind())
            while self.at(","):
                self.next()
                binds.append(self._parse_from_bind())
        self.expect(")")
        self.expect(":")
        body = self.parse_block(stop={"end"})
        self.expect("end")
        return Node("For", (fn, PList(tuple(binds)), body))

    def _parse_from_bind(self) -> Node:
        name = self._name("binding")
        self.expect("from")
        return Node("FromBind", (Const(name), self.parse_expr()))


def parse_program(source: str) -> Pattern:
    """Parse a Pyret-subset program into a surface term."""
    return _Parser(source).parse_program()


# --- pretty printing ---------------------------------------------------

def pretty(term: Pattern, memo=None) -> str:
    """Render a (possibly tagged) term the way the paper prints Pyret.

    Tags are read through, never copied away: the text is exactly what
    the term's tag-free copy would print.  ``memo``, a dict shared by the
    steps of one sequence, caches each subterm's text across calls
    (:mod:`repro.lang.textmemo`).
    """
    if memo is None:
        return _pp(term)
    return write_with(_pp, term, memo)


def _pp(t: Pattern) -> str:
    memo = ACTIVE.memo  # inside ``pretty(term, memo)`` only
    if memo is not None:
        text = memo.get(t)
        if text is not None:
            return text
    bare = untagged(t)
    cls = bare.__class__
    if cls is Node:
        printer = _PP.get(bare.label)
        if printer is not None:
            text = printer(bare)
        else:
            text = f"{bare.label.lower()}({_pp_all(bare.children)})"
    elif cls is Const:
        v = bare.value
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, str):
            text = '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
        else:
            text = str(v)
    elif cls is PList:
        text = "[" + _pp_all(bare.items) + "]"
    else:
        text = str(bare)
    if memo is not None and len(text) <= MAX_MEMO_TEXT:
        memo[t] = text
    return text


def _pp_all(parts) -> str:
    return ", ".join(map(_pp, parts))


def _value(t: Pattern):
    """The atom of a (possibly tagged) constant child."""
    return untagged(t).value


def _items(t: Pattern):
    """The items of a (possibly tagged) list child."""
    return untagged(t).items


def _op_symbol(t) -> str:
    name = _value(t.children[0])
    return _METHOD_OPS.get(name, name)


def _pp_params(plist) -> str:
    names = []
    for p in map(untagged, _items(plist)):
        names.append(p.value if p.__class__ is Const else _pp(p))
    return ", ".join(names)


def _pp_list_value(t) -> str:
    items = []
    while t.__class__ is Node and t.label == "ListLink":
        items.append(_pp(t.children[0]))
        t = untagged(t.children[1])
    return "[" + ", ".join(items) + "]"


_PP = {}


def _register(label):
    def deco(fn):
        _PP[label] = fn
        return fn

    return deco


@_register("Id")
def _pp_id(t):
    return _value(t.children[0])


@_register("App")
def _pp_app(t):
    args = _pp_all(_items(t.children[1]))
    fn = untagged(t.children[0])
    fn_str = _pp(fn)
    if fn.__class__ is Node and fn.label in ("Lam", "Method", "MatchFn"):
        fn_str = f"({fn_str})" if fn.label == "Lam" else fn_str
    return f"{fn_str}({args})"


@_register("Lam")
def _pp_lam(t):
    # A bare core Lam in a lifted trace is a resolved closure; the paper
    # prints those as <func> ("denotes a resolved functional").  Surface
    # anonymous functions stay readable because they parse to the FunE
    # sugar, which resugars before display.
    return "<func>"


@_register("FunE")
def _pp_fune(t):
    return f"fun({_pp_params(t.children[0])}): {_pp(t.children[1])} end"


@_register("Bracket")
def _pp_bracket(t):
    return f"{_pp(t.children[0])}.[{_pp(t.children[1])}]"


@_register("Dot")
def _pp_dot(t):
    return f"{_pp(t.children[0])}.{_value(t.children[1])}"


@_register("Colon")
def _pp_colon(t):
    return f"{_pp(t.children[0])}:{_value(t.children[1])}"


@_register("Let")
def _pp_let(t):
    return (
        f"{_value(t.children[0])} = {_pp(t.children[1])} "
        f"{_pp(t.children[2])}"
    )


@_register("LetDecl")
def _pp_letdecl(t):
    return _pp_let(t)


@_register("DefRec")
def _pp_defrec(t):
    return (
        f"rec {_value(t.children[0])} = {_pp(t.children[1])} "
        f"{_pp(t.children[2])}"
    )


@_register("FunDecl")
def _pp_fundecl(t):
    return (
        f"fun {_value(t.children[0])}({_pp_params(t.children[1])}): "
        f"{_pp(t.children[2])} end {_pp(t.children[3])}"
    )


@_register("Block")
def _pp_block(t):
    return " ".join(map(_pp, _items(t.children[0])))


@_register("If")
def _pp_if(t):
    return (
        f"if {_pp(t.children[0])}: {_pp(t.children[1])} "
        f"else: {_pp(t.children[2])} end"
    )


@_register("IfE")
def _pp_ife(t):
    parts = []
    for i, clause in enumerate(map(untagged, _items(t.children[0]))):
        kw = "if" if i == 0 else "else if"
        parts.append(f"{kw} {_pp(clause.children[0])}: {_pp(clause.children[1])}")
    parts.append(f"else: {_pp(t.children[1])}")
    return " ".join(parts) + " end"


@_register("IfNoElse")
def _pp_ifnoelse(t):
    parts = []
    for i, clause in enumerate(map(untagged, _items(t.children[0]))):
        kw = "if" if i == 0 else "else if"
        parts.append(f"{kw} {_pp(clause.children[0])}: {_pp(clause.children[1])}")
    return " ".join(parts) + " end"


@_register("When")
def _pp_when(t):
    return f"when {_pp(t.children[0])}: {_pp(t.children[1])} end"


@_register("Cases")
def _pp_cases(t):
    branches = " ".join(map(_pp, _items(t.children[2])))
    return (
        f"cases({_value(t.children[0])}) {_pp(t.children[1])}: {branches} end"
    )


@_register("CasesElse")
def _pp_cases_else(t):
    branches = " ".join(map(_pp, _items(t.children[2])))
    return (
        f"cases({_value(t.children[0])}) {_pp(t.children[1])}: {branches} "
        f"| else => {_pp(t.children[3])} end"
    )


@_register("Branch")
def _pp_branch(t):
    return (
        f"| {_value(t.children[0])}({_pp_params(t.children[1])}) => "
        f"{_pp(t.children[2])}"
    )


@_register("For")
def _pp_for(t):
    binds = _pp_all(_items(t.children[1]))
    return f"for {_pp(t.children[0])}({binds}): {_pp(t.children[2])} end"


@_register("FromBind")
def _pp_from(t):
    return f"{_value(t.children[0])} from {_pp(t.children[1])}"


@_register("Op")
def _pp_op(t):
    op = _op_symbol(t)
    return f"{_pp(t.children[1])} {op} {_pp(t.children[2])}"


@_register("OpCurryL")
def _pp_opcurryl(t):
    op = _op_symbol(t)
    return f"(_ {op} {_pp(t.children[1])})"


@_register("OpCurryR")
def _pp_opcurryr(t):
    op = _op_symbol(t)
    return f"({_pp(t.children[1])} {op} _)"


@_register("CurryAppL")
def _pp_curryappl(t):
    return f"{_pp(t.children[0])}(_, {_pp(t.children[1])})"


@_register("CurryAppR")
def _pp_curryappr(t):
    return f"{_pp(t.children[0])}({_pp(t.children[1])}, _)"


@_register("CurryApp1")
def _pp_curryapp1(t):
    return f"{_pp(t.children[0])}(_)"


@_register("LeftApp")
def _pp_leftapp(t):
    args = _pp_all(_items(t.children[2]))
    return f"{_pp(t.children[0])} ^ {_pp(t.children[1])}({args})"


@_register("OpAnd")
def _pp_opand(t):
    return f"{_pp(t.children[0])} and {_pp(t.children[1])}"


@_register("OpOr")
def _pp_opor(t):
    return f"{_pp(t.children[0])} or {_pp(t.children[1])}"


@_register("Not")
def _pp_not(t):
    return f"not {_pp(t.children[0])}"


@_register("Paren")
def _pp_paren(t):
    return f"({_pp(t.children[0])})"


@_register("ListLit")
def _pp_listlit(t):
    return "[" + _pp_all(_items(t.children[0])) + "]"


@_register("Obj")
def _pp_obj(t):
    fields = ", ".join(
        f'"{_value(f.children[0])}": {_pp(f.children[1])}'
        for f in map(untagged, _items(t.children[0]))
    )
    return "{" + fields + "}"


@_register("Field")
def _pp_field(t):
    return f'"{_value(t.children[0])}": {_pp(t.children[1])}'


@_register("Raise")
def _pp_raise(t):
    return f"raise({_pp(t.children[0])})"


@_register("Error")
def _pp_error(t):
    return f"error: {_pp(t.children[0])}"


@_register("Nothing")
def _pp_nothing(t):
    return "nothing"


@_register("ListModule")
def _pp_listmodule(t):
    return "list"


@_register("LinkCtor")
def _pp_linkctor(t):
    return "list.link"


@_register("ListEmpty")
def _pp_listempty(t):
    return "[]"


@_register("ListLink")
def _pp_listlink(t):
    return _pp_list_value(t)


@_register("Datatype")
def _pp_datatype(t):
    variants = " ".join(
        f"| {_value(v.children[0])}({_pp_params(v.children[1])})"
        for v in map(untagged, _items(t.children[1]))
    )
    return (
        f"datatype {_value(t.children[0])}: {variants} end "
        f"{_pp(t.children[2])}"
    )


@_register("Data")
def _pp_data(t):
    fields = _pp_all(_items(t.children[1]))
    return f"{_value(t.children[0])}({fields})"


@_register("Method")
def _pp_method(t):
    return "<func>"


@_register("MatchFn")
def _pp_matchfn(t):
    return "<func>"


@_register("Blank")
def _pp_blank(t):
    return "_"
