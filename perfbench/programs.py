"""Seeded program families whose outcome is known without running them.

Every generator returns a :class:`Program`: the source text that
``repro lift`` and ``/lift`` accept, the backend it runs on, the text the
last shown surface step must equal, and the number of core steps its
evaluation takes.  The families are chosen so that each one is dominated
by a different engine layer (the rationale is in ``config.json``):

* ``or_chain``    — large surface term: desugar and emulation heavy;
* ``doubling``    — small program, long evaluation: rendering heavy;
* ``pyret_len``   — the paper's section 4 program: resugar heavy;
* ``let_nest``, ``cond_chain``, ``letrec_fact`` — short lambda programs
  whose core steps are mostly skipped or deduplicated.

:func:`salted` makes a program distinct from every other one without
changing what it computes; the serving workloads use it so that no
session repeats an earlier program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

# pyret ``len`` over 100 elements trips the expansion fuel inside the
# emulation check (see ``gate.known_defect``); sizes stay at or below this.
PYRET_LEN_MAX = 80


@dataclass(frozen=True)
class Program:
    family: str
    lang: str
    text: str
    expected: str
    core_steps: int
    size: int


def or_chain(n: int) -> Program:
    return Program(
        "or_chain", "lambda", "(or " + "#f " * n + "#t)", "#t", 2 * n + 1, n
    )


def doubling(k: int, start: int = 0) -> Program:
    expr = "(lambda (y) (+ y 1))"
    for _ in range(k):
        expr = f"(double {expr})"
    text = (
        f"((lambda (double) ({expr} {start})) "
        "(lambda (f) (lambda (x) (f (f x)))))"
    )
    return Program(
        "doubling", "lambda", text, str(start + 2**k), 3 * 2**k + k + 1, k
    )


def pyret_len(n: int, first: int = 0) -> Program:
    items = ", ".join(str(first if i == 0 else i) for i in range(n))
    text = (
        "fun len(x): cases(List) x: | empty() => 0 "
        f"| link(f, tail) => len(tail) + 1 end end len([{items}])"
    )
    return Program("pyret_len", "pyret", text, str(n), 11 * n + 10, n)


def let_nest(depth: int, start: int) -> Program:
    body = f"(+ x{depth - 1} 1)"
    for i in reversed(range(depth)):
        init = str(start) if i == 0 else f"(+ x{i - 1} 1)"
        body = f"(let ((x{i} {init})) {body})"
    return Program(
        "let_nest", "lambda", body, str(start + depth), 2 * depth + 1, depth
    )


def cond_chain(arms: int) -> Program:
    """Clause ``i`` tests ``(< hit i)`` with ``hit = arms - 2``, so every
    test runs and the last clause before ``else`` fires."""
    hit = arms - 2
    clauses = " ".join(f"((< {hit} {i}) {i})" for i in range(arms))
    return Program(
        "cond_chain", "lambda", f"(cond {clauses} (else {arms}))",
        str(hit + 1), 2 * hit + 5, arms,
    )


def letrec_fact(n: int) -> Program:
    text = (
        "(letrec ((f (lambda (n) (if (zero? n) 1 (* n (f (- n 1))))))) "
        f"(f {n}))"
    )
    return Program(
        "letrec_fact", "lambda", text, str(math.factorial(n)), 6 * n + 11, n
    )


def salted(program: Program, salt: int) -> Program:
    """A distinct program with the same value that shares every subterm
    but its first step's spine with ``program`` — the shape of a user
    re-running an edited program.  Lambda programs gain an unused binder
    (one extra beta step); pyret lists change their first element."""
    if program.lang == "pyret":
        return pyret_len(program.size, first=salt)
    return replace(
        program,
        text=f"((lambda (s{salt}) {program.text}) 0)",
        core_steps=program.core_steps + 1,
    )


def make(rng: random.Random, family: str, size: int) -> Program:
    """The ``family`` program of the given size; ``rng`` picks the
    details that do not change the work (a let chain's start value)."""
    if family == "or_chain":
        return or_chain(size)
    if family == "doubling":
        return doubling(size)
    if family == "pyret_len":
        return pyret_len(min(size, PYRET_LEN_MAX))
    if family == "let_nest":
        return let_nest(size, rng.randint(0, 9))
    if family == "cond_chain":
        return cond_chain(size)
    if family == "letrec_fact":
        return letrec_fact(size)
    raise ValueError(f"unknown family {family!r}")


# A deck spec: (family, smallest size, largest size, programs per deck).
DeckSpec = Sequence[Tuple[str, int, int, int]]

GOLDEN_RATIO = (5**0.5 - 1) / 2


class Decks:
    """A seeded stream of decks.

    Sizes follow a low-discrepancy (golden-ratio) sequence over each
    family's range, so any prefix of the stream covers the range evenly
    and every run sees the same size profile however many decks it gets
    through; the seed draws the order within each deck and the
    size-neutral details."""

    def __init__(self, rng: random.Random, spec: DeckSpec):
        self.rng = rng
        self.spec = spec
        self.drawn = {family: 0 for family, *_ in spec}

    def size(self, lo: int, hi: int, index: int) -> int:
        position = ((index + 0.5) * GOLDEN_RATIO) % 1.0
        return lo + int(position * (hi - lo + 1))

    def next(self) -> List[Program]:
        deck = []
        for family, lo, hi, count in self.spec:
            for _ in range(count):
                index = self.drawn[family]
                self.drawn[family] += 1
                deck.append(make(self.rng, family, self.size(lo, hi, index)))
        self.rng.shuffle(deck)
        return deck
