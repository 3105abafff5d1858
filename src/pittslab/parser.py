"""Recursive-descent parser for the ASCII formula and sequent grammar.

Precedence, tightest first: ~  /\\  \\/  ->  <->.  Implication and the
biconditional associate to the right; conjunction and disjunction to the
left.  `exists X.` / `forall X.` scope to the end of the enclosing
expression unless parenthesized.  `top` and `~`/`<->` are sugar for their
expansions; the AST never contains them.
"""
from __future__ import annotations

import re

from .kernel import Sequent
from .syntax import (
    App,
    BOT,
    Exists,
    Forall,
    Formula,
    Implies,
    And,
    Or,
    Signature,
    TOP,
    Var,
    Variable,
    iff,
    neg,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
  | (?P<hole>_)
  | (?P<iff><->)
  | (?P<imp>->)
  | (?P<and>/\\)
  | (?P<or>\\/)
  | (?P<neg>~)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<turnstile>\|-)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"bot", "top", "exists", "forall"}


class FormulaSyntaxError(Exception):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {offset}{exp}")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            pos = m.end()
            kind = m.lastgroup
            if kind == "ws":
                continue
            value = m.group()
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            self.toks.append((kind, value, m.start()))
        self.toks.append(("eof", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], (kind,))
        return self.next()


class Parser:
    """Parser over a fixed connective signature (empty by default)."""

    def __init__(self, signature: Signature | None = None, allow_hole: bool = False):
        self.signature = signature or Signature()
        self.allow_hole = allow_hole

    def parse(self, text: str) -> Formula:
        toks = _Tokens(text)
        f = self._formula(toks)
        tok = toks.peek()
        if tok[0] != "eof":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], ("eof",))
        return f

    def parse_prefix(self, text: str) -> tuple[Formula, int]:
        """Parse one formula from the front; return it and the offset just past it."""
        toks = _Tokens(text)
        f = self._formula(toks)
        return f, toks.peek()[2]

    def parse_sequent(self, text: str) -> Sequent:
        toks = _Tokens(text)
        hyps: list[Formula] = []
        if toks.peek()[0] not in ("turnstile", "eof"):
            hyps.append(self._formula(toks))
            while toks.peek()[0] == "comma":
                toks.next()
                hyps.append(self._formula(toks))
        toks.expect("turnstile")
        if toks.peek()[0] == "eof":
            concl: Formula = BOT
        else:
            concl = self._formula(toks)
            tok = toks.peek()
            if tok[0] != "eof":
                raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], ("eof",))
        return Sequent(tuple(hyps), concl)

    # Grammar, loosest to tightest.

    def _formula(self, toks) -> Formula:
        return self._iff(toks)

    def _iff(self, toks) -> Formula:
        left = self._imp(toks)
        if toks.peek()[0] == "iff":
            toks.next()
            right = self._iff(toks)
            return iff(left, right)
        return left

    def _imp(self, toks) -> Formula:
        left = self._or(toks)
        if toks.peek()[0] == "imp":
            toks.next()
            right = self._imp(toks)
            return Implies(left, right)
        return left

    def _or(self, toks) -> Formula:
        left = self._and(toks)
        while toks.peek()[0] == "or":
            toks.next()
            left = Or(left, self._and(toks))
        return left

    def _and(self, toks) -> Formula:
        left = self._unary(toks)
        while toks.peek()[0] == "and":
            toks.next()
            left = And(left, self._unary(toks))
        return left

    def _unary(self, toks) -> Formula:
        kind, _value, _off = toks.peek()
        if kind == "neg":
            toks.next()
            return neg(self._unary(toks))
        if kind in ("exists", "forall"):
            return self._quantifier(toks)
        return self._atom(toks)

    def _quantifier(self, toks) -> Formula:
        kind, _value, off = toks.next()
        name = toks.expect("ident")
        toks.expect("dot")
        body = self._formula(toks)
        v = Variable(name[1])
        return Exists(v, body) if kind == "exists" else Forall(v, body)

    def _atom(self, toks) -> Formula:
        kind, value, off = toks.next()
        if kind == "bot":
            return BOT
        if kind == "top":
            return TOP
        if kind == "hole":
            if not self.allow_hole:
                raise FormulaSyntaxError("hole '_' not allowed here", off)
            return Var(Variable("HOLE"))
        if kind == "lpar":
            f = self._formula(toks)
            toks.expect("rpar")
            return f
        if kind == "ident":
            if toks.peek()[0] == "lpar":
                sym = self.signature.get(value)
                if sym is None:
                    raise FormulaSyntaxError(f"unknown connective {value!r}", off)
                toks.next()
                args = [self._formula(toks)]
                while toks.peek()[0] == "comma":
                    toks.next()
                    args.append(self._formula(toks))
                toks.expect("rpar")
                return App(sym, tuple(args))
            return Var(Variable(value))
        raise FormulaSyntaxError(
            f"unexpected {value or 'end of input'!r}",
            off,
            ("ident", "bot", "top", "~", "(", "exists", "forall"),
        )


def parse_formula(text: str, signature: Signature | None = None, allow_hole: bool = False) -> Formula:
    return Parser(signature, allow_hole=allow_hole).parse(text)


def parse_sequent(text: str, signature: Signature | None = None):
    return Parser(signature).parse_sequent(text)
