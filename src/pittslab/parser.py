"""Operator-precedence parser for the ASCII formula and sequent grammar.

Infix symbols, levels and associativity come from `syntax.INFIX`: /\\,
\\/, -> and <-> from tightest to loosest, the last two to the right; `~`
binds tighter than all of them.  `exists X.` / `forall X.` scope to the end
of the enclosing expression unless parenthesized.  `top` and `~`/`<->` are
sugar for their expansions; the AST never contains them.  Only parentheses
and connective arguments recurse.
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
    INFIX,
    NEG_LEVEL,
    QUANTIFIER_LEVEL,
    Signature,
    TOP,
    Var,
    Variable,
    iff,
    neg,
)

_INFIX = {op.symbol: op for op in INFIX}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
  | (?P<hole>_)
  | (?P<infix>%s)
  | (?P<neg>~)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<turnstile>\|-)
    """ % "|".join(re.escape(op.symbol) for op in INFIX),
    re.VERBOSE,
)

# An `<->` copies both operands, so a chain of n of them expands to about 2^n
# nodes; a biconditional whose expansion would pass this many is rejected.
_MAX_IFF_NODES = 10**6

_KEYWORDS = {"bot", "top", "exists", "forall"}
_CONSTANTS = {"bot": BOT, "top": TOP}


class FormulaSyntaxError(Exception):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {offset}{exp}")


class _Tokens:
    def __init__(self, text: str):
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
            if kind == "infix" or kind == "ident" and value in _KEYWORDS:
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

    def end(self) -> None:
        tok = self.peek()
        if tok[0] != "eof":
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], ("eof",))


class Parser:
    """Parser over a fixed connective signature (empty by default); `_`
    parses as the variable `hole`, where one is given."""

    def __init__(self, signature: Signature | None = None, hole: Variable | None = None):
        self.signature = signature or Signature()
        self.hole = hole

    def parse(self, text: str) -> Formula:
        toks = _Tokens(text)
        f = self._formula(toks)
        toks.end()
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
            toks.end()
        return Sequent(tuple(hyps), concl)

    def _formula(self, toks) -> Formula:
        """One expression.  Each pending operator waits on the stack as
        (level, constructor, left operand or bound variable, offset)."""
        pending: list[tuple] = []
        while True:
            tok = toks.next()
            kind = tok[0]
            if kind == "neg":
                pending.append((NEG_LEVEL, neg, None, 0))
                continue
            if kind in ("exists", "forall"):
                v = Variable(toks.expect("ident")[1])
                toks.expect("dot")
                pending.append((QUANTIFIER_LEVEL, Exists if kind == "exists" else Forall, v, 0))
                continue
            f = self._atom(toks, tok)
            op = _INFIX.get(toks.peek()[0])
            # reduce what binds at least as tightly as op; everything at the end
            floor = op.level + op.right if op else QUANTIFIER_LEVEL
            while pending and pending[-1][0] >= floor:
                _level, build, arg, off = pending.pop()
                if build is iff and 3 + 2 * (arg.size + f.size) > _MAX_IFF_NODES:
                    raise FormulaSyntaxError(f"'<->' expands past {_MAX_IFF_NODES} nodes", off)
                f = build(f) if arg is None else build(arg, f)
            if op is None:
                return f
            pending.append((op.level, op.build, f, toks.next()[2]))

    def _atom(self, toks, tok: tuple[str, str, int]) -> Formula:
        """The operand that opens with `tok`, already taken from toks."""
        kind, value, off = tok
        if kind in _CONSTANTS:
            return _CONSTANTS[kind]
        if kind == "hole":
            if self.hole is None:
                raise FormulaSyntaxError("hole '_' not allowed here", off)
            return Var(self.hole)
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


def parse_formula(text: str, signature: Signature | None = None, hole: Variable | None = None) -> Formula:
    return Parser(signature, hole).parse(text)


def parse_sequent(text: str, signature: Signature | None = None):
    return Parser(signature).parse_sequent(text)
