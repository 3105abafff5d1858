"""Operator-precedence parser for the ASCII formula and sequent grammar.

Infix symbols, levels and associativity come from `syntax.INFIX`: /\\,
\\/, -> and <-> from tightest to loosest, the last two to the right; `~`
binds tighter than all of them.  `exists X.` / `forall X.` scope to the end
of the enclosing expression unless parenthesized.  `top` and `~`/`<->` are
sugar for their expansions; the AST never contains them.  The input is
tokenized by one `findall`, whose strings are the tokens: a token outside
`_FIXED` is an identifier when it starts with an ASCII letter and an
unexpected character otherwise, checked by one set difference before any
grammar step.  Tokens carry no offsets; an error, and `parse_prefix`'s end,
find theirs again by a second scan.  One loop over one explicit stack reads
prefixes, operands, parentheses and application arguments, so nothing
recurses and any depth parses.  Atoms are shared: every parse of `P` gives
the same `Var` object while `_leaf` keeps it cached.  The `{X := f, ...}`
bindings and `name {X := f, ...}` schema references of proof scripts and
trees are read here too, and malformed ones raise `MalformedScript`.
"""
from __future__ import annotations

import re
from functools import lru_cache

from .kernel import Sequent
from .syntax import (
    App,
    BOT,
    Exists,
    Forall,
    Formula,
    IDENT,
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

# One token per match: an identifier, `|-`, an infix symbol, or any other
# non-space character alone.
_TOKEN_RE = re.compile(r"%s|\|-|%s|\S" % (IDENT, "|".join(re.escape(op.symbol) for op in INFIX)))
# every token but an identifier, and "" for the end
_FIXED = frozenset({"bot", "top", "exists", "forall", "|-", "_", "~", "(", ")", ",", ".", "", *_INFIX})
_OPEN = -1  # the level of an open group, below every operator's

# An `<->` copies both operands, so a chain of n of them expands to about 2^n
# nodes; a biconditional whose expansion would pass this many is rejected.
_MAX_IFF_NODES = 10**6

_CONSTANTS = {"bot": BOT, "top": TOP}

_BINDINGS_RE = re.compile(r"^\{(.*)\}$", re.S)
# formulas never contain `:=`, so each binding opens the text or follows the
# comma that precedes `NAME :=`
_BINDING_HEAD_RE = re.compile(rf"(?:^|,)\s*({IDENT})\s*:=")


@lru_cache(maxsize=1024)
def _leaf(name: str) -> Var:
    """The atom `name`, one shared object per name while it stays cached."""
    return Var(Variable(name))


class FormulaSyntaxError(Exception):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at offset {offset}{exp}")


class ScriptError(Exception):
    pass


class MalformedScript(ScriptError):
    pass


class _Tokens:
    """The input's tokens as strings, then "" for the end."""

    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _TOKEN_RE.findall(text)
        toks.append("")
        self.i = 0
        stray = [tok for tok in set(toks).difference(_FIXED) if not (tok.isascii() and tok[0].isalpha())]
        if stray:
            i = min(map(toks.index, stray))
            raise FormulaSyntaxError(f"unexpected character {toks[i]!r}", self.offset(i))

    def offset(self, i: int) -> int:
        """Where token i starts, found by a second scan; the end is len(text)."""
        for k, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if k == i:
                return m.start()
        return len(self.text)

    def unexpected(self, i: int, *expected: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(f"unexpected {self.toks[i] or 'end of input'!r}", self.offset(i), expected)

    def peek(self) -> str:
        return self.toks[self.i]

    def expect(self, tok: str, kind: str) -> None:
        if self.toks[self.i] != tok:
            raise self.unexpected(self.i, kind)
        self.i += 1

    def end(self) -> None:
        tok = self.peek()
        if tok:
            raise FormulaSyntaxError(f"trailing input {tok!r}", self.offset(self.i), ("eof",))


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
        return f, toks.offset(toks.i)

    def parse_sequent(self, text: str) -> Sequent:
        toks = _Tokens(text)
        hyps: list[Formula] = []
        if toks.peek() not in ("|-", ""):
            hyps.append(self._formula(toks))
            while toks.peek() == ",":
                toks.i += 1
                hyps.append(self._formula(toks))
        toks.expect("|-", "turnstile")
        if not toks.peek():
            concl: Formula = BOT
        else:
            concl = self._formula(toks)
            toks.end()
        return Sequent(tuple(hyps), concl)

    def bindings(self, text: str) -> dict[Variable, Formula]:
        """`{X := f, ...}`; each right-hand side is parsed on its own."""
        m = _BINDINGS_RE.match(text.strip())
        if not m:
            raise MalformedScript(f"expected {{X := ...}} bindings, got {text!r}")
        inner = m.group(1).strip()
        if not inner:
            return {}
        head, *pairs = _BINDING_HEAD_RE.split(inner)
        if head:
            raise MalformedScript(f"bad binding {inner!r}")
        return {
            Variable(name): self.parse(rhs.strip()) for name, rhs in zip(pairs[::2], pairs[1::2])
        }

    def schema_reference(self, text: str) -> tuple[str, dict[Variable, Formula]]:
        """`name {X := f, ...}`, or a bare `name` for no bindings."""
        name, _, brace = text.partition(" ")
        return name, self.bindings(brace or "{}")

    def _formula(self, toks: _Tokens) -> Formula:
        """One expression from `toks.i`, read by one loop over one explicit
        stack and a local index, written back on return.  A pending operator
        waits as (level, constructor, left operand or bound variable, token
        index); an open `(` or `name(` waits as (_OPEN, symbol or None, the
        arguments read so far, 0), and no reduction passes it."""
        tl, i = toks.toks, toks.i
        pending: list[tuple] = []
        while True:
            tok = tl[i]
            i += 1
            if tok == "~":
                pending.append((NEG_LEVEL, neg, None, 0))
                continue
            if tok == "(":
                pending.append((_OPEN, None, None, 0))
                continue
            if tok not in _FIXED:  # an identifier, as `_Tokens` checked
                if tl[i] != "(":
                    f = _leaf(tok)
                else:
                    sym = self.signature.get(tok)
                    if sym is None:
                        raise FormulaSyntaxError(f"unknown connective {tok!r}", toks.offset(i - 1))
                    i += 1
                    if sym.arity or tl[i] != ")":
                        pending.append((_OPEN, sym, [], 0))
                        continue
                    i += 1  # `name()`, a nullary connective
                    f = App(sym, ())
            elif tok in _CONSTANTS:
                f = _CONSTANTS[tok]
            elif tok == "exists" or tok == "forall":
                if tl[i] in _FIXED:
                    raise toks.unexpected(i, "ident")
                if tl[i + 1] != ".":
                    raise toks.unexpected(i + 1, "dot")
                v, i = Variable(tl[i]), i + 2
                pending.append((QUANTIFIER_LEVEL, Exists if tok == "exists" else Forall, v, 0))
                continue
            elif tok == "_":
                if self.hole is None:
                    raise FormulaSyntaxError("hole '_' not allowed here", toks.offset(i - 1))
                f = _leaf(self.hole.name)
            else:
                raise toks.unexpected(i - 1, "ident", "bot", "top", "~", "(", "exists", "forall")
            # f is an operand: reduce, then go on to the next operand, close
            # an open group, or end
            while True:
                tok = tl[i]
                op = _INFIX.get(tok)
                # reduce what binds at least as tightly as op; everything at the end
                floor = op.level + op.right if op else QUANTIFIER_LEVEL
                while pending and pending[-1][0] >= floor:
                    _level, build, arg, at = pending.pop()
                    if build is iff and 3 + 2 * (arg.size + f.size) > _MAX_IFF_NODES:
                        raise FormulaSyntaxError(f"'<->' expands past {_MAX_IFF_NODES} nodes", toks.offset(at))
                    f = build(f) if arg is None else build(arg, f)
                if op is not None:
                    pending.append((op.level, op.build, f, i))
                    i += 1
                    break
                if not pending:
                    toks.i = i
                    return f
                _, sym, args, _ = pending[-1]
                if sym is not None and tok == ",":
                    i += 1
                    args.append(f)
                    break
                if tok != ")":
                    raise toks.unexpected(i, "rpar")
                i += 1
                pending.pop()
                if sym is not None:
                    f = App(sym, (*args, f))


def parse_formula(text: str, signature: Signature | None = None, hole: Variable | None = None) -> Formula:
    return Parser(signature, hole).parse(text)


def parse_sequent(text: str, signature: Signature | None = None):
    return Parser(signature).parse_sequent(text)
