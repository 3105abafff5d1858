"""Operator-precedence parser for the ASCII formula and sequent grammar.

Infix symbols, levels and associativity come from `syntax.INFIX`: /\\,
\\/, -> and <-> from tightest to loosest, the last two to the right; `~`
binds tighter than all of them.  `exists X.` / `forall X.` scope to the end
of the enclosing expression unless parenthesized.  `top` and `~`/`<->` are
sugar for their expansions; the AST never contains them.  The input is
tokenized by one `findall`, and one loop over one explicit stack reads
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

# Each match is (whitespace, identifier, other token); a one-character
# `other` that names no kind is an unexpected character.
_TOKEN_RE = re.compile(
    r"(\s*)(?:(%s)|(\|-|%s|\S))" % (IDENT, "|".join(re.escape(op.symbol) for op in INFIX))
)
_KINDS = {
    "bot": "bot", "top": "top", "exists": "exists", "forall": "forall", "|-": "turnstile",
    "_": "hole", "~": "neg", "(": "lpar", ")": "rpar", ",": "comma", ".": "dot",
    **{op.symbol: op.symbol for op in INFIX},
}
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


def _unexpected(tok: tuple[str, str, int], *expected: str) -> FormulaSyntaxError:
    return FormulaSyntaxError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], expected)


class _Tokens:
    """The input's tokens as (kind, text, offset), then ("eof", "", len(text))."""

    def __init__(self, text: str):
        self.toks = toks = []
        pos = 0
        for space, ident, other in _TOKEN_RE.findall(text):
            pos += len(space)
            value = ident or other
            kind = _KINDS.get(value, "ident" if ident else None)
            if kind is None:
                raise FormulaSyntaxError(f"unexpected character {value!r}", pos)
            toks.append((kind, value, pos))
            pos += len(value)
        toks.append(("eof", "", len(text)))
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
            raise _unexpected(tok, kind)
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
        waits as (level, constructor, left operand or bound variable,
        offset); an open `(` or `name(` waits as (_OPEN, symbol or None, the
        arguments read so far, 0), and no reduction passes it."""
        tl, i = toks.toks, toks.i
        pending: list[tuple] = []
        while True:
            kind, value, off = tl[i]
            i += 1
            if kind == "neg":
                pending.append((NEG_LEVEL, neg, None, 0))
                continue
            if kind in ("exists", "forall"):
                for tok, expected in zip(tl[i:i + 2], ("ident", "dot")):
                    if tok[0] != expected:
                        raise _unexpected(tok, expected)
                v, i = Variable(tl[i][1]), i + 2
                pending.append((QUANTIFIER_LEVEL, Exists if kind == "exists" else Forall, v, 0))
                continue
            if kind == "lpar":
                pending.append((_OPEN, None, None, 0))
                continue
            if kind == "ident":
                if tl[i][0] != "lpar":
                    f = _leaf(value)
                else:
                    sym = self.signature.get(value)
                    if sym is None:
                        raise FormulaSyntaxError(f"unknown connective {value!r}", off)
                    i += 1
                    if sym.arity or tl[i][0] != "rpar":
                        pending.append((_OPEN, sym, [], 0))
                        continue
                    i += 1  # `name()`, a nullary connective
                    f = App(sym, ())
            elif kind in _CONSTANTS:
                f = _CONSTANTS[kind]
            elif kind == "hole":
                if self.hole is None:
                    raise FormulaSyntaxError("hole '_' not allowed here", off)
                f = _leaf(self.hole.name)
            else:
                raise _unexpected(tl[i - 1], "ident", "bot", "top", "~", "(", "exists", "forall")
            # f is an operand: reduce, then go on to the next operand, close
            # an open group, or end
            while True:
                kind = tl[i][0]
                op = _INFIX.get(kind)
                # reduce what binds at least as tightly as op; everything at the end
                floor = op.level + op.right if op else QUANTIFIER_LEVEL
                while pending and pending[-1][0] >= floor:
                    _level, build, arg, off = pending.pop()
                    if build is iff and 3 + 2 * (arg.size + f.size) > _MAX_IFF_NODES:
                        raise FormulaSyntaxError(f"'<->' expands past {_MAX_IFF_NODES} nodes", off)
                    f = build(f) if arg is None else build(arg, f)
                if op is not None:
                    pending.append((op.level, op.build, f, tl[i][2]))
                    i += 1
                    break
                if not pending:
                    toks.i = i
                    return f
                _, sym, args, _ = pending[-1]
                if sym is not None and kind == "comma":
                    i += 1
                    args.append(f)
                    break
                if kind != "rpar":
                    raise _unexpected(tl[i], "rpar")
                i += 1
                pending.pop()
                if sym is not None:
                    f = App(sym, (*args, f))


def parse_formula(text: str, signature: Signature | None = None, hole: Variable | None = None) -> Formula:
    return Parser(signature, hole).parse(text)


def parse_sequent(text: str, signature: Signature | None = None):
    return Parser(signature).parse_sequent(text)
