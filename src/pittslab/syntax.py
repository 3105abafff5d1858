"""Formula syntax: AST nodes, variable bookkeeping, capture-avoiding substitution.

Formulas are immutable. Equality and hashing go through a canonical key in
which bound variables are replaced by binder indices, so ``==`` is
alpha-equivalence throughout the package.  A node's key, size,
has_quantifier and has_app are derived once, at construction, from its
children's: connective and application keys are composed from the
children's keys, and a quantifier's key is its body's key with the binder
indices renumbered, so no key is computed by recursion.  Free variables are
computed on first use.  `INFIX` is the surface notation that the parser and
the printer share.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, ClassVar

# The identifier grammar, for variables and connective symbols; the parser's
# tokenizer is built from the same pattern.
IDENT = r"[A-Za-z][A-Za-z0-9_']*"
_IDENT_RE = re.compile(IDENT + r"\Z")


class FormulaError(Exception):
    """Malformed formula or misuse of the syntax layer."""


class UnsupportedFormula(FormulaError):
    """A quantifier or uninterpreted application where none is allowed."""


@dataclass(frozen=True, order=True)
class Variable:
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise FormulaError(f"bad variable name: {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ConnectiveSymbol:
    """Uninterpreted connective symbol with a fixed arity."""

    name: str
    arity: int

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise FormulaError(f"bad connective name: {self.name!r}")
        if self.arity < 0:
            raise FormulaError("negative arity")


class Signature:
    """Set of uninterpreted connective symbols usable in a parse or a theory."""

    def __init__(self, symbols: list[ConnectiveSymbol] | None = None):
        self.symbols: dict[str, ConnectiveSymbol] = {}
        for sym in symbols or []:
            self.add(sym)

    def add(self, sym: ConnectiveSymbol):
        old = self.symbols.get(sym.name)
        if old is not None and old.arity != sym.arity:
            raise FormulaError(f"conflicting arity for {sym.name}")
        self.symbols[sym.name] = sym

    def get(self, name: str) -> ConnectiveSymbol | None:
        return self.symbols.get(name)

    def __le__(self, other: "Signature") -> bool:
        return all(other.get(s.name) == s for s in self.symbols.values())


class Formula:
    """Base class; concrete nodes are Var, Bottom, And, Or, Implies, Exists, Forall, App.

    A node is built after its children, so its key, size, has_quantifier and
    has_app are derived once, at construction, from the children's values.
    """

    key: str  # canonical serialization; equal keys mean alpha-equivalent formulas
    size: int  # number of AST nodes
    has_quantifier: bool
    has_app: bool

    def _derive(self, key: str, quantifier: bool = False, app: bool = False) -> None:
        size = 1
        for c in self.children():
            size += c.size
            quantifier = quantifier or c.has_quantifier
            app = app or c.has_app
        # past the frozen dataclass's __setattr__; writing through
        # self.__dict__ instead would give every node a dict object of its own
        set_ = object.__setattr__
        set_(self, "key", key)
        set_(self, "size", size)
        set_(self, "has_quantifier", quantifier)
        set_(self, "has_app", app)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @property
    def free_vars(self) -> frozenset[Variable]:
        free = getattr(self, "_free", None)
        if free is not None:
            return free
        # Fill the nodes not yet computed, children first, over an explicit
        # stack, so a deep formula needs no recursion.
        stack = [self]
        while stack:
            g = stack[-1]
            pending = [c for c in g.children() if getattr(c, "_free", None) is None]
            if pending:
                stack += pending
            else:
                stack.pop()
                object.__setattr__(g, "_free", g._free_vars())
        return self._free  # type: ignore[attr-defined]

    def _free_vars(self) -> frozenset[Variable]:
        """From the children's computed `_free`."""
        out: frozenset[Variable] = frozenset()
        for c in self.children():
            out |= c._free  # type: ignore[attr-defined]
        return out

    def children(self) -> tuple["Formula", ...]:
        return ()

    def bound_vars(self) -> frozenset[Variable]:
        return frozenset(g.var for g in subformulas(self) if isinstance(g, _Binder))

    def __str__(self):
        from .printer import print_formula

        return print_formula(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    var: Variable

    def __post_init__(self):
        self._derive(f"v{self.var.name}")

    def _free_vars(self):
        return frozenset({self.var})


@dataclass(frozen=True, eq=False, repr=False)
class Bottom(Formula):
    def __post_init__(self):
        self._derive("F")


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(Formula):
    left: Formula
    right: Formula

    tag: ClassVar[str]

    def __post_init__(self):
        self._derive(f"{self.tag}({self.left.key},{self.right.key})")

    @classmethod
    def key_of(cls, left_key: str, right_key: str) -> str:
        """The key `cls(left, right)` gets, from its operands' keys, without
        building the formula.  `__post_init__` spells the same format out
        rather than calling this, since every prover path builds formulas."""
        return f"{cls.tag}({left_key},{right_key})"

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class And(_Binary):
    tag = "&"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Binary):
    tag = "|"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Binary):
    tag = ">"


# In a key, the tokens that stand for variables: binder indices `#i` and free
# variables `vNAME`.  Tokens are the runs between parentheses and commas, and
# no other token starts with `#` or `v`.
_VAR_TOKEN = re.compile(r"(?<![^(,])[#v][^(),]*")


@dataclass(frozen=True, eq=False, repr=False)
class _Binder(Formula):
    var: Variable
    body: Formula

    tag: ClassVar[str]

    def __post_init__(self):
        # The body's key read under this binder: the body's free occurrences
        # of var take index 0 and every binder inside moves one index up.
        free = f"v{self.var.name}"

        def renumber(m: re.Match) -> str:
            token = m.group()
            if token[0] == "#":
                return f"#{int(token[1:]) + 1}"
            return "#0" if token == free else token

        self._derive(f"{self.tag}({_VAR_TOKEN.sub(renumber, self.body.key)})", quantifier=True)

    def children(self):
        return (self.body,)

    def _free_vars(self):
        return self.body._free - {self.var}  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False, repr=False)
class Exists(_Binder):
    tag = "E"


@dataclass(frozen=True, eq=False, repr=False)
class Forall(_Binder):
    tag = "A"


@dataclass(frozen=True, eq=False, repr=False)
class App(Formula):
    symbol: ConnectiveSymbol
    args: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.symbol.arity:
            raise FormulaError(
                f"{self.symbol.name} expects {self.symbol.arity} arguments, got {len(self.args)}"
            )
        inner = ",".join(a.key for a in self.args)
        self._derive(f"@{self.symbol.name}/{self.symbol.arity}({inner})", app=True)

    def children(self):
        return self.args


# Abbreviations.  Negation, biconditional and verum are derived forms, never
# AST constructors.

BOT = Bottom()
TOP = Implies(BOT, BOT)


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


def iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


# Surface notation, read by both the parser and the printer.  A higher level
# binds tighter.  A quantifier's body runs to the end of the enclosing
# expression, so quantifiers sit below every infix connective, and `~` above.

QUANTIFIER_LEVEL, NEG_LEVEL = 0, 5


@dataclass(frozen=True)
class Infix:
    """An infix connective; its symbol is also its token kind."""

    symbol: str
    level: int
    right: bool  # associates to the right
    build: Callable[[Formula, Formula], Formula]


INFIX = (
    Infix("<->", 1, True, iff),
    Infix("->", 2, True, Implies),
    Infix("\\/", 3, False, Or),
    Infix("/\\", 4, False, And),
)


def require_plain(*fs: Formula) -> None:
    """Reject quantifiers and uninterpreted connectives, first offender first."""
    for f in fs:
        if f.has_quantifier:
            raise UnsupportedFormula(f"quantifier in {f}")
        if f.has_app:
            raise UnsupportedFormula(f"uninterpreted connective in {f}")


def is_top(f: Formula) -> bool:
    return isinstance(f, Implies) and isinstance(f.left, Bottom) and isinstance(f.right, Bottom)


def var(name: str) -> Var:
    return Var(Variable(name))


def fresh_variable(base: Variable, avoid: frozenset[Variable] | set[Variable]) -> Variable:
    """Append primes to `base` until the name avoids `avoid` (deterministic)."""
    cand = base
    while cand in avoid:
        cand = Variable(cand.name + "'")
    return cand


def substitute(base: Formula, bindings: dict[Variable, Formula]) -> Formula:
    """Simultaneous capture-avoiding substitution of formulas for free variables."""
    if not bindings:
        return base
    return _subst(base, bindings)


def _subst(f: Formula, bindings: dict[Variable, Formula]) -> Formula:
    if isinstance(f, Var):
        return bindings.get(f.var, f)
    if isinstance(f, Bottom):
        return f
    if isinstance(f, _Binary):
        left, right = _subst(f.left, bindings), _subst(f.right, bindings)
        if left is f.left and right is f.right:
            return f
        return type(f)(left, right)
    if isinstance(f, _Binder):
        live = {v: g for v, g in bindings.items() if v != f.var and v in f.body.free_vars}
        if not live:
            return f
        binder = f.var
        body = f.body
        captured = frozenset().union(*(g.free_vars for g in live.values()))
        if binder in captured:
            avoid = captured | body.free_vars | frozenset(live.keys())
            binder = fresh_variable(f.var, avoid)
            body = _subst(body, {f.var: Var(binder)})
        return type(f)(binder, _subst(body, live))
    if isinstance(f, App):
        args = tuple(_subst(a, bindings) for a in f.args)
        if all(a is b for a, b in zip(args, f.args)):
            return f
        return App(f.symbol, args)
    raise FormulaError(f"unknown node {f!r}")


def subformulas(f: Formula):
    """All subformula occurrences, preorder."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo.extend(reversed(g.children()))
