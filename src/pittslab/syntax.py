"""Formula syntax: AST nodes, variable bookkeeping, capture-avoiding substitution.

Formulas are immutable. Equality and hashing go through a canonical key in
which bound variables are replaced by binder indices, so ``==`` is
alpha-equivalence throughout the package.  A node's key, size,
has_quantifier, has_app and free variables are derived once, at
construction, from its children's: connective and application keys are
composed from the children's keys, and a quantifier's key is its body's key
with the binder indices renumbered, so no key is computed by recursion.
`INFIX` is the surface notation that the parser and the printer share.
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


class Immutable:
    """Base of slotted records whose constructors write each slot once, through
    its setter `Class.slot.__set__`; assigning or deleting one afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class Formula(Immutable):
    """Base class; concrete nodes are Var, Bottom, And, Or, Implies, Exists, Forall, App.

    A node is built after its children, so its constructor sets its key,
    size, has_quantifier, has_app and free_vars once, from the children's.
    Nodes have no `__dict__`, and assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("key", "size", "has_quantifier", "has_app", "free_vars")

    key: str  # canonical serialization; equal keys mean alpha-equivalent formulas
    size: int  # number of AST nodes
    has_quantifier: bool
    has_app: bool
    free_vars: frozenset[Variable]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def children(self) -> tuple["Formula", ...]:
        return ()

    def bound_vars(self) -> frozenset[Variable]:
        return frozenset(g.var for g in subformulas(self) if isinstance(g, _Binder))

    def __str__(self):
        from .printer import print_formula

        return print_formula(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class Var(Formula):
    __slots__ = ("var",)

    def __init__(self, var: Variable):
        _set_var(self, var)
        _set_key(self, f"v{var.name}")
        _set_size(self, 1)
        _set_quantifier(self, False)
        _set_app(self, False)
        _set_free(self, frozenset((var,)))


class Bottom(Formula):
    __slots__ = ()

    def __init__(self):
        _set_key(self, "F")
        _set_size(self, 1)
        _set_quantifier(self, False)
        _set_app(self, False)
        _set_free(self, frozenset())


class _Binary(Formula):
    __slots__ = ("left", "right")

    tag: ClassVar[str]

    def __init__(self, left: Formula, right: Formula):
        # a child's set is reused when it holds the other's
        lf, rf = left.free_vars, right.free_vars
        _set_left(self, left)
        _set_right(self, right)
        _set_key(self, self.key_of(left.key, right.key))
        _set_size(self, left.size + right.size + 1)
        _set_quantifier(self, left.has_quantifier or right.has_quantifier)
        _set_app(self, left.has_app or right.has_app)
        _set_free(self, lf if rf <= lf else rf if lf <= rf else lf | rf)

    @classmethod
    def key_of(cls, left_key: str, right_key: str) -> str:
        """The key `cls(left, right)` gets, from its operands' keys, without
        building the formula."""
        return f"{cls.tag}({left_key},{right_key})"

    def children(self):
        return (self.left, self.right)


class And(_Binary):
    __slots__ = ()
    tag = "&"


class Or(_Binary):
    __slots__ = ()
    tag = "|"


class Implies(_Binary):
    __slots__ = ()
    tag = ">"


# In a key, the tokens that stand for variables: binder indices `#i` and free
# variables `vNAME`.  Tokens are the runs between parentheses and commas, and
# no other token starts with `#` or `v`.
_VAR_TOKEN = re.compile(r"(?<![^(,])[#v][^(),]*")


class _Binder(Formula):
    __slots__ = ("var", "body")

    tag: ClassVar[str]

    def __init__(self, var: Variable, body: Formula):
        # The body's key read under this binder: the body's free occurrences
        # of var take index 0 and every binder inside moves one index up.
        free = f"v{var.name}"

        def renumber(m: re.Match) -> str:
            token = m.group()
            if token[0] == "#":
                return f"#{int(token[1:]) + 1}"
            return "#0" if token == free else token

        _set_bound(self, var)
        _set_body(self, body)
        _set_key(self, f"{self.tag}({_VAR_TOKEN.sub(renumber, body.key)})")
        _set_size(self, body.size + 1)
        _set_quantifier(self, True)
        _set_app(self, body.has_app)
        _set_free(self, body.free_vars - {var})

    def children(self):
        return (self.body,)


class Exists(_Binder):
    __slots__ = ()
    tag = "E"


class Forall(_Binder):
    __slots__ = ()
    tag = "A"


class App(Formula):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: ConnectiveSymbol, args):
        args = tuple(args)
        if len(args) != symbol.arity:
            raise FormulaError(f"{symbol.name} expects {symbol.arity} arguments, got {len(args)}")
        _set_symbol(self, symbol)
        _set_args(self, args)
        _set_key(self, f"@{symbol.name}/{symbol.arity}({','.join(a.key for a in args)})")
        _set_size(self, sum(a.size for a in args) + 1)
        _set_quantifier(self, any(a.has_quantifier for a in args))
        _set_app(self, True)
        _set_free(self, frozenset().union(*(a.free_vars for a in args)))

    def children(self):
        return self.args


# The slot setters that the constructors above write through.
_set_key, _set_size, _set_quantifier, _set_app, _set_free, _set_var, _set_left, _set_right, \
    _set_bound, _set_body, _set_symbol, _set_args = (d.__set__ for d in (
        Formula.key, Formula.size, Formula.has_quantifier, Formula.has_app, Formula.free_vars,
        Var.var, _Binary.left, _Binary.right, _Binder.var, _Binder.body, App.symbol, App.args))


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
