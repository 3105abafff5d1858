"""Formula syntax: AST nodes, variable bookkeeping, capture-avoiding substitution.

Formulas are immutable. Equality and hashing go through a cached canonical
key in which bound variables are replaced by binder indices, so ``==`` is
alpha-equivalence throughout the package.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")


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

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def __iter__(self):
        return iter(sorted(self.symbols.values(), key=lambda s: s.name))

    def __le__(self, other: "Signature") -> bool:
        return all(other.get(s.name) == s for s in self.symbols.values())


class Formula:
    """Base class; concrete nodes are Var, Bottom, And, Or, Implies, Exists, Forall, App."""

    __hash__ = None  # type: ignore[assignment]

    def _cache(self, name, value):
        object.__setattr__(self, name, value)
        return value

    @property
    def key(self) -> str:
        """Canonical serialization; equal keys mean alpha-equivalent formulas."""
        try:
            return self._key  # type: ignore[attr-defined]
        except AttributeError:
            return self._cache("_key", _serialize(self, {}, 0))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):  # type: ignore[misc]
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            return self._cache("_hash", hash(self.key))

    @property
    def size(self) -> int:
        """Number of AST nodes."""
        try:
            return self._size  # type: ignore[attr-defined]
        except AttributeError:
            return self._cache("_size", 1 + sum(c.size for c in self.children()))

    @property
    def free_vars(self) -> frozenset[Variable]:
        try:
            return self._free  # type: ignore[attr-defined]
        except AttributeError:
            return self._cache("_free", self._free_vars())

    @property
    def has_quantifier(self) -> bool:
        try:
            return self._hasq  # type: ignore[attr-defined]
        except AttributeError:
            return self._cache(
                "_hasq",
                isinstance(self, (Exists, Forall)) or any(c.has_quantifier for c in self.children()),
            )

    @property
    def has_app(self) -> bool:
        try:
            return self._hasapp  # type: ignore[attr-defined]
        except AttributeError:
            return self._cache(
                "_hasapp", isinstance(self, App) or any(c.has_app for c in self.children())
            )

    def children(self) -> tuple["Formula", ...]:
        return ()

    def _free_vars(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for c in self.children():
            out |= c.free_vars
        return out

    def bound_vars(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        if isinstance(self, (Exists, Forall)):
            out |= {self.var}
        for c in self.children():
            out |= c.bound_vars()
        return out

    def __str__(self):
        from .printer import print_formula

        return print_formula(self)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    var: Variable

    def _free_vars(self):
        return frozenset({self.var})


@dataclass(frozen=True, eq=False, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Exists(Formula):
    var: Variable
    body: Formula

    def children(self):
        return (self.body,)

    def _free_vars(self):
        return self.body.free_vars - {self.var}


@dataclass(frozen=True, eq=False, repr=False)
class Forall(Formula):
    var: Variable
    body: Formula

    def children(self):
        return (self.body,)

    def _free_vars(self):
        return self.body.free_vars - {self.var}


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

    def children(self):
        return self.args


def _serialize(f: Formula, env: dict[Variable, int], depth: int) -> str:
    if isinstance(f, Var):
        idx = env.get(f.var)
        return f"#{idx}" if idx is not None else f"v{f.var.name}"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, And):
        return f"&({_serialize(f.left, env, depth)},{_serialize(f.right, env, depth)})"
    if isinstance(f, Or):
        return f"|({_serialize(f.left, env, depth)},{_serialize(f.right, env, depth)})"
    if isinstance(f, Implies):
        return f">({_serialize(f.left, env, depth)},{_serialize(f.right, env, depth)})"
    if isinstance(f, (Exists, Forall)):
        tag = "E" if isinstance(f, Exists) else "A"
        inner = dict(env)
        inner[f.var] = depth
        return f"{tag}({_serialize(f.body, inner, depth + 1)})"
    if isinstance(f, App):
        inner = ",".join(_serialize(a, env, depth) for a in f.args)
        return f"@{f.symbol.name}/{f.symbol.arity}({inner})"
    raise FormulaError(f"unknown node {f!r}")


# Abbreviations.  Negation, biconditional and verum are derived forms, never
# AST constructors.

BOT = Bottom()
TOP = Implies(BOT, BOT)


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


def iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


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
    if isinstance(f, (And, Or, Implies)):
        left, right = _subst(f.left, bindings), _subst(f.right, bindings)
        if left is f.left and right is f.right:
            return f
        return type(f)(left, right)
    if isinstance(f, (Exists, Forall)):
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
    yield f
    for c in f.children():
        yield from subformulas(c)
