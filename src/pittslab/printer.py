"""Minimal-parenthesis formula printing with abbreviation refolding.

Inverse of the parser up to alpha-equivalence: `parse(print(f)) == f`.
Symbols, levels and associativity come from `syntax.INFIX`, the table the
parser reads.  Refolds `a -> bot` to `~a`, `bot -> bot` to `top`, and
`(a -> b) /\\ (b -> a)` to `a <-> b` for readability.  `_print` dispatches
on each node's exact class, as `kripke.forcing_mask` does, and tests for
`top` and `~` only inside its `Implies` case.
"""
from __future__ import annotations

from .syntax import (
    INFIX,
    NEG_LEVEL,
    QUANTIFIER_LEVEL,
    And,
    App,
    Bottom,
    Exists,
    Formula,
    Implies,
    Var,
    iff,
)

_INFIX = {op.build: op for op in INFIX}  # keyed by node class, and iff


def print_formula(f: Formula) -> str:
    return _print(f, 0)


def _print(f: Formula, limit: int) -> str:
    """f's text, parenthesized if it binds more loosely than `limit`.  The
    node's class is tested by identity: no node class has subclasses."""
    t = type(f)
    if t is Var:
        return f.var.name
    op = _INFIX.get(t)
    if op is not None:
        a, b = f.left, f.right  # type: ignore[attr-defined]
        if t is Implies and type(b) is Bottom:
            # `~` binds tightest, so neither it nor `top` is parenthesized
            return "top" if type(a) is Bottom else "~" + _print(a, NEG_LEVEL)
        if t is And and type(a) is Implies and type(b) is Implies and (
            a.left == b.right and a.right == b.left
        ):
            op, a, b = _INFIX[iff], a.left, a.right
        level = op.level
        s = f"{_print(a, level + op.right)} {op.symbol} {_print(b, level + (not op.right))}"
    elif t is Bottom:
        return "bot"
    elif t is App:
        args = ", ".join(_print(a, 0) for a in f.args)  # type: ignore[attr-defined]
        return f"{f.symbol.name}({args})"  # type: ignore[attr-defined]
    else:  # Exists or Forall
        kw = "exists" if t is Exists else "forall"
        level, s = QUANTIFIER_LEVEL, f"{kw} {f.var.name}. {_print(f.body, QUANTIFIER_LEVEL)}"  # type: ignore[attr-defined]
    return f"({s})" if level < limit else s
