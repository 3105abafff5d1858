"""Minimal-parenthesis formula printing with abbreviation refolding.

Inverse of the parser up to alpha-equivalence: `parse(print(f)) == f`.
Symbols, levels and associativity come from `syntax.INFIX`, the table the
parser reads.  Refolds `a -> bot` to `~a`, `bot -> bot` to `top`, and
`(a -> b) /\\ (b -> a)` to `a <-> b` for readability.
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
    Forall,
    Formula,
    Implies,
    Var,
    iff,
    is_top,
)

_INFIX = {op.build: op for op in INFIX}  # keyed by node class, and iff


def print_formula(f: Formula) -> str:
    return _print(f, 0)


def _print(f: Formula, limit: int) -> str:
    """f's text, parenthesized if it binds more loosely than `limit`."""
    if is_top(f):
        return "top"
    if isinstance(f, Var):
        return f.var.name
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, App):
        args = ", ".join(_print(a, 0) for a in f.args)
        return f"{f.symbol.name}({args})"
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        level, s = QUANTIFIER_LEVEL, f"{kw} {f.var.name}. {_print(f.body, QUANTIFIER_LEVEL)}"
    elif isinstance(f, Implies) and isinstance(f.right, Bottom):
        level, s = NEG_LEVEL, "~" + _print(f.left, NEG_LEVEL)
    else:
        op, a, b = _INFIX[type(f)], f.left, f.right  # type: ignore[attr-defined]
        if op.build is And and isinstance(a, Implies) and isinstance(b, Implies) and (
            a.left == b.right and a.right == b.left
        ):
            op, a, b = _INFIX[iff], a.left, a.right
        level = op.level
        s = f"{_print(a, level + op.right)} {op.symbol} {_print(b, level + (not op.right))}"
    return f"({s})" if level < limit else s
