"""The benchmark's own logic, independent of the code it checks.

Formulas here are nested tuples: ``("var", name)``, ``("bot",)`` or
``(op, left, right)`` with ``op`` one of ``and``, ``or``, ``imp``.  The
benchmark generates its inputs in this form, renders them as pittslab
syntax, and reads the program's answers back into it, so every verdict is
checked by code that shares nothing with the code that produced it:
truth tables for classical validity and a direct forcing relation for
Kripke countermodels.
"""
from __future__ import annotations

BOT = ("bot",)
_OPS = {"and": "/\\", "or": "\\/", "imp": "->"}


def var(name: str) -> tuple:
    return ("var", name)


def neg(f: tuple) -> tuple:
    return ("imp", f, BOT)


def render(f: tuple) -> str:
    """Fully parenthesised pittslab syntax."""
    if f[0] == "var":
        return f[1]
    if f[0] == "bot":
        return "bot"
    return f"({render(f[1])} {_OPS[f[0]]} {render(f[2])})"


def render_sequent(hyps, concl) -> str:
    return f"{', '.join(render(h) for h in hyps)} |- {render(concl)}".lstrip()


def size(f: tuple) -> int:
    return 1 if len(f) < 3 else 1 + size(f[1]) + size(f[2])


def atoms(f: tuple) -> set:
    if f[0] == "var":
        return {f[1]}
    if f[0] == "bot":
        return set()
    return atoms(f[1]) | atoms(f[2])


def substitute(f: tuple, name: str, by: tuple) -> tuple:
    if f[0] == "var":
        return by if f[1] == name else f
    if f[0] == "bot":
        return f
    return (f[0], substitute(f[1], name, by), substitute(f[2], name, by))


_CLASS_TAGS = {"And": "and", "Or": "or", "Implies": "imp"}


def from_program(f) -> tuple:
    """Read a pittslab formula object into the tuple form.

    Only the public node shape is used: ``Var.var.name``, ``Bottom`` and the
    ``left``/``right`` fields of the binary connectives.
    """
    kind = type(f).__name__
    if kind == "Var":
        return ("var", f.var.name)
    if kind == "Bottom":
        return BOT
    tag = _CLASS_TAGS.get(kind)
    if tag is None:
        raise ValueError(f"unexpected node {kind} in a quantifier-free answer")
    return (tag, from_program(f.left), from_program(f.right))


# ---------------------------------------------------------------------------
# Classical semantics: a formula's truth table over k atoms is a bitmask with
# one bit per valuation.

def truth_mask(f: tuple, names: list[str]) -> int:
    full = (1 << (1 << len(names))) - 1
    masks = {}
    for i, n in enumerate(names):
        m = 0
        for row in range(1 << len(names)):
            if row >> i & 1:
                m |= 1 << row
        masks[n] = m

    def ev(g):
        if g[0] == "var":
            return masks[g[1]]
        if g[0] == "bot":
            return 0
        a, b = ev(g[1]), ev(g[2])
        if g[0] == "and":
            return a & b
        if g[0] == "or":
            return a | b
        return (~a | b) & full

    return ev(f)


def classically_valid(hyps, concl) -> bool:
    names = sorted(set().union(atoms(concl), *(atoms(h) for h in hyps)))
    full = (1 << (1 << len(names))) - 1
    acc = full
    for h in hyps:
        acc &= truth_mask(h, names)
    return acc & ~truth_mask(concl, names) & full == 0


def classically_equivalent(a: tuple, b: tuple) -> bool:
    return classically_valid([a], b) and classically_valid([b], a)


# ---------------------------------------------------------------------------
# Kripke semantics, written out directly from the definition.

class Model:
    """A finite Kripke model given by its worlds, order pairs and valuation."""

    def __init__(self, worlds, order_pairs, valuation: dict):
        self.worlds = list(worlds)
        self.up = {w: {v for (u, v) in order_pairs if u == w} for w in self.worlds}
        self.val = {w: set(valuation.get(w, ())) for w in self.worlds}

    def well_formed(self) -> bool:
        """A partial order (reflexive, antisymmetric, transitive) with a
        valuation that persists upwards."""
        for w in self.worlds:
            if w not in self.up[w]:
                return False
            for v in self.up[w]:
                if v not in self.up or (w in self.up[v] and v != w):
                    return False
                if not self.up[v] <= self.up[w] or not self.val[w] <= self.val[v]:
                    return False
        return True

    def forcing(self, f: tuple) -> set:
        """The worlds that force `f`, evaluated bottom-up without recursion."""
        done: dict[int, set] = {}
        stack = [f]
        while stack:
            g = stack[-1]
            if g[0] == "var":
                done[id(g)] = {w for w in self.worlds if g[1] in self.val[w]}
            elif g[0] == "bot":
                done[id(g)] = set()
            elif id(g[1]) not in done or id(g[2]) not in done:
                stack.extend(c for c in (g[1], g[2]) if id(c) not in done)
                continue
            else:
                a, b = done[id(g[1])], done[id(g[2])]
                if g[0] == "and":
                    done[id(g)] = a & b
                elif g[0] == "or":
                    done[id(g)] = a | b
                else:
                    done[id(g)] = {w for w in self.worlds if all(v not in a or v in b for v in self.up[w])}
            stack.pop()
        return done[id(f)]

    def refutes(self, w, hyps, concl) -> bool:
        return (
            self.well_formed()
            and w in self.up
            and all(w in self.forcing(h) for h in hyps)
            and w not in self.forcing(concl)
        )


def model_from_program(model) -> Model:
    """Read a pittslab ``KripkeModel`` through its public fields."""
    return Model(model.worlds, model.order, dict(model.valuation))


def model_from_json(payload: dict) -> tuple[Model, int]:
    """Read the ``countermodel`` object of ``prove --format json``."""
    val = {int(w): atoms_ for w, atoms_ in payload["valuation"].items()}
    order = [tuple(p) for p in payload["order"]]
    return Model(payload["worlds"], order, val), payload["world"]


def tree_nodes(tree) -> int:
    """Node count of a proof tree, through its ``premises`` field."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count
