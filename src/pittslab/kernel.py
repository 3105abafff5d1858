"""The certificate checker: sequent-calculus proof trees and Kripke countermodels.

Rules: ax, cut, wL, cL, wR, orL, orR1, orR2, andR, andL1, andL2, impL,
impR, botL, allL, allR, exR, exL, plus `schema` and `congruence`, which are
admitted only when a SchemaTheory is in force.  `Sequent` and `ProofTree`
are slotted immutable records, like formulas.  Formulas compare up to
alpha-equivalence, and a sequent's hypothesis multiset is one sorted tuple
of their keys, `Sequent.hyp_keys`, built with the sequent; every multiset
check compares, slices or merges these tuples.

`_fault` checks each rule shape in one place: `check_tree` calls it on each
node in one loop over its own stack, and `check_rule` raises its reason.
The `_PREMISES` table holds every premise count, and `_SAME_GOAL` and
`_RIGHT` the conclusion checks that rules share.  `_principals` is the one
matcher of a left rule's principal hypothesis and the rest of its context,
and `_one_extra` finds the one key by which two contexts differ.  The
quantifier rules share two definitions: a formula is an instance of
`Qx. body` at T when `substitute(body, {x: T})` equals it (`_instance`),
and the eigenvariable of allR and exL occurs free nowhere in the
conclusion (`_eigen`).

`KripkeModel.refutes` checks a refuted sequent's countermodel by the
definition of forcing.  Nothing here builds or searches: the tree builders
are in `prover` and the countermodel sweep in `kripke`.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

from .syntax import (
    And,
    App,
    BOT,
    Bottom,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Immutable,
    Implies,
    Or,
    Signature,
    UnsupportedFormula,
    Var,
    Variable,
    iff,
    substitute,
)

RULES = (
    "ax", "cut", "wL", "cL", "wR",
    "orL", "orR1", "orR2", "andR", "andL1", "andL2",
    "impL", "impR", "botL",
    "allL", "allR", "exR", "exL",
    "schema", "congruence",
)
_KNOWN = frozenset(RULES)


class KernelError(Exception):
    pass


class MalformedRule(KernelError):
    def __init__(self, path, message):
        self.path = tuple(path)
        super().__init__(f"at node {list(self.path)}: {message}")


class SideConditionViolated(KernelError):
    def __init__(self, variable, path, message):
        self.variable = variable
        self.path = tuple(path)
        super().__init__(f"at node {list(self.path)}: {message}")


_key, _conclusion = attrgetter("key"), attrgetter("conclusion")


class Sequent(Immutable):
    __slots__ = ("hyps", "concl", "hyp_keys")

    def __init__(self, hyps, concl: Formula):
        hyps = tuple(hyps)
        _set_hyps(self, hyps)
        _set_concl(self, concl)
        _set_hyp_keys(self, tuple(sorted(map(_key, hyps))))  # the multiset: sorted keys

    def hyp(self, key: str) -> Formula:
        """The first hypothesis with this key."""
        return next(h for h in self.hyps if h.key == key)

    def __eq__(self, other):
        if not isinstance(other, Sequent):
            return NotImplemented
        return self.concl == other.concl and self.hyp_keys == other.hyp_keys

    def free_vars(self) -> frozenset[Variable]:
        out = self.concl.free_vars
        for h in self.hyps:
            out |= h.free_vars
        return out

    def substitute(self, bindings: dict[Variable, Formula]) -> "Sequent":
        """Simultaneous substitution into every hypothesis and the conclusion."""
        return Sequent(
            tuple(substitute(h, bindings) for h in self.hyps), substitute(self.concl, bindings)
        )

    def text(self) -> str:
        """`hyps |- concl`."""
        left = ", ".join(map(str, self.hyps))
        return f"{left} |- {self.concl}" if left else f"|- {self.concl}"

    __str__ = text

    def __repr__(self):
        return f"<Sequent {self}>"


@dataclass
class SchemaTheory:
    """Uninterpreted connectives plus quantifier-free axiom-sequent schemas.

    Every variable occurring in a schema template is a metavariable.
    """

    name: str = ""
    signature: Signature = field(default_factory=Signature)
    schemas: dict[str, Sequent] = field(default_factory=dict)

    def __post_init__(self):
        for label, template in self.schemas.items():
            _require_quantifier_free(label, template)

    def add_schema(self, label: str, template: Sequent):
        _require_quantifier_free(label, template)
        self.schemas[label] = template

    def instantiate(self, label: str, bindings: dict[Variable, Formula]) -> Sequent:
        return self.schemas[label].substitute(bindings)

    def extends(self, other: "SchemaTheory") -> bool:
        return other.signature <= self.signature and all(
            self.schemas.get(k) == v for k, v in other.schemas.items()
        )


def _require_quantifier_free(label: str, template: Sequent) -> None:
    if any(f.has_quantifier for f in template.hyps + (template.concl,)):
        raise FormulaError(f"axiom schema {label} is not quantifier-free")


EMPTY_THEORY = SchemaTheory(name="ipc")


class ProofTree(Immutable):
    __slots__ = ("rule", "conclusion", "premises", "data")

    def __init__(self, rule: str, conclusion: Sequent, premises=(), data=None):
        if rule not in _KNOWN:
            raise KernelError(f"unknown rule {rule!r}")
        _set_rule(self, rule)
        _set_conclusion(self, conclusion)
        _set_premises(self, tuple(premises))
        _set_data(self, data)

    def nodes(self):
        """Every node, preorder."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(reversed(node.premises))


# The slot setters that the constructors above write through.
_set_hyps, _set_concl, _set_hyp_keys, _set_rule, _set_conclusion, _set_premises, _set_data = (
    d.__set__ for d in (Sequent.hyps, Sequent.concl, Sequent.hyp_keys,
                        ProofTree.rule, ProofTree.conclusion, ProofTree.premises, ProofTree.data))


@dataclass
class CheckReport:
    ok: bool
    kind: str | None = None
    path: tuple[int, ...] = ()
    message: str = ""

    def __bool__(self):
        return self.ok


# Premises each rule takes.  Congruence takes one per argument of its
# symbol, checked once its theory and conclusion are known to be sound; schema
# checks its own after its theory and data.
_PREMISES = {
    "ax": 0, "botL": 0,
    "wL": 1, "cL": 1, "wR": 1, "orR1": 1, "orR2": 1, "andL1": 1, "andL2": 1,
    "impR": 1, "allL": 1, "allR": 1, "exR": 1, "exL": 1,
    "cut": 2, "orL": 2, "andR": 2, "impL": 2,
}
# Rules whose one premise concludes the conclusion's formula.
_SAME_GOAL = frozenset(("wL", "cL", "andL1", "andL2", "allL", "exL"))
# Right rules: the connective of their conclusion's formula.
_RIGHT = {
    "orR1": (Or, "a disjunction"), "orR2": (Or, "a disjunction"),
    "andR": (And, "a conjunction"), "impR": (Implies, "an implication"),
    "allR": (Forall, "universally quantified"), "exR": (Exists, "existentially quantified"),
}


def check_rule(rule: str, concl: Sequent, premises: tuple[Sequent, ...], data=None,
               theory: SchemaTheory | None = None, path=()) -> None:
    """Verify one rule instance; raise MalformedRule / SideConditionViolated."""
    reason = _fault(rule, concl, premises, data, theory, path)
    if reason is not None:
        raise MalformedRule(path, f"{rule}: {reason}")


def _fault(rule, concl, premises, data, theory, path) -> str | None:
    """Why the instance is malformed, or None when it is sound."""
    goal = concl.concl
    count = _PREMISES.get(rule)
    if rule == "congruence":
        if theory is None:
            return "congruence rule outside any theory"
        if not isinstance(goal, App):
            return "conclusion must be an uninterpreted application"
        if theory.signature.get(goal.symbol.name) != goal.symbol:
            return f"symbol {goal.symbol.name} not in the theory signature"
        count = goal.symbol.arity
    if count is not None and len(premises) != count:
        return f"expected {count} premises, got {len(premises)}"
    if rule in _SAME_GOAL and premises[0].concl != goal:
        return "conclusion formula mismatch"
    right = _RIGHT.get(rule)
    if right is not None and not isinstance(goal, right[0]):
        return f"conclusion must be {right[1]}"

    if rule == "wL":
        if _one_extra(concl.hyp_keys, premises[0].hyp_keys) is None:
            return "conclusion must add exactly one hypothesis"
    elif rule == "ax":
        if len(concl.hyps) != 1 or concl.hyps[0] != goal:
            return "conclusion must be phi |- phi"
    elif rule == "cL":
        keys = concl.hyp_keys
        extra = _one_extra(premises[0].hyp_keys, keys)
        if extra is None:
            return "premise must have exactly one extra copy"
        if extra not in keys:
            return "contracted formula must remain present"
    elif rule == "impR":
        s = premises[0]
        if s.concl != goal.right:
            return "premise must conclude the consequent"
        if _one_extra(s.hyp_keys, concl.hyp_keys) != goal.left.key:
            return "premise must add the antecedent as a hypothesis"
    elif rule in ("andL1", "andL2"):
        keys = premises[0].hyp_keys
        for principal, rest in _principals(concl, And):
            if _one_extra(keys, rest) == (principal.left if rule == "andL1" else principal.right).key:
                return None
        return "no conjunction hypothesis matches the premise"
    elif rule == "botL":
        if len(concl.hyps) != 1 or not isinstance(concl.hyps[0], Bottom):
            return "conclusion must be bot |- phi"
    elif rule == "impL":
        s1, s2 = premises
        if s2.concl != goal:
            return "second premise must conclude the goal"
        for principal, rest in _principals(concl, Implies):
            if (principal.left == s1.concl
                    and merge_keys(s1.hyp_keys, s2.hyp_keys, principal.right.key) == rest):
                return None
        return "no implication hypothesis matches the premises"
    elif rule == "orL":
        s1, s2 = premises
        if s1.concl != goal or s2.concl != goal:
            return "premise conclusions must match"
        for principal, rest in _principals(concl, Or):
            if (_one_extra(s1.hyp_keys, rest) == principal.left.key
                    and _one_extra(s2.hyp_keys, rest) == principal.right.key):
                return None
        return "no disjunction hypothesis matches the premises"
    elif rule in ("orR1", "orR2"):
        s = premises[0]
        part = goal.left if rule == "orR1" else goal.right
        if s.concl != part or s.hyp_keys != concl.hyp_keys:
            return "premise must prove the chosen disjunct in the same context"
    elif rule == "cut":
        s1, s2 = premises
        phi = data if isinstance(data, Formula) else s1.concl
        if s1.concl != phi:
            return "first premise must conclude the cut formula"
        merged = merge_keys(s1.hyp_keys, s2.hyp_keys, phi.key)
        if merged is None:
            return "cut formula missing from second premise hypotheses"
        if goal != s2.concl:
            return "conclusion formula mismatch"
        if merged != concl.hyp_keys:
            return "hypotheses are not the merge of the premises"
    elif rule == "andR":
        s1, s2 = premises
        if s1.concl != goal.left or s2.concl != goal.right:
            return "premises must prove the two conjuncts"
        if s1.hyp_keys != concl.hyp_keys or s2.hyp_keys != concl.hyp_keys:
            return "premises must share the conclusion context"
    elif rule in ("wR", "allR", "exR"):
        s = premises[0]
        if rule == "wR" and not isinstance(s.concl, Bottom):
            return "premise must have empty (bot) right side"
        if s.hyp_keys != concl.hyp_keys:
            return "hypotheses must match"
        if rule == "allR" and not _eigen(rule, goal, s.concl, data, concl, path):
            return "premise does not match the quantified body"
        if rule == "exR" and _instance(goal, s.concl, data) is None:
            return ("premise is not the declared witness instance" if isinstance(data, Formula)
                    else "premise does not instantiate the quantified body")
    elif rule == "allL":
        s = premises[0]
        for principal, rest in _principals(concl, Forall):
            extra = _one_extra(s.hyp_keys, rest)
            if extra is not None and _instance(principal, s.hyp(extra), data) is not None:
                return None
        return "no universal hypothesis matches the premise"
    elif rule == "exL":
        s = premises[0]
        for principal, rest in _principals(concl, Exists):
            extra = _one_extra(s.hyp_keys, rest)
            if extra is not None and _eigen(rule, principal, s.hyp(extra), data, concl, path):
                return None
        return "no existential hypothesis matches the premise"
    elif rule == "schema":
        if theory is None:
            return "schema rule outside any theory"
        if not isinstance(data, tuple) or len(data) != 2:
            return "schema rule needs (name, bindings) data"
        label, bindings = data
        if label not in theory.schemas:
            return f"unknown axiom schema {label!r}"
        if premises:
            return "axiom schema takes no premises"
        inst = theory.instantiate(label, bindings)
        if goal != inst.concl or _excess(concl.hyp_keys, inst.hyp_keys) is None:
            return f"conclusion is not an instance of schema {label!r} (up to weakening)"
    elif rule == "congruence":
        for principal, rest in _principals(concl, App):
            if principal.symbol == goal.symbol and all(
                prem.hyp_keys == rest and prem.concl == iff(a, b)
                for prem, a, b in zip(premises, principal.args, goal.args)
            ):
                return None
        return "no application hypothesis matches the congruence premises"
    else:
        return "unhandled rule"
    return None


def _principals(concl: Sequent, kind):
    """Each distinct `kind` hypothesis (its first copy), and the keys less one copy of it."""
    distinct = {h.key: h for h in reversed(concl.hyps) if isinstance(h, kind)}
    return ((h, _less(concl.hyp_keys, key)) for key, h in distinct.items())


def _less(keys: tuple[str, ...], key: str) -> tuple[str, ...] | None:
    """Sorted `keys` less one copy of `key`, or None when they hold none."""
    i = bisect_left(keys, key)
    if i == len(keys) or keys[i] != key:
        return None
    return keys[:i] + keys[i + 1:]


def _excess(big: tuple[str, ...], small: tuple[str, ...]) -> tuple[str, ...] | None:
    """Sorted `big` less sorted `small`, or None when `small` is not a sub-multiset."""
    for key in small:
        if (big := _less(big, key)) is None:
            break
    return big


def _one_extra(big: tuple[str, ...], small: tuple[str, ...]) -> str | None:
    """The one key sorted `big` holds beyond sorted `small`, or None if they differ otherwise."""
    if len(big) != len(small) + 1:
        return None
    for i, key in enumerate(small):
        if big[i] != key:
            return big[i] if big[i + 1:] == small[i:] else None
    return big[-1]


def merge_keys(first: tuple[str, ...], second: tuple[str, ...], key: str) -> tuple[str, ...] | None:
    """The hypothesis keys of a cut or impL conclusion: `first` and `second`
    less one copy of `key`, sorted; None when `second` holds no copy."""
    rest = _less(second, key)
    return None if rest is None else tuple(sorted(first + rest))


def _instance(quantified, instance: Formula, data) -> Formula | None:
    """The T for which `instance` is the body of `quantified` with T for its
    variable, or None.  T is the witness `data` when a formula is declared,
    else the subformula of `instance` at the body's first free occurrence of
    the variable (bot when there is none); either way it must pass the one
    test that substituting it into the body gives `instance`.
    """
    body, x = quantified.body, quantified.var
    t = data if isinstance(data, Formula) else _at_first(body, x, instance)
    return t if t is not None and substitute(body, {x: t}) == instance else None


def _at_first(body: Formula, x: Variable, instance: Formula) -> Formula | None:
    """The subformula of `instance` where `body` has its first free `x`: bot
    when `body` has none, None when the two part in shape on the way."""
    if x not in body.free_vars:
        return BOT
    while not isinstance(body, Var):
        kids = instance.children()
        if type(instance) is not type(body) or len(kids) != len(body.children()):
            return None
        i, body = next((i, c) for i, c in enumerate(body.children()) if x in c.free_vars)
        instance = kids[i]
    return instance


def _eigen(rule, quantified, instance: Formula, data, concl: Sequent, path) -> bool:
    """Whether `instance` is the body of an allR/exL `quantified` formula at
    its eigenvariable (the variable `data`, when one is declared).

    A vacuous binder is alpha-renamable to anything fresh, so it matches its
    body with no side condition; otherwise the eigenvariable must not occur
    free in the conclusion `concl`, its principal formula included.
    """
    if quantified.var not in quantified.body.free_vars:
        return quantified.body == instance
    t = _instance(quantified, instance, Var(data) if isinstance(data, Variable) else None)
    if not isinstance(t, Var):
        return False
    if t.var in concl.free_vars():
        raise SideConditionViolated(t.var, path, f"{rule}: {t.var} occurs free in the context")
    return True


def check_tree(tree: ProofTree, theory: SchemaTheory | None = None) -> CheckReport:
    """Accept iff every node matches its rule template and side conditions
    hold; a rejection reports the first failing node in preorder."""
    todo = [tree]
    while todo:
        node = todo.pop()
        try:
            if _fault(node.rule, node.conclusion, tuple(map(_conclusion, node.premises)),
                      node.data, theory, ()) is not None:
                break
        except KernelError:
            break
        todo += node.premises[::-1]
    else:
        return CheckReport(True)
    todo = [(tree, ())]  # only a rejection builds paths: walk again to the failing node
    while todo[-1][0] is not node:
        at, path = todo.pop()
        todo.extend((at.premises[i], path + (i,)) for i in reversed(range(len(at.premises))))
    path = todo[-1][1]
    try:
        check_rule(node.rule, node.conclusion, tuple([p.conclusion for p in node.premises]),
                   node.data, theory, path)
    except SideConditionViolated as e:
        return CheckReport(False, "SideConditionViolated", path, str(e))
    except KernelError as e:
        return CheckReport(False, "MalformedRule", path, str(e))
    raise AssertionError("a rejected rule instance passed when checked again")


def is_cut_free(tree: ProofTree) -> bool:
    return all(n.rule != "cut" for n in tree.nodes())


@dataclass(frozen=True)
class KripkeModel:
    """Finite poset of worlds with a monotone atomic valuation."""

    worlds: tuple
    order: frozenset  # reflexive-transitive pairs (u, v) meaning u <= v
    valuation: tuple  # tuple of (world, frozenset of atom names)
    # read once: each world's index, the mask of the worlds above each world
    # (itself included), and the mask of the worlds forcing each atom
    _frame: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {w: i for i, w in enumerate(self.worlds)}
        if len(index) != len(self.worlds):
            raise ValueError("worlds must be distinct")
        if not all(a in index and b in index for a, b in self.order):
            raise ValueError("order must relate worlds of the model")
        valued = [w for w, _ in self.valuation]
        if len(set(valued)) != len(valued):
            raise ValueError("a world must be valued at most once")
        if not all(w in index for w in valued):
            raise ValueError("valuation must value worlds of the model")
        up = [0] * len(index)
        for a, b in self.order:
            up[index[a]] |= 1 << index[b]
        if not all(u >> i & 1 for i, u in enumerate(up)):
            raise ValueError("order must be reflexive")
        for a, b in self.order:
            i, j = index[a], index[b]
            if i != j and up[j] >> i & 1:
                raise ValueError("order must be antisymmetric")
            if up[j] & ~up[i]:
                raise ValueError("order must be transitive")
        atoms: dict[str, int] = {}
        for w, names in self.valuation:
            for name in names:
                atoms[name] = atoms.get(name, 0) | 1 << index[w]
        for w, names in self.valuation:
            if any(up[index[w]] & ~atoms[name] for name in names):
                raise ValueError("valuation must be persistent along the order")
        object.__setattr__(self, "_frame", (index, up, atoms))

    def forces(self, w, f: Formula) -> bool:
        return bool(self._forced((f,))[f.key] >> self._frame[0][w] & 1)

    def refutes(self, w, s: Sequent) -> bool:
        forced = self._forced((*s.hyps, s.concl))
        bit = 1 << self._frame[0][w]
        return all(forced[h.key] & bit for h in s.hyps) and not forced[s.concl.key] & bit

    def _forced(self, fs) -> dict[str, int]:
        """The worlds forcing each subformula of `fs`, by key, as a mask with
        bit i for world `worlds[i]`, by the definition: each distinct
        subformula once, children first, over an explicit stack."""
        _, up, atoms = self._frame
        # A connective is pushed again below a None marker, under its
        # operands; popping the marker combines the last two masks of `done`.
        out: dict[str, int] = {}
        todo: list = list(fs)
        done: list[int] = []
        while todo:
            f = todo.pop()
            if f is None:
                f, b, a = todo.pop(), done.pop(), done.pop()
                op = type(f)
                # an implication holds at a world iff each world above it
                # forcing the antecedent forces the consequent
                m = out[f.key] = (a & b if op is And else a | b if op is Or else
                                  sum(1 << i for i, u in enumerate(up) if not u & a & ~b))
            elif f.key in out:
                m = out[f.key]
            elif type(f) is Var:
                m = out[f.key] = atoms.get(f.var.name, 0)
            elif type(f) is Bottom:
                m = out[f.key] = 0
            elif type(f) in (And, Or, Implies):
                todo += (f, None, f.right, f.left)
                continue
            else:
                raise UnsupportedFormula(f"cannot evaluate {f}")
            done.append(m)
        return out
