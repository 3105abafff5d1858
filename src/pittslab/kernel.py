"""Sequent-calculus kernel: proof trees as checkable objects.

Rules: ax, cut, wL, cL, wR, orL, orR1, orR2, andR, andL1, andL2, impL,
impR, botL, allL, allR, exR, exL, plus `schema` and `congruence`, which are
admitted only when a SchemaTheory is in force.  Hypotheses are multisets;
formulas compare up to alpha-equivalence.

`check_rule` checks each rule shape in one place.  The `_PREMISES` table
holds every premise count, and `_SAME_GOAL` and `_RIGHT` the conclusion
checks that rules share.  `_principals` is the one matcher of a left rule's
principal hypothesis and the rest of its context, and `_one_extra` finds the
one hypothesis by which two contexts differ.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .syntax import (
    And,
    App,
    BOT,
    Bottom,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Implies,
    Or,
    Signature,
    Var,
    Variable,
    fresh_variable,
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


class VariableClash(KernelError):
    pass


@dataclass(frozen=True, eq=False)
class Sequent:
    hyps: tuple[Formula, ...]
    concl: Formula

    def __post_init__(self):
        object.__setattr__(self, "hyps", tuple(self.hyps))

    @property
    def multiset(self) -> Counter:
        try:
            return self._ms  # type: ignore[attr-defined]
        except AttributeError:
            ms = Counter(self.hyps)
            object.__setattr__(self, "_ms", ms)
            return ms

    def __eq__(self, other):
        if not isinstance(other, Sequent):
            return NotImplemented
        return self.concl == other.concl and self.multiset == other.multiset

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

    def text(self, show=str) -> str:
        """`hyps |- concl`, each formula written by `show`."""
        left = ", ".join(map(show, self.hyps))
        return f"{left} |- {show(self.concl)}" if left else f"|- {show(self.concl)}"

    __str__ = text

    def __repr__(self):
        return f"<Sequent {self}>"


def sequent(hyps, concl) -> Sequent:
    return Sequent(tuple(hyps), concl)


def _contains(ms: Counter, other: Counter) -> bool:
    return all(ms[f] >= n for f, n in other.items())


def _minus(hyps: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    """Remove one occurrence of `f` (alpha-equality)."""
    out = list(hyps)
    for i, h in enumerate(out):
        if h == f:
            del out[i]
            return tuple(out)
    raise KernelError(f"{f} not among hypotheses")


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


@dataclass(frozen=True, eq=False)
class ProofTree:
    rule: str
    conclusion: Sequent
    premises: tuple["ProofTree", ...] = ()
    data: object = None

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        if self.rule not in RULES:
            raise KernelError(f"unknown rule {self.rule!r}")

    def nodes(self):
        """Every node, preorder."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(reversed(node.premises))


@dataclass
class CheckReport:
    ok: bool
    kind: str | None = None
    path: tuple[int, ...] = ()
    message: str = ""

    def __bool__(self):
        return self.ok


def match_single(pattern: Formula, x: Variable, target: Formula) -> Formula | None:
    """Find T with pattern[T/x] == target, or None.  Vacuous matches yield bot."""
    sols: list[Formula] = []

    def go(p: Formula, t: Formula) -> bool:
        if isinstance(p, Var) and p.var == x:
            sols.append(t)
            return True
        if type(p) is not type(t):
            return False
        if isinstance(p, Var):
            return p == t
        if isinstance(p, Bottom):
            return True
        if isinstance(p, (And, Or, Implies)):
            return go(p.left, t.left) and go(p.right, t.right)  # type: ignore[union-attr]
        if isinstance(p, (Exists, Forall)):
            if p.var == x:
                return p == t
            if p.var == t.var:  # type: ignore[union-attr]
                return go(p.body, t.body)  # type: ignore[union-attr]
            common = fresh_variable(p.var, p.body.free_vars | t.body.free_vars | {x})  # type: ignore[union-attr]
            return go(
                substitute(p.body, {p.var: Var(common)}),
                substitute(t.body, {t.var: Var(common)}),  # type: ignore[union-attr]
            )
        if isinstance(p, App):
            return p.symbol == t.symbol and all(go(a, b) for a, b in zip(p.args, t.args))  # type: ignore[union-attr]
        return False

    if not go(pattern, target):
        return None
    if not sols:
        return BOT
    first = sols[0]
    if any(s != first for s in sols[1:]):
        return None
    return first


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
        if _one_extra(concl.multiset, premises[0].multiset) is None:
            return "conclusion must add exactly one hypothesis"
    elif rule == "ax":
        if len(concl.hyps) != 1 or concl.hyps[0] != goal:
            return "conclusion must be phi |- phi"
    elif rule == "cL":
        cm = concl.multiset
        phi = _one_extra(premises[0].multiset, cm)
        if phi is None:
            return "premise must have exactly one extra copy"
        if cm[phi] < 1:
            return "contracted formula must remain present"
    elif rule == "impR":
        s = premises[0]
        if s.concl != goal.right:
            return "premise must conclude the consequent"
        if _one_extra(s.multiset, concl.multiset) != goal.left:
            return "premise must add the antecedent as a hypothesis"
    elif rule in ("andL1", "andL2"):
        sm = premises[0].multiset
        for principal, rest in _principals(concl, And):
            if _one_extra(sm, rest) == (principal.left if rule == "andL1" else principal.right):
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
            if principal.left != s1.concl or s2.multiset[principal.right] < 1:
                continue
            expect = s1.multiset + s2.multiset
            expect[principal.right] -= 1
            if expect == rest:
                return None
        return "no implication hypothesis matches the premises"
    elif rule == "orL":
        s1, s2 = premises
        if s1.concl != goal or s2.concl != goal:
            return "premise conclusions must match"
        for principal, rest in _principals(concl, Or):
            if (_one_extra(s1.multiset, rest) == principal.left
                    and _one_extra(s2.multiset, rest) == principal.right):
                return None
        return "no disjunction hypothesis matches the premises"
    elif rule in ("orR1", "orR2"):
        s = premises[0]
        part = goal.left if rule == "orR1" else goal.right
        if s.concl != part or s.multiset != concl.multiset:
            return "premise must prove the chosen disjunct in the same context"
    elif rule == "cut":
        s1, s2 = premises
        phi = data if isinstance(data, Formula) else s1.concl
        if s1.concl != phi:
            return "first premise must conclude the cut formula"
        if s2.multiset[phi] < 1:
            return "cut formula missing from second premise hypotheses"
        if goal != s2.concl:
            return "conclusion formula mismatch"
        expect = s1.multiset + s2.multiset
        expect[phi] -= 1
        if expect != concl.multiset:
            return "hypotheses are not the merge of the premises"
    elif rule == "andR":
        s1, s2 = premises
        if s1.concl != goal.left or s2.concl != goal.right:
            return "premises must prove the two conjuncts"
        if s1.multiset != concl.multiset or s2.multiset != concl.multiset:
            return "premises must share the conclusion context"
    elif rule in ("wR", "allR", "exR"):
        s = premises[0]
        if rule == "wR" and not isinstance(s.concl, Bottom):
            return "premise must have empty (bot) right side"
        if s.multiset != concl.multiset:
            return "hypotheses must match"
        if rule == "allR" and not _eigen(rule, goal, s.concl, data, concl.hyps, path):
            return "premise does not match the quantified body"
        if rule == "exR":
            if isinstance(data, Formula):
                if substitute(goal.body, {goal.var: data}) != s.concl:
                    return "premise is not the declared witness instance"
            elif match_single(goal.body, goal.var, s.concl) is None:
                return "premise does not instantiate the quantified body"
    elif rule == "allL":
        sm = premises[0].multiset
        for principal, rest in _principals(concl, Forall):
            inst = _one_extra(sm, rest)
            if inst is None:
                continue
            if isinstance(data, Formula):
                if substitute(principal.body, {principal.var: data}) == inst:
                    return None
            elif match_single(principal.body, principal.var, inst) is not None:
                return None
        return "no universal hypothesis matches the premise"
    elif rule == "exL":
        sm = premises[0].multiset
        for principal, rest in _principals(concl, Exists):
            inst = _one_extra(sm, rest)
            if inst is not None and _eigen(rule, principal, inst, data, (goal, *+rest), path):
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
        if goal != inst.concl or not _contains(concl.multiset, inst.multiset):
            return f"conclusion is not an instance of schema {label!r} (up to weakening)"
    elif rule == "congruence":
        for principal, rest in _principals(concl, App):
            if principal.symbol == goal.symbol and all(
                prem.multiset == rest and prem.concl == iff(a, b)
                for prem, a, b in zip(premises, principal.args, goal.args)
            ):
                return None
        return "no application hypothesis matches the congruence premises"
    else:
        return "unhandled rule"
    return None


def _principals(concl: Sequent, kind):
    """Each distinct hypothesis of type `kind`, with the rest of the context:
    a fresh multiset of the hypotheses less one copy of it."""
    for principal in set(f for f in concl.hyps if isinstance(f, kind)):
        rest = concl.multiset.copy()
        rest[principal] -= 1
        yield principal, rest


def _one_extra(big: Counter, small: Counter) -> Formula | None:
    """The formula `big` holds one more copy of than `small`, when that is
    all they differ by; else None."""
    if big.total() != small.total() + 1 or not _contains(big, small):
        return None
    return next(f for f, n in big.items() if n > small[f])


def _eigen(rule, quantified, instance: Formula, data, context, path) -> bool:
    """Whether `instance` is the body of an allR/exL `quantified` formula at
    its eigenvariable (the variable `data`, when one is declared).

    A vacuous binder is alpha-renamable to anything fresh, so it matches its
    body with no side condition; otherwise the eigenvariable must not occur
    free in `context`.
    """
    body, x = quantified.body, quantified.var
    if x not in body.free_vars:
        return body == instance
    if isinstance(data, Variable):
        y = data if substitute(body, {x: Var(data)}) == instance else None
    else:
        t = match_single(body, x, instance)
        y = t.var if isinstance(t, Var) else None
    if y is None:
        return False
    if any(y in f.free_vars for f in context):
        raise SideConditionViolated(y, path, f"{rule}: {y} occurs free in the context")
    return True


def check_tree(tree: ProofTree, theory: SchemaTheory | None = None) -> CheckReport:
    """Accept iff every node matches its rule template and side conditions
    hold; a rejection reports the first failing node in preorder."""
    todo = [(tree, ())]
    while todo:
        node, path = todo.pop()
        try:
            premises = tuple([p.conclusion for p in node.premises])
            check_rule(node.rule, node.conclusion, premises, node.data, theory, path)
        except SideConditionViolated as e:
            return CheckReport(False, "SideConditionViolated", path, str(e))
        except KernelError as e:
            return CheckReport(False, "MalformedRule", path, str(e))
        todo.extend((node.premises[i], path + (i,)) for i in reversed(range(len(node.premises))))
    return CheckReport(True)


def is_cut_free(tree: ProofTree) -> bool:
    return all(n.rule != "cut" for n in tree.nodes())


def substitute_tree(tree: ProofTree, bindings: dict[Variable, Formula]) -> ProofTree:
    """Apply a substitution to every sequent and witness of a tree.

    Valid derivations stay valid as long as no substituted variable is
    quantified along the tree (quantifier-free trees always qualify).
    """
    data = tree.data
    if isinstance(data, Formula):
        data = substitute(data, bindings)
    return ProofTree(
        tree.rule,
        tree.conclusion.substitute(bindings),
        tuple(substitute_tree(p, bindings) for p in tree.premises),
        data,
    )


# ---------------------------------------------------------------------------
# Tree builders.  Each returns a ProofTree whose conclusion is computed from
# the parts, so composite constructions stay well formed by construction.

def _weakened(t: ProofTree, extra) -> ProofTree:
    for g in extra:
        t = t_wl(t, g)
    return t


def _left(rule: str, t: ProofTree, old: Formula, new: Formula, data=None) -> ProofTree:
    """`rule` below t: one copy of hypothesis `old` becomes `new`."""
    c = t.conclusion
    return ProofTree(rule, Sequent(_minus(c.hyps, old) + (new,), c.concl), (t,), data)


def _right(rule: str, t: ProofTree, goal: Formula, data=None) -> ProofTree:
    """`rule` below t: the same hypotheses prove `goal`."""
    return ProofTree(rule, Sequent(t.conclusion.hyps, goal), (t,), data)


def t_ax(f: Formula, extra=()) -> ProofTree:
    return _weakened(ProofTree("ax", Sequent((f,), f)), extra)


def t_botL(concl: Formula, extra=()) -> ProofTree:
    return _weakened(ProofTree("botL", Sequent((BOT,), concl)), extra)


def t_wl(t: ProofTree, f: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("wL", Sequent(c.hyps + (f,), c.concl), (t,))


def t_cl(t: ProofTree, f: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("cL", Sequent(_minus(c.hyps, f), c.concl), (t,))


def t_cl_to(t: ProofTree, target_hyps) -> ProofTree:
    """Contract duplicates until the hypothesis multiset equals the target."""
    target = Counter(target_hyps)
    while (cur := t.conclusion.multiset) != target:
        excess = cur - target
        if not excess or target - cur:
            raise KernelError("cannot reach target hypotheses by contraction")
        t = t_cl(t, next(iter(excess)))
    return t


def t_cut(t1: ProofTree, t2: ProofTree) -> ProofTree:
    phi = t1.conclusion.concl
    hyps = t1.conclusion.hyps + _minus(t2.conclusion.hyps, phi)
    return ProofTree("cut", Sequent(hyps, t2.conclusion.concl), (t1, t2), phi)


def t_impR(t: ProofTree, antecedent: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree(
        "impR", Sequent(_minus(c.hyps, antecedent), Implies(antecedent, c.concl)), (t,)
    )


def t_impL(t1: ProofTree, t2: ProofTree, consequent: Formula) -> ProofTree:
    phi = t1.conclusion.concl
    principal = Implies(phi, consequent)
    hyps = t1.conclusion.hyps + _minus(t2.conclusion.hyps, consequent) + (principal,)
    return ProofTree("impL", Sequent(hyps, t2.conclusion.concl), (t1, t2))


def t_andR(t1: ProofTree, t2: ProofTree) -> ProofTree:
    c1, c2 = t1.conclusion, t2.conclusion
    return ProofTree("andR", Sequent(c1.hyps, And(c1.concl, c2.concl)), (t1, t2))


def t_andL1(t: ProofTree, part: Formula, partner: Formula) -> ProofTree:
    return _left("andL1", t, part, And(part, partner))


def t_andL2(t: ProofTree, part: Formula, partner: Formula) -> ProofTree:
    return _left("andL2", t, part, And(partner, part))


def t_orR1(t: ProofTree, other: Formula) -> ProofTree:
    return _right("orR1", t, Or(t.conclusion.concl, other))


def t_orR2(t: ProofTree, other: Formula) -> ProofTree:
    return _right("orR2", t, Or(other, t.conclusion.concl))


def t_orL_on(t1: ProofTree, a: Formula, t2: ProofTree, b: Formula) -> ProofTree:
    c1, c2 = t1.conclusion, t2.conclusion
    if c1.concl != c2.concl:
        raise KernelError("orL premises must share a conclusion")
    hyps = _minus(c1.hyps, a) + (Or(a, b),)
    return ProofTree("orL", Sequent(hyps, c1.concl), (t1, t2))


def t_exR(t: ProofTree, target: Exists, witness: Formula) -> ProofTree:
    return _right("exR", t, target, witness)


def t_exL(t: ProofTree, instance: Formula, principal: Exists) -> ProofTree:
    return _left("exL", t, instance, principal)


def t_allR(t: ProofTree, target: Forall) -> ProofTree:
    return _right("allR", t, target)


def t_allL(t: ProofTree, instance: Formula, principal: Forall, witness: Formula) -> ProofTree:
    return _left("allL", t, instance, principal, witness)


def t_schema(concl: Sequent, label: str, bindings: dict[Variable, Formula]) -> ProofTree:
    return ProofTree("schema", concl, (), (label, dict(bindings)))


def t_congruence(premises: tuple[ProofTree, ...], app_from: App, app_to: App) -> ProofTree:
    ctx = premises[0].conclusion.hyps if premises else ()
    return ProofTree("congruence", Sequent(ctx + (app_from,), app_to), tuple(premises))


# ---------------------------------------------------------------------------
# Extensionality: replacing provably equivalent subformulas preserves
# derivability, realized as an explicit tree built by structural induction.

def derive_extensionality(
    context: Formula,
    hole: Variable,
    p: Formula,
    p_prime: Formula,
    allow_app: bool = False,
) -> ProofTree:
    """Tree proving  p->p', p'->p, context[p/hole] |- context[p'/hole].

    The free variables of p and p' must avoid the bound variables of the
    context.  App nodes are rejected unless `allow_app` (script checking
    passes True and discharges them with congruence steps).
    """
    clash = (p.free_vars | p_prime.free_vars) & context.bound_vars()
    if clash:
        raise VariableClash(f"variables {sorted(v.name for v in clash)} would be captured")
    if context.has_app and not allow_app:
        raise KernelError("context contains an uninterpreted connective")
    return _ext(context, hole, p, p_prime)


def _ext(c: Formula, hole: Variable, p: Formula, q: Formula) -> ProofTree:
    hyp_pq = Implies(p, q)
    hyp_qp = Implies(q, p)
    if hole not in c.free_vars:
        return t_ax(c, extra=(hyp_pq, hyp_qp))
    sub_p = {hole: p}
    sub_q = {hole: q}
    if isinstance(c, Var):  # c is the hole itself
        t = t_impL(t_ax(p), t_ax(q), q)  # p, p->q |- q
        return t_wl(t, hyp_qp)
    if isinstance(c, And):
        ta = _ext(c.left, hole, p, q)
        tb = _ext(c.right, hole, p, q)
        ta = t_andL1(ta, substitute(c.left, sub_p), substitute(c.right, sub_p))
        tb = t_andL2(tb, substitute(c.right, sub_p), substitute(c.left, sub_p))
        return t_andR(ta, tb)
    if isinstance(c, Or):
        ta = t_orR1(_ext(c.left, hole, p, q), substitute(c.right, sub_q))
        tb = t_orR2(_ext(c.right, hole, p, q), substitute(c.left, sub_q))
        return t_orL_on(ta, substitute(c.left, sub_p), tb, substitute(c.right, sub_p))
    if isinstance(c, Implies):
        ta = _ext(c.left, hole, q, p)  # ..., A[q] |- A[p]
        tb = _ext(c.right, hole, p, q)  # ..., B[p] |- B[q]
        t = t_impL(ta, tb, substitute(c.right, sub_p))
        t = t_cl_to(
            t,
            (hyp_pq, hyp_qp, substitute(c.left, sub_q), substitute(c, sub_p)),
        )
        return t_impR(t, substitute(c.left, sub_q))
    if isinstance(c, (Exists, Forall)):
        body_p = substitute(c.body, sub_p)
        body_q = substitute(c.body, sub_q)
        inner = _ext(c.body, hole, p, q)
        if isinstance(c, Exists):
            t = t_exR(inner, Exists(c.var, body_q), Var(c.var))
            return t_exL(t, body_p, Exists(c.var, body_p))
        t = t_allL(inner, body_p, Forall(c.var, body_p), Var(c.var))
        return t_allR(t, Forall(c.var, body_q))
    if isinstance(c, App):
        prem_trees = []
        for arg in c.args:
            fwd = t_impR(_ext(arg, hole, p, q), substitute(arg, sub_p))
            bwd = t_impR(_ext(arg, hole, q, p), substitute(arg, sub_q))
            prem_trees.append(t_andR(fwd, bwd))
        app_p = App(c.symbol, tuple(substitute(a, sub_p) for a in c.args))
        app_q = App(c.symbol, tuple(substitute(a, sub_q) for a in c.args))
        return t_congruence(tuple(prem_trees), app_p, app_q)
    raise KernelError(f"unsupported context node {c!r}")
