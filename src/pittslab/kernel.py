"""Sequent-calculus kernel: proof trees as checkable objects.

Rules: ax, cut, wL, cL, wR, orL, orR1, orR2, andR, andL1, andL2, impL,
impR, botL, allL, allR, exR, exL, plus `schema` and `congruence`, which are
admitted only when a SchemaTheory is in force.  Hypotheses are multisets;
formulas compare up to alpha-equivalence.
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

    def __hash__(self):
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            items = tuple(sorted((f.key, n) for f, n in self.multiset.items()))
            h = hash((items, self.concl.key))
            object.__setattr__(self, "_hash", h)
            return h

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

    def __str__(self):
        left = ", ".join(str(h) for h in self.hyps)
        return f"{left} |- {self.concl}" if left else f"|- {self.concl}"

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


def check_rule(rule: str, concl: Sequent, premises: tuple[Sequent, ...], data=None,
               theory: SchemaTheory | None = None, path=()) -> None:
    """Verify one rule instance; raise MalformedRule / SideConditionViolated."""

    def bad(msg):
        raise MalformedRule(path, f"{rule}: {msg}")

    def need(n):
        if len(premises) != n:
            bad(f"expected {n} premises, got {len(premises)}")

    cm = concl.multiset

    if rule == "ax":
        need(0)
        if len(concl.hyps) != 1 or concl.hyps[0] != concl.concl:
            bad("conclusion must be phi |- phi")
        return

    if rule == "botL":
        need(0)
        if len(concl.hyps) != 1 or not isinstance(concl.hyps[0], Bottom):
            bad("conclusion must be bot |- phi")
        return

    if rule == "cut":
        need(2)
        s1, s2 = premises
        phi = data if isinstance(data, Formula) else s1.concl
        if s1.concl != phi:
            bad("first premise must conclude the cut formula")
        if s2.multiset[phi] < 1:
            bad("cut formula missing from second premise hypotheses")
        if concl.concl != s2.concl:
            bad("conclusion formula mismatch")
        expect = s1.multiset + s2.multiset
        expect[phi] -= 1
        if +expect != cm:
            bad("hypotheses are not the merge of the premises")
        return

    if rule == "wL":
        need(1)
        (s,) = premises
        if concl.concl != s.concl:
            bad("conclusion formula mismatch")
        diff = cm - s.multiset
        if sum(diff.values()) != 1 or +( s.multiset - cm):
            bad("conclusion must add exactly one hypothesis")
        return

    if rule == "cL":
        need(1)
        (s,) = premises
        if concl.concl != s.concl:
            bad("conclusion formula mismatch")
        diff = s.multiset - cm
        if sum(diff.values()) != 1 or +(cm - s.multiset):
            bad("premise must have exactly one extra copy")
        phi = next(iter(diff))
        if cm[phi] < 1:
            bad("contracted formula must remain present")
        return

    if rule == "wR":
        need(1)
        (s,) = premises
        if not isinstance(s.concl, Bottom):
            bad("premise must have empty (bot) right side")
        if s.multiset != cm:
            bad("hypotheses must match")
        return

    if rule == "orL":
        need(2)
        s1, s2 = premises
        if s1.concl != concl.concl or s2.concl != concl.concl:
            bad("premise conclusions must match")
        for principal in set(f for f in concl.hyps if isinstance(f, Or)):
            rest = cm.copy()
            rest[principal] -= 1
            m1 = rest.copy()
            m1[principal.left] += 1
            m2 = rest.copy()
            m2[principal.right] += 1
            if +m1 == s1.multiset and +m2 == s2.multiset:
                return
        bad("no disjunction hypothesis matches the premises")

    if rule in ("orR1", "orR2"):
        need(1)
        (s,) = premises
        if not isinstance(concl.concl, Or):
            bad("conclusion must be a disjunction")
        part = concl.concl.left if rule == "orR1" else concl.concl.right
        if s.concl != part or s.multiset != cm:
            bad("premise must prove the chosen disjunct in the same context")
        return

    if rule == "andR":
        need(2)
        s1, s2 = premises
        if not isinstance(concl.concl, And):
            bad("conclusion must be a conjunction")
        if s1.concl != concl.concl.left or s2.concl != concl.concl.right:
            bad("premises must prove the two conjuncts")
        if s1.multiset != cm or s2.multiset != cm:
            bad("premises must share the conclusion context")
        return

    if rule in ("andL1", "andL2"):
        need(1)
        (s,) = premises
        if s.concl != concl.concl:
            bad("conclusion formula mismatch")
        for principal in set(f for f in concl.hyps if isinstance(f, And)):
            part = principal.left if rule == "andL1" else principal.right
            rest = cm.copy()
            rest[principal] -= 1
            rest[part] += 1
            if +rest == s.multiset:
                return
        bad("no conjunction hypothesis matches the premise")

    if rule == "impL":
        need(2)
        s1, s2 = premises
        if s2.concl != concl.concl:
            bad("second premise must conclude the goal")
        for principal in set(f for f in concl.hyps if isinstance(f, Implies)):
            if principal.left != s1.concl:
                continue
            if s2.multiset[principal.right] < 1:
                continue
            expect = s1.multiset + s2.multiset
            expect[principal.right] -= 1
            expect[principal] += 1
            if +expect == cm:
                return
        bad("no implication hypothesis matches the premises")

    if rule == "impR":
        need(1)
        (s,) = premises
        if not isinstance(concl.concl, Implies):
            bad("conclusion must be an implication")
        if s.concl != concl.concl.right:
            bad("premise must conclude the consequent")
        expect = cm.copy()
        expect[concl.concl.left] += 1
        if +expect != s.multiset:
            bad("premise must add the antecedent as a hypothesis")
        return

    if rule == "allL":
        need(1)
        (s,) = premises
        if s.concl != concl.concl:
            bad("conclusion formula mismatch")
        for principal in set(f for f in concl.hyps if isinstance(f, Forall)):
            rest = cm.copy()
            rest[principal] -= 1
            extra = s.multiset - rest
            if sum(extra.values()) != 1 or +(rest - s.multiset):
                continue
            inst = next(iter(extra))
            if isinstance(data, Formula):
                if substitute(principal.body, {principal.var: data}) == inst:
                    return
            elif match_single(principal.body, principal.var, inst) is not None:
                return
        bad("no universal hypothesis matches the premise")

    if rule == "allR":
        need(1)
        (s,) = premises
        if not isinstance(concl.concl, Forall):
            bad("conclusion must be universally quantified")
        if s.multiset != cm:
            bad("hypotheses must match")
        vacuous, y = _eigen(concl.concl, s.concl, data)
        if not vacuous and y is None:
            bad("premise does not match the quantified body")
        if y is not None:
            ctx_vars: frozenset[Variable] = frozenset()
            for h in concl.hyps:
                ctx_vars |= h.free_vars
            if y in ctx_vars:
                raise SideConditionViolated(y, path, f"allR: {y} occurs free in the context")
        return

    if rule == "exR":
        need(1)
        (s,) = premises
        if not isinstance(concl.concl, Exists):
            bad("conclusion must be existentially quantified")
        if s.multiset != cm:
            bad("hypotheses must match")
        if isinstance(data, Formula):
            if substitute(concl.concl.body, {concl.concl.var: data}) != s.concl:
                bad("premise is not the declared witness instance")
        elif match_single(concl.concl.body, concl.concl.var, s.concl) is None:
            bad("premise does not instantiate the quantified body")
        return

    if rule == "exL":
        need(1)
        (s,) = premises
        if s.concl != concl.concl:
            bad("conclusion formula mismatch")
        for principal in set(f for f in concl.hyps if isinstance(f, Exists)):
            rest = cm.copy()
            rest[principal] -= 1
            extra = s.multiset - rest
            if sum(extra.values()) != 1 or +(rest - s.multiset):
                continue
            inst = next(iter(extra))
            vacuous, y = _eigen(principal, inst, data)
            if not vacuous and y is None:
                continue
            if y is not None:
                ctx_vars = concl.concl.free_vars
                for f, n in rest.items():
                    if n > 0:
                        ctx_vars |= f.free_vars
                if y in ctx_vars:
                    raise SideConditionViolated(y, path, f"exL: {y} occurs free in the context")
            return
        bad("no existential hypothesis matches the premise")

    if rule == "schema":
        if theory is None:
            bad("schema rule outside any theory")
        if not isinstance(data, tuple) or len(data) != 2:
            bad("schema rule needs (name, bindings) data")
        label, bindings = data
        if label not in theory.schemas:
            bad(f"unknown axiom schema {label!r}")
        if premises:
            bad("axiom schema takes no premises")
        inst = theory.instantiate(label, bindings)
        if concl.concl != inst.concl or not _contains(cm, inst.multiset):
            bad(f"conclusion is not an instance of schema {label!r} (up to weakening)")
        return

    if rule == "congruence":
        if theory is None:
            bad("congruence rule outside any theory")
        if not isinstance(concl.concl, App):
            bad("conclusion must be an uninterpreted application")
        sym = concl.concl.symbol
        if theory.signature.get(sym.name) != sym:
            bad(f"symbol {sym.name} not in the theory signature")
        need(sym.arity)
        for principal in set(f for f in concl.hyps if isinstance(f, App) and f.symbol == sym):
            rest = cm.copy()
            rest[principal] -= 1
            rest = +rest
            okay = True
            for prem, a, b in zip(premises, principal.args, concl.concl.args):
                if prem.multiset != rest or prem.concl != iff(a, b):
                    okay = False
                    break
            if okay:
                return
        bad("no application hypothesis matches the congruence premises")

    bad("unhandled rule")


def _eigen(quantified, instance: Formula, data) -> tuple[bool, Variable | None]:
    """Resolve an allR/exL premise against the quantified formula.

    Returns (vacuous, eigenvariable).  For vacuous quantification the binder
    is alpha-renamable to anything fresh, so no side condition applies.
    """
    body, x = quantified.body, quantified.var
    if x not in body.free_vars:
        return (body == instance, None)
    if isinstance(data, Variable):
        if substitute(body, {x: Var(data)}) == instance:
            return (False, data)
        return (False, None)
    t = match_single(body, x, instance)
    if isinstance(t, Var):
        return (False, t.var)
    return (False, None)


def check_tree(tree: ProofTree, theory: SchemaTheory | None = None) -> CheckReport:
    """Accept iff every node matches its rule template and side conditions
    hold; a rejection reports the first failing node in preorder."""
    todo = [(tree, ())]
    while todo:
        node, path = todo.pop()
        try:
            check_rule(
                node.rule,
                node.conclusion,
                tuple(p.conclusion for p in node.premises),
                node.data,
                theory,
                path,
            )
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

def t_ax(f: Formula, extra=()) -> ProofTree:
    t = ProofTree("ax", Sequent((f,), f))
    for g in extra:
        t = t_wl(t, g)
    return t


def t_botL(concl: Formula, extra=()) -> ProofTree:
    t = ProofTree("botL", Sequent((BOT,), concl))
    for g in extra:
        t = t_wl(t, g)
    return t


def t_wl(t: ProofTree, f: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("wL", Sequent(c.hyps + (f,), c.concl), (t,))


def t_cl(t: ProofTree, f: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("cL", Sequent(_minus(c.hyps, f), c.concl), (t,))


def t_cl_to(t: ProofTree, target_hyps) -> ProofTree:
    """Contract duplicates until the hypothesis multiset equals the target."""
    target = Counter(target_hyps)
    while True:
        cur = t.conclusion.multiset
        if cur == target:
            return t
        excess = cur - target
        if not +excess or +(target - cur):
            raise KernelError("cannot reach target hypotheses by contraction")
        t = t_cl(t, next(iter(excess)))


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
    c = t.conclusion
    return ProofTree(
        "andL1", Sequent(_minus(c.hyps, part) + (And(part, partner),), c.concl), (t,)
    )


def t_andL2(t: ProofTree, part: Formula, partner: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree(
        "andL2", Sequent(_minus(c.hyps, part) + (And(partner, part),), c.concl), (t,)
    )


def t_orR1(t: ProofTree, other: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("orR1", Sequent(c.hyps, Or(c.concl, other)), (t,))


def t_orR2(t: ProofTree, other: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("orR2", Sequent(c.hyps, Or(other, c.concl)), (t,))


def t_orL_on(t1: ProofTree, a: Formula, t2: ProofTree, b: Formula) -> ProofTree:
    c1, c2 = t1.conclusion, t2.conclusion
    if c1.concl != c2.concl:
        raise KernelError("orL premises must share a conclusion")
    hyps = _minus(c1.hyps, a) + (Or(a, b),)
    return ProofTree("orL", Sequent(hyps, c1.concl), (t1, t2))


def t_exR(t: ProofTree, target: Exists, witness: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree("exR", Sequent(c.hyps, target), (t,), witness)


def t_exL(t: ProofTree, instance: Formula, principal: Exists) -> ProofTree:
    c = t.conclusion
    return ProofTree("exL", Sequent(_minus(c.hyps, instance) + (principal,), c.concl), (t,))


def t_allR(t: ProofTree, target: Forall) -> ProofTree:
    c = t.conclusion
    return ProofTree("allR", Sequent(c.hyps, target), (t,))


def t_allL(t: ProofTree, instance: Formula, principal: Forall, witness: Formula) -> ProofTree:
    c = t.conclusion
    return ProofTree(
        "allL", Sequent(_minus(c.hyps, instance) + (principal,), c.concl), (t,), witness
    )


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
    return _ext(context, hole, p, p_prime, allow_app)


def _ext(c: Formula, hole: Variable, p: Formula, q: Formula, allow_app: bool) -> ProofTree:
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
        ta = _ext(c.left, hole, p, q, allow_app)
        tb = _ext(c.right, hole, p, q, allow_app)
        ta = t_andL1(ta, substitute(c.left, sub_p), substitute(c.right, sub_p))
        tb = t_andL2(tb, substitute(c.right, sub_p), substitute(c.left, sub_p))
        return t_andR(ta, tb)
    if isinstance(c, Or):
        ta = t_orR1(_ext(c.left, hole, p, q, allow_app), substitute(c.right, sub_q))
        tb = t_orR2(_ext(c.right, hole, p, q, allow_app), substitute(c.left, sub_q))
        return t_orL_on(ta, substitute(c.left, sub_p), tb, substitute(c.right, sub_p))
    if isinstance(c, Implies):
        ta = _ext(c.left, hole, q, p, allow_app)  # ..., A[q] |- A[p]
        tb = _ext(c.right, hole, p, q, allow_app)  # ..., B[p] |- B[q]
        t = t_impL(ta, tb, substitute(c.right, sub_p))
        t = t_cl_to(
            t,
            (hyp_pq, hyp_qp, substitute(c.left, sub_q), substitute(c, sub_p)),
        )
        return t_impR(t, substitute(c.left, sub_q))
    if isinstance(c, (Exists, Forall)):
        body_p = substitute(c.body, sub_p)
        body_q = substitute(c.body, sub_q)
        inner = _ext(c.body, hole, p, q, allow_app)
        if isinstance(c, Exists):
            t = t_exR(inner, Exists(c.var, body_q), Var(c.var))
            return t_exL(t, body_p, Exists(c.var, body_p))
        t = t_allL(inner, body_p, Forall(c.var, body_p), Var(c.var))
        return t_allR(t, Forall(c.var, body_q))
    if isinstance(c, App):
        prem_trees = []
        for arg in c.args:
            fwd = t_impR(_ext(arg, hole, p, q, allow_app), substitute(arg, sub_p))
            bwd = t_impR(_ext(arg, hole, q, p, allow_app), substitute(arg, sub_q))
            prem_trees.append(t_andR(fwd, bwd))
        app_p = App(c.symbol, tuple(substitute(a, sub_p) for a in c.args))
        app_q = App(c.symbol, tuple(substitute(a, sub_q) for a in c.args))
        return t_congruence(tuple(prem_trees), app_p, app_q)
    raise KernelError(f"unsupported context node {c!r}")
