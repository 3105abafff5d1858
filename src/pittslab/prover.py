"""Decision procedure for quantifier-free intuitionistic derivability.

Proof search runs in a contraction-free calculus (G4ip): the left rules for
implication are split on the head connective of the antecedent, so search
terminates without loop checking.  Successful searches become plain
sequent-calculus trees (with cuts) that the kernel checks, built here by the
`t_*` builders; the two shape builders `t_left` and `t_right` take the rule's
name, and the kernel calls none of them.  A tree is built on the search's
sets and reads each of its hypotheses; `derive` weakens it once, at the root,
up to the input's multiset.

The rule schedule is written once: `_left_step` applies the invertible
left rules to the first reducible hypothesis in key order (`_by_key`), and
`_nested_premises` gives the premises of the (c -> d) -> e choice point.
`_decide` searches with them and records the rule that closes each provable
sequent; the witness builder `_rd` follows that record, and the uniform
interpolants in `pitts` combine the rules' premises their own way.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .kernel import KernelError, ProofTree, Sequent, _excess
from .kripke import DEFAULT_BOUND, find_countermodel, first_failure
from .syntax import (
    And,
    App,
    BOT,
    Bottom,
    Exists,
    Forall,
    Formula,
    Implies,
    Or,
    Var,
    Variable,
    iff,
    require_plain,
    substitute,
)


def _by_key(fs) -> list[Formula]:
    """Formulas in canonical-key order, the order in which every rule scans."""
    return sorted(fs, key=attrgetter("key"))


def _left_step(
    candidates: Iterable[Formula], hyps: frozenset
) -> tuple[Formula, tuple[tuple[Formula, ...], ...]] | None:
    """The invertible left rules of G4ip: the first of these candidates that
    reduces, in scan order (`candidates`, drawn from the hypotheses `hyps`),
    and the rule's premises, each given as the formulas that replace that
    hypothesis.  None when no candidate reduces.

    Falsum has no premises; an implication whose antecedent is an atom reduces
    only when the atom is a hypothesis too.
    """
    for h in candidates:
        if isinstance(h, Bottom):
            return h, ()
        if isinstance(h, And):
            return h, ((h.left, h.right),)
        if isinstance(h, Or):
            return h, ((h.left,), (h.right,))
        if isinstance(h, Implies):
            a = h.left
            if isinstance(a, Bottom):
                return h, ((),)
            if isinstance(a, Var):
                if a in hyps:
                    return h, ((h.right,),)
            elif isinstance(a, And):
                return h, ((Implies(a.left, Implies(a.right, h.right)),),)
            elif isinstance(a, Or):
                return h, ((Implies(a.left, h.right), Implies(a.right, h.right)),)
    return None


def _nested_premises(h: Implies) -> tuple[Implies, Formula]:
    """The one non-invertible left rule, for h = (c -> d) -> e: the formula that
    replaces h in the premise proving c -> d (d -> e), and in the premise
    proving the goal (e)."""
    return Implies(h.left.right, h.right), h.right


# `_decide`'s records of an invertible right rule and of the two disjunction
# choices; its other records are True or a formula of the sequent.
_RIGHT, _FIRST, _SECOND = "right rule", "first disjunct", "second disjunct"


@lru_cache(maxsize=None)
def _decide(hyps: frozenset, goal: Formula):
    """False when the sequent is refuted, else the rule that closes it: True
    at an axiom, a marker above, or the principal hypothesis of an invertible
    left rule or of the (c -> d) -> e choice."""
    # Success leaves: falsum on the left, or the goal among the hypotheses.
    if goal in hyps or BOT in hyps:
        return True
    # A disjunct among the hypotheses closes a disjunctive goal at once.
    if isinstance(goal, Or):
        if goal.left in hyps:
            return _FIRST
        if goal.right in hyps:
            return _SECOND

    # Invertible left rules: every premise must hold.  A plain loop, because
    # all() over a generator adds a generator frame on the hottest path.
    ordered = _by_key(hyps)
    step = _left_step(ordered, hyps)
    if step is not None:
        h, premises = step
        rest = hyps - {h}
        for replacement in premises:
            if not _decide(rest.union(replacement), goal):
                return False
        return h

    # Invertible right rules: False from a refuted premise, else the marker.
    if isinstance(goal, And):
        return _decide(hyps, goal.left) and _decide(hyps, goal.right) and _RIGHT
    if isinstance(goal, Implies):
        return _decide(hyps | {goal.left}, goal.right) and _RIGHT

    # Choice points: disjunction introduction and implication-implication left.
    if isinstance(goal, Or):
        if _decide(hyps, goal.left):
            return _FIRST
        if _decide(hyps, goal.right):
            return _SECOND
    for h in ordered:
        if isinstance(h, Implies) and isinstance(h.left, Implies):
            d_e, e = _nested_premises(h)
            rest = hyps - {h}
            if _decide(rest | {d_e}, h.left) and _decide(rest | {e}, goal):
                return h
    return False


def decide(s: Sequent) -> bool:
    """Total decision procedure for quantifier-free, App-free sequents."""
    require_plain(*s.hyps, s.concl)
    return bool(_decide(frozenset(s.hyps), s.concl))


# ---------------------------------------------------------------------------
# Witness construction.  Each tree builder computes its ProofTree's conclusion
# from the parts, so composite constructions stay well formed; a builder whose
# rule wraps a principal formula takes it, as the search holds it, rather than
# building it again.  `t_left` and `t_right` build every rule whose conclusion
# has their shape.  The kernel checks what they build and calls none of them.

def _minus(hyps: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    """Remove one occurrence of `f` (alpha-equality)."""
    key = f.key
    for i, h in enumerate(hyps):
        if h.key == key:
            return hyps[:i] + hyps[i + 1:]
    raise KernelError(f"{f} not among hypotheses")


def t_ax(f: Formula, extra=()) -> ProofTree:
    t = ProofTree("ax", Sequent((f,), f))
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
    target = tuple(sorted([h.key for h in target_hyps]))
    while (cur := t.conclusion).hyp_keys != target:
        excess = _excess(cur.hyp_keys, target)
        if not excess:
            raise KernelError("cannot reach target hypotheses by contraction")
        t = t_cl(t, next(h for h in cur.hyps if h.key in excess))
    return t


def t_cut(t1: ProofTree, t2: ProofTree) -> ProofTree:
    phi = t1.conclusion.concl
    hyps = t1.conclusion.hyps + _minus(t2.conclusion.hyps, phi)
    return ProofTree("cut", Sequent(hyps, t2.conclusion.concl), (t1, t2), phi)


def t_impR(t: ProofTree, imp: Implies) -> ProofTree:
    c = t.conclusion
    return ProofTree("impR", Sequent(_minus(c.hyps, imp.left), imp), (t,))


def t_impL(t1: ProofTree, t2: ProofTree, imp: Implies) -> ProofTree:
    hyps = t1.conclusion.hyps + _minus(t2.conclusion.hyps, imp.right) + (imp,)
    return ProofTree("impL", Sequent(hyps, t2.conclusion.concl), (t1, t2))


def t_left(rule: str, old: Formula, new: Formula, *premises: ProofTree, data=None) -> ProofTree:
    """`rule` below its premises: the first premise's hypotheses, with one copy
    of `old` replaced by `new`, prove the same goal."""
    c = premises[0].conclusion
    return ProofTree(rule, Sequent(_minus(c.hyps, old) + (new,), c.concl), premises, data)


def t_right(rule: str, goal: Formula, *premises: ProofTree, data=None) -> ProofTree:
    """`rule` below its premises: the first premise's hypotheses prove `goal`."""
    return ProofTree(rule, Sequent(premises[0].conclusion.hyps, goal), premises, data)


def t_congruence(premises: tuple[ProofTree, ...], app_from: App, app_to: App) -> ProofTree:
    ctx = premises[0].conclusion.hyps if premises else ()
    return ProofTree("congruence", Sequent(ctx + (app_from,), app_to), tuple(premises))


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


# Extensionality: replacing provably equivalent subformulas preserves
# derivability, realized as an explicit tree built by structural induction.

class VariableClash(KernelError):
    pass


def derive_extensionality(context: Formula, hole: Variable, p: Formula, p_prime: Formula) -> ProofTree:
    """Tree proving  p->p', p'->p, context[p/hole] |- context[p'/hole].

    The free variables of p and p' must avoid the bound variables of the
    context.  App nodes become congruence steps, which only a theory admits.
    """
    clash = (p.free_vars | p_prime.free_vars) & context.bound_vars()
    if clash:
        raise VariableClash(f"variables {sorted(v.name for v in clash)} would be captured")
    return _ext(context, hole, p, p_prime)


def _ext(c: Formula, hole: Variable, p: Formula, q: Formula) -> ProofTree:
    hyp_pq = Implies(p, q)
    hyp_qp = Implies(q, p)
    if hole not in c.free_vars:
        return t_ax(c, extra=(hyp_pq, hyp_qp))
    if isinstance(c, Var):  # c is the hole itself
        t = t_impL(t_ax(p), t_ax(q), hyp_pq)  # p, p->q |- q
        return t_wl(t, hyp_qp)
    # no binder of c captures p or q, so these keep c's binders
    cp, cq = substitute(c, {hole: p}), substitute(c, {hole: q})
    if isinstance(c, And):
        ta = t_left("andL1", cp.left, cp, _ext(c.left, hole, p, q))
        tb = t_left("andL2", cp.right, cp, _ext(c.right, hole, p, q))
        return t_right("andR", cq, ta, tb)
    if isinstance(c, Or):
        ta = t_right("orR1", cq, _ext(c.left, hole, p, q))
        tb = t_right("orR2", cq, _ext(c.right, hole, p, q))
        return t_left("orL", cp.left, cp, ta, tb)
    if isinstance(c, Implies):
        ta = _ext(c.left, hole, q, p)  # ..., A[q] |- A[p]
        tb = _ext(c.right, hole, p, q)  # ..., B[p] |- B[q]
        t = t_cl_to(t_impL(ta, tb, cp), (hyp_pq, hyp_qp, cq.left, cp))
        return t_impR(t, cq)
    if isinstance(c, Exists):
        t = t_right("exR", cq, _ext(c.body, hole, p, q), data=Var(c.var))
        return t_left("exL", cp.body, cp, t)
    if isinstance(c, Forall):
        t = t_left("allL", cp.body, cp, _ext(c.body, hole, p, q), data=Var(c.var))
        return t_right("allR", cq, t)
    if isinstance(c, App):
        prem_trees = []
        for arg, a, b in zip(c.args, cp.args, cq.args):
            both = iff(a, b)
            fwd = t_impR(_ext(arg, hole, p, q), both.left)
            bwd = t_impR(_ext(arg, hole, q, p), both.right)
            prem_trees.append(t_right("andR", both, fwd, bwd))
        return t_congruence(tuple(prem_trees), cp, cq)
    raise KernelError(f"unsupported context node {c!r}")


# `_rd` builds the tree of the rule `_decide` recorded for each node's set, on
# that set: G4ip search is sound on sets (Dyckhoff, JSL 1992), and so is the
# tree.  Its conclusion holds only the hypotheses the tree reads, each once,
# and `_rooted` weakens it up to the input's multiset once, at the root.  A
# left rule is applied only where its premise reads a formula the rule
# introduced, one not already among the other hypotheses; otherwise the
# premise is itself the tree.

def _lemma_curry(h: Implies, curried: Implies) -> ProofTree:
    """(A /\\ B) -> C |- A -> (B -> C), the last given as `curried`"""
    a, b = h.left.left, h.left.right
    ta = t_right("andR", h.left, t_ax(a, extra=(b,)), t_ax(b, extra=(a,)))
    t = t_impL(ta, t_ax(h.right), h)  # A, B, (A/\B)->C |- C
    return t_impR(t_impR(t, curried.right), curried)


def _lemma_or_part(h: Implies, part: Implies, rule: str) -> ProofTree:
    """(A \\/ B) -> C |- A -> C, given as `part` (B -> C when `rule` is orR2)"""
    inj = t_right(rule, h.left, t_ax(part.left))
    t = t_impL(inj, t_ax(h.right), h)  # A (or B), (A\/B)->C |- C
    return t_impR(t, part)


def _lemma_nested(h: Implies, d_e: Implies) -> ProofTree:
    """(A -> B) -> C |- B -> C, the last given as `d_e`"""
    a_b = h.left
    tb = t_impR(t_ax(a_b.right, extra=(a_b.left,)), a_b)  # B |- A -> B
    t = t_impL(tb, t_ax(h.right), h)  # B, (A->B)->C |- C
    return t_impR(t, d_e)


def _with(t: ProofTree, fs, skip: str = "") -> ProofTree:
    """`t` weakened by each of the distinct `fs` its conclusion lacks, but the
    one whose key is `skip`."""
    keys = t.conclusion.hyp_keys
    for f in fs:
        if f.key not in keys and f.key != skip:
            t = t_wl(t, f)
    return t


def _as_set(t: ProofTree) -> ProofTree:
    """`t` with every repeated hypothesis contracted to one copy."""
    keys = t.conclusion.hyp_keys
    for i in range(1, len(keys)):
        if keys[i] == keys[i - 1]:
            t = t_cl(t, t.conclusion.hyp(keys[i]))
    return t


def _introduced(t: ProofTree, f: Formula, rest: frozenset) -> bool:
    """Whether `t` reads `f` and `f` is none of the hypotheses `rest`."""
    return f.key in t.conclusion.hyp_keys and f not in rest


def _rd(hyps: frozenset, goal: Formula) -> ProofTree:
    """A tree for the provable `hyps |- goal` whose conclusion holds a set of
    hypotheses drawn from `hyps`, each read by the tree."""
    if goal in hyps:
        return ProofTree("ax", Sequent((goal,), goal))
    if BOT in hyps:
        return ProofTree("botL", Sequent((BOT,), goal))

    rule = _decide(hyps, goal)
    if rule is _RIGHT:
        if isinstance(goal, And):
            t1, t2 = _rd(hyps, goal.left), _rd(hyps, goal.right)
            return t_right("andR", goal, _with(t1, t2.conclusion.hyps), _with(t2, t1.conclusion.hyps))
        a = goal.left
        t = _rd(hyps | {a}, goal.right)
        return t_impR(t if a.key in t.conclusion.hyp_keys else t_wl(t, a), goal)
    if rule is _FIRST:
        return t_right("orR1", goal, _rd(hyps, goal.left))
    if rule is _SECOND:
        return t_right("orR2", goal, _rd(hyps, goal.right))

    rest = hyps - {rule}
    (h,) = hyps - rest  # this sequent's copy of the memo's principal

    step = _left_step((h,), hyps)
    if step is None:  # the (c -> d) -> e choice
        d_e, e = _nested_premises(h)
        t2 = _rd(rest | {e}, goal)
        if not _introduced(t2, e, rest):
            return t2
        # rest, h |- c -> d, then the implication left rule on h
        t1 = _rd(rest | {d_e}, h.left)
        if _introduced(t1, d_e, rest):
            t1 = t_cut(_lemma_nested(h, d_e), t1)
        return _as_set(t_impL(t1, t2, h))

    ts = []
    for replacement in step[1]:
        t = _rd(rest.union(replacement), goal)
        for f in replacement:
            if _introduced(t, f, rest):
                break
        else:
            return t  # the premise proves the sequent without h
        ts.append(t)
    t = ts[0]
    # The rule's tree over its premises' trees, once per introduced formula read.
    if isinstance(h, Or):
        return t_left("orL", h.left, h, _with(t, ts[1].conclusion.hyps, h.right.key),
                      _with(ts[1], t.conclusion.hyps, h.left.key))
    if isinstance(h, And):
        parts = ("andL2", h.right), ("andL1", h.left)
    elif isinstance(h.left, Var):
        return _as_set(t_impL(t_ax(h.left), t, h))
    elif isinstance(h.left, And):
        return t_cut(_lemma_curry(h, step[1][0][0]), t)
    else:
        parts = ("orR1", step[1][0][0]), ("orR2", step[1][0][1])
    applied = 0
    for name, f in parts:
        if _introduced(t, f, rest):  # asked again after the first: the two may be one formula
            t = t_left(name, f, h, t) if isinstance(h, And) else t_cut(_lemma_or_part(h, f, name), t)
            applied += 1
    return t_cl(t, h) if applied == 2 else t


@dataclass
class Unknown:
    """Refuted sequent with no countermodel found within the given bound."""

    bound: int


@dataclass
class Verdict:
    provable: bool
    witness: object  # ProofTree | (KripkeModel, world) | Unknown


def derive(s: Sequent) -> ProofTree:
    """Kernel-checkable tree for a provable sequent."""
    if not decide(s):
        raise ValueError(f"not provable: {s}")
    return _rooted(s)


def _rooted(s: Sequent) -> ProofTree:
    """`_rd`'s tree for `s`, weakened once, at the root, by the hypotheses it
    does not read and by the extra copies of those it does."""
    t = _rd(frozenset(s.hyps), s.concl)
    read = set(t.conclusion.hyp_keys)
    for h in s.hyps:
        if h.key in read:
            read.remove(h.key)
        else:
            t = t_wl(t, h)
    return t


def prove(s: Sequent, countermodel_bound: int = DEFAULT_BOUND) -> Verdict:
    """Decide a sequent; attach a proof tree or a countermodel witness."""
    if decide(s):
        return Verdict(True, _rooted(s))
    found = find_countermodel(s, countermodel_bound)
    return Verdict(False, found if found is not None else Unknown(countermodel_bound))


def equivalent(a: Formula, b: Formula) -> bool:
    """Mutual derivability."""
    require_plain(a, b)
    return bool(_decide(frozenset([a]), b) and _decide(frozenset([b]), a))


def classical_tautology(f: Formula) -> bool:
    """True at every valuation of the free atoms: a one-world Kripke model is
    a classical valuation, so this is the one-world countermodel sweep."""
    return first_failure(Sequent((), f), 1) is None
