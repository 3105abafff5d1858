"""Decision procedure for quantifier-free intuitionistic derivability.

Proof search runs in a contraction-free calculus (G4ip): the left rules for
implication are split on the head connective of the antecedent, so search
terminates without loop checking.  Successful searches are replayed into
plain sequent-calculus trees (with cuts) that the kernel checks.

The rule schedule is written once: `_left_step` applies the invertible
left rules to the first reducible hypothesis in key order (`_by_key`), and
`_nested_premises` gives the premises of the (c -> d) -> e choice point.
The decision procedure, the witness builder and the uniform interpolants in
`pitts` all search with it; each combines a rule's premises its own way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .kernel import (
    ProofTree,
    Sequent,
    _minus,
    t_andL1,
    t_andL2,
    t_andR,
    t_ax,
    t_botL,
    t_cl,
    t_cl_to,
    t_cut,
    t_impL,
    t_impR,
    t_orL_on,
    t_orR1,
    t_orR2,
    t_wl,
)
from .kripke import find_countermodel, first_failure
from .syntax import (
    And,
    BOT,
    Bottom,
    Formula,
    Implies,
    Or,
    Var,
    require_plain,
)


def _by_key(fs) -> list[Formula]:
    """Formulas in canonical-key order, the order in which every rule scans."""
    return sorted(fs, key=attrgetter("key"))


def _left_step(
    ordered: list[Formula], hyps: frozenset
) -> tuple[Formula, tuple[tuple[Formula, ...], ...]] | None:
    """The invertible left rules of G4ip: the first hypothesis in `ordered`
    (the hypotheses `hyps`, in key order) that one of them reduces, and the
    rule's premises, each given as the formulas that replace that hypothesis.
    None when no hypothesis reduces.

    Falsum has no premises; an implication whose antecedent is an atom reduces
    only when the atom is a hypothesis too.
    """
    for h in ordered:
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


@lru_cache(maxsize=None)
def _decide(hyps: frozenset, goal: Formula) -> bool:
    # Success leaves: falsum on the left, or the goal among the hypotheses.
    if goal in hyps or BOT in hyps:
        return True

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
        return True

    # Invertible right rules.
    if isinstance(goal, And):
        return _decide(hyps, goal.left) and _decide(hyps, goal.right)
    if isinstance(goal, Implies):
        return _decide(hyps | {goal.left}, goal.right)

    # Choice points: disjunction introduction and implication-implication left.
    if isinstance(goal, Or):
        if _decide(hyps, goal.left) or _decide(hyps, goal.right):
            return True
    for h in ordered:
        if isinstance(h, Implies) and isinstance(h.left, Implies):
            d_e, e = _nested_premises(h)
            rest = hyps - {h}
            if _decide(rest | {d_e}, h.left) and _decide(rest | {e}, goal):
                return True
    return False


def decide(s: Sequent) -> bool:
    """Total decision procedure for quantifier-free, App-free sequents."""
    require_plain(*s.hyps, s.concl)
    return _decide(frozenset(s.hyps), s.concl)


# ---------------------------------------------------------------------------
# Witness construction.  Follows the same schedule on exact multisets, using
# `_decide` as the oracle at choice points, and emits Def-1.3-style trees.

def _plus(hyps: tuple, *fs: Formula) -> tuple:
    return hyps + tuple(fs)


def _lemma_curry(h: Implies) -> ProofTree:
    """(A /\\ B) -> C |- A -> (B -> C)"""
    a, b = h.left.left, h.left.right
    c = h.right
    ta = t_andR(t_ax(a, extra=(b,)), t_ax(b, extra=(a,)))
    t = t_impL(ta, t_ax(c), c)  # A, B, (A/\B)->C |- C
    return t_impR(t_impR(t, b), a)


def _lemma_or_part(h: Implies, which: str) -> ProofTree:
    """(A \\/ B) -> C |- A -> C   (or B -> C)"""
    a, b = h.left.left, h.left.right
    c = h.right
    if which == "left":
        inj = t_orR1(t_ax(a), b)
        part = a
    else:
        inj = t_orR2(t_ax(b), a)
        part = b
    t = t_impL(inj, t_ax(c), c)  # part, (A\/B)->C |- C
    return t_impR(t, part)


def _lemma_nested(h: Implies) -> ProofTree:
    """(A -> B) -> C |- B -> C"""
    a, b = h.left.left, h.left.right
    c = h.right
    tb = t_impR(t_ax(b, extra=(a,)), a)  # B |- A -> B
    t = t_impL(tb, t_ax(c), c)  # B, (A->B)->C |- C
    return t_impR(t, b)


def _derive(hyps: tuple, goal: Formula) -> ProofTree:
    for h in hyps:
        if isinstance(h, Bottom):
            return t_botL(goal, extra=_minus(hyps, h))
        if h == goal:
            return t_ax(goal, extra=_minus(hyps, h))

    base = frozenset(hyps)
    ordered = _by_key(base)
    step = _left_step(ordered, base)
    if step is not None:
        h, premises = step
        rest = _minus(hyps, h)
        ts = [_derive(_plus(rest, *replacement), goal) for replacement in premises]
        # The rule's tree over its premises' trees.
        if isinstance(h, And):
            t = t_andL2(ts[0], h.right, h.left)
            t = t_andL1(t, h.left, h.right)
            return t_cl(t, h)
        if isinstance(h, Or):
            return t_orL_on(ts[0], h.left, ts[1], h.right)
        a = h.left
        if isinstance(a, Bottom):
            return t_wl(ts[0], h)
        if isinstance(a, Var):
            t = t_impL(t_ax(a), ts[0], h.right)
            return t_cl(t, a)
        if isinstance(a, And):
            return t_cut(_lemma_curry(h), ts[0])
        t = t_cut(_lemma_or_part(h, "left"), ts[0])
        t = t_cut(_lemma_or_part(h, "right"), t)
        return t_cl(t, h)

    if isinstance(goal, And):
        return t_andR(_derive(hyps, goal.left), _derive(hyps, goal.right))
    if isinstance(goal, Implies):
        return t_impR(_derive(_plus(hyps, goal.left), goal.right), goal.left)

    if isinstance(goal, Or):
        if _decide(base, goal.left):
            return t_orR1(_derive(hyps, goal.left), goal.right)
        if _decide(base, goal.right):
            return t_orR2(_derive(hyps, goal.right), goal.left)
    for h in ordered:
        if isinstance(h, Implies) and isinstance(h.left, Implies):
            d_e, e = _nested_premises(h)
            rest = _minus(hyps, h)
            s = frozenset(rest)
            if _decide(s | {d_e}, h.left) and _decide(s | {e}, goal):
                p1 = _derive(_plus(rest, d_e), h.left)
                p2 = _derive(_plus(rest, e), goal)
                q = t_cut(_lemma_nested(h), p1)  # hyps: rest + h |- A -> B
                r = t_impL(q, p2, e)
                return t_cl_to(r, hyps)
    raise AssertionError(f"derive called on unprovable sequent {Sequent(hyps, goal)}")


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
    require_plain(*s.hyps, s.concl)
    if not _decide(frozenset(s.hyps), s.concl):
        raise ValueError(f"not provable: {s}")
    return _derive(tuple(s.hyps), s.concl)


def prove(s: Sequent, countermodel_bound: int = 6) -> Verdict:
    """Decide a sequent; attach a proof tree or a countermodel witness."""
    require_plain(*s.hyps, s.concl)
    if _decide(frozenset(s.hyps), s.concl):
        return Verdict(True, _derive(tuple(s.hyps), s.concl))
    found = find_countermodel(s, countermodel_bound)
    return Verdict(False, found if found is not None else Unknown(countermodel_bound))


def equivalent(a: Formula, b: Formula) -> bool:
    """Mutual derivability."""
    require_plain(a, b)
    return _decide(frozenset([a]), b) and _decide(frozenset([b]), a)


def classical_tautology(f: Formula) -> bool:
    """True at every valuation of the free atoms: a one-world Kripke model is
    a classical valuation, so this is the one-world countermodel sweep."""
    return first_failure(Sequent((), f), 1) is None
