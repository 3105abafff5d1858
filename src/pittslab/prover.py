"""Decision procedure for quantifier-free intuitionistic derivability.

Proof search runs in a contraction-free calculus (G4ip): the left rules for
implication are split on the head connective of the antecedent, so search
terminates without loop checking.  Successful searches are replayed into
plain sequent-calculus trees (with cuts) that the kernel checks.

The rule schedule is written once: `_left_step` applies the invertible
left rules to the first reducible hypothesis in key order (`_by_key`), and
`_nested_premises` gives the premises of the (c -> d) -> e choice point.
`_decide` searches with them and records the rule that closes each provable
sequent; the witness builder replays that record, and the uniform
interpolants in `pitts` combine the rules' premises their own way.
"""
from __future__ import annotations

from collections.abc import Iterable
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
from .kripke import DEFAULT_BOUND, find_countermodel, first_failure
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
# Witness construction.  Replays on exact multisets the rule `_decide` recorded
# for each node's set, and emits Def-1.3-style trees.  The record holds where a
# principal's copy stays beside its replacements: a second (c -> d) -> e proves
# c -> d iff d -> e does, and is redundant beside e (Dyckhoff, JSL 1992).

def _lemma_curry(h: Implies) -> ProofTree:
    """(A /\\ B) -> C |- A -> (B -> C)"""
    a, b, c = h.left.left, h.left.right, h.right
    ta = t_andR(t_ax(a, extra=(b,)), t_ax(b, extra=(a,)))
    t = t_impL(ta, t_ax(c), c)  # A, B, (A/\B)->C |- C
    return t_impR(t_impR(t, b), a)


def _lemma_or_part(h: Implies, first: bool) -> ProofTree:
    """(A \\/ B) -> C |- A -> C   (or B -> C when not `first`)"""
    a, b = h.left.left, h.left.right
    inj = t_orR1(t_ax(a), b) if first else t_orR2(t_ax(b), a)
    t = t_impL(inj, t_ax(h.right), h.right)  # A (or B), (A\/B)->C |- C
    return t_impR(t, a if first else b)


def _lemma_nested(h: Implies) -> ProofTree:
    """(A -> B) -> C |- B -> C"""
    a, b, c = h.left.left, h.left.right, h.right
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
    rule = _decide(base, goal)
    if rule is _RIGHT:
        if isinstance(goal, And):
            return t_andR(_derive(hyps, goal.left), _derive(hyps, goal.right))
        return t_impR(_derive(hyps + (goal.left,), goal.right), goal.left)
    if rule is _FIRST:
        return t_orR1(_derive(hyps, goal.left), goal.right)
    if rule is _SECOND:
        return t_orR2(_derive(hyps, goal.right), goal.left)

    h = rule
    rest = _minus(hyps, h)
    step = _left_step((h,), base)
    if step is None:  # the (c -> d) -> e choice
        d_e, e = _nested_premises(h)
        # rest, h |- c -> d, then the implication left rule on h
        q = t_cut(_lemma_nested(h), _derive(rest + (d_e,), h.left))
        return t_cl_to(t_impL(q, _derive(rest + (e,), goal), e), hyps)

    ts = [_derive(rest + replacement, goal) for replacement in step[1]]
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
    t = t_cut(_lemma_or_part(h, True), ts[0])
    t = t_cut(_lemma_or_part(h, False), t)
    return t_cl(t, h)


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
    return _derive(s.hyps, s.concl)


def prove(s: Sequent, countermodel_bound: int = DEFAULT_BOUND) -> Verdict:
    """Decide a sequent; attach a proof tree or a countermodel witness."""
    if decide(s):
        return Verdict(True, _derive(s.hyps, s.concl))
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
