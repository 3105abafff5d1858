import random

import pytest

from pittslab.kernel import (
    EMPTY_THEORY,
    ProofTree,
    SchemaTheory,
    Sequent,
    VariableClash,
    check_tree,
    derive_extensionality,
    t_ax,
    t_schema,
)
from pittslab.parser import parse_formula, parse_sequent
from pittslab.syntax import (
    And,
    App,
    BOT,
    ConnectiveSymbol,
    Forall,
    Implies,
    Or,
    Signature,
    Variable,
    neg,
    substitute,
    var,
)

P, Q, Z = var("P"), var("Q"), var("Z")
HOLE = Variable("HOLE")


def test_single_ax_node_accepted():
    t = ProofTree("ax", Sequent([P], P))
    assert check_tree(t).ok


def test_ax_with_wrong_hypotheses_rejected():
    t = ProofTree("ax", Sequent([P, Q], P))
    rep = check_tree(t)
    assert not rep.ok and rep.kind == "MalformedRule"


def test_botl_then_nothing_else_proves_excluded_middle_from_bottom():
    goal = parse_formula("P \\/ ~P")
    t = ProofTree("botL", Sequent([BOT], goal))
    assert check_tree(t).ok


def test_forall_r_side_condition_violated():
    # X free in the context: forall R must be rejected
    X = Variable("X")
    prem = ProofTree("ax", Sequent([var("X")], var("X")))
    concl = Sequent([var("X")], Forall(X, var("X")))
    t = ProofTree("allR", concl, (prem,))
    rep = check_tree(t)
    assert not rep.ok and rep.kind == "SideConditionViolated"


def test_forall_r_accepted_when_context_clean():
    X = Variable("X")
    prem = ProofTree("ax", Sequent([var("X")], var("X")))
    inner = ProofTree("impR", Sequent([], Implies(var("X"), var("X"))), (prem,))
    t = ProofTree("allR", Sequent([], Forall(X, Implies(var("X"), var("X")))), (inner,))
    assert check_tree(t).ok


def test_schema_requires_theory():
    sig = Signature([ConnectiveSymbol("t", 1)])
    theory = SchemaTheory("toy", sig)
    theory.add_schema("refl", parse_sequent("P |- P"))
    node = t_schema(parse_sequent("Q |- Q"), "refl", {Variable("P"): Q})
    assert not check_tree(node).ok
    assert not check_tree(node, EMPTY_THEORY).ok
    assert check_tree(node, theory).ok


def test_congruence_rule_shape():
    sig = Signature([ConnectiveSymbol("t", 1)])
    theory = SchemaTheory("toy", sig)
    t_sym = sig.get("t")
    prem = parse_sequent("P -> Q, Q -> P |- (P -> Q) /\\ (Q -> P)")
    prem_tree = ProofTree(
        "andR",
        prem,
        (
            t_ax(Implies(P, Q), extra=(Implies(Q, P),)),
            t_ax(Implies(Q, P), extra=(Implies(P, Q),)),
        ),
    )
    concl = Sequent(
        (Implies(P, Q), Implies(Q, P), App(t_sym, (P,))), App(t_sym, (Q,))
    )
    node = ProofTree("congruence", concl, (prem_tree,))
    assert not check_tree(node).ok
    assert check_tree(node, theory).ok


def test_extensionality_hole_absent():
    t = derive_extensionality(Z, HOLE, P, Q)
    assert t.conclusion == Sequent([Implies(P, Q), Implies(Q, P), Z], Z)
    assert check_tree(t).ok


def test_extensionality_hole_itself():
    t = derive_extensionality(var("HOLE"), HOLE, P, Q)
    assert t.conclusion == Sequent([Implies(P, Q), Implies(Q, P), P], Q)
    assert check_tree(t).ok


def test_extensionality_negated_hole_contraposition():
    t = derive_extensionality(neg(var("HOLE")), HOLE, P, Q)
    assert t.conclusion == Sequent([Implies(P, Q), Implies(Q, P), neg(P)], neg(Q))
    assert check_tree(t).ok


def test_extensionality_variable_clash_detected():
    from pittslab.syntax import Exists

    ctx = Exists(Variable("W"), And(var("HOLE"), var("W")))
    with pytest.raises(VariableClash):
        derive_extensionality(ctx, HOLE, var("W"), Q)


def test_extensionality_through_quantifiers():
    from pittslab.syntax import Exists

    ctx = Exists(Variable("W"), And(var("HOLE"), var("W")))
    t = derive_extensionality(ctx, HOLE, P, Q)
    assert check_tree(t).ok


def test_extensionality_through_apps_needs_congruence():
    sig = Signature([ConnectiveSymbol("t", 2), ConnectiveSymbol("psi", 1)])
    theory = SchemaTheory("toy", sig)
    ctx = parse_formula("~t(P, ~_)", sig, allow_hole=True)
    t = derive_extensionality(ctx, HOLE, var("A"), var("B"), allow_app=True)
    want_l = substitute(ctx, {HOLE: var("A")})
    want_r = substitute(ctx, {HOLE: var("B")})
    assert t.conclusion == Sequent(
        [Implies(var("A"), var("B")), Implies(var("B"), var("A")), want_l], want_r
    )
    assert not check_tree(t).ok  # congruence nodes need the theory
    assert check_tree(t, theory).ok


def _random_ctx(rng, depth):
    leaves = [var("HOLE"), var("Z"), var("W"), BOT]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.choice(["and", "or", "imp", "leaf"])
    if kind == "leaf":
        return rng.choice(leaves)
    a = _random_ctx(rng, depth - 1)
    b = _random_ctx(rng, depth - 1)
    return {"and": And, "or": Or, "imp": Implies}[kind](a, b)


def test_extensionality_random_contexts_always_check():
    rng = random.Random(0)
    for _ in range(60):
        ctx = _random_ctx(rng, 3)
        p = _random_ctx(rng, 1)
        q = _random_ctx(rng, 1)
        t = derive_extensionality(ctx, HOLE, p, q)
        want = Sequent(
            [Implies(p, q), Implies(q, p), substitute(ctx, {HOLE: p})],
            substitute(ctx, {HOLE: q}),
        )
        assert t.conclusion == want
        assert check_tree(t).ok, (ctx, p, q)


def test_check_report_pinpoints_first_failing_node():
    good = t_ax(P)
    bad = ProofTree("ax", Sequent([P, Q], P))
    tree = ProofTree("andR", Sequent([P, Q], And(P, P)), (ProofTree("ax", Sequent([P, Q], P)), bad))
    rep = check_tree(tree)
    assert not rep.ok
    assert rep.path == (0,)  # leftmost failure reported first


def test_check_report_pinpoints_failure_deep_in_a_chain():
    # 1,200 alternating weakenings and contractions over P |- P, with a Q in
    # the contraction 900 levels down: it and its parent fail, the parent
    # first in preorder; so does a bad right sibling of the whole chain
    tree = t_ax(P)
    for depth in range(1200, 0, -1):
        hyps = [P, Q] if depth == 900 else [P, P] if depth % 2 else [P]
        tree = ProofTree("wL" if depth % 2 else "cL", Sequent(hyps, P), (tree,))
    rep = check_tree(tree)
    assert not rep.ok and rep.path == (0,) * 898
    bad_sibling = ProofTree("ax", Sequent([P, P], P))
    both = ProofTree("andR", Sequent([P, P], And(P, P)), (tree, bad_sibling))
    assert check_tree(both).path == (0,) * 899
    assert sum(1 for _ in tree.nodes()) == 1201


def test_cut_with_wrong_merge_rejected():
    from pittslab.kernel import t_ax

    p1 = t_ax(P)
    p2 = t_ax(Q, extra=(P,))
    bad = ProofTree("cut", Sequent([Q], Q), (p1.conclusion and p1, p2), P)
    assert not check_tree(bad).ok  # dropped premise-one context


def test_orl_with_mismatched_branches_rejected():
    t1 = ProofTree("ax", Sequent([P], P))
    t2 = ProofTree("ax", Sequent([Q], Q))
    bad = ProofTree("orL", Sequent([Or(P, Q)], P), (t1, t2))
    assert not check_tree(bad).ok


def test_impl_with_wrong_split_rejected():
    t1 = ProofTree("ax", Sequent([P], P))
    t2 = ProofTree("ax", Sequent([Q], Q))
    bad = ProofTree("impL", Sequent([P, Implies(P, Q), Z], Q), (t1, t2))
    assert not check_tree(bad).ok  # Z appears from nowhere


def test_exr_with_wrong_witness_rejected():
    from pittslab.syntax import Exists

    X = Variable("X")
    prem = ProofTree("ax", Sequent([Q], Q))
    node = ProofTree("exR", Sequent([Q], Exists(X, var("X"))), (prem,), P)
    assert not check_tree(node).ok  # declared witness P but premise proves Q


def test_wr_needs_bot_premise():
    prem = ProofTree("ax", Sequent([P], P))
    bad = ProofTree("wR", Sequent([P], Q), (prem,))
    assert not check_tree(bad).ok
