import random
from collections import Counter

import pytest

from pittslab.kernel import (
    EMPTY_THEORY,
    KernelError,
    ProofTree,
    SchemaTheory,
    Sequent,
    _one_extra,
    check_tree,
)
from pittslab.parser import parse_formula, parse_sequent
from pittslab.prover import VariableClash, decide, derive, derive_extensionality, t_ax
from pittslab.replays import load_suite
from pittslab.selftest import random_formula
from pittslab.syntax import (
    And,
    App,
    BOT,
    ConnectiveSymbol,
    Exists,
    Forall,
    Implies,
    Or,
    Signature,
    Variable,
    neg,
    substitute,
    var,
)
from pittslab.trees import parse_tree, print_tree

P, Q, Z = var("P"), var("Q"), var("Z")
HOLE = Variable("HOLE")


def test_sequents_and_tree_nodes_refuse_assignment_and_deletion():
    s = Sequent([P, Q], P)
    node = ProofTree("ax", Sequent([P], P))
    for record in (s, node):
        assert not hasattr(record, "__dict__")
        for name in type(record).__slots__ + ("extra",):
            before = getattr(record, name, None)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name, None) is before


def test_an_unknown_rule_is_a_kernel_error():
    with pytest.raises(KernelError, match="unknown rule 'nosuch'"):
        ProofTree("nosuch", Sequent([P], P))


def test_sequents_compare_as_multisets_and_are_unhashable():
    assert Sequent([P, Q, P], Z) == Sequent((Q, P, P), Z)
    assert Sequent([P, Q], Z) != Sequent([P, Q, Q], Z)
    assert Sequent([P], Z) != Sequent([P], Q)
    assert Sequent([P, Q], Z).hyp_keys == ("vP", "vQ")
    with pytest.raises(TypeError):
        hash(Sequent([P], P))


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


def test_a_witness_captured_by_a_binder_is_no_instance():
    # read off exists W. (W <-> ~W), the witness for X is W, which that
    # binder captures: the instance of the body at W is exists Z. (Z <-> ~W)
    exl = ProofTree("exL", parse_sequent("exists W. (W <-> ~W) |- bot"),
                    (derive(parse_sequent("W <-> ~W |- bot")),))
    assert check_tree(exl).ok
    node = ProofTree("allL", parse_sequent("forall X. exists Z. (Z <-> ~X) |- bot"), (exl,))
    rep = check_tree(node)
    assert (rep.kind, rep.message) == (
        "MalformedRule", "at node []: allL: no universal hypothesis matches the premise")


@pytest.mark.parametrize("rule, concl, premise", [
    ("allR", "|- forall X. (X -> Y)", "|- Y -> Y"),  # Y is free in the principal formula
    ("exL", "exists X. (X /\\ ~Y) |- bot", "Y /\\ ~Y |- bot"),
])
def test_an_eigenvariable_free_in_the_principal_formula_is_rejected(rule, concl, premise):
    node = ProofTree(rule, parse_sequent(concl), (derive(parse_sequent(premise)),))
    rep = check_tree(node)
    assert (rep.kind, rep.message) == (
        "SideConditionViolated", f"at node []: {rule}: Y occurs free in the context")


def test_exr_and_alll_read_the_witness_off_renamed_binders():
    # no witness declared: X is Q, and the instance names its binder W, not Z
    inst = parse_formula("exists W. (W <-> ~Q)")
    alll = ProofTree("allL", Sequent([parse_formula("forall X. exists Z. (Z <-> ~X)")], inst),
                     (t_ax(inst),))
    exr = ProofTree("exR", Sequent([inst], parse_formula("exists X. exists Z. (Z <-> ~X)")),
                    (t_ax(inst),))
    assert check_tree(alll).ok and check_tree(exr).ok


def test_allr_and_exl_read_the_eigenvariable_off_the_premise():
    # no eigenvariable declared: Q for allR and R for exL, free in neither conclusion
    exr = ProofTree("exR", parse_sequent("|- exists W. (W -> Q)"), (derive(parse_sequent("|- Q -> Q")),))
    allr = ProofTree("allR", parse_sequent("|- forall X. exists Z. (Z -> X)"), (exr,))
    exl = ProofTree("exL", parse_sequent("exists X. (X /\\ P) |- P"),
                    (derive(parse_sequent("R /\\ P |- P")),))
    assert check_tree(allr).ok and check_tree(exl).ok


def test_a_schema_node_with_bindings_survives_printing():
    theory, _ = load_suite("tara")
    bindings = {Variable("P"): parse_formula("A /\\ t(A, B)", theory.signature), Variable("Q"): BOT}
    concl = theory.instantiate("left", bindings)
    node = ProofTree("schema", Sequent(concl.hyps + (Z,), concl.concl), (), ("left", bindings))
    again = parse_tree(print_tree(node), theory.signature)
    assert (again.rule, again.conclusion, again.data) == (node.rule, node.conclusion, node.data)
    assert check_tree(again, theory).ok


def test_schema_requires_theory():
    sig = Signature([ConnectiveSymbol("t", 1)])
    theory = SchemaTheory("toy", sig)
    theory.add_schema("refl", parse_sequent("P |- P"))
    node = ProofTree("schema", parse_sequent("Q |- Q"), (), ("refl", {Variable("P"): Q}))
    assert not check_tree(node).ok
    assert not check_tree(node, EMPTY_THEORY).ok
    assert check_tree(node, theory).ok


def test_a_missing_formula_is_not_taken_from_another_hypothesis():
    # Each premise holds R where the removed formula belongs.  Taking one
    # copy of R away instead would make every conclusion below fit.
    R = var("R")
    cut = ProofTree("cut", Sequent([Q], R), (t_ax(Q), t_ax(R)))
    assert "cut formula missing" in check_tree(cut).message
    impl = ProofTree("impL", Sequent([P, Implies(P, Q)], R), (t_ax(P), t_ax(R)))
    assert "no implication hypothesis" in check_tree(impl).message
    theory = SchemaTheory("toy")
    theory.add_schema("refl", parse_sequent("P |- P"))
    node = ProofTree("schema", parse_sequent("R |- Q"), (), ("refl", {Variable("P"): Q}))
    assert "not an instance of schema" in check_tree(node, theory).message


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
    for quantifier in (Exists, Forall):
        ctx = quantifier(Variable("W"), And(var("HOLE"), var("W")))
        t = derive_extensionality(ctx, HOLE, P, Q)
        assert check_tree(t).ok, quantifier


def test_extensionality_through_apps_needs_congruence():
    sig = Signature([ConnectiveSymbol("t", 2), ConnectiveSymbol("psi", 1)])
    theory = SchemaTheory("toy", sig)
    ctx = parse_formula("~t(P, ~_)", sig, hole=HOLE)
    t = derive_extensionality(ctx, HOLE, var("A"), var("B"))
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
    X = Variable("X")
    prem = ProofTree("ax", Sequent([Q], Q))
    node = ProofTree("exR", Sequent([Q], Exists(X, var("X"))), (prem,), P)
    assert not check_tree(node).ok  # declared witness P but premise proves Q
    # no declared witness, and the premise's disjunction parts in shape from
    # the body's conjunction before reaching Z
    prem = derive(parse_sequent("P \\/ Q |- P \\/ Q"))
    node = ProofTree("exR", parse_sequent("P \\/ Q |- exists Z. Z /\\ P"), (prem,))
    rep = check_tree(node)
    assert (rep.kind, rep.message) == (
        "MalformedRule", "at node []: exR: premise does not instantiate the quantified body")


def test_wr_needs_bot_premise():
    prem = ProofTree("ax", Sequent([P], P))
    bad = ProofTree("wR", Sequent([P], Q), (prem,))
    assert not check_tree(bad).ok


def _hypothesis_pool():
    # pairs of alpha-variants: equal keys, different binder names
    X, Y = Variable("X"), Variable("Y")
    return [
        P, Q, BOT, And(P, Q), And(Q, P), Implies(P, BOT),
        Exists(X, var("X")), Exists(Z.var, Z),
        Forall(X, Implies(var("X"), P)), Forall(Y, Implies(var("Y"), P)),
        Exists(X, And(var("X"), Q)), Exists(Y, And(var("Y"), Q)),
    ]


def test_hypothesis_multisets_agree_with_a_counter_reference():
    # Sequent equality and the one-extra finder on sorted key tuples, against
    # Counters of formulas (which hash and compare by key): duplicates,
    # alpha-variants, one extra copy, one swapped formula, shuffled orders.
    rng = random.Random(18)
    pool = _hypothesis_pool()
    assert Exists(Variable("X"), var("X")) == Exists(Z.var, Z)
    extras = 0
    for _ in range(3000):
        a = [rng.choice(pool) for _ in range(rng.randrange(7))]
        shape = rng.randrange(4)
        if shape == 0:
            b = a + [rng.choice(pool)]
        elif shape == 1 and a:
            b = a[:]
            b[rng.randrange(len(b))] = rng.choice(pool)
        elif shape == 2:
            b = a[:]
        else:
            b = [rng.choice(pool) for _ in range(rng.randrange(8))]
        rng.shuffle(b)
        sa, sb = Sequent(a, P), Sequent(b, P)
        ca, cb = Counter(a), Counter(b)
        assert (sa == sb) == (ca == cb) == (sb == sa)
        more, fewer = cb - ca, ca - cb
        want = next(iter(more)).key if more.total() == 1 and not fewer else None
        assert _one_extra(sb.hyp_keys, sa.hyp_keys) == want
        assert _one_extra(sa.hyp_keys, sb.hyp_keys) is None or want is None
        extras += want is not None
    assert extras > 500


def _random_provable(rng, count):
    # prove-workload shape: 0-3 hypotheses over at most 4 atoms, formulas of
    # at most 17 nodes, at most 32 nodes in all
    out = []
    while len(out) < count:
        sizes = [rng.randrange(1, 18, 2) for _ in range(rng.randrange(4) + 1)]
        if sum(sizes) > 32:
            continue
        *hyps, concl = [random_formula(rng, "PQRS", n) for n in sizes]
        s = Sequent(hyps, concl)
        if decide(s):
            out.append(s)
    return out


def _with_hyps(tree, path, hyps):
    """`tree` with the node at `path` concluding from `hyps` instead."""
    if not path:
        return ProofTree(tree.rule, Sequent(hyps, tree.conclusion.concl), tree.premises, tree.data)
    premises = list(tree.premises)
    premises[path[0]] = _with_hyps(premises[path[0]], path[1:], hyps)
    return ProofTree(tree.rule, tree.conclusion, premises, tree.data)


def test_one_hypothesis_more_or_less_is_rejected_at_the_node_or_its_parent():
    rng = random.Random(1804)
    mutants = 0
    for s in _random_provable(rng, 40):
        tree = derive(s)
        assert check_tree(tree).ok
        todo, paths = [(tree, ())], []
        while todo:
            node, path = todo.pop()
            if node.conclusion.hyps:
                paths.append(path)
            todo.extend((p, path + (i,)) for i, p in enumerate(node.premises))
        for path in rng.sample(paths, min(6, len(paths))):
            node = tree
            for i in path:
                node = node.premises[i]
            hyps = list(node.conclusion.hyps)
            dropped = hyps[:]
            del dropped[rng.randrange(len(dropped))]
            for changed in (dropped, hyps + [rng.choice(hyps)]):
                rep = check_tree(_with_hyps(tree, path, changed))
                assert not rep.ok and rep.kind == "MalformedRule", (s, path, changed)
                assert rep.path in (path, path[:-1]), (s, path, rep)
                mutants += 1
    assert mutants > 300
