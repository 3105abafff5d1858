import hashlib
import random

import pytest

from pittslab.kernel import EMPTY_THEORY, ProofTree, SchemaTheory, Sequent, check_tree
from pittslab.parser import Parser, parse_sequent
from pittslab.prover import decide, derive, derive_extensionality
from pittslab.selftest import random_formula
from pittslab.syntax import And, ConnectiveSymbol, Signature, Variable, var
from pittslab.trees import parse_tree, print_tree


def test_print_tree_of_a_deep_chain():
    # 1,200 alternating weakenings and contractions over P |- P
    lines = [
        f'{"  " * i}({"wL" if d % 2 else "cL"} "{"P, P" if d % 2 else "P"} |- P"'
        for i, d in enumerate(range(1200, 0, -1))
    ]
    text = "\n".join(lines + ["  " * 1200 + '(ax "P |- P"' + ")" * 1201])
    tree = parse_tree(text)
    assert check_tree(tree).ok
    assert print_tree(tree) == text


def test_print_tree_keeps_the_names_of_alpha_variants():
    # equal up to renaming, so one key, but each prints its own binder
    text = '(wL "exists X. X, exists Y. Y |- exists X. X"\n  (ax "exists Y. Y |- exists X. X"))'
    assert print_tree(parse_tree(text)) == text


def _node(rule, concl, premises=(), data=None):
    return ProofTree(rule, parse_sequent(concl), tuple(derive(parse_sequent(p)) for p in premises), data)


_THEORY = SchemaTheory("toy")
_THEORY.add_schema("refl", parse_sequent("P |- P"))

# One node for each datum a rule may carry; the first allR names an
# eigenvariable that the premise does not use, so the kernel rejects it.
_DATA = {
    "cut formula": _node("cut", "P |- P", ("P |- P /\\ P", "P /\\ P |- P"), And(var("P"), var("P"))),
    "exR witness": _node("exR", "P |- exists X. (X /\\ P)", ("P |- P /\\ P",), var("P")),
    "allL witness": _node("allL", "Q, forall X. (X -> P) |- P", ("Q, Q -> P |- P",), var("Q")),
    "allR eigenvariable": _node("allR", "|- forall X. (X -> X)", ("|- Y -> Y",), Variable("Z")),
    "allR declared": _node("allR", "|- forall X. (X -> X)", ("|- Y -> Y",), Variable("Y")),
    "exL eigenvariable": _node("exL", "exists X. (X /\\ P) |- P", ("Y /\\ P |- P",), Variable("Y")),
    "schema reference": ProofTree("schema", parse_sequent("Q |- Q"), (), ("refl", {Variable("P"): var("Q")})),
}


@pytest.mark.parametrize("name", list(_DATA))
def test_each_datum_survives_printing(name):
    tree = _DATA[name]
    again = parse_tree(print_tree(tree))
    assert (again.rule, again.conclusion, again.data) == (tree.rule, tree.conclusion, tree.data)
    assert check_tree(again, _THEORY) == check_tree(tree, _THEORY)
    assert check_tree(tree, _THEORY).ok == (name != "allR eigenvariable")


def test_a_datum_the_rule_does_not_read_is_not_printed():
    # the kernel reads no datum on ax, and only a formula on exR
    ax = ProofTree("ax", parse_sequent("P |- P"), (), var("P"))
    assert print_tree(ax) == '(ax "P |- P")'
    assert parse_tree(print_tree(ax)).data is None
    exr = ProofTree("exR", parse_sequent("P |- exists X. X"), (derive(parse_sequent("P |- P")),), Variable("P"))
    assert print_tree(exr) == print_tree(ProofTree("exR", exr.conclusion, exr.premises))


# `derive_extensionality` trees, one context for each kind of node: the only
# trees that use exR, exL, allR, allL and congruence.
_EXTENSIONALITY_TREES = {
    '_ /\\ Z': (
        '(andR "P -> Q, Q -> P, P /\\ Z |- Q /\\ Z"\n'
        '  (andL1 "P -> Q, Q -> P, P /\\ Z |- Q"\n'
        '    (wL "P, P -> Q, Q -> P |- Q"\n'
        '      (impL "P, P -> Q |- Q"\n'
        '        (ax "P |- P")\n'
        '        (ax "Q |- Q"))))\n'
        '  (andL2 "P -> Q, Q -> P, P /\\ Z |- Z"\n'
        '    (wL "Z, P -> Q, Q -> P |- Z"\n'
        '      (wL "Z, P -> Q |- Z"\n'
        '        (ax "Z |- Z")))))'
    ),
    'Z \\/ _': (
        '(orL "P -> Q, Q -> P, Z \\/ P |- Z \\/ Q"\n'
        '  (orR1 "Z, P -> Q, Q -> P |- Z \\/ Q"\n'
        '    (wL "Z, P -> Q, Q -> P |- Z"\n'
        '      (wL "Z, P -> Q |- Z"\n'
        '        (ax "Z |- Z"))))\n'
        '  (orR2 "P, P -> Q, Q -> P |- Z \\/ Q"\n'
        '    (wL "P, P -> Q, Q -> P |- Q"\n'
        '      (impL "P, P -> Q |- Q"\n'
        '        (ax "P |- P")\n'
        '        (ax "Q |- Q")))))'
    ),
    '_ -> Z': (
        '(impR "P -> Q, Q -> P, P -> Z |- Q -> Z"\n'
        '  (cL "Q, P -> Q, Q -> P, P -> Z |- Z"\n'
        '    (cL "Q, P -> Q, P -> Q, Q -> P, P -> Z |- Z"\n'
        '      (impL "Q, Q -> P, P -> Q, P -> Q, Q -> P, P -> Z |- Z"\n'
        '        (wL "Q, Q -> P, P -> Q |- P"\n'
        '          (impL "Q, Q -> P |- P"\n'
        '            (ax "Q |- Q")\n'
        '            (ax "P |- P")))\n'
        '        (wL "Z, P -> Q, Q -> P |- Z"\n'
        '          (wL "Z, P -> Q |- Z"\n'
        '            (ax "Z |- Z")))))))'
    ),
    'exists X. (X /\\ _)': (
        '(exL "P -> Q, Q -> P, exists X. X /\\ P |- exists X. X /\\ Q"\n'
        '  (exR "P -> Q, Q -> P, X /\\ P |- exists X. X /\\ Q" "X"\n'
        '    (andR "P -> Q, Q -> P, X /\\ P |- X /\\ Q"\n'
        '      (andL1 "P -> Q, Q -> P, X /\\ P |- X"\n'
        '        (wL "X, P -> Q, Q -> P |- X"\n'
        '          (wL "X, P -> Q |- X"\n'
        '            (ax "X |- X"))))\n'
        '      (andL2 "P -> Q, Q -> P, X /\\ P |- Q"\n'
        '        (wL "P, P -> Q, Q -> P |- Q"\n'
        '          (impL "P, P -> Q |- Q"\n'
        '            (ax "P |- P")\n'
        '            (ax "Q |- Q")))))))'
    ),
    'forall X. (X -> _)': (
        '(allR "P -> Q, Q -> P, forall X. X -> P |- forall X. X -> Q"\n'
        '  (allL "P -> Q, Q -> P, forall X. X -> P |- X -> Q" "X"\n'
        '    (impR "P -> Q, Q -> P, X -> P |- X -> Q"\n'
        '      (cL "X, P -> Q, Q -> P, X -> P |- Q"\n'
        '        (cL "X, P -> Q, P -> Q, Q -> P, X -> P |- Q"\n'
        '          (impL "X, Q -> P, P -> Q, P -> Q, Q -> P, X -> P |- Q"\n'
        '            (wL "X, Q -> P, P -> Q |- X"\n'
        '              (wL "X, Q -> P |- X"\n'
        '                (ax "X |- X")))\n'
        '            (wL "P, P -> Q, Q -> P |- Q"\n'
        '              (impL "P, P -> Q |- Q"\n'
        '                (ax "P |- P")\n'
        '                (ax "Q |- Q")))))))))'
    ),
    't(_)': (
        '(congruence "P -> Q, Q -> P, t(P) |- t(Q)"\n'
        '  (andR "P -> Q, Q -> P |- P <-> Q"\n'
        '    (impR "P -> Q, Q -> P |- P -> Q"\n'
        '      (wL "P, P -> Q, Q -> P |- Q"\n'
        '        (impL "P, P -> Q |- Q"\n'
        '          (ax "P |- P")\n'
        '          (ax "Q |- Q"))))\n'
        '    (impR "Q -> P, P -> Q |- Q -> P"\n'
        '      (wL "Q, Q -> P, P -> Q |- P"\n'
        '        (impL "Q, Q -> P |- P"\n'
        '          (ax "Q |- Q")\n'
        '          (ax "P |- P"))))))'
    ),
}


@pytest.mark.parametrize("context", list(_EXTENSIONALITY_TREES))
def test_extensionality_trees_are_pinned(context):
    hole = Variable("HOLE")
    sig = Signature([ConnectiveSymbol("t", 1)])
    tree = derive_extensionality(Parser(sig, hole).parse(context), hole, var("P"), var("Q"))
    assert print_tree(tree) == _EXTENSIONALITY_TREES[context]
    theory = SchemaTheory("congruence", sig) if context == "t(_)" else EMPTY_THEORY
    assert check_tree(tree, theory).ok


# Contexts through both quantifiers; in the last, `exists X. X` and
# `exists Y. Y` share a key but not a text.
_QUANTIFIED_CONTEXTS = (
    "exists X. (X /\\ _)",
    "forall X. (_ -> exists Y. (Y \\/ X))",
    "(exists X. X) /\\ ((exists Y. Y) -> _)",
)


def test_print_tree_bytes_are_pinned():
    # The derive trees of the provable ones among 600 seeded sequents (0-3
    # hypotheses over P, Q, R), then extensionality trees; each text is
    # hashed followed by one NUL byte.  The digest was taken before
    # print_tree became one flat loop, and taken again when derive came to
    # build its trees on sets and weaken them once, at the root.
    rng = random.Random(30)
    texts = []
    for i in range(600):
        hyps = tuple(random_formula(rng, "PQR", rng.choice((1, 3, 5, 7))) for _ in range(i % 4))
        s = Sequent(hyps, random_formula(rng, "PQR", rng.choice((5, 7, 9, 11, 13))))
        if decide(s):
            texts.append(print_tree(derive(s)))
    hole = Variable("HOLE")
    for context in _QUANTIFIED_CONTEXTS:
        tree = derive_extensionality(Parser(hole=hole).parse(context), hole, var("P"), var("Q"))
        texts.append(print_tree(tree))
    digest = hashlib.sha256(b"".join(t.encode() + b"\0" for t in texts)).hexdigest()
    assert (len(texts), digest) == (329, "0d734aa3552f6aaa8b63bae5349a42b981fef9ea09d5a0259ca2110491723c31")
