import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from pittslab.kernel import Sequent, check_tree
from pittslab.parser import parse_formula, parse_sequent
from pittslab.pitts import pite_exists, simplify
from pittslab.printer import print_formula
from pittslab.prover import (
    Unknown,
    classical_tautology,
    decide,
    derive,
    equivalent,
    prove,
)
from pittslab.selftest import random_formula
from pittslab.syntax import And, Implies, Or, UnsupportedFormula, Variable, _Binary


def seq(text):
    return parse_sequent(text)


def test_identity_and_simple_facts():
    assert decide(seq("|- P -> P"))
    assert decide(seq("P, P -> Q |- Q"))
    assert decide(seq("|- ~~(P \\/ ~P)"))
    assert not decide(seq("|- P \\/ ~P"))
    assert not decide(seq("~~P |- P"))
    assert decide(seq("~~~P |- ~P"))
    assert decide(seq("|- bot -> Q"))


@pytest.mark.parametrize("text", ["A /\\ B |- B /\\ A", "P \\/ Q, P -> R, Q -> R |- R"])
def test_derive_reuses_the_sequents_formulas(text, monkeypatch):
    # every principal and goal a rule wraps is one the search already holds
    built = []
    for cls in (And, Or, Implies):
        def counting(self, left, right, cls=cls):
            built.append(cls)
            _Binary.__init__(self, left, right)
        monkeypatch.setattr(cls, "__init__", counting)
    decide(seq(text))  # the memo now holds equal formulas that are other objects
    s = seq(text)
    assert built  # the parser's nodes were counted
    built.clear()
    tree = derive(s)
    assert built == [] and check_tree(tree).ok
    root = tree.conclusion
    assert root.concl is s.concl and root == s
    assert all(any(h is g for g in s.hyps) for h in root.hyps)


def test_monstrous_sequent_is_provable():
    f = "((P \\/ (P -> (Q \\/ ~Q))) -> (Q \\/ ~Q)) -> (P \\/ (P -> (Q \\/ ~Q)))"
    assert decide(seq("|- " + f))


def test_prove_emits_checkable_tree():
    v = prove(seq("P /\\ Q |- Q \\/ R"))
    assert v.provable
    report = check_tree(v.witness)
    assert report.ok, report.message


def test_prove_refutation_carries_countermodel():
    v = prove(seq("|- P \\/ ~P"))
    assert not v.provable
    model, world = v.witness
    assert model.refutes(world, seq("|- P \\/ ~P"))
    assert len(model.worlds) == 2


def test_equivalences():
    assert equivalent(parse_formula("top -> X1"), parse_formula("X1"))
    assert equivalent(parse_formula("~~~Y"), parse_formula("~Y"))
    assert not equivalent(parse_formula("~~X"), parse_formula("X"))


def test_decide_and_equivalent_return_exact_booleans():
    # one sequent closed by each kind of rule the decision procedure records
    cases = {
        "P |- P": True, "P /\\ Q |- P": True, "|- P -> P": True, "P |- P \\/ Q": True,
        "Q |- P \\/ Q": True, "(P -> Q) -> R, Q |- R": True, "|- P \\/ ~P": False,
    }
    for text, expected in cases.items():
        assert decide(seq(text)) is expected, text
    for a, b, expected in [("P /\\ Q", "Q /\\ P", True), ("~~P", "P", False), ("P", "Q", False)]:
        assert equivalent(parse_formula(a), parse_formula(b)) is expected


def test_classical_tautology():
    assert classical_tautology(parse_formula("P \\/ ~P"))
    assert not classical_tautology(parse_formula("bot"))
    assert classical_tautology(parse_formula("~Y \\/ ~~Y"))


def test_rejects_quantifiers_and_apps():
    with pytest.raises(UnsupportedFormula):
        decide(seq("|- exists X. X"))


def test_provable_formulas_have_no_countermodel_small_corpus():
    from pittslab.kripke import find_countermodel

    rng = random.Random(0)
    checked = 0
    for _ in range(60):
        f = random_formula(rng, ["P", "Q"], rng.choice([3, 5, 7]))
        s = Sequent((), f)
        if decide(s):
            assert find_countermodel(s, 3) is None
            checked += 1
        else:
            hit = find_countermodel(s, 6)
            assert hit is not None
            model, world = hit
            assert model.refutes(world, s)
    assert checked > 3


def test_witness_trees_check_on_random_provables():
    rng = random.Random(1)
    found = 0
    for _ in range(80):
        f = random_formula(rng, ["P", "Q", "R"], rng.choice([3, 5, 7, 9]))
        s = Sequent((), f)
        if decide(s):
            t = derive(s)
            assert t.conclusion == s
            assert check_tree(t).ok
            found += 1
    assert found > 5


def test_cut_admissibility_spot_check():
    rng = random.Random(2)
    hits = 0
    for _ in range(300):
        phi = random_formula(rng, ["P", "Q"], rng.choice([1, 3, 5]))
        gamma = random_formula(rng, ["P", "Q"], rng.choice([1, 3]))
        psi = random_formula(rng, ["P", "Q"], rng.choice([1, 3, 5]))
        if decide(Sequent((gamma,), phi)) and decide(Sequent((gamma, phi), psi)):
            assert decide(Sequent((gamma, gamma), psi))
            hits += 1
    assert hits > 10


def test_refutation_beyond_bound_reports_unknown():
    v = prove(seq("|- P \\/ ~P"), countermodel_bound=1)
    assert not v.provable
    assert isinstance(v.witness, Unknown)
    assert v.witness.bound == 1


def test_disjunct_among_the_hypotheses_closes_the_goal_at_once():
    # raw is the 305-node exists interpolant of P <-> (~Y \/ ~~Y); after impR
    # P is a hypothesis, so orR closes the goal before any left rule takes
    # raw apart (which took some 20 s and 600 MB).  A fresh process, so no
    # memo of another test helps.
    src = Path(__file__).resolve().parent.parent / "src"
    code = textwrap.dedent(r"""
        import time
        from pittslab import Sequent, Variable, check_tree, decide, derive, parse_formula, pite_exists
        raw = pite_exists(parse_formula("P <-> (~Y \\/ ~~Y)"), Variable("Y"))
        s = Sequent((raw,), parse_formula("P -> bot \\/ P"))
        t = time.perf_counter()
        assert raw.size == 305 and decide(s)
        assert time.perf_counter() - t < 1.0
        assert check_tree(derive(s)).ok
    """)
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True, timeout=60)


def _size(tree):
    return sum(1 for _ in tree.nodes())


def _read(tree):
    """The keys of the tree's hypotheses that some ax, botL or principal step
    of the tree reads; a weakening reads nothing."""
    keys = set(tree.conclusion.hyp_keys)
    read = set().union(*map(_read, tree.premises))
    if tree.rule in ("ax", "botL", "andL1", "andL2", "orL", "impL"):
        read |= keys.difference(*(p.conclusion.hyp_keys for p in tree.premises))
    return read & keys


def _random_sequents(seed, count):
    # 0-3 hypotheses over P, Q, R, and up to two repeated copies
    rng = random.Random(seed)
    for i in range(count):
        hyps = [random_formula(rng, "PQR", rng.choice((1, 3, 5))) for _ in range(i % 4)]
        hyps += [rng.choice(hyps) for _ in range(i % 3)] if hyps else []
        yield rng, Sequent(tuple(hyps), random_formula(rng, "PQR", rng.choice((3, 5, 7, 9))))


def test_derive_weakens_once_at_the_root_a_tree_that_reads_a_set():
    found = 0
    for _, s in _random_sequents(31, 300):
        if not decide(s):
            continue
        tree = derive(s)
        assert check_tree(tree).ok and tree.conclusion == s
        core = tree
        while core.rule == "wL":
            core = core.premises[0]
        keys = core.conclusion.hyp_keys
        assert len(set(keys)) == len(keys), str(s)
        assert _read(core) == set(keys), str(s)
        found += 1
    assert found > 50


def test_each_extra_copy_of_a_hypothesis_is_one_more_node():
    # at a multiset replay these took 27, 46 and 65 nodes
    s = seq("~(P \\/ ~P) |- bot")
    sizes = [_size(derive(Sequent(s.hyps * k, s.concl))) for k in (1, 2, 3)]
    assert sizes[1:] == [sizes[0] + 1, sizes[0] + 2]
    found = 0
    for rng, s in _random_sequents(32, 300):
        distinct = tuple({h.key: h for h in s.hyps}.values())
        if not distinct or not decide(s):
            continue
        k = rng.randint(1, 3)
        more = Sequent(distinct + tuple(rng.choice(distinct) for _ in range(k)), s.concl)
        assert _size(derive(more)) == _size(derive(Sequent(distinct, s.concl))) + k, str(s)
        found += 1
    assert found > 50


@pytest.mark.parametrize("body, goal, length", [
    ("(X -> (~Y \\/ ~~Y)) -> X", "~~(X -> X)", 304),
    ("P <-> (~Y \\/ ~~Y)", "~~(P -> P)", 440),
])
def test_interpolant_against_a_double_negation_derives_a_small_tree(body, goal, length):
    # the simplified exists-interpolant as hypothesis: a multiset replay
    # decomposed each copy of its repeated parts and did not finish
    e = simplify(pite_exists(parse_formula(body), Variable("Y")))
    assert len(print_formula(e)) == length
    s = Sequent((e,), parse_formula(goal))
    tree = derive(s)
    assert check_tree(tree).ok and tree.conclusion == s
    assert _size(tree) < 100
