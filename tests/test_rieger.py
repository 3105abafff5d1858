import itertools
import random

import pytest

from pittslab.kernel import Sequent
from pittslab.kripke import connective_mask
from pittslab.parser import parse_formula
from pittslab.prover import decide, equivalent
from pittslab.rieger import (
    MAX_LEVEL,
    HypothesisFails,
    LevelExceeded,
    RNLattice,
    _forced,
    _imp_depth,
    _universal_model,
    check_rieger_lower_facts,
    default_lattice,
    refuting_model,
    rn_classify,
)
from pittslab.selftest import random_formula
from pittslab.syntax import And, Implies, Or, var


def f(text):
    return parse_formula(text)


def test_universal_model_oracle_agrees_with_prover():
    rng = random.Random(7)
    for _ in range(600):
        a = random_formula(rng, ["X"], rng.choice([1, 3, 5, 7, 9]))
        b = random_formula(rng, ["X"], rng.choice([1, 3, 5, 7, 9]))
        assert (refuting_model(a, b) is None) == decide(Sequent((a,), b)), (a, b)


def test_classify_idempotent_conjunction():
    cls = rn_classify(f("X /\\ X"))
    assert cls.representative == var("X")


def test_classify_triple_negation_with_single():
    assert rn_classify(f("~~~X")).level == rn_classify(f("~X")).level


def test_classify_accepts_other_variable_names():
    assert rn_classify(f("~~~Y")).level == rn_classify(f("~X")).level


def test_classify_is_a_congruence_on_random_formulas():
    rng = random.Random(8)
    lattice = default_lattice()
    for _ in range(40):
        a = random_formula(rng, ["X"], rng.choice([1, 3, 5, 7]))
        b = random_formula(rng, ["X"], rng.choice([1, 3, 5, 7]))
        ca = lattice.classify(a)
        cb = lattice.classify(b)
        assert equivalent(a, b) == (ca.level == cb.level)


def test_corollary_formulas_distinct_and_ordered():
    lattice = default_lattice()
    wlem = lattice.classify(f("~X \\/ ~~X"))
    mid = lattice.classify(f("~~X \\/ (~~X -> X)"))
    top = lattice.classify(f("(~~X -> X) -> (X \\/ ~X)"))
    assert len({wlem.level, mid.level, top.level}) == 3
    # weak excluded middle strictly below both; the other two side by side
    assert lattice.leq(wlem, mid) and not lattice.leq(mid, wlem)
    assert lattice.leq(wlem, top) and not lattice.leq(top, wlem)
    assert not lattice.leq(mid, top) and not lattice.leq(top, mid)


def test_representatives_pairwise_inequivalent_with_certificates():
    lattice = default_lattice()
    reps = lattice.reps
    for i, j in itertools.combinations(range(len(reps)), 2):
        a, b = reps[i], reps[j]
        hit = refuting_model(a, b) or refuting_model(b, a)
        assert hit is not None, (i, j)
        model, world = hit
        # the refutation is certified by the model itself
        if refuting_model(a, b) is not None:
            assert model.refutes(world, Sequent((a,), b))
        else:
            assert model.refutes(world, Sequent((b,), a))


def test_small_representatives_prover_inequivalent():
    lattice = default_lattice()
    small = [r for r in lattice.reps if r.size <= 40]
    assert len(small) >= 10
    for a, b in itertools.combinations(small, 2):
        assert not equivalent(a, b)


def test_recurrence_reaches_every_class():
    # By induction on L: if every formula of connective depth at most L is
    # equivalent to a level-L representative, a formula op(a, b) of depth
    # L + 1 is equivalent to op(r[i], r[j]) for two of them.  Its mask on the
    # level-(L + 1) truncation is that of a level-(L + 1) representative, and
    # both have implication depth at most L + 1, so they are equivalent.
    assert all(_imp_depth(r) <= 12 for r in default_lattice(12).reps)
    for level in range(MAX_LEVEL):
        upper = RNLattice(level + 1)
        _, _, g = _universal_model(upper.depth)
        masks = set(upper._masks(upper.depth))
        assert len(masks) == len(upper.reps) == 2 * level + 4
        below = RNLattice(level)._masks(upper.depth)
        for a, b in itertools.product(below, repeat=2):
            for op in (And, Or, Implies):
                assert connective_mask(op, a, b, g) in masks, (level, op, a, b)


def test_level_exceeded():
    lattice = RNLattice(2)
    deep = f("(~~X -> X) -> (X \\/ ~X)")
    with pytest.raises(LevelExceeded):
        lattice.classify(deep)


def test_deep_formula_does_not_inherit_a_shallow_class():
    # On the level-1 truncation (depth 4) this formula forces what top
    # forces, but it is not equivalent to top: it lies in class 16.
    deep = f("((((~~X -> X) -> X \\/ ~X) -> ~X \\/ ~~X) -> ~~X \\/ (~~X -> X)) \\/ "
             "(((((~~X -> X) -> X \\/ ~X) -> ~X \\/ ~~X) -> ~~X \\/ (~~X -> X)) -> "
             "(~~X -> X) \\/ ((~~X -> X) -> X \\/ ~X))")
    assert deep.size == 97
    lattice = RNLattice(1)
    assert lattice.depth == 4
    assert _forced((deep,), 4) == _forced((f("top"),), 4)
    with pytest.raises(LevelExceeded):
        lattice.classify(deep)
    assert default_lattice(12).classify(deep).level == 16


def test_rieger_facts_on_kreisel_body():
    rep = check_rieger_lower_facts(f("~Y \\/ ~~Y"))
    assert rep.all_hold


def test_rieger_facts_on_top():
    rep = check_rieger_lower_facts(f("top"))
    assert rep.all_hold


def test_rieger_facts_on_scott_antecedent():
    rep = check_rieger_lower_facts(f("(~~Y -> Y) -> (Y \\/ ~Y)"))
    assert rep.all_hold


def test_rieger_facts_hypothesis_failure():
    with pytest.raises(HypothesisFails):
        check_rieger_lower_facts(f("Y"))
