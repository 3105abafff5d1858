import hashlib
import random

import pytest

from pittslab.kernel import Sequent
from pittslab.parser import parse_formula
from pittslab.pitts import (
    interpolate,
    pita_forall,
    pite_exists,
    probe_corpus,
    simplify,
    validate_interpolant,
)
from pittslab.prover import decide, equivalent
from pittslab.selftest import random_formula
from pittslab.syntax import (
    And,
    BOT,
    TOP,
    UnsupportedFormula,
    Variable,
    neg,
    substitute,
    var,
)

Y = Variable("Y")


def f(text):
    return parse_formula(text)


REFERENCE_BODIES = [
    ("(~Y -> X1) /\\ (~~Y -> X2)", "(~X1 -> X2) /\\ (~X2 -> X1)"),
    ("(Y \\/ ~Y) -> (P /\\ Q)", "~~(P /\\ Q)"),
    ("P <-> (~Y \\/ ~~Y)", "~~P"),
    ("(P -> (Y \\/ ~Y)) -> P", "~~P"),
    ("(X -> (~Y \\/ ~~Y)) -> X", "~~X"),
]


@pytest.mark.parametrize("body,expected", REFERENCE_BODIES)
def test_reference_interpolant_regressions(body, expected):
    e = pite_exists(f(body), Y)
    assert Y not in e.free_vars
    assert equivalent(e, f(expected))
    # simplify keeps equivalence and never grows
    s = simplify(e)
    assert s.size <= e.size
    assert equivalent(s, e)


def test_exists_vacuous_variable():
    e = pite_exists(f("X"), Y)
    assert equivalent(e, f("X"))


def test_forall_examples():
    assert equivalent(pita_forall(f("Y"), Y), BOT)
    assert equivalent(pita_forall(f("X"), Y), f("X"))


def test_forall_of_disjunction_against_independent_oracle():
    # expected value X, certified the way the contract states it: the result
    # entails every instance, and anything entailing the input entails it
    a = pita_forall(f("X \\/ Y"), Y)
    assert Y not in a.free_vars
    for t in (BOT, TOP, f("X")):
        inst = substitute(f("X \\/ Y"), {Y: t})
        assert decide(Sequent((a,), inst))
    for psi in probe_corpus([Variable("X")], 6):
        if decide(Sequent((psi,), f("X \\/ Y"))):
            assert decide(Sequent((psi,), a))
    assert equivalent(a, f("X"))


def test_validate_interpolant_accepts_reference_value_and_rejects_top():
    body = f("(~Y -> X1) /\\ (~~Y -> X2)")
    probes = probe_corpus([Variable("X1"), Variable("X2")], 6)
    good = validate_interpolant(body, Y, f("(~X1 -> X2) /\\ (~X2 -> X1)"), probes)
    assert good.ok
    bad = validate_interpolant(body, Y, TOP, probes)
    assert not bad.ok
    assert any(psi == f("~X1 -> X2") for psi, _ in bad.failures)


def test_validate_forall_interpolant_rejects_wrong_candidate():
    from pittslab.pitts import validate_forall_interpolant

    X = f("X")
    rep = validate_forall_interpolant(f("X \\/ Y"), Y, BOT, probe_corpus([Variable("X")], 6))
    assert not rep.ok
    assert (X, "input") in rep.failures


def test_validate_trivial_identity():
    rep = validate_interpolant(f("X"), Y, f("X"), probe_corpus([Variable("X")], 6))
    assert rep.ok


def test_simplify_examples():
    assert simplify(And(TOP, var("X"))) == var("X")
    assert simplify(neg(neg(neg(var("P"))))) == neg(var("P"))
    raw = pite_exists(f("(P -> (Y \\/ ~Y)) -> P"), Y)
    assert equivalent(simplify(raw), f("~~P"))


def test_rejects_quantified_input():
    with pytest.raises(UnsupportedFormula):
        pite_exists(f("exists X. X"), Y)


def test_variable_condition_and_strongest_consequence_random():
    rng = random.Random(0)
    for _ in range(120):
        phi = random_formula(rng, ["Y", "P", "Q"], rng.choice([3, 5, 7]))
        e = pite_exists(phi, Y)
        assert Y not in e.free_vars
        assert decide(Sequent((phi,), e))


def test_weakest_antecedent_random_probe_substitutions():
    rng = random.Random(1)
    for _ in range(60):
        phi = random_formula(rng, ["Y", "P"], rng.choice([3, 5, 7]))
        a = pita_forall(phi, Y)
        assert Y not in a.free_vars
        probes = [BOT, TOP, f("P"), random_formula(rng, ["P"], 5)]
        for t in probes:
            assert decide(Sequent((a,), substitute(phi, {Y: t})))


def test_monotonicity_on_implication_pairs():
    rng = random.Random(2)
    pairs = 0
    while pairs < 40:
        a = random_formula(rng, ["Y", "P", "Q"], rng.choice([3, 5]))
        b = random_formula(rng, ["Y", "P", "Q"], rng.choice([3, 5]))
        if decide(Sequent((a,), b)):
            ea, eb = pite_exists(a, Y), pite_exists(b, Y)
            assert decide(Sequent((ea,), eb))
            pairs += 1


def test_idempotence_on_variable_free_input():
    rng = random.Random(3)
    for _ in range(60):
        phi = random_formula(rng, ["P", "Q"], rng.choice([3, 5, 7]))
        assert equivalent(pite_exists(phi, Y), phi)


def test_interpolate_bundles_certificates():
    res = interpolate(f("(Y \\/ ~Y) -> (P /\\ Q)"), Y, [BOT, TOP, f("P /\\ Q")])
    assert res.certificate_checks and all(ok for _, ok in res.certificate_checks)
    assert equivalent(res.existential, f("~~(P /\\ Q)"))


def test_probe_biconditional_on_random_small_bodies():
    rng = random.Random(9)
    probes = probe_corpus([Variable("P"), Variable("Q")], 6)
    for _ in range(12):
        body = random_formula(rng, ["Y", "P", "Q"], rng.choice([5, 7]))
        rep = validate_interpolant(body, Y, pite_exists(body, Y), probes)
        assert rep.ok, (body, rep.failures[:3])


def test_forall_defining_biconditional_random():
    from pittslab.pitts import validate_forall_interpolant

    rng = random.Random(10)
    probes = probe_corpus([Variable("P"), Variable("Q")], 6)
    for _ in range(10):
        body = random_formula(rng, ["Y", "P", "Q"], rng.choice([5, 7]))
        rep = validate_forall_interpolant(body, Y, pita_forall(body, Y), probes)
        assert rep.ok, (body, rep.failures[:3])


def test_interpolants_of_single_variable_bodies_collapse():
    # eliminating the only variable leaves a closed formula: the existential
    # interpolant is top exactly when the body is consistent, the universal
    # one is top exactly when the body is outright derivable
    rng = random.Random(13)
    for _ in range(80):
        phi = random_formula(rng, ["Y"], rng.choice([1, 3, 5, 7]))
        e = pite_exists(phi, Y)
        a = pita_forall(phi, Y)
        inconsistent = decide(Sequent((phi,), BOT))
        derivable = decide(Sequent((), phi))
        assert equivalent(e, BOT if inconsistent else TOP), phi
        assert equivalent(a, TOP if derivable else BOT), phi


def test_forall_gate_on_reference_bodies():
    from pittslab.pitts import validate_forall_interpolant

    for body, _expected in REFERENCE_BODIES:
        phi = f(body)
        atoms = sorted(phi.free_vars - {Y})
        probes = probe_corpus(atoms, 6)
        rep = validate_forall_interpolant(phi, Y, pita_forall(phi, Y), probes)
        assert rep.ok, (body, rep.failures[:3])


@pytest.mark.parametrize(
    "atoms, max_nodes, length, digest",
    [
        ((), 9, 505, "dbea1780308e7e8114486f4e8f1ca00e3cff8b35d5c743abaaa317365fc4d3bd"),
        (("P",), 8, 942, "314ac6f16f102c1d73a34b91805cc33eb9c6eb4ecb19c9a63ea551cd4381fecb"),
        (("P", "Q"), 7, 4203, "4dae555bfbf39db4813c15e8f35984465fe3b3b7e36843920c39020fc89c7d8c"),
        (("X1", "X2", "Y"), 5, 616, "ebd8d802e8d814828b13794e9f3d1ecae51701c7703708ecde89416b0ea1e7d1"),
    ],
)
def test_probe_corpus_is_pinned(atoms, max_nodes, length, digest):
    # length and sha256 of the newline-joined keys, in corpus order
    corpus = probe_corpus([Variable(a) for a in atoms], max_nodes)
    assert len(corpus) == length
    assert hashlib.sha256("\n".join(g.key for g in corpus).encode()).hexdigest() == digest
