import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pittslab.kernel import Sequent
from pittslab.parser import parse_formula
from pittslab.pitts import (
    pita_forall,
    pite_exists,
    probe_corpus,
    simplify,
    validate_interpolant,
)
from pittslab import kripke, prover
from pittslab.prover import decide, equivalent
from pittslab.selftest import random_formula
from pittslab.syntax import (
    And,
    BOT,
    Implies,
    Or,
    TOP,
    UnsupportedFormula,
    Var,
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
    # each substitution instance of the body lies between the two
    # interpolants: forall |- phi[T/Y] and phi[T/Y] |- exists
    phi = f("(Y \\/ ~Y) -> (P /\\ Q)")
    ex, un = pite_exists(phi, Y), pita_forall(phi, Y)
    for t in (BOT, TOP, f("P /\\ Q")):
        inst = substitute(phi, {Y: t})
        assert decide(Sequent((un,), inst)) and decide(Sequent((inst,), ex))
    assert equivalent(ex, f("~~(P /\\ Q)"))


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


def test_probe_corpus_takes_each_atom_once():
    P = Variable("P")
    assert probe_corpus([P, P], 3) is probe_corpus([P], 3)
    assert len(probe_corpus([P], 3)) == 12


def test_probe_corpus_below_one_node_is_empty():
    # a budget below one node admits no formula, not even a leaf; the gate
    # then runs no probe
    P = Variable("P")
    for atoms in ([], [P], [P, Variable("Q")]):
        for max_nodes in (0, -1, -3):
            assert probe_corpus(atoms, max_nodes) == ()
        assert len(probe_corpus(atoms, 1)) == len(atoms) + 1
    rep = validate_interpolant(f("P"), Y, f("P"), probe_corpus([P], 0))
    assert rep.ok and rep.probes_run == 0 and rep.failures == []


# ---------------------------------------------------------------------------
# The gate settles on the 2-chain grid the sequents a two-world model already
# refutes, and calls `decide` for the rest; none of that may show in a report.

def _reference_gate(phi, y, candidate, probes, forall):
    """The gate with `decide` on every sequent and no masks."""
    def entails(a, b):
        return decide(Sequent((b,), a) if forall else Sequent((a,), b))

    consequence = entails(phi, candidate)
    failures = []
    count = 0
    for psi in probes:
        if y in psi.free_vars:
            continue
        count += 1
        left, right = entails(candidate, psi), entails(phi, psi)
        if left != right:
            failures.append((psi, "candidate" if left else "input"))
    variable_free = y not in candidate.free_vars
    return variable_free, consequence, failures, count, variable_free and consequence and not failures


def _gate_inputs():
    """Seeded bodies over Y,P and Y,P,Q, each with its interpolant raw and
    simplified and with four wrong candidates, one of them over an atom R
    that neither the corpus nor the body has, for both gates; the last
    corpus is built over Y as well, so the gate drops its probes with Y."""
    from pittslab.pitts import validate_forall_interpolant

    rng = random.Random(41)
    for atoms, probes in (
        (["Y", "P"], probe_corpus([Variable("P")], 6)),
        (["Y", "P", "Q"], probe_corpus([Variable("P"), Variable("Q")], 5)),
        (["Y", "P"], probe_corpus([Y, Variable("P")], 5)),
    ):
        for _ in range(4):
            phi = random_formula(rng, atoms, rng.choice([5, 7, 9]))
            wrong = random_formula(rng, atoms[1:], rng.choice([3, 5]))
            for gate, interpolant, forall in (
                (validate_interpolant, pite_exists, False),
                (validate_forall_interpolant, pita_forall, True),
            ):
                raw = interpolant(phi, Y)
                for candidate in (raw, simplify(raw), TOP, BOT, wrong, Or(var("R"), wrong)):
                    yield gate, phi, candidate, probes, forall


def test_gate_report_matches_deciding_every_probe():
    wrong_seen = settled = 0
    for gate, phi, candidate, probes, forall in _gate_inputs():
        rep = gate(phi, Y, candidate, probes)
        variable_free, consequence, failures, count, ok = _reference_gate(phi, Y, candidate, probes, forall)
        assert (rep.ok, rep.variable_free, rep.consequence_holds, rep.probes_run) == (
            ok, variable_free, consequence, count), (phi, candidate, forall)
        assert rep.failures == failures, (phi, candidate, forall)
        wrong_seen += bool(failures)
        settled += rep.settled
    assert wrong_seen >= 10 and settled > 0


def test_gate_past_the_grid_atoms_matches_deciding_every_probe():
    # more atoms than the grid varies: the rest are false at every point
    from pittslab.pitts import _GRID_ATOMS, validate_forall_interpolant

    names = [f"A{i}" for i in range(_GRID_ATOMS + 2)]
    phi = f("(Y \\/ ~Y) -> (" + " /\\ ".join(names) + ") \\/ ~~" + names[-1])
    probes = probe_corpus([Variable(n) for n in names], 3)
    settled = 0
    for gate, interpolant, forall in (
        (validate_interpolant, pite_exists, False),
        (validate_forall_interpolant, pita_forall, True),
    ):
        for candidate in (simplify(interpolant(phi, Y)), TOP, BOT, f("~~" + names[-1])):
            rep = gate(phi, Y, candidate, probes)
            variable_free, consequence, failures, count, ok = _reference_gate(phi, Y, candidate, probes, forall)
            assert (rep.ok, rep.variable_free, rep.consequence_holds, rep.failures, rep.probes_run) == (
                ok, variable_free, consequence, failures, count), (candidate, forall)
            settled += rep.settled
    assert settled > 0


def _chain_refutation(hyp, concl, names):
    """The 2-chain model and world at the lowest bit where the masks of hyp
    and concl refute hyp |- concl, or None."""
    from pittslab import kripke
    from pittslab.pitts import _CHAIN

    masks, g = kripke._stack(len(names), _CHAIN)
    atoms = {v.name: m for v, m in zip(names, masks)}
    bad = kripke.forcing_mask(hyp, atoms, g) & ~kripke.forcing_mask(concl, atoms, g)
    if not bad:
        return None
    point, world = divmod((bad & -bad).bit_length() - 1, len(_CHAIN))
    points = {v.name: atoms[v.name] >> point * len(_CHAIN) & g.full for v in names}
    return kripke.submodel(_CHAIN, range(len(_CHAIN)), points), world


def test_every_mask_refutation_is_a_checked_countermodel():
    from pittslab.kripke import submodel
    from pittslab.pitts import _CHAIN

    names = [Variable("P"), Variable("Q"), Variable("Y")]
    # every persistent valuation of the three atoms on the 2-chain
    upsets = (0b00, 0b10, 0b11)
    models = [
        submodel(_CHAIN, range(2), dict(zip("PQY", us)))
        for us in itertools.product(upsets, repeat=3)
    ]
    rng = random.Random(42)
    settled = 0
    for _ in range(400):
        s = Sequent(
            (random_formula(rng, "PQY", rng.choice([3, 5, 7])),),
            random_formula(rng, "PQY", rng.choice([1, 3, 5, 7])),
        )
        found = _chain_refutation(s.hyps[0], s.concl, names)
        if found is not None:
            settled += 1
            model, world = found
            assert model.refutes(world, s), s
            assert not decide(s), s
        else:  # then no two-world chain refutes it either
            assert not any(m.refutes(w, s) for m in models for w in (0, 1)), s
    assert 50 < settled < 350


def test_gate_settles_exactly_the_chain_refuted_sequents():
    from pittslab.pitts import validate_forall_interpolant

    phi = f("(Y \\/ ~Y) -> (P /\\ Q)")
    names = [Variable("P"), Variable("Q"), Variable("Y")]
    probes = probe_corpus(names[:2], 5)
    for gate, candidate, forall in (
        (validate_interpolant, simplify(pite_exists(phi, Y)), False),
        (validate_forall_interpolant, simplify(pita_forall(phi, Y)), True),
        (validate_interpolant, TOP, False),
    ):
        pairs = [(phi, candidate)] + [(g, psi) for psi in probes for g in (candidate, phi)]
        sequents = [(b, a) if forall else (a, b) for a, b in pairs]
        expected = sum(_chain_refutation(h, c, names) is not None for h, c in sequents)
        assert gate(phi, Y, candidate, probes).settled == expected > 0


def test_reference_gate_settles_most_probes_without_decide(monkeypatch):
    # the simplified exists interpolant of P <-> (~Y \/ ~~Y) over the 942
    # probes of P: 1,885 sequents, of which all but 1,035 fail on the 2-chain;
    # the 942 probes fall into 7 classes, so the rest take 8 `decide` calls,
    # and none of them holds the 239-node candidate: the gate puts its
    # class's representative ~~P there
    phi = f("P <-> (~Y \\/ ~~Y)")
    candidate = simplify(pite_exists(phi, Y))
    assert candidate.size == 239
    decided = []
    monkeypatch.setattr(prover, "decide", lambda s: decided.append(s) or decide(s))
    rep = validate_interpolant(phi, Y, candidate, probe_corpus([Variable("P")], 8))
    assert rep.ok and rep.probes_run == 942
    assert rep.settled == 1885 - 1035
    assert len(decided) == 8
    assert max(g.size for s in decided for g in s.hyps + (s.concl,)) < candidate.size


def test_gate_stand_in_matches_deciding_every_probe(monkeypatch):
    # The gate decides a candidate's sequents on the representative of its
    # class when that is smaller: by cut, the two have the same consequences
    # and antecedents.  The variable condition stays on the candidate.  Both
    # orders of the corpus, both gates; the stand-in is read off the
    # candidate's side of the sequents that reach `decide`.
    from pittslab.pitts import validate_forall_interpolant

    decided = []
    monkeypatch.setattr(prover, "decide", lambda s: decided.append(s) or decide(s))
    refused = []  # representatives with the candidate's mask that are not equivalent
    equivalent_ = prover.equivalent
    monkeypatch.setattr(prover, "equivalent", lambda a, b: equivalent_(a, b) or refused.append((str(a), str(b))))

    phi = f("P <-> (~Y \\/ ~~Y)")
    probes = probe_corpus([Variable("P")], 5)
    cases = []
    for gate, interpolant, forall, disguised in (
        (validate_interpolant, pite_exists, False, "(Y -> Y) -> ~~P"),
        (validate_forall_interpolant, pita_forall, True, "(Y -> Y) /\\ ~P /\\ P"),
    ):
        raw = interpolant(phi, Y)
        cases += [(gate, forall, c) for c in (raw, simplify(raw), f(disguised))]
    # no probe of at most 5 nodes is equivalent to ~~P -> P
    cases.append((validate_interpolant, False, f("~~P -> P")))
    stand_ins = set()
    for gate, forall, candidate in cases:
        for order in (probes, probes[::-1]):
            decided.clear()
            rep = gate(phi, Y, candidate, order)
            # the candidate's side: the hypothesis, or in the dual gate the
            # conclusion, of every decided sequent that is not phi
            sides = {s.concl if forall else s.hyps[0] for s in decided} - {phi}
            assert len(sides) == 1, (candidate, forall, sides)
            stand_ins.add((str(candidate), str(sides.pop())))
            variable_free, consequence, failures, count, ok = _reference_gate(phi, Y, candidate, order, forall)
            assert (rep.ok, rep.variable_free, rep.consequence_holds, rep.failures, rep.probes_run) == (
                ok, variable_free, consequence, failures, count), (candidate, forall)
    assert ("(Y -> Y) -> ~~P", "~~P") in stand_ins
    assert ("(Y -> Y) /\\ ~P /\\ P", "bot") in stand_ins
    assert ("~~P -> P", "~~P -> P") in stand_ins and ("P \\/ ~P", "~~P -> P") in refused
    shown = simplify(pite_exists(phi, Y))
    assert shown.size == 239 and (str(shown), "~~P") in stand_ins


def test_gate_caches_across_calls_keep_every_report():
    # Corpora and class tables outlive a gate call; interleave both gates
    # over three atom sets (one past the grid atoms), with corpora in reverse
    # order and without the operands of their connectives or the negated
    # antecedents of their implications, where the congruence table finds no
    # operand class and every probe goes to the mask and `equivalent`.
    from pittslab import kripke, pitts
    from pittslab.pitts import _GRID_ATOMS, validate_forall_interpolant

    caches = (pitts._corpus, pitts._table)
    for c in caches:
        c.cache_clear()
    wide = [f"A{i}" for i in range(_GRID_ATOMS + 2)]
    atom_sets = (["P"], 6), (["P", "Q"], 5), (wide, 3)
    corpus = probe_corpus([Variable(a) for a in reversed(atom_sets[1][0])], 5)
    assert probe_corpus([Variable("P"), Variable("Q")], 5) is corpus
    assert isinstance(corpus, tuple)
    with pytest.raises(TypeError):
        corpus[0] = BOT

    def variants(atoms, budget):
        full = probe_corpus([Variable(a) for a in atoms], budget)
        operands = {
            g.key
            for psi in full
            if isinstance(psi, (And, Or, Implies))
            for g in (psi.left, psi.right) + ((neg(psi.left),) if isinstance(psi, Implies) else ())
        }
        return full, full[::-1], [psi for psi in full if psi.key not in operands]

    rng = random.Random(14)
    plan = list(itertools.product(atom_sets, range(3), (False, True))) * 2
    rng.shuffle(plan)
    wrong_seen = 0
    for (atoms, budget), variant, forall in plan:
        probes = variants(atoms, budget)[variant]
        phi = random_formula(rng, ["Y"] + rng.sample(atoms, min(len(atoms), 2)), rng.choice([5, 7]))
        if atoms is wide:  # some atom past the grid's always reaches phi
            phi = And(phi, Implies(var(wide[-1]), var("Y")))
        gate, interpolant = (
            (validate_forall_interpolant, pita_forall) if forall else (validate_interpolant, pite_exists)
        )
        candidate = rng.choice([simplify(interpolant(phi, Y)), TOP, BOT, random_formula(rng, atoms, 3)])
        rep = gate(phi, Y, candidate, probes)
        variable_free, consequence, failures, count, ok = _reference_gate(phi, Y, candidate, probes, forall)
        assert (rep.ok, rep.variable_free, rep.consequence_holds, rep.failures, rep.probes_run) == (
            ok, variable_free, consequence, failures, count), (phi, candidate, forall)
        wrong_seen += bool(failures)
    assert wrong_seen >= 5
    assert all(c.cache_info().hits > 0 for c in caches)
    # every mask kept is its representative's mask on its grid
    checked = 0
    for atoms, budget in atom_sets:
        corpus = probe_corpus([Variable(a) for a in atoms], budget)
        _, atoms_masks, g, reps, masks, _, _ = pitts._table(corpus, Y, frozenset([Y]))
        for psi, m in zip(reps, masks):
            assert m == kripke.forcing_mask(psi, atoms_masks, g), psi
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("atoms, budget, classes", [(["P"], 8, 7), (["P", "Q"], 7, 83)])
def test_class_table_partitions_the_corpus_by_equivalence(atoms, budget, classes):
    # each probe is equivalent to its class's representative, the first
    # probe of the class, and no two representatives are equivalent; each
    # class's size counts its probes; the reversed corpus is split the same way
    from pittslab import pitts

    corpus = probe_corpus([Variable(a) for a in atoms], budget)
    partitions = []
    for order in (corpus, corpus[::-1]):
        kept, _, _, reps, _, of, size = pitts._table(order, Y, frozenset([Y]))
        assert kept == order and len(reps) == classes
        assert size == [of.count(c) for c in range(classes)]
        assert [order[of.index(c)] for c in range(classes)] == reps
        assert all(equivalent(reps[c], psi) for psi, c in zip(order, of))
        assert not any(equivalent(a, b) for a, b in itertools.combinations(reps, 2))
        members = {}
        for psi, c in zip(order, of):
            members.setdefault(c, set()).add(psi.key)
        partitions.append({frozenset(keys) for keys in members.values()})
    assert partitions[0] == partitions[1]


def _classes_without_congruence(probes, atoms, g):
    """The classes of `probes` found from masks and `prover.equivalent`
    alone: each probe joins the first earlier class with its mask whose
    representative is equivalent to it, or starts a class."""
    reps, masks, of = [], [], []
    for psi in probes:
        m = kripke.forcing_mask(psi, atoms, g)
        c = next((i for i, r in enumerate(reps) if masks[i] == m and equivalent(r, psi)), None)
        if c is None:
            c = len(reps)
            reps.append(psi)
            masks.append(m)
        of.append(c)
    return reps, masks, of, [of.count(c) for c in range(len(reps))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    corpus=st.sampled_from([(("P",), 8), (("P", "Q"), 7), (("P", "Y"), 5)]),
    least=st.sampled_from([1, 3, 5]),
    order=st.sampled_from(["corpus", "reversed", "shuffled"]),
    rng=st.randoms(use_true_random=False),
)
def test_class_table_matches_classes_without_congruence(corpus, least, order, rng):
    # `_table` on probes whose operands come late or not at all: a shuffled or
    # reversed sample of a corpus, from which the probes below `least` nodes
    # (the leaves, from 3 up) are gone; over P and Y only the P probes are
    # kept.  Its classes, masks and counts are those of a classifier that
    # takes no class from congruence and no mask from operands.
    from pittslab import pitts

    atoms, budget = corpus
    pool = [psi for psi in probe_corpus([Variable(a) for a in atoms], budget) if psi.size >= least]
    probes = [pool[i] for i in sorted(rng.sample(range(len(pool)), min(len(pool), 600)))]
    if order == "reversed":
        probes.reverse()
    elif order == "shuffled":
        rng.shuffle(probes)
    kept, atom_masks, g, reps, masks, of, size = pitts._table.__wrapped__(tuple(probes), Y, frozenset([Y]))
    assert kept == tuple(psi for psi in probes if Y not in psi.free_vars)
    assert (reps, masks, of, size) == _classes_without_congruence(kept, atom_masks, g)


def test_cold_class_table_evaluates_only_the_leaves(monkeypatch):
    # a compound probe's mask comes from its operands' classes, so a cold
    # table over the 4,203 probes of P and Q evaluates only bot, P and Q;
    # congruence in either operand order under /\ and \/ keeps its
    # `prover.equivalent` calls at or below 396
    from pittslab import pitts

    corpus = probe_corpus([Variable("P"), Variable("Q")], 7)
    evaluated, compared = [], []
    forcing_mask, equivalent_ = kripke.forcing_mask, prover.equivalent
    monkeypatch.setattr(kripke, "forcing_mask", lambda psi, *a: evaluated.append(psi) or forcing_mask(psi, *a))
    monkeypatch.setattr(prover, "equivalent", lambda *a: compared.append(a) or equivalent_(*a))
    reps = pitts._table.__wrapped__(corpus, Y, frozenset([Y]))[3]
    assert evaluated == [BOT, var("P"), var("Q")] == list(corpus[:3])
    assert len(reps) == 83 and len(compared) <= 396


def _gate_calls():
    """Both gates on every reference body over one or two atoms, with the
    body's simplified interpolant and with top, on the budget-6 corpus."""
    from pittslab.pitts import validate_forall_interpolant

    for body, _ in REFERENCE_BODIES:
        phi = f(body)
        for gate, interpolant in ((validate_interpolant, pite_exists), (validate_forall_interpolant, pita_forall)):
            for candidate in (simplify(interpolant(phi, Y)), TOP):
                yield gate, phi, candidate, sorted(phi.free_vars - {Y})


def test_warm_gate_hashes_class_representatives_not_the_corpus(monkeypatch):
    # the table is found by the corpus object, so a warm call hashes no
    # probe but the representatives whose sequents reach `decide`
    from pittslab import pitts
    from pittslab.syntax import Formula

    hashed = []
    hash_ = Formula.__hash__
    for gate, phi, candidate, atoms in _gate_calls():
        corpus = probe_corpus(atoms, 6)
        gate(phi, Y, candidate, corpus)
        probes = {id(psi) for psi in corpus}
        hashed.clear()
        with monkeypatch.context() as m:
            m.setattr(Formula, "__hash__", lambda g: hashed.append(id(g) in probes) or hash_(g))
            gate(phi, Y, candidate, corpus)
        classes = len(pitts._table(corpus, Y, phi.free_vars | candidate.free_vars)[3])
        assert sum(hashed) <= 2 * classes < len(corpus), (phi, candidate)


def test_gate_reports_do_not_depend_on_the_corpus_object():
    # a rebuilt corpus is equal to the old one but gets a table of its own;
    # a list copy of a corpus gets one too, which the next copy finds by its
    # probes; the reports match
    from pittslab import pitts

    for gate, phi, candidate, atoms in _gate_calls():
        pitts._table.cache_clear()
        corpus = probe_corpus(atoms, 6)
        report = gate(phi, Y, candidate, corpus)
        pitts._corpus.cache_clear()
        rebuilt = probe_corpus(atoms, 6)
        assert rebuilt == corpus and rebuilt is not corpus
        misses = pitts._table.cache_info().misses
        assert gate(phi, Y, candidate, rebuilt) == report
        assert pitts._table.cache_info().misses == misses + 1
        assert gate(phi, Y, candidate, list(corpus)) == report
        assert gate(phi, Y, candidate, list(corpus)) == report
        assert pitts._table.cache_info().misses == misses + 2


def test_irreducible_contexts_list_implications_before_atoms():
    # `pitts._E` conjoins the clauses of `_guards` before the atom clauses;
    # that is key order only if, in a context no invertible left rule
    # reduces, every implication key sorts before every atom key
    rng = random.Random(13)
    mixed = 0  # irreducible contexts with both an implication and an atom
    for _ in range(300):
        todo = [frozenset(random_formula(rng, ["P", "Q", "Y"], rng.choice([1, 3, 5, 7]))
                          for _ in range(rng.randint(1, 4)))]
        while todo:
            ctx = todo.pop()
            ordered = prover._by_key(ctx)
            step = prover._left_step(ordered, ctx)
            if step is not None:
                h, premises = step
                todo += [ctx - {h} | set(replacement) for replacement in premises]
                continue
            assert all(isinstance(h, (Implies, Var)) for h in ordered), ordered
            atoms = [isinstance(h, Var) for h in ordered]
            assert atoms == sorted(atoms), ordered
            mixed += len(set(atoms)) == 2
    assert mixed >= 50
