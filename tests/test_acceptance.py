"""Acceptance criteria, one test per criterion, each printing a PASS line
with its elapsed time (run with -s to see them)."""
import time

from pittslab.cli import main as cli_main
from pittslab.connectives import RegularConnective, extract_auxiliary, is_auxiliary
from pittslab.kernel import Sequent
from pittslab.parser import parse_formula, parse_sequent
from pittslab.pitts import pite_exists, probe_corpus, validate_interpolant
from pittslab.prover import decide, equivalent
from pittslab.replays import replay, script_root
from pittslab.rieger import default_lattice, refuting_model
from pittslab.selftest import glivenko_battery, interpolation_battery, soundness_battery
from pittslab.syntax import BOT, Variable
from pittslab.trees import parse_tree

Y = Variable("Y")

REFERENCE_BODIES = [
    ("(~Y -> X1) /\\ (~~Y -> X2)", "(~X1 -> X2) /\\ (~X2 -> X1)"),
    ("(Y \\/ ~Y) -> (P /\\ Q)", "~~(P /\\ Q)"),
    ("P <-> (~Y \\/ ~~Y)", "~~P"),
    ("(P -> (Y \\/ ~Y)) -> P", "~~P"),
    ("(X -> (~Y \\/ ~~Y)) -> X", "~~X"),
]


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) {label}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_interpolant_regressions(capsys):
    for body, expected in REFERENCE_BODIES:
        t0 = time.monotonic()
        code = cli_main(["interpolate", "--exists", "--var", "Y", body])
        out = capsys.readouterr().out
        assert code == 0
        got = parse_formula(out.strip().splitlines()[0])
        assert equivalent(got, parse_formula(expected)), body
        elapsed = time.monotonic() - t0
        assert elapsed < 30, f"{body} took {elapsed:.1f}s"
    with capsys.disabled():
        print("\nACCEPTANCE 1: PASS five interpolant regressions, each < 30s")


def test_criterion_2_replay_suites():
    t_all = time.monotonic()
    budgets = {}
    for name in ("tara", "kreisel", "polacik", "polacik-wlem"):
        t0 = time.monotonic()
        report = replay(name)
        budgets[name] = time.monotonic() - t0
        assert report.derived[-1] == "~~P |- P", name
    t0 = time.monotonic()
    report = replay("polacik-disjunction")
    budgets["polacik-disjunction"] = time.monotonic() - t0
    assert report.derived[-1] == "|- ~~X \\/ (~~X -> X)"
    t0 = time.monotonic()
    report = replay("tara-props")
    budgets["tara-props"] = time.monotonic() - t0
    assert len(report.derived) == 7
    assert all(dt < 10 for dt in budgets.values()), budgets
    print(f"ACCEPTANCE 2: PASS six replay suites ({time.monotonic()-t_all:.1f}s total, each < 10s)")


def test_criterion_3_monstrous_sequent():
    t0 = time.monotonic()
    s = parse_sequent(
        "|- ((P \\/ (P -> (Q \\/ ~Q))) -> (Q \\/ ~Q)) -> (P \\/ (P -> (Q \\/ ~Q)))"
    )
    assert decide(s)
    _report(3, "monstrous sequent is an IPC tautology", t0, 5)


def test_criterion_4_prover_oracle_suite():
    t0 = time.monotonic()
    result = soundness_battery(count=500, seed=0)
    assert result["failures"] == [], result["failures"][:5]
    label = f"500 formulas, {result['provable']} provable, zero oracle disagreements"
    _report(4, label, t0, 300)


def test_criterion_5_glivenko_suite():
    t0 = time.monotonic()
    result = glivenko_battery(count=200, seed=0)
    assert result["failures"] == []
    _report(5, "200 double-negation / truth-table agreements", t0, 60)


def test_criterion_6_interpolation_probe_gate():
    t0 = time.monotonic()
    for body, _expected in REFERENCE_BODIES:
        phi = parse_formula(body)
        atoms = sorted(phi.free_vars - {Y})
        probes = probe_corpus(atoms, 8)
        rep = validate_interpolant(phi, Y, pite_exists(phi, Y), probes)
        assert rep.ok, (body, rep.failures[:3])
    invariants = interpolation_battery(count=100, seed=0)
    assert invariants["failures"] == []
    _report(6, "probe gate on five bodies plus 100 randomized invariant cases", t0, 60)


def test_criterion_7_rieger_nishimura():
    t0 = time.monotonic()
    lattice = default_lattice(12)
    wlem = lattice.classify(parse_formula("~X \\/ ~~X"))
    mid = lattice.classify(parse_formula("~~X \\/ (~~X -> X)"))
    top = lattice.classify(parse_formula("(~~X -> X) -> (X \\/ ~X)"))
    assert len({wlem.level, mid.level, top.level}) == 3
    # prover-certified strict implications where the lattice order holds:
    # weak excluded middle lies strictly below each of the other two, which
    # sit side by side (their incomparability is certified by countermodels)
    assert lattice.leq(wlem, mid) and not lattice.leq(mid, wlem)
    assert lattice.leq(wlem, top) and not lattice.leq(top, wlem)
    for a, b in ((mid, top), (top, mid)):
        hit = refuting_model(a.representative, b.representative)
        assert hit is not None
        model, world = hit
        assert model.refutes(world, Sequent((a.representative,), b.representative))
    assert lattice.classify(parse_formula("~~~X")).level == lattice.classify(
        parse_formula("~X")
    ).level
    _report(7, "three distinct classes in the documented order; ~~~X with ~X", t0, 60)


def test_criterion_8_extraction():
    t0 = time.monotonic()
    trees = script_root().parent / "trees"
    cases = [
        ("weaken_first.tree", "X /\\ bot", ("X",), BOT),
        ("witness_first.tree", "(Y \\/ ~Y) -> (P /\\ Q)", ("P", "Q"), parse_formula("P /\\ Q")),
        ("imp_then_witness.tree", "X", ("X",), parse_formula("X")),
    ]
    for fname, body, params, want in cases:
        tree = parse_tree((trees / fname).read_text(encoding="utf-8"))
        conn = RegularConnective(parse_formula(body), Y, tuple(Variable(p) for p in params))
        got = extract_auxiliary(tree, conn)
        assert got == want, fname
        assert is_auxiliary(conn, got).holds, fname
    _report(8, "three bundled extractions return bot / witness / witness", t0, 10)
