import pytest

from pittslab.cli import main
from pittslab.kernel import Sequent, check_tree
from pittslab.parser import Parser, parse_sequent
from pittslab.prover import derive, substitute_tree
from pittslab.replays import load_suite
from pittslab.scripts import (
    MalformedScript,
    ScriptLine,
    _cut_candidates,
    atomize,
    check_script,
    parse_justification,
    parse_script,
    parse_theory,
)
from pittslab.syntax import Variable, var

THEORY_TEXT = """
connective t 2
schema left: ~P -> Q, ~Q -> P, ~t(P,Q) |- P
schema right: ~P -> Q, ~Q -> P, ~~t(P,Q) |- Q
"""


def theory():
    return parse_theory(THEORY_TEXT, name="tara")


def test_parse_script_basic():
    script = parse_script(
        "1 | t(P,Q), Q |- Q -> top | ipc\n# comment\n\n2 | t(P,Q), Q |- top -> Q | ipc\n",
        theory(),
    )
    assert len(script.lines) == 2
    assert script.lines[0].justification.kind == "ipc"


def test_line_numbers_must_increase():
    with pytest.raises(MalformedScript):
        parse_script("2 | |- top | ipc\n1 | |- top | ipc", theory())


def test_forward_reference_rejected():
    with pytest.raises(MalformedScript):
        parse_script("1 | |- top | cut 1 2", theory())


def test_atomization_shares_identical_subterms():
    th = theory()
    from pittslab.parser import Parser

    seq = Parser(th.signature).parse_sequent("t(P,Q), t(P,Q) /\\ P |- t(Q,P)")
    flat = atomize(seq)
    assert not any(f.has_app for f in flat.hyps + (flat.concl,))
    # both occurrences of t(P,Q) share one atom, t(Q,P) gets another
    assert flat.hyps[0] == flat.hyps[1].left
    assert flat.concl != flat.hyps[0]


def test_implication_table_accepted():
    # the four-line modus-ponens table for the auxiliary term
    _, scripts = load_suite("tara")
    registry = {}
    for script in scripts:
        rep = check_script(script, registry)
        assert rep.ok, rep.failure
        registry[script.name] = script
    imp = registry["tara/implication"]
    assert len(imp.lines) == 4
    assert imp.sequent(4) == parse_sequent(
        "t(P,Q), P |- Q", theory().signature
    )


def test_dneg_table_contains_stated_sequent():
    _, scripts = load_suite("tara")
    dneg = next(s for s in scripts if s.name == "tara/dneg")
    want = parse_sequent(
        "t(P, P -> ~t(P,top)) |- ~P", theory().signature
    )
    assert dneg.sequent(14) == want


def test_corrupted_citation_rejected_at_that_line():
    th, scripts = load_suite("tara")
    registry = {}
    for script in scripts[:-1]:
        assert check_script(script, registry).ok
        registry[script.name] = script
    dneg = scripts[-1]
    lines = list(dneg.lines)
    bad = lines[12]  # line 13: cut 11 12 6
    assert bad.number == 13 and bad.justification.lines == (11, 12, 6)
    corrupted = ScriptLine(
        bad.number,
        bad.sequent,
        type(bad.justification)("cut", lines=(11, 12, 7)),
    )
    lines[12] = corrupted
    from pittslab.scripts import ProofScript

    broken = ProofScript(dneg.name, dneg.theory, tuple(lines))
    rep = check_script(broken, registry)
    assert not rep.ok
    assert rep.failure[0] == 13


def test_weakening_admissibility_at_script_level():
    th, scripts = load_suite("polacik")
    three = scripts[0]
    extra = var("Zunused")
    from pittslab.scripts import ProofScript

    weakened = ProofScript(
        three.name,
        three.theory,
        tuple(
            ScriptLine(l.number, Sequent(l.sequent.hyps + (extra,), l.sequent.concl), l.justification)
            for l in three.lines
        ),
    )
    rep = check_script(weakened, {})
    assert rep.ok, rep.failure


def test_monotone_in_the_theory():
    th, scripts = load_suite("polacik")
    bigger = parse_theory(
        """
connective t 1
connective extra 1
schema defining: ~~P, P -> (t(P) \\/ ~t(P)) |- P
schema bonus: |- extra(P) -> extra(P)
""",
        name="polacik-extended",
    )
    assert bigger.extends(th)
    for script in scripts:
        from pittslab.scripts import ProofScript

        relifted = ProofScript(script.name, bigger, script.lines)
        rep = check_script(relifted, {})
        # refs only occur in the final script; re-register as we go
        if rep.ok:
            continue
        # scripts with refs need a registry under the same theory
        registry = {}
        for s2 in scripts:
            r2 = ProofScript(s2.name, bigger, s2.lines)
            rep2 = check_script(r2, registry)
            assert rep2.ok, rep2.failure
            registry[r2.name] = r2
        break


def test_atomization_soundness_reexpansion():
    # prove an atomized ipc line, substitute the applications back in, and
    # the same tree shape must still check
    th, scripts = load_suite("tara")
    registry = {}
    checked = 0
    for script in scripts:
        assert check_script(script, registry).ok
        registry[script.name] = script
        for line in script.lines:
            if line.justification.kind != "ipc" or checked >= 6:
                continue
            flat = atomize(line.sequent)
            tree = derive(flat)
            # recover the atom -> application mapping
            mapping = {}
            for orig, new in zip(line.sequent.hyps + (line.sequent.concl,),
                                 flat.hyps + (flat.concl,)):
                _collect(orig, new, mapping)
            expanded = substitute_tree(tree, mapping)
            assert expanded.conclusion == line.sequent
            assert check_tree(expanded, th).ok
            checked += 1
    assert checked > 3


def _collect(orig, new, mapping):
    from pittslab.syntax import And, Implies, Or, Var as VarNode

    if isinstance(new, VarNode) and not isinstance(orig, VarNode):
        mapping[new.var] = orig
        return
    if isinstance(orig, (And, Or, Implies)):
        _collect(orig.left, new.left, mapping)
        _collect(orig.right, new.right, mapping)


def test_exit_semantics_of_checker():
    th = theory()
    good = parse_script("1 | |- top | ipc", th)
    assert check_script(good).ok
    bad = parse_script("1 | |- bot | ipc", th)
    rep = check_script(bad)
    assert not rep.ok and rep.failure[0] == 1


def test_schema_instance_may_contract_a_repeated_hypothesis():
    # every justification derives a sequent, and a line covers it when it has
    # the same conclusion and, taken as a set, at least its hypotheses
    th = parse_theory("schema dup: P, P |- Q\n", name="dup")
    assert check_script(parse_script("1 | P |- Q | ax-schema dup {P := P}", th)).ok
    rep = check_script(parse_script("1 | P |- R | ax-schema dup {P := P}", th))
    assert rep.failure == (1, "not an instance of schema 'dup': wanted P, P |- Q")


def test_a_nullary_connective_is_written_with_parentheses():
    th = parse_theory("connective c 0\nschema s: |- c()\n", name="nullary")
    assert check_script(parse_script("1 | |- c() | ax-schema s", th)).ok
    assert not check_script(parse_script("1 | |- c | ax-schema s", th)).ok


def test_extensionality_line_may_contract_a_repeated_hypothesis():
    # the tree concludes P, P -> P, P -> P |- P
    assert check_script(parse_script("1 | P -> P, P |- P | ext _ P P", theory())).ok
    rep = check_script(parse_script("1 | P |- P | ext _ P P", theory()))
    assert rep.failure == (1, "extensionality tree concludes P, P -> P, P -> P |- P")


def test_an_atom_named_hole_is_not_the_hole():
    # the hole is a variable named by none of the ext arguments' identifiers
    assert parse_justification("ext HOLE /\\ _ P Q", theory()).name == "HOLE'"
    for text in ("1 | P -> Q, Q -> P, HOLE /\\ P |- HOLE /\\ Q | ext HOLE /\\ _ P Q",
                 "1 | HOLE -> Q, Q -> HOLE, R /\\ HOLE |- R /\\ Q | ext R /\\ _ HOLE Q"):
        assert check_script(parse_script(text, theory())).ok


@pytest.mark.parametrize("text, expected", [
    ("{}", {}),
    ("{X := t(P, Q), Y := ~t(Q, P)}", {"X": "t(P, Q)", "Y": "~t(Q, P)"}),
    ("{P' := Q, Q'' := t(P', P)}", {"P'": "Q", "Q''": "t(P', P)"}),
])
def test_bindings_parse(text, expected):
    th = theory()
    parser = Parser(th.signature)
    got = dict(parse_justification(f"subst 1 {text}", th).bindings)
    assert got == {Variable(k): parser.parse(v) for k, v in expected.items()}


def test_binding_with_a_trailing_comma_is_malformed(tmp_path, capsys):
    script = tmp_path / "trailing.pfs"
    script.write_text("1 | P |- P | ipc\n2 | Q |- Q | subst 1 {P := Q,}\n")
    assert main(["check", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_cut_candidates_keep_the_first_written_alpha_variant():
    # exists X. X and exists Z. Z are one hypothesis class; the merged
    # context writes each class as its first copy, cut formula's side first
    a = parse_sequent("exists X. X |- Q")
    b = parse_sequent("Q, exists Z. Z, Q |- R")
    (merged,) = _cut_candidates(a, b)
    assert merged == parse_sequent("exists Y. Y, exists Y. Y, Q |- R")
    assert str(merged) == "exists X. X, exists X. X, Q |- R"
    (back,) = _cut_candidates(parse_sequent("P, exists Z. Z |- exists Y. Y"), a)
    assert str(back) == "exists Z. Z, P |- Q"  # sorted by key
    assert _cut_candidates(a, parse_sequent("P |- R")) == []
