import pytest

from pittslab.connectives import (
    NoEligibleRule,
    NotCutFree,
    RegularConnective,
    extract_auxiliary,
    is_auxiliary,
)
from pittslab.kernel import Sequent, check_tree
from pittslab.kripke import find_countermodel
from pittslab.parser import parse_formula
from pittslab.pitts import pite_exists
from pittslab.prover import equivalent, t_ax, t_cl, t_cut, t_wl
from pittslab.syntax import BOT, FormulaError, Variable, var
from pittslab.trees import parse_tree

Y = Variable("Y")


def conn(body, *params):
    return RegularConnective(parse_formula(body), Y, tuple(Variable(p) for p in params))


def bundled(name):
    from pittslab.replays import script_root

    path = script_root().parent / "trees" / name
    return parse_tree(path.read_text(encoding="utf-8"))


def test_connective_invariants():
    with pytest.raises(FormulaError):
        RegularConnective(parse_formula("P /\\ Z"), Y, (Variable("P"),))
    with pytest.raises(FormulaError):
        RegularConnective(parse_formula("Y"), Y, (Variable("Y"),))


def test_example_conjunction_candidate_is_auxiliary():
    c = conn("(Y \\/ ~Y) -> (P /\\ Q)", "P", "Q")
    report = is_auxiliary(c, parse_formula("P /\\ Q"))
    assert report.holds
    assert equivalent(report.definition, parse_formula("~~(P /\\ Q)"))
    assert check_tree(report.witness_tree).ok


def test_vacuous_bound_variable_bottom_candidate():
    c = conn("X", "X")
    report = is_auxiliary(c, BOT)
    assert report.holds
    assert equivalent(report.definition, parse_formula("X"))


def test_realizability_bottom_candidate_fails_with_classical_countermodel():
    c = conn("(~Y -> X1) /\\ (~~Y -> X2)", "X1", "X2")
    report = is_auxiliary(c, BOT)
    assert not report.holds
    # one classical world witnesses interpolant |-/- body(bot)
    refuted = Sequent((report.interpolant,), c.instance(BOT))
    hit = find_countermodel(refuted, 1)
    assert hit is not None
    model, world = hit
    assert model.refutes(world, refuted)


def test_uniqueness_definition_equals_interpolant():
    c = conn("(Y \\/ ~Y) -> (P /\\ Q)", "P", "Q")
    report = is_auxiliary(c, parse_formula("P /\\ Q"))
    assert equivalent(report.definition, pite_exists(c.body, c.bound_var))


def test_candidate_must_use_parameters_only():
    c = conn("(Y \\/ ~Y) -> (P /\\ Q)", "P", "Q")
    with pytest.raises(FormulaError):
        is_auxiliary(c, parse_formula("R"))


def test_extract_weaken_first():
    tree = bundled("weaken_first.tree")
    c = conn("X /\\ bot", "X")
    assert extract_auxiliary(tree, c) == BOT
    assert is_auxiliary(c, BOT).holds


def test_extract_witness_first():
    tree = bundled("witness_first.tree")
    c = conn("(Y \\/ ~Y) -> (P /\\ Q)", "P", "Q")
    got = extract_auxiliary(tree, c)
    assert got == parse_formula("P /\\ Q")
    assert is_auxiliary(c, got).holds


def test_extract_climbs_a_weakening_and_contraction_prefix():
    tree = bundled("witness_first.tree")
    interpolant = tree.conclusion.hyps[0]
    tree = t_cl(t_wl(tree, interpolant), interpolant)
    assert check_tree(tree).ok and [n.rule for n in tree.nodes()][:3] == ["cL", "wL", "exR"]
    c = conn("(Y \\/ ~Y) -> (P /\\ Q)", "P", "Q")
    assert extract_auxiliary(tree, c) == parse_formula("P /\\ Q")


def test_extract_imp_then_witness():
    tree = bundled("imp_then_witness.tree")
    c = conn("X", "X")
    got = extract_auxiliary(tree, c)
    assert got == var("X")
    assert is_auxiliary(c, got).holds


def test_extract_rejects_cuts():
    c = conn("X", "X")
    # build interpolant |- exists Y. X with a spurious cut below the witness
    inner = parse_tree('(exR "X |- exists Y. X" "X" (ax "X |- X"))')
    cut = t_cut(t_ax(var("X")), inner)
    assert check_tree(cut).ok
    with pytest.raises(NotCutFree):
        extract_auxiliary(cut, c)


def test_extract_rejects_disjunctive_interpolant_shape():
    c = conn("X", "X")
    tree = parse_tree(
        '(exR "X \\/ X |- exists Y. X" "X"'
        ' (orL "X \\/ X |- X" (ax "X |- X") (ax "X |- X")))'
    )
    assert check_tree(tree).ok
    with pytest.raises(FormulaError):
        extract_auxiliary(tree, c)


def test_extract_rejects_or_left_prefix():
    # an orL below the first eligible rule is outside the theorem's cases
    c = conn("X /\\ X", "X")
    tree = parse_tree(
        '(orL "X \\/ X |- exists Y. X /\\ X"'
        ' (exR "X |- exists Y. X /\\ X" "bot" (andR "X |- X /\\ X" (ax "X |- X") (ax "X |- X")))'
        ' (exR "X |- exists Y. X /\\ X" "bot" (andR "X |- X /\\ X" (ax "X |- X") (ax "X |- X"))))'
    )
    assert check_tree(tree).ok
    # interpolant here is X \/ X: rejected before the prefix scan as not or-free
    with pytest.raises(FormulaError):
        extract_auxiliary(tree, c)


def test_extract_no_eligible_rule():
    c = conn("X", "X")
    tree = parse_tree('(botL "bot |- exists Y. X")')
    assert check_tree(tree).ok
    with pytest.raises(NoEligibleRule):
        extract_auxiliary(tree, c)
