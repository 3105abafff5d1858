import json

import pytest

from pittslab.replays import (
    REPLAY_NAMES,
    ScriptFailed,
    load_suite,
    replay,
)


def test_all_suites_succeed():
    for name in REPLAY_NAMES:
        replay(name)  # raises ScriptFailed on a rejected line


def test_collapse_suites_end_with_double_negation_elimination():
    for name in ("tara", "kreisel", "polacik", "polacik-wlem"):
        report = replay(name)
        assert report.derived[-1] == "~~P |- P", name


def test_polacik_intermediate_decidability_fact():
    report = replay("polacik")
    assert "|- t(P) \\/ ~t(P)" in report.derived


def test_disjunction_suite_derives_scott_style_split():
    report = replay("polacik-disjunction")
    assert report.derived[-1] == "|- ~~X \\/ (~~X -> X)"


def test_props_suite_lists_six_claims():
    report = replay("tara-props")
    assert len(report.derived) == 7  # bottom-unit contributes two sequents
    assert "(~Y -> P) /\\ (~~Y -> Q), ~P |- Q" in report.derived


def test_kreisel_verifies_all_three_instances():
    report = replay("kreisel")
    instances = report.details["psi_instances"]
    assert [i["psi"] for i in instances] == [
        "~Y \\/ ~~Y",
        "~~Y \\/ (~~Y -> Y)",
        "(~~Y -> Y) -> (Y \\/ ~Y)",
    ]
    assert all(i["ok"] for i in instances)


def test_report_json_round_trips():
    report = replay("polacik")
    payload = json.loads(json.dumps(report.payload()))
    assert payload["name"] == "polacik"
    assert all(s["status"] == "ok" for s in payload["scripts"])


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        replay("nonesuch")


def test_scripts_are_quantifier_free_and_apps_stay_shallow():
    # schemas are quantifier-free and no uninterpreted application sits under
    # a binder anywhere in the bundled material
    for name in REPLAY_NAMES:
        theory, scripts = load_suite(name)
        for template in theory.schemas.values():
            for formula in template.hyps + (template.concl,):
                assert not formula.has_quantifier
        for script in scripts:
            for line in script.lines:
                for formula in line.sequent.hyps + (line.sequent.concl,):
                    assert not formula.has_quantifier


def test_corrupting_a_bundled_script_fails_loudly(tmp_path, monkeypatch):
    import shutil
    from pittslab.replays import script_root

    root = script_root()
    work = tmp_path / "scripts"
    shutil.copytree(root, work)
    target = work / "polacik" / "final.pfs"
    text = target.read_text().replace("5 | ~~P |- P | cut 1 4", "5 | ~~P |- bot | cut 1 4")
    target.write_text(text)
    monkeypatch.setenv("PITTSLAB_SCRIPT_DIR", str(work))
    with pytest.raises(ScriptFailed) as e:
        replay("polacik")
    assert e.value.line == 5


def test_script_dir_env_override(tmp_path, monkeypatch):
    import shutil
    from pittslab.replays import script_root

    work = tmp_path / "elsewhere"
    shutil.copytree(script_root(), work)
    monkeypatch.setenv("PITTSLAB_SCRIPT_DIR", str(work))
    assert script_root() == work
    replay("tara-props")


def _unfold(formula, symbol_name, body, var):
    """Replace every application of the named unary symbol by the body
    instantiated at the (recursively unfolded) argument."""
    from pittslab.syntax import And, App, Implies, Or, Var, substitute

    if isinstance(formula, App) and formula.symbol.name == symbol_name:
        inner = _unfold(formula.args[0], symbol_name, body, var)
        return substitute(body, {var: inner})
    if isinstance(formula, (And, Or, Implies)):
        return type(formula)(
            _unfold(formula.left, symbol_name, body, var),
            _unfold(formula.right, symbol_name, body, var),
        )
    return formula


def test_kreisel_fact_schemas_hold_for_each_bundled_instance():
    # the abstract fact schemas, instantiated at each concrete bundled
    # formula, must be honest intuitionistic facts: this pins the schema
    # templates to what the fact checker verifies
    from pittslab.kernel import Sequent
    from pittslab.parser import parse_formula
    from pittslab.prover import decide
    from pittslab.syntax import Variable

    theory, _ = load_suite("kreisel")
    y = Variable("Y")
    for text in ("~Y \\/ ~~Y", "~~Y \\/ (~~Y -> Y)", "(~~Y -> Y) -> (Y \\/ ~Y)"):
        concrete = parse_formula(text)
        for label in ("fact-dneg", "fact-truth", "fact-self", "fact-reflect"):
            template = theory.schemas[label]
            hyps = tuple(_unfold(h, "psi", concrete, y) for h in template.hyps)
            concl = _unfold(template.concl, "psi", concrete, y)
            assert decide(Sequent(hyps, concl)), (text, label)


def test_suites_do_real_work_without_schemas_they_fail():
    # negative control: strip the axiom schemas and the collapse derivations
    # must stop checking at their first schema line
    from pittslab.kernel import SchemaTheory
    from pittslab.scripts import ProofScript, check_script

    theory, scripts = load_suite("polacik")
    bare = SchemaTheory("bare", theory.signature, {})
    final = next(s for s in scripts if s.name == "polacik/final")
    rep = check_script(ProofScript(final.name, bare, final.lines), {})
    assert not rep.ok
    assert rep.failure[0] == 1  # the defining-property line
