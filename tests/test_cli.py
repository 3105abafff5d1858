import json
import time
from importlib import resources

import jsonschema
import pytest

from pittslab.cli import main
from pittslab.kernel import check_tree
from pittslab.trees import parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    path = resources.files("pittslab") / "data" / "schemas" / name
    return json.loads(path.read_text(encoding="utf-8"))


def validate(payload, schema_name):
    jsonschema.validate(payload, schema(schema_name))


def test_prove_exit_codes(capsys):
    code, out, _ = run(capsys, "prove", "|- P -> P")
    assert code == 0 and out.startswith("provable")
    code, out, _ = run(capsys, "prove", "|- P \\/ ~P")
    assert code == 1 and out.startswith("refuted")


def test_prove_json_validates(capsys):
    code, out, _ = run(capsys, "prove", "--format", "json", "|- P \\/ ~P")
    assert code == 1
    payload = json.loads(out)
    validate(payload, "prove_result.schema.json")
    assert payload["countermodel"]["worlds"] == [0, 1]


def test_prove_json_prints_no_tree(monkeypatch, capsys):
    import pittslab.cli as cli

    def no_text(tree):
        raise AssertionError("JSON output printed a tree")

    monkeypatch.setattr(cli, "print_tree", no_text)
    code, out, err = run(capsys, "prove", "--format", "json", "P, P -> Q |- Q")
    assert (code, err) == (0, "") and json.loads(out)["witness"] == "proof-tree"


@pytest.mark.parametrize("argv", [
    pytest.param(["prove", "P |- " + "~" * 400 + "P"], id="prove"),
    pytest.param(["interpolate", "--exists", "--var", "Y", "~" * 1200 + "Y"], id="interpolate"),
])
def test_deep_input_is_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == "error: input nested too deeply\n"


def test_deeply_parenthesised_input_is_proved(capsys):
    # the parser keeps its own stack, so depth is no parse error
    code, out, err = run(capsys, "prove", "P |- " + "(" * 1000 + "P" + ")" * 1000)
    verdict, tree = out.split("\n", 1)
    assert code == 0 and err == "" and verdict == "provable"
    assert check_tree(parse_tree(tree))


def test_long_biconditional_chain_is_exit_two(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "prove", "|- " + " <-> ".join(["P"] * 40))
    assert code == 2 and out == "" and err.startswith("error: '<->' expands past 1000000 nodes")
    assert time.perf_counter() - start < 10


def test_usage_error_is_exit_two(capsys):
    code, _, err = run(capsys, "prove", "P ->")
    assert code == 2 and "error" in err


def test_world_bound_below_one_is_a_usage_error(capsys):
    code, out, err = run(capsys, "prove", "--bound", "0", "|- P")
    assert code == 2 and out == "" and "--bound" in err


@pytest.mark.parametrize("argv, option", [
    (["interpolate", "--exists", "--var", "Y", "--validate", "--probe-budget", "-3", "Y /\\ X"],
     "--probe-budget"),
    (["interpolate", "--exists", "--var", "Y", "--validate", "--probe-budget", "2", "Y /\\ X"],
     "--probe-budget"),
    (["rn-classify", "--level", "-4", "X"], "--level"),
    (["rn-classify", "--level", "29", "X"], "--level"),
])
def test_option_below_its_bound_is_a_usage_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and option in err


def test_probe_budget_past_the_cap_is_a_usage_error_that_builds_no_corpus(monkeypatch, capsys):
    import pittslab.cli as cli

    budgets = []
    monkeypatch.setattr(cli, "probe_corpus", lambda atoms, budget: budgets.append(budget) or ())
    argv = ["interpolate", "--exists", "--var", "Y", "--validate", "--probe-budget"]
    code, out, err = run(capsys, *argv, "10", "Y /\\ X")
    assert code == 2 and out == "" and "--probe-budget" in err and "must be at most 9" in err
    assert budgets == []
    # the cap itself is accepted (the stub stands in for its corpus)
    assert run(capsys, *argv, "9", "Y /\\ X")[0] == 0 and budgets == [9]


def test_interpolate_matches_reference_value(capsys):
    code, out, _ = run(
        capsys, "interpolate", "--exists", "--var", "Y", "(~Y -> X1) /\\ (~~Y -> X2)"
    )
    assert code == 0
    from pittslab.parser import parse_formula
    from pittslab.prover import equivalent

    got = parse_formula(out.strip().splitlines()[0])
    assert equivalent(got, parse_formula("(~X1 -> X2) /\\ (~X2 -> X1)"))


def test_interpolate_json_and_validation_gate(capsys):
    code, out, _ = run(
        capsys,
        "interpolate", "--exists", "--var", "Y", "--validate", "--probe-budget", "4",
        "--format", "json", "(Y \\/ ~Y) -> (P /\\ Q)",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "interpolate_result.schema.json")
    assert payload["validated"] is True


def test_interpolate_forall(capsys):
    code, out, _ = run(capsys, "interpolate", "--forall", "--var", "Y", "X \\/ Y")
    assert code == 0
    assert out.strip() == "X"


def test_replay_text_and_json(capsys):
    code, out, _ = run(capsys, "replay", "tara")
    assert code == 0
    assert out.strip().splitlines()[-1] == "  derived: ~~P |- P"
    code, out, _ = run(capsys, "replay", "kreisel", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "replay_report.schema.json")


def test_check_bundled_script(capsys, tmp_path):
    from pittslab.replays import script_root

    root = script_root()
    code, out, _ = run(
        capsys,
        "check", str(root / "polacik" / "three_in_one.pfs"),
        "--theory", "polacik/theory.thy",
    )
    assert code == 0 and out.startswith("accepted")
    bad = tmp_path / "broken.pfs"
    bad.write_text("1 | |- bot | ipc\n")
    code, out, _ = run(capsys, "check", str(bad), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    validate(payload, "check_result.schema.json")
    assert payload["failure"]["line"] == 1


def test_check_rejects_an_extensionality_line_that_would_capture(capsys, tmp_path):
    # substituting X for the hole under `exists X` would capture it; the tree
    # builder's error is a rejection of the line, not a crash
    theory = tmp_path / "unary.thy"
    theory.write_text("connective t 1\n")
    script = tmp_path / "capture.pfs"
    script.write_text(
        "1 | X -> P, P -> X, exists X'. X /\\ X' |- exists X. P /\\ X"
        " | ext (exists X. (_ /\\ X)) X P\n"
    )
    argv = ["check", str(script), "--theory", str(theory)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "rejected at line 1: variables ['X'] would be captured\n", "")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    validate(payload, "check_result.schema.json")
    assert payload["failure"] == {"line": 1, "reason": "variables ['X'] would be captured"}


def test_check_reports_a_rejected_with_script_in_either_format(capsys, tmp_path):
    # the main script is never read: the first rejected --with script ends
    # the check, on stderr in text and as its own check_result in JSON
    good = tmp_path / "good.pfs"
    good.write_text("1 | P |- P | ipc\n")
    bad = tmp_path / "bad.pfs"
    bad.write_text("1 | |- P | ipc\n")
    argv = ["check", str(tmp_path / "absent.pfs"), "--with", str(good), "--with", str(bad)]
    reason = "not an intuitionistic consequence: |- P"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"{bad}: rejected at line 1: {reason}\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    validate(payload, "check_result.schema.json")
    assert payload == {"script": str(bad), "ok": False, "lines": 1,
                       "failure": {"line": 1, "reason": reason}}
    # with every --with script accepted, the main script is checked as before
    code, out, _ = run(capsys, "check", str(good), "--with", str(good), "--format", "json")
    assert code == 0 and json.loads(out) == {"script": str(good), "ok": True, "lines": 1}


# In place of a file's text: the path given is a directory.
DIRECTORY = object()


def _input_file(tmp_path, name, content):
    if content is DIRECTORY:
        return tmp_path
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


@pytest.mark.parametrize("script, theory", [
    pytest.param("not a script at all\n", None, id="not-a-script"),
    pytest.param("1 | P |- P | ipc\n2 | P |- P | cut a b\n", None, id="cut-word"),
    pytest.param("1 | P |- P | rule impR x\n", None, id="rule-word"),
    pytest.param("1 | P |- P | ipc\n2 | P |- P | subst x {P := Q}\n", None, id="subst-word"),
    pytest.param("1 | P |- P | ref foo:x\n", None, id="ref-word"),
    pytest.param("1 | P |- P | ipc\n", "connective t x\n", id="theory-arity-word"),
    pytest.param(DIRECTORY, None, id="script-is-a-directory"),
    pytest.param(b"1 | P |- P | ipc\n2 | \xff |- P | ipc\n", None, id="not-utf-8"),
    pytest.param("1 | P |- P | ipc\n", DIRECTORY, id="theory-is-a-directory"),
    pytest.param("1 | P |- " + "~" * 1200 + "P | ipc\n", None, id="nested-too-deeply"),
])
def test_check_malformed_is_exit_two(capsys, tmp_path, script, theory):
    argv = ["check", str(_input_file(tmp_path, "malformed.pfs", script))]
    if theory is not None:
        argv += ["--theory", str(_input_file(tmp_path, "malformed.thy", theory))]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("theory, hint", [
    pytest.param("connective c 0\nschema s: |- c\n", "write c()", id="nullary"),
    pytest.param("connective c 1\nschema s: |- c\n", "write c(...)", id="unary"),
])
def test_check_rejects_a_connective_used_as_a_metavariable(capsys, tmp_path, theory, hint):
    # read as a metavariable, the bare `c` would let the schema prove bot
    script = _input_file(tmp_path, "clash.pfs", "1 | |- bot | ax-schema s {c := bot}\n")
    argv = ["check", str(script), "--theory", str(_input_file(tmp_path, "clash.thy", theory))]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and hint in err


@pytest.mark.parametrize("line, message", [
    pytest.param("2 | Q |- Q | subst 1 {P := Q /\\}", "unexpected 'end of input' at offset 4",
                 id="binding-syntax"),
    pytest.param("2 | P |- P | cut 1", "cut needs at least two cited lines", id="cut-arity"),
    pytest.param("2 | P |- P | frobnicate 1", "unknown justification 'frobnicate'", id="unknown"),
    pytest.param("2 | P |- P | ax-schema defining {X = P}", "bad binding 'X = P'", id="binding-form"),
    pytest.param("2 | P |- P | subst 1 X := P", "expected {X := ...} bindings, got 'X := P'",
                 id="bindings-unbraced"),
])
def test_malformed_justification_names_its_line(capsys, tmp_path, line, message):
    script = _input_file(tmp_path, "malformed.pfs", f"1 | P |- P | ipc\n{line}\n")
    code, out, err = run(capsys, "check", str(script))
    assert code == 2 and out == "" and err.startswith(f"error: line 2: {message}")


@pytest.mark.parametrize("text, message", [
    pytest.param('(ax "P |- P"', "tree ends before its closing ')'", id="truncated"),
    pytest.param('(foo "P |- P")', "unknown rule 'foo'", id="unknown-rule"),
    pytest.param("", "tree ends before its closing ')'", id="empty"),
    pytest.param(DIRECTORY, "[Errno 21] Is a directory: '{path}'", id="tree-is-a-directory"),
    pytest.param('(ax "P |- P"))', "trailing input after tree", id="trailing-paren"),
    pytest.param("(ax P |- P)", "expected quoted sequent after rule 'ax'", id="unquoted-sequent"),
    pytest.param('(schema "P |- P" "s {X := }")',
                 "unexpected 'end of input' at offset 0 (expected one of: "
                 "(, bot, exists, forall, ident, top, ~)", id="schema-binding"),
])
def test_extract_aux_malformed_tree_is_exit_two(capsys, tmp_path, text, message):
    tree = _input_file(tmp_path, "malformed.tree", text)
    code, out, err = run(capsys, "extract-aux", str(tree), "--body", "Y -> P", "--var", "Y")
    assert (code, out, err) == (2, "", f"error: {message.format(path=tree)}\n")


def test_extract_aux_deep_tree_is_exit_two(capsys, tmp_path):
    # a valid chain of 1,200 weakenings and contractions over P |- P; its
    # conclusion is not the connective
    lines = [
        f'({"wL" if d % 2 else "cL"} "{"P, P" if d % 2 else "P"} |- P"' for d in range(1200, 0, -1)
    ]
    tree = tmp_path / "deep.tree"
    tree.write_text("\n".join(lines) + '\n(ax "P |- P"' + ")" * 1201)
    code, out, err = run(capsys, "extract-aux", str(tree), "--body", "Y -> P", "--var", "Y")
    assert code == 2 and out == ""
    assert err == "error: tree must conclude the quantified connective\n"


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
    # no user input reaches a KeyError, so one is a bug, not exit 2
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("pittslab.cli.prove", broken)
    with pytest.raises(KeyError):
        main(["prove", "|- P -> P"])


def test_extract_aux_command(capsys):
    from pittslab.replays import script_root

    tree = script_root().parent / "trees" / "witness_first.tree"
    code, out, _ = run(
        capsys,
        "extract-aux", str(tree),
        "--body", "(Y \\/ ~Y) -> (P /\\ Q)", "--var", "Y",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "extract_result.schema.json")
    assert payload["witness"] == "P /\\ Q"
    assert payload["auxiliary"] is True


def test_rn_classify_command(capsys):
    code, out, _ = run(capsys, "rn-classify", "~~~X", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "rn_class.schema.json")
    assert payload["representative"] == "~X"
    # above the generated portion of the lattice: exit 1
    code, out, err = run(capsys, "rn-classify", "--level", "2", "(~~X -> X) -> (X \\/ ~X)")
    assert (code, out) == (1, "")
    assert err == "error: (~~X -> X) -> X \\/ ~X lies above the generated lattice portion\n"


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "selftest_report.schema.json")
    assert payload["ok"] is True


def test_byte_identical_output_across_runs(capsys):
    first = run(capsys, "prove", "--format", "json", "|- ~P \\/ ~~P")
    second = run(capsys, "prove", "--format", "json", "|- ~P \\/ ~~P")
    assert first == second
    a = run(capsys, "interpolate", "--exists", "--var", "Y", "P <-> (~Y \\/ ~~Y)")
    b = run(capsys, "interpolate", "--exists", "--var", "Y", "P <-> (~Y \\/ ~~Y)")
    assert a == b


def test_interpolate_forall_with_probe_gate(capsys):
    code, out, _ = run(
        capsys,
        "interpolate", "--forall", "--var", "Y", "--validate",
        "--probe-budget", "6", "--format", "json", "X \\/ Y",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "interpolate_result.schema.json")
    assert payload["validated"] is True and payload["interpolant"] == "X"


def test_failed_gate_names_its_first_failure(monkeypatch, capsys):
    from pittslab.parser import parse_formula

    argv = ["interpolate", "--exists", "--var", "Y", "--validate", "--probe-budget", "4",
            "(Y \\/ ~Y) -> (P /\\ Q)"]
    monkeypatch.setattr("pittslab.cli.simplify", lambda f: parse_formula("bot"))
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "bot",
        "probe gate: FAIL (24 probes)",
        "  consequence: Y \\/ ~Y -> P /\\ Q |- bot refuted",
        "  first failing probe: bot; direction: candidate; "
        "bot |- bot provable; Y \\/ ~Y -> P /\\ Q |- bot refuted",
    ]
    code, out, _ = run(capsys, *argv[:-1], "--format", "json", argv[-1])
    assert code == 1
    payload = json.loads(out)
    validate(payload, "interpolate_result.schema.json")
    assert payload == {"input": "Y \\/ ~Y -> P /\\ Q", "interpolant": "bot", "kind": "exists",
                       "probes": 24, "validated": False, "var": "Y"}


def test_installed_script_exits_70_on_an_internal_error(capsys, monkeypatch):
    from pittslab import cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("pittslab.cli.prove", broken)
    assert cli.run(["prove", "|- P -> P"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("KeyError: 'internal'\n")
    # the exit codes `main` returns pass through unchanged
    monkeypatch.undo()
    assert cli.run(["prove", "|- P -> P"]) == 0
    assert cli.run(["prove", "P ->"]) == 2


def test_parser_is_built_once():
    from pittslab.cli import build_parser

    assert build_parser() is build_parser()


def test_no_option_value_carries_over_between_calls(capsys):
    code, out, _ = run(capsys, "prove", "--bound", "1", "|- P \\/ ~P", "--format", "json")
    assert code == 1 and json.loads(out)["countermodel"] is None
    code, out, _ = run(capsys, "prove", "|- P \\/ ~P", "--format", "json")
    assert code == 1 and json.loads(out)["countermodel"]["worlds"] == [0, 1]


def test_calls_after_a_usage_error_and_version_behave_as_fresh(capsys):
    from pittslab import __version__

    code, out, err = run(capsys, "prove", "--bound", "0", "|- P")
    assert code == 2 and out == "" and "must be at least 1" in err
    assert run(capsys, "--version") == (0, f"pittslab {__version__}\n", "")
    code, out, err = run(capsys, "interpolate", "--exists", "--var", "Y", "Y /\\ X")
    assert (code, out, err) == (0, "X\n", "")


def test_every_subcommand_matches_a_freshly_built_parser(capsys):
    from pittslab.cli import build_parser
    from pittslab.replays import script_root

    root = script_root()
    tree = root.parent / "trees" / "witness_first.tree"
    commands = [
        ["prove", "|- P \\/ ~P", "--format", "json"],
        ["interpolate", "--forall", "--var", "Y", "--validate", "X \\/ Y"],
        ["rn-classify", "~~~X"],
        ["prove", "--bound", "1", "|- P \\/ ~P"],
        ["check", str(root / "tara" / "topreducts.pfs"), "--theory", "tara/theory.thy",
         "--format", "json"],
        ["extract-aux", str(tree), "--body", "(Y \\/ ~Y) -> (P /\\ Q)", "--var", "Y"],
        ["replay", "kreisel", "--format", "json"],
        ["rn-classify", "--level", "-1", "X"],
        ["selftest", "--quick", "--seed", "3"],
        ["interpolate", "--exists", "--var", "Y", "--format", "json", "Y /\\ X"],
        ["replay", "nosuchsuite"],
        ["prove", "--help"],
        ["prove", "P, P -> Q |- Q"],
    ]
    build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in commands]
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 1, 0, 0, 0, 2, 0, 0, 2, 0, 0]


# Each derives an unprovable sequent through one unsound quantifier step: a
# witness captured by a binder of the instance (capture), or an eigenvariable
# free in the principal formula (allr, exl).
UNSOUND_SCRIPTS = {
    "capture": ("""\
1 | W <-> ~W |- bot | ipc
2 | exists W. (W <-> ~W) |- bot | rule exL 1
3 | forall X. exists Z. (Z <-> ~X) |- bot | rule allL 2
4 | |- ~X <-> ~X | ipc
5 | |- exists Z. (Z <-> ~X) | rule exR 4
6 | |- forall X. exists Z. (Z <-> ~X) | rule allR 5
7 | |- bot | cut 6 3
""", "rejected at line 3: at node [3]: allL: no universal hypothesis matches the premise\n"),
    "allr": ("""\
1 | |- Y -> Y | ipc
2 | |- forall X. (X -> Y) | rule allR 1
3 | top -> Y |- top -> Y | ipc
4 | forall X. (X -> Y) |- top -> Y | rule allL 3
5 | |- top -> Y | cut 2 4
6 | top -> Y |- Y | ipc
7 | |- Y | cut 5 6
""", "rejected at line 2: at node [2]: allR: Y occurs free in the context\n"),
    "exl": ("""\
1 | Y /\\ ~Y |- bot | ipc
2 | exists X. (X /\\ ~Y) |- bot | rule exL 1
3 | ~Y |- top /\\ ~Y | ipc
4 | ~Y |- exists X. (X /\\ ~Y) | rule exR 3
5 | ~Y |- bot | cut 4 2
6 | |- ~~Y | rule impR 5
""", "rejected at line 2: at node [2]: exL: Y occurs free in the context\n"),
}


@pytest.mark.parametrize("name", sorted(UNSOUND_SCRIPTS))
def test_unsound_quantifier_steps_are_rejected(capsys, tmp_path, name):
    text, message = UNSOUND_SCRIPTS[name]
    script = tmp_path / f"{name}.pfs"
    script.write_text(text)
    assert run(capsys, "check", str(script)) == (1, message, "")
