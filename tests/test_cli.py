import json
import time
from importlib import resources

import jsonschema
import pytest

from pittslab.cli import main


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


@pytest.mark.parametrize("argv", [
    pytest.param(["prove", "P |- " + "~" * 400 + "P"], id="prove"),
    pytest.param(["interpolate", "--exists", "--var", "Y", "~" * 1200 + "Y"], id="interpolate"),
])
def test_deep_input_is_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == "error: input nested too deeply\n"


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
])
def test_option_below_its_bound_is_a_usage_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and option in err


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


@pytest.mark.parametrize("text", [
    pytest.param('(ax "P |- P"', id="truncated"),
    pytest.param('(foo "P |- P")', id="unknown-rule"),
    pytest.param("", id="empty"),
    pytest.param(DIRECTORY, id="tree-is-a-directory"),
])
def test_extract_aux_malformed_tree_is_exit_two(capsys, tmp_path, text):
    tree = _input_file(tmp_path, "malformed.tree", text)
    code, out, err = run(capsys, "extract-aux", str(tree), "--body", "Y -> P", "--var", "Y")
    assert code == 2 and out == "" and err.startswith("error: ")


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
