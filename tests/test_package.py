"""The package's import structure: the checker's modules load alone, and the
public names load their submodules on first use."""
import ast
import json
import os
import subprocess
import sys
from importlib import import_module, resources
from pathlib import Path

import pittslab

# The trusted base: formula syntax, printer, parser, the kernel (which checks
# proof trees and Kripke countermodels) and the tree reader.
CHECKER = ("syntax", "printer", "parser", "kernel", "trees")

PUBLIC = (
    "And App AuxiliaryReport BOT Bottom CheckReport ConnectiveSymbol Exists Forall Formula "
    "Implies KripkeModel Or ProofScript ProofTree REPLAY_NAMES RNClass RNLattice "
    "RegularConnective ReplayReport SchemaTheory Sequent Signature TOP Var Variable Verdict "
    "check_rieger_lower_facts check_script check_tree classical_tautology decide derive "
    "derive_extensionality equivalent extract_auxiliary find_countermodel iff is_auxiliary "
    "neg parse_formula parse_script parse_sequent parse_theory parse_tree pita_forall "
    "pite_exists print_formula print_tree probe_corpus prove replay rn_classify simplify "
    "substitute validate_interpolant"
).split()


def test_the_checker_loads_and_checks_a_tree_without_the_search_modules():
    code = (
        "import json, sys\n"
        "from importlib import resources\n"
        "import pittslab.trees\n"
        "from pittslab.kernel import KripkeModel, check_tree\n"
        "from pittslab.parser import parse_sequent\n"
        "tree = (resources.files('pittslab') / 'data' / 'trees' / 'witness_first.tree').read_text()\n"
        "assert check_tree(pittslab.trees.parse_tree(tree)).ok\n"
        "model = KripkeModel((0, 1), frozenset({(0, 0), (0, 1), (1, 1)}),\n"
        "                    ((0, frozenset()), (1, frozenset({'P'}))))\n"
        "assert model.refutes(0, parse_sequent('|- P \\\\/ ~P'))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pittslab')))\n"
    )
    src = str(Path(pittslab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert json.loads(out) == sorted(["pittslab"] + [f"pittslab.{m}" for m in CHECKER])


def test_the_checker_modules_import_only_one_another():
    root = resources.files("pittslab")
    for module in CHECKER:
        tree = ast.parse((root / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.module in CHECKER, (module, node.module)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                assert not any(n.split(".")[0] == "pittslab" for n in names), (module, names)


def test_every_public_name_is_its_submodules_object():
    assert pittslab.__all__ == sorted(PUBLIC)
    for name in PUBLIC:
        scope = {}
        exec(f"from pittslab import {name} as value", scope)
        source = import_module(f"pittslab.{pittslab._MODULE_OF[name]}")
        assert scope["value"] is getattr(source, name) is getattr(pittslab, name), name
    assert set(PUBLIC) <= set(dir(pittslab))
    assert pittslab.KripkeModel is pittslab.kripke.KripkeModel is pittslab.kernel.KripkeModel
