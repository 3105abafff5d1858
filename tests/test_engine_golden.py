"""Outputs of the shared G4ip rule schedule, pinned across commits.

`engine_golden.json` holds the witness-tree text of sequents that together
fire every rule of the schedule, and the raw and the simplified interpolant
keys of the five reference bodies.  Its `duplicates` section holds the trees
of sequents that list a hypothesis twice: the witness builder works on the
set, as the decision procedure does, and weakens the extra copy in at the
root.  A change to the schedule or to `simplify` that alters any of them
fails here, even when the new output is still correct.

Regenerate with `PYTHONPATH=src python tests/test_engine_golden.py`, and
only when a change means to alter an output.
"""
import json
from pathlib import Path

import pytest

from pittslab.parser import parse_formula, parse_sequent
from pittslab.pitts import pita_forall, pite_exists, simplify
from pittslab.prover import derive
from pittslab.syntax import Variable
from pittslab.trees import print_tree

GOLDEN_PATH = Path(__file__).with_name("engine_golden.json")

# Each pinned sequent, with the rules of the schedule its witness goes through.
SEQUENTS = {
    "bot |- P": "falsum on the left",
    "P /\\ Q |- Q /\\ P": "conjunction left, conjunction right",
    "P \\/ Q |- Q \\/ P": "disjunction left, both disjunction-right choices",
    "bot -> P |- Q -> Q": "falsum-antecedent implication left, implication right",
    "P, P -> Q |- Q": "atom-antecedent implication left",
    "(P /\\ Q) -> R |- P -> Q -> R": "conjunction-antecedent implication left",
    "(P \\/ Q) -> R, P |- R": "disjunction-antecedent implication left",
    "|- ~~(P \\/ ~P)": "the (c -> d) -> e choice point",
}

# Sequents with a repeated hypothesis, each with the rule that meets the copy.
DUPLICATES = {
    "(P -> Q) -> R, (P -> Q) -> R, Q |- R": "the (c -> d) -> e choice on a repeated principal",
    "(P -> Q) -> R, (P -> Q) -> R |- (P -> Q) -> R": "axiom beside the repeated copy",
    "((P -> Q) -> R) -> S, ((P -> Q) -> R) -> S, R |- S": "the choice with an implication antecedent, repeated",
    "P /\\ P, P -> Q |- Q": "conjunction left with equal conjuncts",
    "P /\\ Q, P /\\ Q |- Q /\\ P": "conjunction left on a repeated principal",
    "P \\/ P, P \\/ P |- P": "disjunction left on a repeated principal",
    "P, P, P -> Q, P -> Q |- Q": "atom-antecedent implication left, repeated",
    "~(P \\/ ~P), ~(P \\/ ~P) |- bot": "disjunction-antecedent implication left, repeated",
    "(P /\\ Q) -> R, (P /\\ Q) -> R, P, Q |- R": "conjunction-antecedent implication left, repeated",
    "Q \\/ R, Q \\/ R |- R \\/ Q": "both disjunction-right choices under a repeated case split",
}

# The interpolated bodies; each eliminates Y.
BODIES = (
    "(P -> (Y \\/ ~Y)) -> P",
    "(X -> (~Y \\/ ~~Y)) -> X",
    "(Y \\/ ~Y) -> (P /\\ Q)",
    "(~Y -> X1) /\\ (~~Y -> X2)",
    "P <-> (~Y \\/ ~~Y)",
)

Y = Variable("Y")


def _tree(sequent):
    return print_tree(derive(parse_sequent(sequent)))


def _capture():
    golden = {"interpolants": {}, "trees": {}, "simplified": {}}
    for body in sorted(BODIES):
        phi = parse_formula(body)
        ex, un = pite_exists(phi, Y), pita_forall(phi, Y)
        golden["interpolants"][body] = {"exists": ex.key, "forall": un.key}
        golden["simplified"][body] = {"exists": simplify(ex).key, "forall": simplify(un).key}
    golden["trees"] = {s: _tree(s) for s in sorted(SEQUENTS)}
    golden["duplicates"] = {s: _tree(s) for s in sorted(DUPLICATES)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_the_listed_sequents():
    assert sorted(GOLDEN["trees"]) == sorted(SEQUENTS)
    assert sorted(GOLDEN["duplicates"]) == sorted(DUPLICATES)
    assert sorted(GOLDEN["interpolants"]) == sorted(BODIES)


@pytest.mark.parametrize("sequent", sorted(SEQUENTS))
def test_witness_tree_text(sequent):
    assert _tree(sequent) == GOLDEN["trees"][sequent]


@pytest.mark.parametrize("sequent", sorted(DUPLICATES))
def test_witness_tree_text_with_repeated_hypotheses(sequent):
    assert _tree(sequent) == GOLDEN["duplicates"][sequent]


@pytest.mark.parametrize("body", sorted(GOLDEN["interpolants"]))
def test_raw_interpolant_keys(body):
    phi = parse_formula(body)
    assert pite_exists(phi, Y).key == GOLDEN["interpolants"][body]["exists"]
    assert pita_forall(phi, Y).key == GOLDEN["interpolants"][body]["forall"]


@pytest.mark.parametrize("body", sorted(GOLDEN["interpolants"]))
def test_simplified_interpolant_keys(body):
    phi = parse_formula(body)
    assert simplify(pite_exists(phi, Y)).key == GOLDEN["simplified"][body]["exists"]
    assert simplify(pita_forall(phi, Y)).key == GOLDEN["simplified"][body]["forall"]


if __name__ == "__main__":
    _capture()
