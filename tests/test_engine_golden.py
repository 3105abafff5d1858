"""Outputs of the shared G4ip rule schedule, pinned across commits.

`engine_golden.json` holds the witness-tree text of sequents that together
fire every rule of the schedule, and the raw and the simplified interpolant
keys of the five reference bodies.  A change to the schedule or to `simplify`
that alters any of them fails here, even when the new output is still
correct.
"""
import json
from pathlib import Path

import pytest

from pittslab.parser import parse_formula, parse_sequent
from pittslab.pitts import pita_forall, pite_exists, simplify
from pittslab.prover import derive
from pittslab.syntax import Variable
from pittslab.trees import print_tree

GOLDEN = json.loads(Path(__file__).with_name("engine_golden.json").read_text(encoding="utf-8"))

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

Y = Variable("Y")


def test_golden_file_covers_the_listed_sequents():
    assert sorted(GOLDEN["trees"]) == sorted(SEQUENTS)


@pytest.mark.parametrize("sequent", sorted(SEQUENTS))
def test_witness_tree_text(sequent):
    assert print_tree(derive(parse_sequent(sequent))) == GOLDEN["trees"][sequent]


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
