"""Outputs of the forcing evaluator, pinned across commits.

`semantics_golden.json` holds the first countermodel `find_countermodel`
returns for seeded refuted sequents over one to four atoms (some need three
or four worlds) and for the refuted formulas of `soundness_battery(seed=0)`,
the ordered representatives of `RNLattice(12)`, and the JSON that
`rn-classify` prints for a few formulas.  A change to the sweep's order or to
the lattice's enumeration fails here, even when the new output is still
correct.
"""
import json
from pathlib import Path

import pytest

from pittslab.cli import main
from pittslab.kripke import find_countermodel
from pittslab.parser import parse_sequent
from pittslab.rieger import default_lattice

GOLDEN = json.loads(Path(__file__).with_name("semantics_golden.json").read_text(encoding="utf-8"))


def model_json(hit):
    model, world = hit
    return {
        "worlds": len(model.worlds),
        "order": sorted([list(p) for p in model.order]),
        "valuation": {str(w): sorted(v) for w, v in model.valuation},
        "world": world,
    }


@pytest.mark.parametrize("section", ["countermodels", "soundness"])
def test_first_countermodel(section):
    for text, want in GOLDEN[section].items():
        s = parse_sequent(text)
        hit = find_countermodel(s, 6)
        assert hit is not None and hit[0].refutes(hit[1], s), text
        assert model_json(hit) == want, text


def test_golden_countermodels_reach_four_atoms_and_three_worlds():
    deep = [t for t, m in GOLDEN["countermodels"].items() if m["worlds"] >= 3]
    assert len(deep) >= 5
    assert any(len(parse_sequent(t).free_vars()) == 4 for t in deep)


def test_lattice_representatives():
    assert [rep.key for rep in default_lattice(12).reps] == GOLDEN["lattice"]


@pytest.mark.parametrize("formula", sorted(GOLDEN["rn_classify"]))
def test_rn_classify_json(capsys, formula):
    assert main(["rn-classify", formula, "--format", "json"]) == 0
    assert capsys.readouterr().out == GOLDEN["rn_classify"][formula]
