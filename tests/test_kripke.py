import subprocess
import sys
from pathlib import Path

import pytest

from pittslab.kripke import KripkeModel, find_countermodel, posets, upsets
from pittslab.parser import parse_formula, parse_sequent


def test_poset_counts_match_known_sequence():
    assert [len(posets(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]


def test_upsets_of_two_chain():
    chain = next(p for p in posets(2) if p != ((1 << 0), (1 << 1)))
    # chain: world 0 below world 1
    assert set(upsets(2, chain)) == {0b00, 0b10, 0b11}


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel((0, 1), frozenset({(0, 0), (1, 1), (0, 1)}),
                    ((0, frozenset({"P"})), (1, frozenset())))  # not persistent
    with pytest.raises(ValueError):
        KripkeModel((0, 1), frozenset({(0, 0)}), ((0, frozenset()), (1, frozenset())))


def test_forcing_negation_semantics():
    model = KripkeModel(
        (0, 1),
        frozenset({(0, 0), (1, 1), (0, 1)}),
        ((0, frozenset()), (1, frozenset({"P"}))),
    )
    p = parse_formula("P")
    assert not model.forces(0, p)
    assert model.forces(1, p)
    assert not model.forces(0, parse_formula("~P"))
    assert model.forces(0, parse_formula("~~P"))


def test_excluded_middle_gets_two_chain():
    hit = find_countermodel(parse_sequent("|- P \\/ ~P"), 2)
    assert hit is not None
    model, world = hit
    assert len(model.worlds) == 2
    assert model.refutes(world, parse_sequent("|- P \\/ ~P"))


def test_valid_sequent_has_no_countermodel():
    assert find_countermodel(parse_sequent("|- P -> P"), 6) is None


def test_classical_one_world_countermodel():
    s = parse_sequent("(~X1 -> X2) /\\ (~X2 -> X1) |- X1")
    hit = find_countermodel(s, 1)
    assert hit is not None
    model, world = hit
    assert len(model.worlds) == 1
    assert model.atoms_at(world) == frozenset({"X2"})
    assert model.refutes(world, s)


def test_bound_respected():
    # weak excluded middle needs a fork: no one-world countermodel
    s = parse_sequent("|- ~P \\/ ~~P")
    assert find_countermodel(s, 1) is None
    assert find_countermodel(s, 3) is not None


def test_package_imports_without_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = 'import pittslab, sys; assert "numpy" not in sys.modules'
    subprocess.run([sys.executable, "-c", code], cwd=src, check=True, timeout=60)
