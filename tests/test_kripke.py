import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pittslab import cli, kripke
from pittslab.kernel import Sequent
from pittslab.kripke import (
    KripkeModel,
    find_countermodel,
    first_failure,
    forcing_mask,
    posets,
    rooted_posets,
    upsets,
)
from pittslab.parser import parse_formula, parse_sequent
from pittslab.selftest import random_formula
from pittslab.syntax import And, Bottom, Implies, Or, UnsupportedFormula, Var, neg, subformulas


def test_poset_counts_match_known_sequence():
    assert [len(posets(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]
    assert len(posets(7)) == 2045


def _reference_canonical(n, down):
    """The least adjacency code over all n! relabelings."""
    edges = [(u, w) for w in range(n) for u in range(n) if down[w] >> u & 1]
    return min(sum(1 << (p[u] * n + p[w]) for u, w in edges) for p in itertools.permutations(range(n)))


def test_posets_match_the_tables_built_with_the_all_relabelings_key(monkeypatch):
    # posets(n) extends the cached posets(n - 1), which the step before
    # checked, so each table is compared with the reference-keyed one
    for n in range(1, 7):
        fast = posets(n)
        with monkeypatch.context() as m:
            m.setattr(kripke, "_canonical", _reference_canonical)
            assert posets.__wrapped__(n) == fast, n


def _linear_extension(data, n, down):
    """A linear extension of `down`, drawn one minimal world at a time."""
    placed, order = 0, []
    while len(order) < n:
        ready = [w for w in range(n) if not placed >> w & 1 and down[w] & ~placed == 0]
        w = data.draw(st.sampled_from(ready))
        placed |= 1 << w
        order.append(w)
    return order


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_key_is_the_same_along_any_linear_extension(data):
    n = data.draw(st.integers(1, 6))
    down = kripke._ups_to_downs(n, data.draw(st.sampled_from(posets(n))))
    order = _linear_extension(data, n, down)
    label = {w: i for i, w in enumerate(order)}
    relabeled = tuple(sum(1 << label[u] for u in range(n) if down[w] >> u & 1) for w in order)
    assert kripke._canonical(n, relabeled) == kripke._canonical(n, down)


def test_canonical_keys_tell_the_six_world_posets_apart():
    assert len({kripke._canonical(6, kripke._ups_to_downs(6, up)) for up in posets(6)}) == 318


def test_upsets_of_two_chain():
    chain = next(p for p in posets(2) if p != ((1 << 0), (1 << 1)))
    # chain: world 0 below world 1
    assert set(upsets(2, chain)) == {0b00, 0b10, 0b11}


def _reference_upsets(n, up):
    """Every mask tested against every world."""
    return tuple(mask for mask in range(1 << n) if all(up[w] & mask == up[w] for w in range(n) if mask >> w & 1))


def test_upsets_match_testing_every_mask():
    # the up masks of every poset up to 7 worlds and of every rooted poset of
    # 8, and the strict-down masks of each poset that `posets` extends
    for n in range(1, 8):
        for up in posets(n):
            assert upsets(n, up) == _reference_upsets(n, up), up
            down = kripke._ups_to_downs(n, up)
            assert upsets(n, down) == _reference_upsets(n, down), down
    for up in rooted_posets(8):
        assert upsets(8, up) == _reference_upsets(8, up), up


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel((0, 1), frozenset({(0, 0), (1, 1), (0, 1)}),
                    ((0, frozenset({"P"})), (1, frozenset())))  # not persistent
    with pytest.raises(ValueError):
        KripkeModel((0, 1), frozenset({(0, 0)}), ((0, frozenset()), (1, frozenset())))


CHAIN = frozenset({(0, 0), (1, 1), (0, 1)})


@pytest.mark.parametrize("worlds, order, valuation, fault", [
    ((0, 0), frozenset({(0, 0)}), ((0, frozenset({"P"})),), "worlds must be distinct"),
    ((0, 1), CHAIN | {(1, 7), (0, 7), (7, 7)},
     ((0, frozenset()), (1, frozenset({"P"})), (9, frozenset({"Q"}))), "order must relate"),
    ((0, 1), CHAIN, ((0, frozenset()), (1, frozenset({"P"})), (9, frozenset({"Q"}))),
     "valuation must value"),
    ((0, 1), CHAIN, ((1, frozenset({"P"})), (1, frozenset())), "at most once"),
], ids=["repeated world", "order outside the worlds", "valuation outside the worlds",
        "world valued twice"])
def test_model_rejects_a_malformed_world_set(worlds, order, valuation, fault):
    with pytest.raises(ValueError, match=fault):
        KripkeModel(worlds, order, valuation)


def test_order_checks_take_one_pass_per_pair():
    # a 60-world chain has 1,830 pairs; a pairwise transitivity test took 0.15 s
    n = 60
    chain = frozenset((a, b) for a in range(n) for b in range(a, n))
    start = time.perf_counter()
    KripkeModel(tuple(range(n)), chain, ())
    assert time.perf_counter() - start < 0.05
    with pytest.raises(ValueError, match="order must be transitive"):
        KripkeModel(tuple(range(3)), frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}), ())
    with pytest.raises(ValueError, match="order must be antisymmetric"):
        KripkeModel((0, 1), frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}), ())


def test_forcing_reads_the_order_once():
    # a 250-world chain has 31,375 pairs; rescanning them per call took 0.1 s
    n = 250
    chain = frozenset((a, b) for a in range(n) for b in range(a, n))
    model = KripkeModel(tuple(range(n)), chain, ((n - 1, frozenset({"P"})),))
    s = parse_sequent("|- P \\/ ~P")
    start = time.perf_counter()
    for _ in range(10):
        assert model.refutes(0, s)
    assert time.perf_counter() - start < 0.05


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


def _reference_forcing(model):
    """The forcing relation by the definition, recursively, with a memo of
    (world, formula) verdicts for the compound formulas: the reference for
    `KripkeModel.forces` and `refutes`."""
    val = dict(model.valuation)
    up = {w: [v for v in model.worlds if (w, v) in model.order] for w in model.worlds}
    memo: dict = {}

    def forces(w, f) -> bool:
        if isinstance(f, Var):
            return f.var.name in val.get(w, ())
        if isinstance(f, Bottom):
            return False
        hit = memo.get((w, f))
        if hit is not None:
            return hit
        if isinstance(f, And):
            out = forces(w, f.left) and forces(w, f.right)
        elif isinstance(f, Or):
            out = forces(w, f.left) or forces(w, f.right)
        elif isinstance(f, Implies):
            out = all(not forces(v, f.left) or forces(v, f.right) for v in up.get(w, ()))
        else:
            raise UnsupportedFormula(f"cannot evaluate {f}")
        memo[(w, f)] = out
        return out

    return forces


def test_forcing_matches_the_recursive_definition():
    rng = random.Random(26)
    names = ("P", "Q", "R")
    refuted = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        up = rng.choice(posets(n))
        us = upsets(n, up)
        atoms = {name: rng.choice(us) for name in names}
        # worlds under labels that are not their positions, in shuffled order
        label = rng.sample(["a", "b", "c", "d", "e", "f"], n)
        model = KripkeModel(
            tuple(rng.sample(label, n)),
            frozenset((label[u], label[v]) for u in range(n) for v in range(n) if up[u] >> v & 1),
            tuple((label[w], frozenset(x for x in names if atoms[x] >> w & 1)) for w in range(n)),
        )
        s = Sequent(tuple(random_formula(rng, names, rng.choice([1, 3, 5, 7]))
                          for _ in range(rng.randint(0, 2))),
                    random_formula(rng, names, rng.choice([1, 3, 5, 7, 9, 11])))
        forces = _reference_forcing(model)
        for w in model.worlds:
            for f in (*s.hyps, s.concl):
                for g in subformulas(f):
                    assert model.forces(w, g) == forces(w, g), (model, w, g)
            expected = all(forces(w, h) for h in s.hyps) and not forces(w, s.concl)
            assert model.refutes(w, s) == expected, (model, w, s)
            refuted += expected
    assert refuted > 100


def test_deep_negation_chain_gets_a_checked_countermodel():
    f = parse_formula("P")
    for _ in range(2000):
        f = neg(f)
    s = Sequent((), f)
    hit = find_countermodel(s)
    assert hit is not None
    model, world = hit
    assert model.refutes(world, s)


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
    assert dict(model.valuation)[world] == frozenset({"X2"})
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


def test_rooted_posets_are_the_rooted_posets_in_order():
    for n in range(1, 7):
        full = (1 << n) - 1
        assert list(rooted_posets(n)) == [up for up in posets(n) if up[0] == full]


def _reference_failures(s, up):
    """The failing bits of s on the poset `up`, on a grid built afresh."""
    names = sorted(s.free_vars())
    masks, g = kripke._stack(len(names), up)
    atoms = {v.name: m for v, m in zip(names, masks)}
    fail = g.full
    for h in s.hyps:
        fail &= forcing_mask(h, atoms, g)
    return fail ^ fail & forcing_mask(s.concl, atoms, g)


def _reference_first_failure(s, max_worlds, table=posets):
    """`first_failure` over every poset of `table`, rooted or not, one
    poset's grid at a time."""
    for n in range(1, max_worlds + 1):
        for up in table(n):
            fail = _reference_failures(s, up)
            if fail:
                point, world = divmod((fail & -fail).bit_length() - 1, n)
                return up, point, world
    return None


# First countermodels of 3, 4 and 5 worlds over one to four atoms; the last
# two fail on two rooted posets of their least world count, so they tell the
# sweep's poset order apart.
_DEEP = [
    "|- ~P \\/ ~~P",
    "|- (P -> Q) \\/ (Q -> P)",
    "|- ((P -> Q) -> R) -> ((Q -> P) -> R) -> R",
    "|- (P -> Q) \\/ (Q -> R) \\/ (R -> S) \\/ (S -> P)",
    "|- ~~P \\/ (~~P -> P)",
    "|- (~P -> Q \\/ R) -> (~P -> Q) \\/ (~P -> R)",
    "|- (~~P -> P) \\/ ((~~P -> P) -> P \\/ ~P)",
    "|- R \\/ (Q \\/ ~R) \\/ (Q -> R)",
    "|- (P -> Q) \\/ (Q -> R) \\/ (R -> P)",
]


def _seeded_sequents():
    """Sequents with their world bound: 4 for four atoms, where a full
    all-posets sweep to 6 worlds would take seconds, else 6."""
    rng = random.Random(10)
    out = [parse_sequent(t) for t in _DEEP]
    for i in range(160):
        names = ["P", "Q", "R", "S"][: i % 4 + 1]
        hyps = tuple(random_formula(rng, names, rng.choice([1, 3, 5])) for _ in range(rng.randint(0, 2)))
        out.append(Sequent(hyps, random_formula(rng, names, rng.choice([3, 5, 7, 9]))))
    return [(s, 4 if len(s.free_vars()) == 4 else 6) for s in out]


def test_first_failure_matches_the_all_posets_sweep():
    worlds = set()
    for s, bound in _seeded_sequents():
        hit = first_failure(s, bound)
        assert hit == _reference_first_failure(s, bound), s
        if hit is not None:
            worlds.add(len(hit[0]))
    assert {1, 2, 3, 4, 5} <= worlds


def test_first_failing_world_count_fails_only_at_roots():
    most = 0
    for s, bound in _seeded_sequents():
        hit = first_failure(s, bound)
        if hit is None:
            continue
        n = len(hit[0])
        failing = 0
        for up in posets(n):
            fail = _reference_failures(s, up)
            world0 = kripke._repeat(1, n, fail.bit_length() // n + 1)
            assert fail & ~world0 == 0, (s, up)
            assert not fail or up[0] == (1 << n) - 1, (s, up)
            failing += fail != 0
        most = max(most, failing)
    assert most >= 2



@pytest.fixture
def posets_built(monkeypatch):
    """The world counts `kripke.posets` is called with, from a cold
    `rooted_posets` cache on."""
    built = []
    table = kripke.posets

    def recording_posets(n):
        built.append(n)
        return table(n)

    monkeypatch.setattr(kripke, "posets", recording_posets)
    kripke.rooted_posets.cache_clear()
    return built


def test_bound_seven_certifies_the_61_node_rieger_nishimura_formula(posets_built, capsys):
    # not valid, and refuted by no model of 6 or fewer worlds
    text = (
        "|- (((~~X -> X) -> X \\/ ~X) -> ~X \\/ ~~X) \\/ "
        "((((~~X -> X) -> X \\/ ~X) -> ~X \\/ ~~X) -> ~~X \\/ (~~X -> X))"
    )
    assert cli.main(["prove", "--bound", "7", "--format", "json", text]) == 1
    found = json.loads(capsys.readouterr().out)["countermodel"]
    model = KripkeModel(
        tuple(found["worlds"]),
        frozenset(tuple(p) for p in found["order"]),
        tuple((int(w), frozenset(v)) for w, v in found["valuation"].items()),
    )
    assert len(model.worlds) == 7
    assert model.refutes(found["world"], parse_sequent(text))
    assert posets_built and max(posets_built) == 6


def test_bound_past_the_cap_is_a_usage_error_that_builds_no_table(posets_built, capsys):
    # refuted, so an accepted bound would sweep and build tables
    assert cli.main(["prove", "--bound", "9", "|- P \\/ ~P"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--bound" in captured.err and "at most 8" in captured.err
    assert posets_built == []


def test_bound_eight_sweeps_the_seven_world_table():
    assert find_countermodel(parse_sequent("|- P -> P"), 8) is None


def test_grid_table_keeps_no_grid_past_the_default_bound():
    # tables on seven or eight worlds are built per call, not kept: sweeps to
    # 6 and to 8 worlds leave one table per world count to 6
    sizes = []
    for bound in (6, 8):
        kripke._slab_table.cache_clear()
        assert find_countermodel(parse_sequent("|- P -> P"), bound) is None
        sizes.append(kripke._slab_table.cache_info().currsize)
    assert sizes == [6, 6]
    # four atoms on six worlds, the largest table kept, is one table too
    kripke._slab_table.cache_clear()
    assert find_countermodel(parse_sequent("|- (P /\\ Q /\\ R /\\ S) -> P"), 6) is None
    assert kripke._slab_table.cache_info().currsize == 6


_RN = ("(((~~X -> X) -> X \\/ ~X) -> ~X \\/ ~~X) \\/ "
       "((((~~X -> X) -> X \\/ ~X) -> ~X \\/ ~~X) -> ~~X \\/ (~~X -> X))")
_BD3 = "R \\/ (R -> (Q \\/ (Q -> (P \\/ ~P))))"
_BD4 = "S \\/ (S -> (" + _BD3 + "))"

# (sequent, bound, poset table of the reference sweep): first failures past
# the first poset of their table, on three atoms at six worlds, and on seven
# worlds in sweeps to 7 and 8, where each poset is its own table, built per
# call; and an oracle-shaped double negation that sweeps to None.  The
# reference sweeps only the rooted posets where the grid of some other poset
# would pass the cap (four atoms on six worlds) or the sweep take seconds.
_STACKED = [
    ("|- ~P \\/ ~~P", 3, posets),
    ("|- (" + _BD3 + ") \\/ ~S \\/ ~~S", 5, posets),
    ("|- " + _BD4, 5, posets),
    ("|- (" + _BD3 + ") \\/ (P -> Q) \\/ (Q -> R) \\/ (R -> P)", 6, rooted_posets),
    ("|- (" + _BD3 + ") \\/ (~~P -> P) \\/ ((~~P -> P) -> P \\/ ~P)", 6, rooted_posets),
    ("|- (((P -> Q) -> R) -> ((Q -> P) -> R) -> R) \\/ ((~P -> Q \\/ R) -> (~P -> Q) \\/ (~P -> R))",
     6, rooted_posets),
    ("|- (" + _BD4 + ") \\/ ~P \\/ ~~P", 6, rooted_posets),
    ("|- (" + _BD4 + ") \\/ (Q -> S) \\/ (S -> Q)", 6, rooted_posets),
    ("|- " + _RN, 7, rooted_posets),
    ("P |- " + _RN, 8, rooted_posets),
    ("|- " + _RN + " \\/ (P /\\ Q)", 8, rooted_posets),
    ("|- ((((P -> Q) \\/ (P \\/ R)) -> bot) -> bot)", 6, rooted_posets),
]


def test_stacked_sweep_finds_the_per_poset_first_failure():
    seen = set()
    for text, bound, table in _STACKED:
        s = parse_sequent(text)
        hit = first_failure(s, bound)
        assert hit == _reference_first_failure(s, bound, table), text
        assert (hit is None) == (text == _STACKED[-1][0]), text
        if hit is not None:
            n = len(hit[0])
            seen.add((len(s.free_vars()), n, rooted_posets(n).index(hit[0]) > 0))
    assert {1, 2, 3, 4} == {k for k, *_ in seen}
    assert {(4, 5, True), (4, 6, True), (3, 6, True), (1, 7, True), (2, 7, True), (3, 7, True)} <= seen


def test_sweep_past_the_grid_cap_is_a_usage_error(capsys):
    # the first countermodel has three worlds, where the fork's grid would
    # take 5 ** 12 * 3 bits
    conj = " /\\ ".join(f"A{i}" for i in range(12))
    start = time.perf_counter()
    assert cli.main(["prove", f"|- (~A0 \\/ ~~A0) \\/ ({conj})"]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: countermodel sweep too large: 12 atoms on 3 worlds need a grid "
                            "of 732,421,875 bits, more than 33,554,432\n")
