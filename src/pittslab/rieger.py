"""The lattice of one-variable formulas, and the standing facts used by the
star-connective replays.

The classes are the Rieger–Nishimura lattice, built level by level from its
recurrence (`RNLattice`), and equivalence between one-variable formulas is
decided on truncations of the one-atom universal Kripke model, the
Rieger–Nishimura ladder (depth bounded by the implication count of the
formulas involved).  This stays fast where plain proof search blows up:
each class is keyed by the bitmask of the worlds its formulas force there,
evaluated with `kripke.forcing_mask`.  The test suite cross-validates this
oracle against the prover and checks that the recurrence misses no class,
and everything the module reports (classification, lattice order) is
certified by the prover or by an explicit countermodel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .kernel import Sequent
from .kripke import Grid, _lowest_bit, connective_mask, forcing_mask, grid, submodel
from .prover import decide, equivalent
from .syntax import (
    BOT,
    Formula,
    Implies,
    Or,
    UnsupportedFormula,
    Var,
    Variable,
    neg,
    require_plain,
    substitute,
)

Y = Variable("Y")
X = Variable("X")

# The largest level the command line builds.  Representatives, and the
# memory their keys take, grow about 1.6x per level: level 28 builds in
# 0.02 s and 35 MB (Python 3.11, one core), with representatives of up to
# 1.5 million nodes; level 30 takes 0.03 s and 69 MB, with up to 3.9 million.
MAX_LEVEL = 28


class LevelExceeded(Exception):
    """The formula lies above the generated portion of the lattice."""


class HypothesisFails(Exception):
    """The standing hypothesis  ~Y \\/ ~~Y |- psi  is unprovable."""


@dataclass(frozen=True)
class RNClass:
    level: int  # index of the class in RNLattice.reps
    representative: Formula


# ---------------------------------------------------------------------------
# Truncations of the universal model over one atom: the Rieger–Nishimura
# ladder.  Each depth adds two worlds, so a truncation's worlds are a prefix
# of every deeper truncation's worlds, and each of them forces the same
# formulas in both.

@lru_cache(maxsize=None)
def _universal_model(depth: int) -> tuple[int, tuple[int, ...], Grid]:
    """The one-atom universal model to the given depth: the ladder on
    2 * depth worlds.  Worlds 0 and 1 are maximal and X holds at world 0
    only; world k >= 2 sees itself and the worlds 0 .. k - 2.

    Returns (true_at, up, grid): the bitmask of worlds forcing the atom, for
    each world w the bitmask of worlds >= w, and the model's forcing grid.
    """
    up = (0b1,) + tuple(1 << k | (1 << k - 1) - 1 for k in range(1, 2 * depth))
    return 0b1, up, grid(up)


def _imp_depth(f: Formula) -> int:
    """Implication nesting degree; refuting models need at most this depth."""
    return isinstance(f, Implies) + max((_imp_depth(c) for c in f.children()), default=0)


def _forced(fs, depth: int) -> list[int]:
    """The worlds of the depth-`depth` truncation that force each of fs."""
    true_at, _, g = _universal_model(depth)
    return [forcing_mask(f, {X.name: true_at}, g) for f in fs]


def refuting_model(f: Formula, g: Formula):
    """A finite model refuting f |- g over X, or None (independent witness).

    The truncation depth follows the refuting-model depth bound: an
    unprovable one-variable sequent has a countermodel whose depth is at
    most the implication nesting degree of the formulas involved.
    """
    depth = _imp_depth(f) + _imp_depth(g) + 2
    fa, ga = _forced((f, g), depth)
    fail = fa & ~ga
    if not fail:
        return None
    true_at, up, _ = _universal_model(depth)
    w0 = _lowest_bit(fail)
    keep = [w for w in range(len(up)) if up[w0] >> w & 1]
    return submodel(up, keep, {X.name: true_at}), keep.index(w0)


# ---------------------------------------------------------------------------
# The lattice, from the Rieger–Nishimura recurrence.

def _steps(level: int) -> list[tuple[type, int, int]]:
    """Representative n + 2 of a level-`level` lattice is op(r[i], r[j]) for
    the n-th (op, i, j); r[0] and r[1] are bot and X."""
    steps = [(Implies, 0, 0), (Implies, 1, 0)] if level else []  # top, ~X
    for k in range(2, level + 1):
        steps += [(Or, 2 * k - 3, 2 * k - 1), (Implies, 2 * k - 1, 1 if k == 3 else 2 * k - 4)]
    return steps


class RNLattice:
    """The lattice of formulas over X, up to a given level.

    Level 0 is bot and X, level 1 adds top and ~X, and each level k >= 2
    adds r[2k-3] \\/ r[2k-1] and r[2k-1] -> r[2k-4] (Nishimura, JSL 1960),
    with r[5] -> X in place of r[5] -> top at k = 3.  Every one-variable
    formula of connective depth at most `level` is equivalent to one of
    these 2 * level + 2 representatives; the test suite checks this on the
    masks, by induction on the level.

    A class is keyed by the worlds its formulas force on the truncation of
    depth `2 * level + 2`.  Every representative has implication depth at
    most `level`, so by the refuting-model depth bound two formulas of that
    implication depth are equivalent exactly when their masks there are
    equal, and a representative's mask is one connective step on its
    operands' masks.
    """

    def __init__(self, level: int = 12):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.level = level
        self.depth = 2 * level + 2
        self.reps: list[Formula] = [BOT, Var(X)]
        for op, i, j in _steps(level):
            self.reps.append(op(self.reps[i], self.reps[j]))
        self._classes = {mask: idx for idx, mask in enumerate(self._masks(self.depth))}

    def _masks(self, depth: int) -> list[int]:
        """The worlds of the depth-`depth` truncation forcing each of reps."""
        true_at, _, g = _universal_model(depth)
        masks = [0, true_at]
        for op, i, j in _steps(self.level):
            masks.append(connective_mask(op, masks[i], masks[j], g))
        return masks

    def classify(self, f: Formula) -> RNClass:
        """The unique generated class of `f`, certified by the prover."""
        require_plain(f)
        fv = f.free_vars
        if not fv <= {X}:
            if len(fv) == 1:
                f = substitute(f, {next(iter(fv)): Var(X)})
            else:
                raise UnsupportedFormula("at most one free variable allowed")
        # compare at depth >= imp(f) + imp(rep) + 2; a shallower truncation
        # can give an inequivalent formula the mask of a class
        depth = max(self.depth, _imp_depth(f) + self.level + 2)
        classes = self._classes if depth == self.depth else {
            mask: idx for idx, mask in enumerate(self._masks(depth))
        }
        idx = classes.get(_forced((f,), depth)[0])
        if idx is None:
            raise LevelExceeded(f"{f} lies above the generated lattice portion")
        rep = self.reps[idx]
        if not equivalent(f, rep):
            raise AssertionError(f"classification of {f} failed prover certification")
        return RNClass(idx, rep)

    def leq(self, a: RNClass, b: RNClass) -> bool:
        """Prover-certified lattice order (entailment of representatives)."""
        return decide(Sequent((a.representative,), b.representative))


_DEFAULT: dict[int, RNLattice] = {}


def default_lattice(level: int = 12) -> RNLattice:
    if level not in _DEFAULT:
        _DEFAULT[level] = RNLattice(level)
    return _DEFAULT[level]


def rn_classify(f: Formula, level: int = 12) -> RNClass:
    return default_lattice(level).classify(f)


# ---------------------------------------------------------------------------
# The four standing facts about formulas above weak excluded middle.

@dataclass
class RiegerFactsReport:
    psi: Formula
    double_negated: bool      # |- ~~psi
    follows_from_truth: bool  # Y |- psi
    self_instance: bool       # |- psi[psi/Y]
    reflection: bool          # psi -> Y |- Y

    @property
    def all_hold(self) -> bool:
        return (
            self.double_negated
            and self.follows_from_truth
            and self.self_instance
            and self.reflection
        )


def check_rieger_lower_facts(psi: Formula) -> RiegerFactsReport:
    """Verify the four consequences of  ~Y \\/ ~~Y |- psi(Y)  mechanically."""
    if not psi.free_vars <= {Y}:
        raise UnsupportedFormula("psi must use only Y")
    wlem = Or(neg(Var(Y)), neg(neg(Var(Y))))
    if not decide(Sequent((wlem,), psi)):
        raise HypothesisFails(f"~Y \\/ ~~Y does not prove {psi}")
    return RiegerFactsReport(
        psi=psi,
        double_negated=decide(Sequent((), neg(neg(psi)))),
        follows_from_truth=decide(Sequent((Var(Y),), psi)),
        self_instance=decide(Sequent((), substitute(psi, {Y: psi}))),
        reflection=decide(Sequent((Implies(psi, Var(Y)),), Var(Y))),
    )
