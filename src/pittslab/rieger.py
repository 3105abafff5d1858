"""The lattice of one-variable formulas, and the standing facts used by the
star-connective replays.

Classes are enumerated bottom-up by closing {bot, X} under the connectives,
one closure round per level: after r rounds every one-variable formula of
connective depth at most r is equivalent to a generated representative.
Equivalence between one-variable formulas is decided on truncations of the
one-atom universal Kripke model (depth bounded by the implication count of
the formulas involved), which stays fast where plain proof search blows up:
each class is keyed by the bitmask of the worlds its formulas force there,
evaluated with `kripke.forcing_mask`.  The test suite cross-validates this
oracle against the prover, and everything the module reports
(classification, lattice order) is certified by the prover or by an
explicit countermodel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .kernel import Sequent
from .kripke import Grid, _lowest_bit, connective_mask, forcing_mask, grid, submodel
from .prover import decide, equivalent
from .syntax import (
    And,
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

# The largest level the command line builds.  Representatives grow about
# 1.6x per level: level 28 builds in 0.5 s and 40 MB (Python 3.11, one
# core), with representatives of up to 1.5 million nodes; level 30 takes
# 1.5 s and 81 MB, with up to 3.9 million.
MAX_LEVEL = 28


class LevelExceeded(Exception):
    """The formula lies above the generated portion of the lattice."""


class HypothesisFails(Exception):
    """The standing hypothesis  ~Y \\/ ~~Y |- psi  is unprovable."""


@dataclass(frozen=True)
class RNClass:
    level: int  # discovery index in the enumeration
    representative: Formula


# ---------------------------------------------------------------------------
# Truncations of the universal model over one atom.  Worlds are built level
# by level: an antichain of existing worlds plus a persistent valuation,
# skipping worlds that would duplicate their unique successor.  Each round
# only appends worlds, so a truncation's worlds are a prefix of every deeper
# truncation's worlds, and each of them forces the same formulas in both.

@lru_cache(maxsize=None)
def _universal_model(depth: int) -> tuple[int, tuple[int, ...], Grid]:
    """Worlds of the one-atom universal model to the given depth.

    Returns (true_at, up, grid): the bitmask of worlds forcing the atom, for
    each world w the bitmask of worlds >= w, and the model's forcing grid.
    """
    true_at = 0b01
    up = [0b01, 0b10]
    start = 0  # the worlds of the last round are start, start + 1, ...
    for _ in range(depth - 1):
        count = len(up)
        # Antichains of at most three worlds whose last (highest-numbered)
        # world is from the previous round; earlier ones were all considered
        # at an earlier depth.  A world only sees lower-numbered worlds above
        # it, so i < k are incomparable when i is not above k.
        antichains = []
        for k in range(start, count):
            apart = [i for i in range(k) if not up[k] >> i & 1]
            antichains.append((k,))
            antichains += [(i, k) for i in apart]
            antichains += [(i, j, k) for n, j in enumerate(apart) for i in apart[:n]
                           if not up[j] >> i & 1]
        for combo in sorted(antichains, key=lambda c: (len(c), c)):
            members = sum(1 << i for i in combo)
            above = 0
            for i in combo:
                above |= up[i]
            for val in (False, True) if members & true_at == members else (False,):
                if len(combo) == 1 and bool(members & true_at) == val:
                    continue  # duplicates its unique successor
                true_at |= val << len(up)
                up.append(1 << len(up) | above)
        if len(up) == count:
            break
        start = count
    return true_at, tuple(up), grid(tuple(up))


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
# Lattice enumeration.

class RNLattice:
    """Generated portion of the lattice of formulas over X, up to a given level.

    Each level is one closure round; a round only combines classes found in
    the previous round with everything older (older pairs cannot produce new
    classes, the connectives being congruences).  Representatives are kept
    minimal in size.

    A class is keyed by the worlds its formulas force on the truncation of
    depth `2 * level + 2`.  Every formula the enumeration builds has
    implication depth at most `level`, so by the refuting-model depth bound
    two of them are equivalent exactly when their masks there are equal, and
    a candidate's mask is one connective step on its operands' masks.
    """

    def __init__(self, level: int = 12):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.level = level
        self.depth = 2 * level + 2
        self.reps: list[Formula] = []
        self._masks: list[int] = []
        self._classes: dict[int, int] = {}  # mask -> index into reps
        self._grow()

    def _add(self, f: Formula, mask: int) -> bool:
        idx = self._classes.get(mask)
        if idx is not None:
            if f.size < self.reps[idx].size:
                self.reps[idx] = f
            return False
        self._classes[mask] = len(self.reps)
        self.reps.append(f)
        self._masks.append(mask)
        return True

    def _grow(self):
        true_at, _, g = _universal_model(self.depth)
        self._add(BOT, 0)
        self._add(Var(X), true_at)
        frontier = list(range(len(self.reps)))
        for _round in range(self.level):
            fset = set(frontier)
            frontier = []
            count = len(self.reps)
            for i in range(count):
                for j in range(count):
                    if i not in fset and j not in fset:
                        continue
                    a, b = self.reps[i], self.reps[j]
                    for op in (And, Or, Implies):
                        mask = connective_mask(op, self._masks[i], self._masks[j], g)
                        if self._add(op(a, b), mask):
                            frontier.append(len(self.reps) - 1)
            if not frontier:
                break

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
            mask: idx for idx, mask in enumerate(_forced(self.reps, depth))
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
