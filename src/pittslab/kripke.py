"""Exhaustive Kripke countermodel search over finite rooted posets.

The refutation oracle: posets are enumerated up to isomorphism (worlds are
labeled along a linear extension, so `u <= v` implies `u <= v` as integers),
and for each poset every persistent valuation of the sequent's atoms is
examined.  The sweep visits only rooted posets: forcing is preserved in
generated submodels, so a model failing at world w still fails at w when cut
down to the worlds above w, and the first countermodel (fewest worlds) is
rooted and fails at its root.  A rooted poset on n worlds is a bottom put
under a poset on n - 1 worlds (`rooted_posets`), so a sweep to n worlds
enumerates posets of at most n - 1.  `forcing_mask` evaluates a formula at
every valuation and world at once, as one Python int with a bit per
(valuation, world), on a grid; the sweep's grids lay the rooted posets of
one world count side by side (`_layout`), so it evaluates the sequent once
per grid of many posets, not once per poset.  The one-variable lattice in
`rieger` uses the same evaluator on the one-atom universal model, and
`prover.classical_tautology` is the sweep `first_failure` on one world (a
one-world model is a classical valuation).  A countermodel found is a
`kernel.KripkeModel` (`submodel`), checked apart from the sweep.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .kernel import KripkeModel, Sequent
from .syntax import (
    And,
    Bottom,
    Formula,
    FormulaError,
    Implies,
    Or,
    UnsupportedFormula,
    Var,
    require_plain,
)

# The world bound of a countermodel sweep: the default, and the largest that
# `prove --bound` accepts.  A sweep to 8 worlds builds the 2,045 posets of 7
# in under a second, while the next table (16,999 posets of 8) takes seconds
# and each further one grows several-fold.
DEFAULT_BOUND = 6
MAX_BOUND = 8


# ---------------------------------------------------------------------------
# Poset enumeration up to isomorphism.  A poset on n worlds is a tuple
# `down` of strict-predecessor bitmasks; worlds are labeled along a linear
# extension (every predecessor of w is numerically below w).

def _canonical(n: int, down: tuple[int, ...]) -> int:
    """The least adjacency code over the relabelings that keep cells in
    order: worlds sorted by (worlds strictly below, strictly above), then the
    sorted such pairs of the worlds comparable to them; equal values form a
    cell.  An isomorphism maps cells onto cells, so isomorphic posets get the
    same codes; a code determines its relabeled poset, so the least code is
    a complete invariant."""
    edges = [(u, w) for w in range(n) for u in range(n) if down[w] >> u & 1]
    degree = [(down[w].bit_count(), sum(d >> w & 1 for d in down)) for w in range(n)]
    inv = [(degree[w], sorted(degree[u] for u in range(n) if down[w] >> u & 1 or down[u] >> w & 1))
           for w in range(n)]
    cells = itertools.groupby(sorted(range(n), key=inv.__getitem__), key=inv.__getitem__)
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for _, c in cells)):
        perm = [0] * n
        for pos, w in enumerate(itertools.chain.from_iterable(parts)):
            perm[w] = pos
        bits = 0
        for (u, w) in edges:
            bits |= 1 << (perm[u] * n + perm[w])
        if best is None or bits < best:
            best = bits
    return best or 0


@lru_cache(maxsize=None)
def posets(n: int) -> tuple[tuple[int, ...], ...]:
    """All posets on n labeled-along-a-linear-extension worlds, up to iso.

    Returned as tuples of `up` masks: up[w] = bitmask of worlds >= w.
    Each class keeps its first candidate and the list is sorted, so the table
    depends only on the classes, not on the invariant (`_canonical`) naming them.
    """
    if n < 1:
        raise ValueError("need at least one world")
    reps: list[tuple[int, ...]] = []
    if n == 1:
        reps = [(0,)]
    else:
        seen = set()
        for smaller in posets(n - 1):
            down_small = _ups_to_downs(n - 1, smaller)
            # the new element is maximal; any downset can be its strict past
            # (a downset is closed under the strict-down masks)
            for d in upsets(n - 1, down_small):
                cand = down_small + (d,)
                key = _canonical(n, cand)
                if key not in seen:
                    seen.add(key)
                    reps.append(cand)
        reps = sorted(reps)
    return tuple(_downs_to_ups(n, down) for down in reps)


@lru_cache(maxsize=None)
def rooted_posets(n: int) -> tuple[tuple[int, ...], ...]:
    """The posets of `posets(n)` with a least world (world 0), in the same
    order and labeling: each is a new bottom under one of `posets(n - 1)`."""
    if n == 1:
        return ((1,),)
    return tuple(((1 << n) - 1,) + tuple(u << 1 for u in q) for q in posets(n - 1))


def _ups_to_downs(n: int, up: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sum(1 << u for u in range(n) if u != w and up[u] >> w & 1) for w in range(n)
    )


def _downs_to_ups(n: int, down: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        (1 << w) | sum(1 << v for v in range(n) if v != w and down[v] >> w & 1)
        for w in range(n)
    )


@lru_cache(maxsize=None)
def upsets(n: int, up: tuple[int, ...]) -> tuple[int, ...]:
    """The masks m, ascending, with up[w] inside m for every world w in m:
    the upsets of `up` masks, or the downsets of strict-down masks.

    Built world by world from world 0, which keeps them ascending: a set
    over the worlds below v extends without v unless it holds a world w with
    v in up[w], and with v if it holds the worlds of up[v] below v."""
    out = [0]
    for v in range(n):
        bit = 1 << v
        below = up[v] & (bit - 1)
        under = sum(1 << w for w in range(v) if up[w] & bit)
        out = [m for m in out if not m & under] + [m | bit for m in out if m & below == below]
    return tuple(out)


# ---------------------------------------------------------------------------
# Forcing at every valuation at once.  A poset's n worlds are laid out over
# a grid of valuation points: bit p * n + w of a mask stands for world w at
# point p, and a formula's mask holds the (point, world) pairs forcing it.
# A sweep's grid is several posets' grids, each from its own start bit.

@dataclass(frozen=True)
class Grid:
    """A poset repeated at every valuation point."""

    full: int  # every (point, world) bit
    # (d, bits of the worlds w that see world w + d), one entry per offset d != 0
    sees: tuple[tuple[int, int], ...]


def grid(up: tuple[int, ...], col: int = 1) -> Grid:
    """The grid of the poset with masks `up` (up[w] = bitmask of worlds >= w)
    at the points marked in `col` (bit p * n for point p)."""
    n = len(up)
    offsets: dict[int, int] = {}
    for w, mask in enumerate(up):
        for v in range(n):
            if v != w and mask >> v & 1:
                offsets[v - w] = offsets.get(v - w, 0) | 1 << w
    return Grid(col * ((1 << n) - 1), tuple((d, col * ws) for d, ws in sorted(offsets.items())))


_CONNECTIVES = (And, Or, Implies)


def forcing_mask(f: Formula, atoms: dict[str, int], g: Grid) -> int:
    """The mask of f on grid g, given the masks of its atoms by name (each
    inside g.full).  Evaluated over an explicit stack, children first."""
    # A connective is pushed again below a None marker, under its operands;
    # popping the marker combines the last two masks of `done`.  Nodes are
    # told apart by their exact class: no node class has subclasses.
    todo: list = [f]
    done: list[int] = []
    while todo:
        h = todo.pop()
        if h is None:
            h = todo.pop()
            b = done.pop()
            a = done.pop()
            op = type(h)
            done.append(a & b if op is And else a | b if op is Or else connective_mask(op, a, b, g))
            continue
        op = type(h)
        if op is Var:
            try:
                done.append(atoms[h.var.name])
            except KeyError:
                raise UnsupportedFormula(f"unexpected atom {h.var}") from None
        elif op is Bottom:
            done.append(0)
        elif op in _CONNECTIVES:
            todo += (h, None, h.right, h.left)
        else:
            raise UnsupportedFormula(f"cannot evaluate {h}")
    return done[0]


def connective_mask(op: type, a: int, b: int, g: Grid) -> int:
    """The mask of op(f, h) on grid g from the masks a of f and b of h."""
    if op is And:
        return a & b
    if op is Or:
        return a | b
    # f -> h fails at world w iff some world w + d >= w forces f but not h;
    # (a | b) ^ b is a & ~b without the negative intermediate
    bad = (a | b) ^ b
    miss = bad
    for d, ws in g.sees:
        miss |= (bad >> d if d > 0 else bad << -d) & ws
    return g.full ^ miss


def _repeat(pattern: int, width: int, count: int) -> int:
    """`count` copies of `pattern`, one every `width` bits from bit 0."""
    out = shift = 0
    while True:
        if count & 1:
            out |= pattern << shift
            shift += width
        count >>= 1
        if not count:
            return out
        pattern |= pattern << width
        width *= 2


def find_countermodel(s: Sequent, max_worlds: int = DEFAULT_BOUND):
    """Exhaustive search for a model and world forcing the hypotheses but not
    the conclusion.  Returns (KripkeModel, world) or None.

    Only rooted posets are searched (see `first_failure`), so the model has
    the fewest worlds of any countermodel and fails at its root, world 0.
    """
    hit = first_failure(s, max_worlds)
    if hit is None:
        return None
    up, point, world = hit
    us = upsets(len(up), up)
    chosen = {}
    for v in reversed(sorted(s.free_vars())):
        point, j = divmod(point, len(us))
        chosen[v.name] = us[j]
    return submodel(up, range(len(up)), chosen), world


def first_failure(s: Sequent, max_worlds: int = DEFAULT_BOUND):
    """The sweep behind `find_countermodel`, on masks only: the first poset
    (as `up` masks), valuation point and world at which the hypotheses hold
    and the conclusion fails, or None.

    Posets are tried by world count, and within a count in `posets` order,
    but only the rooted ones (`rooted_posets`).  That finds the same first
    failure as trying every poset: let n be the least world count with a
    failure; a failure at a world w that is not the least world would also
    occur on the upset of w, a rooted poset of fewer worlds, so every
    failing poset at n is rooted and fails only at its root, and
    `rooted_posets(n)` keeps the `posets(n)` order.

    The sequent is evaluated once per grid of `_layout`, on many posets at
    once: its lowest failing bit is in the first failing poset, found by
    `bisect` over the posets' starts.  Raises `GridTooLarge` past a cap."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    require_plain(*s.hyps, s.concl)
    names = sorted(s.free_vars())
    k = len(names)
    for n in range(1, max_worlds + 1):
        for ups, build in _layout(k, n):
            masks, g, starts = build(k, ups)
            atoms = dict(zip((v.name for v in names), masks))
            fail = g.full
            for h in s.hyps:
                fail &= forcing_mask(h, atoms, g)
            fail ^= fail & forcing_mask(s.concl, atoms, g)
            if fail:
                bit = _lowest_bit(fail)
                i = bisect_right(starts, bit) - 1
                point, world = divmod(bit - starts[i], n)
                return ups[i], point, world
    return None


# A grid of `_layout` on at most DEFAULT_BOUND worlds and of at most this
# many bits is kept in `_grid_table` once built, any other is built on each
# call: every three-atom grid to six worlds takes 1.6 MB, every four-atom one
# 32 MB.  No poset's grid past `_MAX_GRID_BITS` is built: that refuses four
# atoms on seven worlds (125 Mbit), five on six (235 Mbit) and twelve on
# three (732 Mbit), and lets three atoms on eight worlds (17 Mbit) through.
_TABLE_BITS = 1 << 23
_MAX_GRID_BITS = 1 << 25


class GridTooLarge(FormulaError):
    """A sweep would build a grid of more than `_MAX_GRID_BITS` bits."""


@lru_cache(maxsize=None)
def _layout(k: int, n: int) -> tuple[tuple[tuple, object], ...]:
    """`rooted_posets(n)` cut, in order, into the sweep's grids, each with
    its builder: on at most DEFAULT_BOUND worlds, runs of posets whose k-atom
    blocks (see `_stack`) take at most `_TABLE_BITS` bits together, kept in
    `_grid_table`; else one poset each, built per call, where joining blocks
    would cost more than the per-poset evaluation it saves."""
    runs: list = []  # [posets, bits]
    for up in rooted_posets(n):
        bits = (len(upsets(n, up)) ** k * n + 7) // 8 * 8
        if not (runs and n <= DEFAULT_BOUND and runs[-1][1] + bits <= _TABLE_BITS):
            runs.append([[], 0])
        runs[-1][0].append(up)
        runs[-1][1] += bits
    return tuple((tuple(run), _grid_table if n <= DEFAULT_BOUND and bits <= _TABLE_BITS else _stack)
                 for run, bits in runs)


def _stack(k: int, ups) -> tuple[tuple[int, ...], Grid, tuple[int, ...]]:
    """The masks of atoms 0..k-1, by position, and the grid they span on the
    posets `ups` of one world count, labeled as in `posets`, side by side,
    with each poset's start bit.  A poset's block has a valuation point for
    each way of giving every atom an upset, the last atom's varying fastest.
    Blocks start on byte boundaries; the bits between them are in no mask, so
    no shift of `connective_mask` crosses from one block into the next."""
    n = len(ups[0])
    uss = [upsets(n, up) for up in ups]
    bits = max(len(us) ** k * n for us in uss)
    if bits > _MAX_GRID_BITS:
        raise GridTooLarge(f"countermodel sweep too large: {k} atoms on {n} worlds need a grid "
                           f"of {bits:,} bits, more than {_MAX_GRID_BITS:,}")
    rows = [[] for _ in range(k + n)]  # atoms 0..k-1, full, sees at offsets 1..n-1
    for up, us in zip(ups, uss):
        # atom i takes upset j on a run of `inner` consecutive points, j = 0, 1, ...
        for i in range(k):
            inner = len(us) ** (k - 1 - i)
            run = _repeat(1, n, inner)
            runs = 0
            for j, mask in enumerate(us):
                runs |= (mask * run) << (j * inner * n)
            rows[i].append(_repeat(runs, len(us) * inner * n, len(us) ** i))
        g = grid(up, _repeat(1, n, len(us) ** k))
        sees = dict(g.sees)
        for d, row in enumerate(rows[k:]):
            row.append(sees.get(d, 0) if d else g.full)
    # each mask is its blocks' masks joined as bytes, in linear time
    sizes = [(len(us) ** k * n + 7) // 8 for us in uss]
    rows = [row[0] if len(row) == 1 else
            int.from_bytes(b"".join(m.to_bytes(b, "little") for m, b in zip(row, sizes)), "little")
            for row in rows]
    starts = tuple(8 * end for end in itertools.accumulate(sizes, initial=0))[:-1]
    return tuple(rows[:k]), Grid(rows[k], tuple((d, m) for d, m in enumerate(rows[k:]) if d and m)), starts


_grid_table = lru_cache(maxsize=None)(_stack)


def submodel(up: tuple[int, ...], keep, atoms: dict[str, int]) -> KripkeModel:
    """The worlds `keep` of the poset with masks `up`, renumbered 0, 1, ...
    in that order, where atom `name` holds at the worlds in atoms[name]."""
    keep = tuple(keep)
    order = frozenset(
        (i, j) for i, u in enumerate(keep) for j, v in enumerate(keep) if up[u] >> v & 1
    )
    valuation = tuple(
        (i, frozenset(name for name, mask in atoms.items() if mask >> w & 1))
        for i, w in enumerate(keep)
    )
    return KripkeModel(tuple(range(len(keep))), order, valuation)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
