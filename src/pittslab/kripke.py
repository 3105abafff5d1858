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
every valuation and world of a poset at once, as one Python int with a bit
per (valuation, world), on a grid, as `rieger` does on its universal model.
The sweep lays a world count's rooted posets side by side, one int per world
(`_slabs`), and evaluates the sequent once per world count, implications by
ANDs and ORs without shifts (`prover.classical_tautology` is its one-world
run).  A countermodel found is a `kernel.KripkeModel` (`submodel`), checked
apart from the sweep.
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
# The sweep's tables (`_slabs`) keep one int per world instead.

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
    failing poset at n is rooted and fails only at its root, world 0 (the
    only world tested), and `rooted_posets(n)` keeps the `posets(n)` order.

    The sequent is evaluated once per table of `_slabs`, one per world count
    to DEFAULT_BOUND (`_slab_table`) and one per poset past it: its lowest
    failing bit is in the first failing poset, found by `bisect` over the
    posets' starts.  Raises `GridTooLarge` past a cap."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    require_plain(*s.hyps, s.concl)
    names = [v.name for v in sorted(s.free_vars())]
    k = len(names)
    for n in range(1, max_worlds + 1):
        tables = (_slab_table(k, n),) if n <= DEFAULT_BOUND else (_slabs(k, (up,)) for up in rooted_posets(n))
        for ups, starts, full, masks, above, bottom in tables:
            atoms = dict(zip(names, masks))
            fail = full
            for h in s.hyps:
                fail &= _root_mask(h, atoms, full, above, bottom)
            fail ^= fail & _root_mask(s.concl, atoms, full, above, bottom)
            if fail:
                bit = _lowest_bit(fail)
                i = bisect_right(starts, bit) - 1
                return ups[i], bit - starts[i], 0
    return None


# No poset's grid past `_MAX_GRID_BITS` (u^k * n bits for k atoms on a poset
# of n worlds with u upsets) is built: that refuses four atoms on seven worlds,
# five on six and twelve on three, and lets three atoms on eight through.
_MAX_GRID_BITS = 1 << 25


class GridTooLarge(FormulaError):
    """A sweep would build a grid of more than `_MAX_GRID_BITS` bits."""


@lru_cache(maxsize=None)
def _slab_table(k: int, n: int) -> tuple:
    """`_slabs(k, rooted_posets(n))`, built on first use."""
    return _slabs(k, rooted_posets(n))


def _slabs(k: int, ups) -> tuple:
    """The sweep's table for k atoms on the posets `ups` of one world count:
    the posets, their start bits, `full`, each atom's mask, `above` and the
    mask of bot; `GridTooLarge`, before anything is built, past a cap.  A
    poset's block has a bit per valuation point, as in `_stack`, and starts
    on a byte boundary; `full` holds every point of every block.  A mask has
    an int per world: the points where it does not force the formula.
    `above` lists, from the top world down, each world w with each v > w it
    sees and the blocks where it does (None for all).  On one world a mask
    is its forcing mask instead, and `above` its grid."""
    n = len(ups[0])
    uss = [upsets(n, up) for up in ups]
    bits = max(map(len, uss)) ** k * n
    if bits > _MAX_GRID_BITS:
        raise GridTooLarge(f"countermodel sweep too large: {k} atoms on {n} worlds need a grid "
                           f"of {bits:,} bits, more than {_MAX_GRID_BITS:,}")
    rows: list[list] = [[] for _ in range(k * n)]  # atom i at world w: row i * n + w
    fulls, blocks = [], {}  # blocks by the upsets holding the world, and the atom
    for us in uss:
        u, size = len(us), (len(us) ** k + 7) // 8
        # character 8 * (u - 1 - j) + 7 - w is bit w of upset j (n <= 8)
        text = format(int.from_bytes(bytes(us), "little"), f"0{8 * u}b")
        for w, i in itertools.product(range(n), range(k)):
            col = text[7 - w::8]
            if (col, i) not in blocks:
                # atom i takes upset j on `inner` points in a row: spread bits, times 2 ** inner - 1
                inner = u ** (k - 1 - i)
                if inner == 1:
                    spread = int(col, 2)
                else:
                    spread = bytearray(u * inner // 8 + 1)
                    for j, c in enumerate(reversed(col)):
                        if c == "1":
                            spread[j * inner >> 3] |= 1 << (j * inner & 7)
                    spread = int.from_bytes(spread, "little")
                runs = _repeat((spread << inner) - spread, u * inner, u ** i)
                blocks[col, i] = runs if len(ups) == 1 else runs.to_bytes(size, "little")
            rows[i * n + w].append(blocks[col, i])
        ones = (1 << u ** k) - 1
        fulls.append(ones if len(ups) == 1 else ones.to_bytes(size, "little"))

    def join(parts) -> int:  # one poset's blocks are ints; more are joined as bytes
        return parts[0] if len(ups) == 1 else int.from_bytes(b"".join(parts), "little")

    starts = tuple(itertools.accumulate((8 * len(f) for f in fulls[:-1]), initial=0))
    full = join(fulls)
    if n == 1:
        return ups, starts, full, tuple(map(join, rows)), Grid(full, ()), 0
    above = []
    for w in reversed(range(n - 1)):
        pairs = []
        for v in range(w + 1, n):
            seen = [up[w] >> v & 1 for up in ups]
            if any(seen):
                pairs.append((v, None if all(seen) else
                              join(f if s else bytes(len(f)) for f, s in zip(fulls, seen))))
        above.append((w, pairs))
    atoms = tuple(tuple(full ^ join(row) for row in rows[i * n:i * n + n]) for i in range(k))
    return ups, starts, full, atoms, tuple(above), (full,) * n


def _root_mask(f: Formula, atoms: dict, full: int, above, bottom) -> int:
    """World 0's forcing mask of f on a table of `_slabs`."""
    if type(above) is Grid:
        return forcing_mask(f, atoms, above)
    todo: list = [f]  # as in `forcing_mask`
    done: list = []
    while todo:
        h = todo.pop()
        if h is None:
            h = todo.pop()
            b = done.pop()
            a = done.pop()
            op = type(h)
            if op is And:
                done.append([x | y for x, y in zip(a, b)])
            elif op is Or:
                done.append([x & y for x, y in zip(a, b)])
            else:
                # h fails at w iff some v >= w forces its left side but not its right
                miss = [(x | y) ^ x for x, y in zip(a, b)]
                for w, pairs in above:  # the worlds above w are final
                    m = miss[w]
                    for v, seen in pairs:
                        m |= miss[v] if seen is None else miss[v] & seen
                    miss[w] = m
                done.append(miss)
            continue
        op = type(h)
        if op is Var:
            done.append(atoms[h.var.name])
        elif op is Bottom:
            done.append(bottom)
        else:  # a connective: the sweep takes plain formulas only
            todo += (h, None, h.right, h.left)
    return full ^ done[0][0]


def _stack(k: int, up: tuple[int, ...]) -> tuple[tuple[int, ...], Grid]:
    """The masks of atoms 0..k-1, by position, and the grid of the poset
    `up` at every valuation point: a point gives each atom an upset, the
    last atom's varying fastest."""
    n = len(up)
    us = upsets(n, up)
    masks = []
    for i in range(k):
        # atom i takes upset j on a run of `inner` consecutive points, j = 0, 1, ...
        inner = len(us) ** (k - 1 - i)
        run = _repeat(1, n, inner)
        runs = 0
        for j, mask in enumerate(us):
            runs |= (mask * run) << (j * inner * n)
        masks.append(_repeat(runs, len(us) * inner * n, len(us) ** i))
    return tuple(masks), grid(up, _repeat(1, n, len(us) ** k))


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
