"""Exhaustive Kripke countermodel search over finite rooted posets.

The refutation oracle: posets are enumerated up to isomorphism (worlds are
labeled along a linear extension, so `u <= v` implies `u <= v` as integers),
and for each poset every persistent valuation of the sequent's atoms is
examined.  The sweep visits only rooted posets: forcing is preserved in
generated submodels, so a model failing at world w still fails at w when cut
down to the worlds above w, and the first countermodel (fewest worlds) is
rooted and fails at its root.  A rooted poset on n worlds is a bottom put
under a poset on n - 1 worlds (`rooted_posets`), so a sweep to n worlds
enumerates posets of at most n - 1.  The sweep lays a world count's rooted
posets side by side, one int per world with a bit per valuation point
(`_slabs`), and evaluates the sequent once per world count with one
explicit-stack loop (`_evaluate`, `slab_mask`), implications by ANDs and ORs
without shifts; `prover.classical_tautology` is its one-world run, and
`pitts`' probe gate reads the two-world table, the chain.  `rieger` runs the
same loop on its ladder, with a step of its own.  A countermodel found is a
`kernel.KripkeModel` (`submodel`), checked apart from the sweep.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from operator import and_, or_, xor

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
# Forcing at every valuation at once, on the sweep's tables (`_slabs`): a
# mask holds an int per world, with a bit per valuation point.

_CONNECTIVES = (And, Or, Implies)


def _evaluate(f: Formula, atoms: dict, bottom, step, layout):
    """The mask of f from the masks of its atoms by name, `bottom` for bot
    and `step(op, a, b, layout)` for op(g, h) from the masks a of g and b of
    h.  Evaluated over an explicit stack, children first."""
    # A connective is pushed again below a None marker, under its operands;
    # popping the marker combines the last two masks of `done`.  Nodes are
    # told apart by their exact class: no node class has subclasses.
    todo: list = [f]
    done: list = []
    while todo:
        h = todo.pop()
        if h is None:
            h = todo.pop()
            b = done.pop()
            done.append(step(type(h), done.pop(), b, layout))
            continue
        op = type(h)
        if op is Var:
            try:
                done.append(atoms[h.var.name])
            except KeyError:
                raise UnsupportedFormula(f"unexpected atom {h.var}") from None
        elif op is Bottom:
            done.append(bottom)
        elif op in _CONNECTIVES:
            todo += (h, None, h.right, h.left)
        else:
            raise UnsupportedFormula(f"cannot evaluate {h}")
    return done[0]


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
    to DEFAULT_BOUND (kept by `_slab_table` within a bit budget) and one per
    poset past it: its lowest failing bit is in the first failing poset,
    found by `bisect` over the posets' starts.  Raises `GridTooLarge` past a
    cap."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    require_plain(*s.hyps, s.concl)
    names = [v.name for v in sorted(s.free_vars())]
    k = len(names)
    for n in range(1, max_worlds + 1):
        if n > DEFAULT_BOUND:
            tables = (_slabs(k, (up,)) for up in rooted_posets(n))
        else:
            tables = (_slab_table(k, n) or _slabs(k, rooted_posets(n)),)
        for ups, starts, masks, above, bottom in tables:
            atoms = dict(zip(names, masks))
            hyp = 0  # the points where world 0 fails to force some hypothesis
            for h in s.hyps:
                hyp |= slab_mask(h, atoms, above, bottom)[0]
            fail = slab_mask(s.concl, atoms, above, bottom)[0] & ~hyp
            if fail:
                bit = _lowest_bit(fail)
                i = bisect_right(starts, bit) - 1
                return ups[i], bit - starts[i], 0
    return None


# A poset's grid is its (valuation point, world) pairs: u^k * n for k atoms
# on a poset of n worlds with u upsets.  No table holds a poset whose grid
# passes `_MAX_GRID_BITS`: that refuses four atoms on seven worlds, five on
# six and twelve on three, and lets three atoms on eight through.
_MAX_GRID_BITS = 1 << 25


class GridTooLarge(FormulaError):
    """A sweep would build a grid of more than `_MAX_GRID_BITS` bits."""


@lru_cache(maxsize=None)
def _slab_table(k: int, n: int):
    """`_slabs(k, rooted_posets(n))`, built on first use; None, for the
    caller to build such a table per call, where k times the grid of its
    largest poset (k * u^k * n bits, `_grid_bits`) passes `_MAX_GRID_BITS`.
    That bounds the largest poset's share, not the table: its atom masks
    hold k * n bits per valuation point of every poset, 93 M bits (12 MB)
    for the kept table of four atoms on six worlds."""
    ups = rooted_posets(n)
    return None if k * _grid_bits(k, ups) > _MAX_GRID_BITS else _slabs(k, ups)


def _grid_bits(k: int, ups) -> int:
    """u^k * n: the bits of a grid of k atoms on the posets `ups` of n worlds,
    where u is the most upsets any of them has."""
    return max(len(upsets(len(up), up)) for up in ups) ** k * len(ups[0])


def _slabs(k: int, ups) -> tuple:
    """The sweep's table for k atoms on the posets `ups` of one world count:
    the posets, their start bits, each atom's mask, `above` and the mask of
    bot; `GridTooLarge`, before anything is built, past a cap.  A poset's
    block has a bit per valuation point, where each atom takes an upset, the
    last atom's varying fastest, and starts on a byte boundary.  A mask is a
    list of an int per world: the points where the world does not force the
    formula (bot's holds every point of every block).  `above` lists, from
    the top world down, each world w with each v > w it sees and the blocks
    where it does (None for all)."""
    n = len(ups[0])
    bits = _grid_bits(k, ups)
    if bits > _MAX_GRID_BITS:
        raise GridTooLarge(f"countermodel sweep too large: {k} atoms on {n} worlds need a grid "
                           f"of {bits:,} bits, more than {_MAX_GRID_BITS:,}")
    uss = [upsets(n, up) for up in ups]
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
    above = []
    for w in reversed(range(n - 1)):
        pairs = []
        for v in range(w + 1, n):
            seen = [up[w] >> v & 1 for up in ups]
            if any(seen):
                pairs.append((v, None if all(seen) else
                              join(f if s else bytes(len(f)) for f, s in zip(fulls, seen))))
        above.append((w, pairs))
    atoms = tuple([full ^ join(row) for row in rows[i * n:i * n + n]] for i in range(k))
    return ups, starts, atoms, tuple(above), [full] * n


def slab_mask(f: Formula, atoms: dict, above, bottom) -> list[int]:
    """The mask of f on a table of `_slabs`, given its `above`, its mask of
    bot and the masks of f's atoms by name: an int per world, the points
    where the world does not force f."""
    return _evaluate(f, atoms, bottom, slab_step, above)


def slab_step(op: type, a: list[int], b: list[int], above) -> list[int]:
    """The mask of op(f, h) on a table of `_slabs`, given its `above`, from
    the masks a of f and b of h."""
    if op is And:
        return list(map(or_, a, b))
    if op is Or:
        return list(map(and_, a, b))
    # f -> h fails at w iff some v >= w forces f but not h
    miss = list(map(xor, map(or_, a, b), a))
    for w, pairs in above:  # the worlds above w are final
        m = miss[w]
        for v, seen in pairs:
            m |= miss[v] if seen is None else miss[v] & seen
        miss[w] = m
    return miss


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
