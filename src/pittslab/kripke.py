"""Finite Kripke models and exhaustive countermodel search.

The refutation oracle: posets are enumerated up to isomorphism (worlds are
labeled along a linear extension, so `u <= v` implies `u <= v` as integers),
and for each poset every persistent valuation of the sequent's atoms is
examined.  The valuation sweep is vectorized with numpy over bitmask-encoded
upsets, which keeps the six-world exhaustive search affordable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import Sequent
from .syntax import (
    And,
    Bottom,
    Formula,
    Implies,
    Or,
    UnsupportedFormula,
    Var,
    Variable,
    require_plain,
)


@dataclass(frozen=True)
class KripkeModel:
    """Finite poset of worlds with a monotone atomic valuation."""

    worlds: tuple
    order: frozenset  # reflexive-transitive pairs (u, v) meaning u <= v
    valuation: tuple  # tuple of (world, frozenset of atom names)

    def __post_init__(self):
        ws = set(self.worlds)
        rel = self.order
        for w in ws:
            if (w, w) not in rel:
                raise ValueError("order must be reflexive")
        for (a, b) in rel:
            if (b, a) in rel and a != b:
                raise ValueError("order must be antisymmetric")
            for (c, d) in rel:
                if b == c and (a, d) not in rel:
                    raise ValueError("order must be transitive")
        val = dict(self.valuation)
        for (a, b) in rel:
            if not val.get(a, frozenset()) <= val.get(b, frozenset()):
                raise ValueError("valuation must be persistent along the order")

    def leq(self, a, b) -> bool:
        return (a, b) in self.order

    def atoms_at(self, w) -> frozenset:
        return dict(self.valuation).get(w, frozenset())

    def forces(self, w, f: Formula) -> bool:
        if isinstance(f, Var):
            return f.var.name in self.atoms_at(w)
        if isinstance(f, Bottom):
            return False
        if isinstance(f, And):
            return self.forces(w, f.left) and self.forces(w, f.right)
        if isinstance(f, Or):
            return self.forces(w, f.left) or self.forces(w, f.right)
        if isinstance(f, Implies):
            return all(
                not self.forces(v, f.left) or self.forces(v, f.right)
                for v in self.worlds
                if self.leq(w, v)
            )
        raise UnsupportedFormula(f"cannot evaluate {f}")

    def refutes(self, w, s: Sequent) -> bool:
        return all(self.forces(w, h) for h in s.hyps) and not self.forces(w, s.concl)


# ---------------------------------------------------------------------------
# Poset enumeration up to isomorphism.  A poset on n worlds is a tuple
# `down` of strict-predecessor bitmasks; worlds are labeled along a linear
# extension (every predecessor of w is numerically below w).

def _canonical(n: int, down: tuple[int, ...]) -> int:
    edges = [(u, w) for w in range(n) for u in range(n) if down[w] >> u & 1]
    best = None
    for perm in itertools.permutations(range(n)):
        bits = 0
        for (u, w) in edges:
            bits |= 1 << (perm[u] * n + perm[w])
        if best is None or bits < best:
            best = bits
    return best or 0


def _downsets(n: int, down: tuple[int, ...]) -> list[int]:
    out = []
    for mask in range(1 << n):
        if all(not (mask >> w & 1) or (down[w] & mask) == down[w] for w in range(n)):
            out.append(mask)
    return out


@lru_cache(maxsize=None)
def posets(n: int) -> tuple[tuple[int, ...], ...]:
    """All posets on n labeled-along-a-linear-extension worlds, up to iso.

    Returned as tuples of `up` masks: up[w] = bitmask of worlds >= w.
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
            for d in _downsets(n - 1, down_small):
                cand = down_small + (d,)
                key = _canonical(n, cand)
                if key not in seen:
                    seen.add(key)
                    reps.append(cand)
        reps = sorted(reps)
    return tuple(_downs_to_ups(n, down) for down in reps)


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
    full = (1 << n) - 1
    out = []
    for mask in range(1 << n):
        ok = True
        for w in range(n):
            if mask >> w & 1 and (up[w] & mask) != up[w]:
                ok = False
                break
        if ok:
            out.append(mask)
    return tuple(out)


# ---------------------------------------------------------------------------
# Vectorized forcing over whole valuation grids.

def _eval_grid(f: Formula, atom_arrays: dict[Variable, np.ndarray], n: int,
               up: tuple[int, ...]) -> np.ndarray:
    if isinstance(f, Var):
        return atom_arrays[f.var]
    if isinstance(f, Bottom):
        return np.zeros((), dtype=np.int64)
    if isinstance(f, And):
        return _eval_grid(f.left, atom_arrays, n, up) & _eval_grid(
            f.right, atom_arrays, n, up
        )
    if isinstance(f, Or):
        return _eval_grid(f.left, atom_arrays, n, up) | _eval_grid(
            f.right, atom_arrays, n, up
        )
    if isinstance(f, Implies):
        a = _eval_grid(f.left, atom_arrays, n, up)
        b = _eval_grid(f.right, atom_arrays, n, up)
        res = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for w in range(n):
            ok = (a & up[w] & ~b) == 0
            res |= ok.astype(np.int64) << w
        return res
    raise UnsupportedFormula(f"cannot evaluate {f}")


def find_countermodel(s: Sequent, max_worlds: int = 6):
    """Exhaustive search for a model and world forcing the hypotheses but not
    the conclusion.  Returns (KripkeModel, world) or None.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    require_plain(*s.hyps, s.concl)
    names = sorted(s.free_vars())
    k = len(names)
    for n in range(1, max_worlds + 1):
        for up in posets(n):
            hit = _search_poset(s, names, k, n, up)
            if hit is not None:
                return hit
    return None


def _search_poset(s: Sequent, names, k, n, up):
    full = (1 << n) - 1
    us = np.array(upsets(n, up), dtype=np.int64)
    atom_arrays = {}
    for i, v in enumerate(names):
        sh = [1] * k
        sh[i] = len(us)
        atom_arrays[v] = us.reshape(sh)
    acc = np.full((), full, dtype=np.int64)
    for h in s.hyps:
        acc = acc & _eval_grid(h, atom_arrays, n, up)
    concl = _eval_grid(s.concl, atom_arrays, n, up)
    fail = acc & ~concl & full
    grid_shape = tuple([len(us)] * k)
    flat = np.ravel(np.broadcast_to(fail, grid_shape))
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return None
    idx = int(nz[0])
    choice = list(np.unravel_index(idx, grid_shape)) if k else []
    chosen = {v: int(us[c]) for v, c in zip(names, choice)}
    world = _lowest_bit(int(flat[idx]))
    order = frozenset((u, v) for u in range(n) for v in range(n) if up[u] >> v & 1)
    valuation = tuple(
        (w, frozenset(v.name for v in names if chosen[v] >> w & 1)) for w in range(n)
    )
    model = KripkeModel(tuple(range(n)), order, valuation)
    return model, world


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
