"""Uniform interpolants for propositional quantifiers.

For a variable p, `pite_exists` returns the strongest p-free consequence
and `pita_forall` the weakest p-free antecedent of a quantifier-free
formula.  Both are computed by a pair of mutually recursive functions over
sequents of the terminating contraction-free calculus, following the rule
schedule in `prover` (`_left_step`, `_nested_premises`): invertible rules
are applied eagerly, and each irreducible sequent contributes one clause
per usable hypothesis or goal shape.  Contexts where the eliminated
variable is unreachable contribute nothing, which is exactly what makes
the result variable-free.

The recursion is exponential in the implication nesting of the input;
results are memoized per eliminated variable.

The validation gate checks a candidate against a probe corpus, two sequents
per probe, but decides them once per class of prover-equivalent probes, on
the class's representative (`_table`); by cut, equivalent probes have the
same antecedents and consequences.  The classes are found in one pass, by
congruence where it applies and by `prover.equivalent` otherwise, and a
compound probe's mask is composed from its operands' masks.  A sequent
whose forcing masks on the two-world chain (every valuation of the atoms at
once) show a world forcing the hypothesis but not the conclusion is refuted
by that Kripke model, so the gate records it as not derivable without
calling `decide`; IPC is sound for Kripke semantics, so that is the verdict
`decide` would give.  The candidate's sequents are decided on the
representative of its class when that is smaller than the candidate.

Two small module-level `lru_cache`s keep what outlives a gate call: one
corpus per atom set and budget (`_corpus`), and one table per corpus,
eliminated variable and set of input atoms (`_table`), which holds the
probes free of that variable, their 2-chain grid and their classes.  A
corpus of `_corpus` hashes by identity, so a gate call finds its table
through the corpus object without hashing a probe; any other sequence of
probes is read as a tuple, hashed probe by probe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .kernel import Sequent
from .syntax import (
    And,
    BOT,
    Bottom,
    Formula,
    Implies,
    Or,
    TOP,
    Var,
    Variable,
    is_top,
    require_plain,
)
from . import kripke, prover


# Constructors that fold unit laws on the fly; raw outputs stay equivalent
# but exponentially smaller.

def _and(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Bottom) or isinstance(b, Bottom):
        return BOT
    if is_top(a):
        return b
    if is_top(b) or a == b:
        return a
    return And(a, b)


def _or(a: Formula, b: Formula) -> Formula:
    if is_top(a) or is_top(b):
        return TOP
    if isinstance(a, Bottom):
        return b
    if isinstance(b, Bottom) or a == b:
        return a
    return Or(a, b)


def _imp(a: Formula, b: Formula) -> Formula:
    if isinstance(a, Bottom) or is_top(b) or a == b:
        return TOP
    if is_top(a):
        return b
    return Implies(a, b)


def _conj(parts) -> Formula:
    out = TOP
    for part in parts:
        out = _and(out, part)
    return out


def _disj(parts) -> Formula:
    out: Formula = BOT
    for part in parts:
        out = _or(out, part)
    return out


def _guards(p: Variable, ctx: frozenset, ordered):
    """For each implication hypothesis h of the irreducible context `ctx`
    (`ordered` by key) that can fire, its p-free guard and the context after
    it fires: an atom antecedent other than p guards itself, and
    (c -> d) -> e is guarded by the weakest antecedent of c -> d from d -> e."""
    for h in ordered:
        if isinstance(h, Implies):
            a = h.left
            if isinstance(a, Var):
                if a.var != p:
                    yield a, ctx - {h} | {a, h.right}
            else:  # (c -> d) -> e
                d_e, e = prover._nested_premises(h)
                yield _A(p, ctx - {h} | {d_e}, a), ctx - {h} | {e}


@lru_cache(maxsize=None)
def _E(p: Variable, ctx: frozenset) -> Formula:
    ordered = prover._by_key(ctx)
    step = prover._left_step(ordered, ctx)
    if step is not None:  # invertible left rule: disjoin over its premises
        h, premises = step
        rest = ctx - {h}
        return _disj(_E(p, rest.union(replacement)) for replacement in premises)
    # irreducible: one clause per usable hypothesis, in key order (every
    # implication key sorts before every atom key)
    parts = [_imp(guard, _E(p, after)) for guard, after in _guards(p, ctx, ordered)]
    return _conj(parts + [h for h in ordered if isinstance(h, Var) and h.var != p])


@lru_cache(maxsize=None)
def _A(p: Variable, ctx: frozenset, goal: Formula) -> Formula:
    ordered = prover._by_key(ctx)
    step = prover._left_step(ordered, ctx)
    if step is not None:  # invertible left rule: conjoin over its premises
        h, premises = step
        rest = ctx - {h}
        return _conj(_A(p, rest.union(replacement), goal) for replacement in premises)
    # invertible right rules
    if isinstance(goal, And):
        return _and(_A(p, ctx, goal.left), _A(p, ctx, goal.right))
    if isinstance(goal, Implies):
        return _A(p, ctx | {goal.left}, goal.right)
    # irreducible: the context summary guards a disjunction of enablers
    if isinstance(goal, Var) and goal in ctx:
        return TOP
    parts = []
    if isinstance(goal, Var) and goal.var != p:
        parts.append(goal)
    if isinstance(goal, Or):
        parts.append(_A(p, ctx, goal.left))
        parts.append(_A(p, ctx, goal.right))
    parts += [_and(guard, _A(p, after, goal)) for guard, after in _guards(p, ctx, ordered)]
    return _imp(_E(p, ctx), _disj(parts))


def pite_exists(phi: Formula, y: Variable) -> Formula:
    """Strongest y-free consequence: phi |- psi iff result |- psi for y-free psi."""
    require_plain(phi)
    return _E(y, frozenset([phi]))


def pita_forall(phi: Formula, y: Variable) -> Formula:
    """Weakest y-free antecedent: psi |- phi iff psi |- result for y-free psi."""
    require_plain(phi)
    return _A(y, frozenset(), phi)


# ---------------------------------------------------------------------------
# Normalization: a fixed, size-nonincreasing rewrite set applied to a
# fixpoint.  Equivalence is prover-certified in the test suite.

_FOLD = {And: _and, Or: _or, Implies: _imp}


def _rw(f: Formula) -> Formula:
    """One bottom-up pass: the unit laws of `_and`/`_or`/`_imp`, then, where
    none applies, absorption, a -> (a -> b) to a -> b and ~~~a to ~a."""
    if not isinstance(f, (And, Or, Implies)):
        return f
    a, b = _rw(f.left), _rw(f.right)
    g = _FOLD[type(f)](a, b)
    if type(g) is not type(f) or g.left is not a or g.right is not b:
        return g  # a unit law applied
    if isinstance(g, (And, Or)):
        dual = Or if isinstance(g, And) else And
        if isinstance(b, dual) and a in (b.left, b.right):
            return a
        if isinstance(a, dual) and b in (a.left, a.right):
            return b
        return g
    if isinstance(b, Implies) and b.left == a:
        return Implies(a, b.right)
    if (
        isinstance(b, Bottom)
        and isinstance(a, Implies)
        and isinstance(a.right, Bottom)
        and isinstance(a.left, Implies)
        and isinstance(a.left.right, Bottom)
        and not isinstance(a.left.left, Bottom)
    ):
        return Implies(a.left.left, BOT)
    return g


def simplify(f: Formula) -> Formula:
    """Prover-equivalent normalization; never grows the formula."""
    require_plain(f)
    cur = f
    while True:
        nxt = _rw(cur)
        if nxt == cur:
            return cur
        cur = nxt


# ---------------------------------------------------------------------------
# The validation gate: interpolants are accepted by their defining property
# against a finite probe corpus, not trusted from the construction.

@dataclass
class ValidationReport:
    ok: bool
    variable_free: bool
    consequence_holds: bool
    failures: list = field(default_factory=list)  # (probe, direction) pairs
    probes_run: int = 0
    settled: int = 0  # sequents refuted on the 2-chain grid, without `decide`


def validate_interpolant(
    phi: Formula, y: Variable, candidate: Formula, probes
) -> ValidationReport:
    """Check the defining biconditional of the existential interpolant.

    For each y-free probe psi: (candidate |- psi) iff (phi |- psi); plus
    phi |- candidate and the variable condition.
    """
    return _gate(phi, y, candidate, probes, forall=False)


def validate_forall_interpolant(
    phi: Formula, y: Variable, candidate: Formula, probes
) -> ValidationReport:
    """Dual gate: for each y-free probe psi, (psi |- candidate) iff (psi |- phi),
    plus candidate |- phi and the variable condition."""
    return _gate(phi, y, candidate, probes, forall=True)


# The two-world chain (world 0 below world 1), the sweep's one rooted poset
# of two worlds.
_CHAIN = kripke.rooted_posets(2)[0]
# The grid has 3 ** k points for k atoms.  Past this many atoms the later
# ones are false at every point (still a persistent valuation, so every
# refutation stays a countermodel), which keeps a mask within 2 * 3 ** 6 bits.
_GRID_ATOMS = 6


def _gate(
    phi: Formula, y: Variable, candidate: Formula, probes, forall: bool
) -> ValidationReport:
    # Each probe takes the verdicts of its class's representative; each of
    # those sequents is refuted on the 2-chain grid where the masks allow, and
    # decided otherwise.  The dual gate turns every sequent around.
    require_plain(phi, candidate)
    if not isinstance(probes, tuple):  # tuple() would copy a corpus, losing its identity
        probes = tuple(probes)
    kept, atoms, g, reps, masks, of, size = _table(probes, y, phi.free_vars | candidate.free_vars)

    def entails(a: Formula, b: Formula, ma: int, mb: int) -> tuple[bool, int]:
        # a |- b (b |- a in the dual gate), and 1 when the 2-chain refutes it
        hyp, concl, mh, mc = (b, a, mb, ma) if forall else (a, b, ma, mb)
        if mh & ~mc:
            return False, 1
        return prover.decide(Sequent((hyp,), concl)), 0

    m_phi = kripke.forcing_mask(phi, atoms, g)
    m_candidate = kripke.forcing_mask(candidate, atoms, g)
    variable_free = y not in candidate.free_vars
    # By cut, candidate |- psi iff stand_in |- psi, and so in the dual gate.
    smaller = (r for r, m in zip(reps, masks) if m == m_candidate and r.size < candidate.size)
    stand_in = next((r for r in smaller if prover.equivalent(r, candidate)), candidate)
    consequence, settled = entails(phi, stand_in, m_phi, m_candidate)
    direction = []  # per class: the side whose sequent holds where the two disagree
    for r, m, n in zip(reps, masks, size):
        left, n_left = entails(stand_in, r, m_candidate, m)
        right, n_right = entails(phi, r, m_phi, m)
        settled += n * (n_left + n_right)
        direction.append(None if left == right else "candidate" if left else "input")
    failures = []
    if any(direction):
        failures = [(psi, direction[c]) for psi, c in zip(kept, of) if direction[c]]
    ok = variable_free and consequence and not failures
    return ValidationReport(ok, variable_free, consequence, failures, len(kept), settled)


@lru_cache(maxsize=4)
def _table(probes: tuple, y: Variable, inputs: frozenset) -> tuple:
    """The probes free of y, in order; the atom masks and grid of the 2-chain
    over their atoms and `inputs`; and the probes grouped into classes of
    prover-equivalent formulas: the classes' representatives (each class's
    first probe), their masks, each probe's class and each class's size.

    A compound probe joins the class an earlier probe with the same connective
    and operands of the same classes joined (in either order under /\\ and
    \\/), since IPC equivalence is a congruence.  Any other probe is compared,
    by `prover.equivalent`, with the representatives that have its mask
    (equivalent formulas have equal masks); it joins the first that matches,
    or starts a class.  Its mask is composed from its operands' class masks
    where both operands are earlier probes, and is `kripke.forcing_mask`'s
    otherwise (a leaf, or an operand that comes later or not at all)."""
    ys = frozenset([y])  # `y in fv` would hash y in Python for every probe
    kept = tuple([psi for psi in probes if ys.isdisjoint(psi.free_vars)])
    require_plain(*kept)
    names = sorted(inputs.union(*[psi.free_vars for psi in kept]))
    masks, g = kripke._stack(len(names[:_GRID_ATOMS]), _CHAIN)
    atoms = dict(zip((v.name for v in names), masks))
    atoms.update((v.name, 0) for v in names[_GRID_ATOMS:])
    reps: list[Formula] = []
    masks: list[int] = []
    by_mask: dict[int, list[int]] = {}
    of: list[int] = []
    table: dict = {}  # classes by probe key, and by connective and operand classes
    for psi in kept:
        op, key, a, b = type(psi), psi.key, None, None
        if op in (And, Or, Implies):  # an operand that is not a probe stands for itself, by its key
            a, b = psi.left.key, psi.right.key
            a, b = table.get(a, a), table.get(b, b)
            if op is not Implies and type(a) is type(b) and b < a:
                a, b = b, a
            key = (op, a, b)
        c = table.get(key)
        if c is None:
            m = (kripke.connective_mask(op, masks[a], masks[b], g) if type(a) is type(b) is int
                 else kripke.forcing_mask(psi, atoms, g))
            same = by_mask.setdefault(m, [])
            c = next((i for i in same if prover.equivalent(reps[i], psi)), None)
            if c is None:
                c = len(reps)
                reps.append(psi)
                masks.append(m)
                same.append(c)
        table[key] = table[psi.key] = c
        of.append(c)
    size = [0] * len(reps)
    for c in of:
        size[c] += 1
    return kept, atoms, g, reps, masks, of, size


# The largest probe size `interpolate --probe-budget` accepts.  On atoms
# P, Q, R a budget of 9 is 284,908 probes (about 1 s and 88 MB to build with
# Python 3.11 on one core, then about 2 s for their 3,621 classes); each
# further step of two nodes multiplies that many times over.
MAX_PROBE_NODES = 9


def probe_corpus(variables, max_nodes: int = 8) -> tuple[Formula, ...]:
    """All formulas over the given atoms, each atom taken once, up to
    `max_nodes` AST nodes (none when `max_nodes` < 1), deduplicated up to
    commutativity of /\\ and \\/ (deterministic order).

    The corpus is built once per (atoms, `max_nodes`) and then shared, so
    it is an immutable tuple; the gate finds its class table by the
    corpus object.
    """
    return _corpus(tuple(sorted(set(variables))), max_nodes)


class _Corpus(tuple):
    """A corpus of `_corpus`: a tuple that hashes by identity, so `_table`
    finds the table cached for it without hashing a probe.  A cache entry
    holds its corpus, so no other object takes that identity while the
    entry lives.  It keeps a tuple's equality; an equal corpus of another
    identity gets a table of its own, with the same contents."""

    __slots__ = ()
    __hash__ = object.__hash__


@lru_cache(maxsize=4)
def _corpus(variables: tuple, max_nodes: int) -> tuple[Formula, ...]:
    """Probes come in size order, so a probe's operands come before it, and
    each size is a range of probe indices.  Operands a, b at indices i, j give
    a -> b, and a /\\ b and a \\/ b only when i <= j (else the pair j, i came
    first); no two probes are equal up to commutativity, so no others repeat."""
    out = [BOT, *map(Var, variables)] if max_nodes > 0 else []
    by_size = {1: range(len(out))}
    for size in range(3, max_nodes + 1, 2):
        start = len(out)
        for lsize in range(1, size - 1, 2):
            for i in by_size[lsize]:
                a = out[i]
                for j in by_size[size - 1 - lsize]:
                    b = out[j]
                    if i <= j:
                        out += (And(a, b), Or(a, b))
                    out.append(Implies(a, b))
        by_size[size] = range(start, len(out))
    return _Corpus(out)
