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
per probe.  A sequent whose forcing masks on the two-world chain (every
valuation of the atoms at once) show a world forcing the hypothesis but not
the conclusion is refuted by that Kripke model, so the gate records it as
not derivable without calling `decide`; IPC is sound for Kripke semantics,
so that is the verdict `decide` would give.  A probe the masks leave open
takes its verdict from its operands' where a rule of the calculus allows
(the corpus lists operands first): conjunctions and disjunctions, and
implications through weakening, botL and modus ponens (see `_composed`).
Only the other sequents reach `decide`.  Each sequent on the candidate side
is decided on a stand-in: the first probe smaller than the candidate that
the prover certifies equivalent to it (`_minimize`), if there is one.  By
cut, it has the candidate's consequences and antecedents.

The corpus of an atom set, its probes free of the eliminated variable and
the probes' masks on its grid are built once and kept in small
module-level `lru_cache`s; the verdicts are kept for one gate call only.
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
    substitute,
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


# The two-world chain (world 0 below world 1), as `kripke.posets` masks.
_CHAIN = (0b11, 0b10)
# The grid has 3 ** k points for k atoms.  Past this many atoms the later
# ones are false at every point (still a persistent valuation, so every
# refutation stays a countermodel), which keeps a mask within 2 * 3 ** 6 bits.
_GRID_ATOMS = 6


def _gate(
    phi: Formula, y: Variable, candidate: Formula, probes, forall: bool
) -> ValidationReport:
    # Every sequent hyp |- concl is first evaluated on the 2-chain at every
    # valuation of the atoms: if some (valuation, world) forces hyp but not
    # concl, that is a Kripke countermodel, and since IPC is sound for Kripke
    # semantics the sequent is refuted without `decide`.  A probe's mask is
    # kept by key in the dict `_chain_grid` holds for these atoms, so across
    # calls it is computed once.  A probe that the masks leave open may take
    # its verdict from its operands' (see `_composed`); only the rest go to
    # `decide`, so every verdict is the one `decide` would give.  The dual
    # gate turns every sequent around.
    require_plain(phi, candidate)
    kept, probe_atoms = _kept(tuple(probes), y)
    names = sorted(probe_atoms.union(phi.free_vars, candidate.free_vars))
    atoms, g, memo = _chain_grid(tuple(names))
    masks = []
    for psi in kept:
        m = memo.get(psi.key)
        if m is None:
            m = memo[psi.key] = kripke.forcing_mask(psi, atoms, g, memo)
        masks.append(m)
    settled = 0

    def entails(a: Formula, b: Formula, ma: int, mb: int, known: dict) -> bool:
        # a |- b (b |- a in the dual gate), kept in `known` by b's key
        nonlocal settled
        hyp, concl, mh, mc = (b, a, mb, ma) if forall else (a, b, ma, mb)
        if mh & ~mc:
            settled += 1
            verdict = False
        else:
            verdict = _composed(b, known, forall)
            if verdict is None:
                verdict = prover.decide(Sequent((hyp,), concl))
        known[b.key] = verdict
        return verdict

    m_phi = kripke.forcing_mask(phi, atoms, g)
    m_candidate = kripke.forcing_mask(candidate, atoms, g)
    variable_free = y not in candidate.free_vars
    # By cut, candidate |- psi iff stand_in |- psi (and so in the dual), so
    # a smaller equivalent probe decides every sequent the candidate is in.
    stand_in = _minimize(candidate, kept, masks, m_candidate)
    consequence = entails(phi, stand_in, m_phi, m_candidate, {})
    failures = []
    by_candidate: dict[str, bool] = {}
    by_input: dict[str, bool] = {}
    for psi, m in zip(kept, masks):
        left = entails(stand_in, psi, m_candidate, m, by_candidate)
        right = entails(phi, psi, m_phi, m, by_input)
        if left != right:
            failures.append((psi, "candidate" if left else "input"))
    ok = variable_free and consequence and not failures
    return ValidationReport(ok, variable_free, consequence, failures, len(kept), settled)


@lru_cache(maxsize=4)
def _kept(probes: tuple, y: Variable) -> tuple[tuple[Formula, ...], frozenset]:
    """The probes free of y, in order, and the atoms they mention."""
    kept = tuple(psi for psi in probes if y not in psi.free_vars)
    require_plain(*kept)
    return kept, frozenset().union(*(psi.free_vars for psi in kept))


def _minimize(f: Formula, probes, masks, m_f: int) -> Formula:
    """The first of `probes`, in their order, that is strictly smaller than f
    and certified prover-equivalent to f, or f when there is none.  `masks`
    lists the probes' 2-chain masks and m_f is f's: equivalent formulas have
    equal masks, so only probes with mask m_f reach the prover, which tests
    the small probe as the hypothesis first."""
    for psi, m in zip(probes, masks):
        if m == m_f and psi.size < f.size and prover.equivalent(psi, f):
            return psi
    return f


@lru_cache(maxsize=4)
def _chain_grid(names: tuple) -> tuple[dict[str, int], kripke.Grid, dict[str, int]]:
    """The atom masks and grid of the 2-chain over `names` (sorted Variables),
    and the dict in which the gate keeps probe masks by key on that grid."""
    atoms, g = kripke._atoms_grid(names[:_GRID_ATOMS], _CHAIN)
    atoms.update((v.name, 0) for v in names[_GRID_ATOMS:])
    return atoms, g, {}


def _composed(psi: Formula, known: dict, forall: bool) -> bool | None:
    """The verdict of a gate sequent on the probe psi, composed from the
    verdicts in `known` of the same sequent on psi's operands, or None when
    they do not settle it.  Write X for the candidate or the input.

    - psi = a /\\ b on the right, a \\/ b on the left (andR, orL: invertible):
      it holds iff it holds on a and on b.
    - psi = a \\/ b on the right, a /\\ b on the left (orR, andL): it holds
      if it holds on a or on b.
    - X |- a -> b holds if X |- b does (weakening, impR) or X |- ~a does
      (botL), and fails if X |- a holds and X |- b fails (cut with modus
      ponens).
    - a -> b |- X fails if b |- X fails, since b |- a -> b.

    Otherwise only `decide` can tell."""
    op = type(psi)
    if op is Implies:
        b = known.get(psi.right.key)
        if forall:
            return False if b is False else None
        if b or known.get(Implies.key_of(psi.left.key, BOT.key)):
            return True
        return False if b is False and known.get(psi.left.key) else None
    if op is not And and op is not Or:
        return None
    a, b = known.get(psi.left.key), known.get(psi.right.key)
    if (op is And) is not forall:
        return None if a is None or b is None else a and b
    return True if a or b else None


# The largest probe size `interpolate --probe-budget` accepts.  On atoms
# P, Q, R a budget of 9 is 284,908 probes (2-3 s and 130 MB to build with
# Python 3.11 on one core); each further step of two nodes multiplies that
# many times over.
MAX_PROBE_NODES = 9


def probe_corpus(variables, max_nodes: int = 8) -> tuple[Formula, ...]:
    """All formulas over the given atoms up to `max_nodes` AST nodes,
    deduplicated up to commutativity of /\\ and \\/ (deterministic order).

    The corpus is built once per (atoms, `max_nodes`) and then shared, so
    it is an immutable tuple.
    """
    return _corpus(tuple(sorted(variables)), max_nodes)


@lru_cache(maxsize=4)
def _corpus(variables: tuple, max_nodes: int) -> tuple[Formula, ...]:
    """Each probe is kept with its commutative key; a candidate's key is
    composed from its operands' keys (sorted under /\\ and \\/), and the
    candidate is built only when that key is new.  Probes come in size
    order, so a probe's operands come before it."""
    leaves = [(g, g.key) for g in [BOT] + [Var(v) for v in variables]]
    by_size: dict[int, list[tuple[Formula, str]]] = {1: leaves}
    seen = {k for _, k in leaves}
    for size in range(3, max_nodes + 1, 2):
        bucket = by_size[size] = []
        for lsize in range(1, size - 1, 2):
            for a, ka in by_size[lsize]:
                for b, kb in by_size[size - 1 - lsize]:
                    lo, hi = (ka, kb) if ka <= kb else (kb, ka)
                    for ctor, kl, kr in ((And, lo, hi), (Or, lo, hi), (Implies, ka, kb)):
                        k = ctor.key_of(kl, kr)
                        if k not in seen:
                            seen.add(k)
                            bucket.append((ctor(a, b), k))
    return tuple(g for bucket in by_size.values() for g, _ in bucket)


@dataclass
class InterpolationResult:
    input: Formula
    bound_var: Variable
    existential: Formula
    universal: Formula
    certificate_checks: list = field(default_factory=list)  # (probe, bool)


def interpolate(phi: Formula, y: Variable, probe_substitutions=None) -> InterpolationResult:
    """Both interpolants plus certificate checks on probe substitutions.

    Each probe T exercises the two halves: phi[T/y] follows from the
    universal interpolant, and the existential one follows from phi[T/y].
    """
    ex = pite_exists(phi, y)
    un = pita_forall(phi, y)
    checks = []
    for t in probe_substitutions or []:
        inst = substitute(phi, {y: t})
        ok = prover.decide(Sequent((un,), inst)) and prover.decide(
            Sequent((inst,), ex)
        )
        checks.append((t, ok))
    return InterpolationResult(phi, y, ex, un, checks)
