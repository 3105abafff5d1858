"""Regular connectives, auxiliary formulas, and extraction from cut-free proofs.

A regular connective is an existentially quantified quantifier-free body
viewed as an n-ary connective.  A candidate is auxiliary when the body's
existential interpolant already proves the body instantiated at the
candidate; existence of such a candidate is exactly quantifier-free
definability, and the definition is the interpolant itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .kernel import ProofTree, Sequent, check_tree, is_cut_free
from .pitts import pite_exists
from .prover import decide, derive, t_right
from .syntax import (
    BOT,
    Exists,
    Formula,
    FormulaError,
    Or,
    Variable,
    require_plain,
    subformulas,
    substitute,
)


class NotCutFree(Exception):
    pass


class NoEligibleRule(Exception):
    def __init__(self, rule, path):
        self.rule = rule
        self.path = tuple(path)
        super().__init__(f"rule {rule} at node {list(self.path)} is outside the extraction cases")


@dataclass(frozen=True)
class RegularConnective:
    """Body Phi(params, bound_var) standing for  exists bound_var. Phi."""

    body: Formula
    bound_var: Variable
    params: tuple[Variable, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if self.bound_var in self.params:
            raise FormulaError("bound variable listed among the parameters")
        allowed = set(self.params) | {self.bound_var}
        if not self.body.free_vars <= allowed:
            extra = sorted(v.name for v in self.body.free_vars - allowed)
            raise FormulaError(f"body uses undeclared variables: {extra}")
        require_plain(self.body)

    def quantified(self) -> Exists:
        return Exists(self.bound_var, self.body)

    def instance(self, candidate: Formula) -> Formula:
        return substitute(self.body, {self.bound_var: candidate})


@dataclass
class AuxiliaryReport:
    connective: RegularConnective
    interpolant: Formula
    candidate: Formula
    holds: bool
    definition: Formula | None = None
    witness_tree: ProofTree | None = None


def is_auxiliary(c: RegularConnective, candidate: Formula) -> AuxiliaryReport:
    """Decide whether `candidate` is an auxiliary formula for the connective.

    When it is, the interpolant defines the connective: the forward direction
    is the interpolant property, the backward one goes through the witness
    and one exists-right inference (the returned tree, kernel-checked).
    """
    require_plain(candidate)
    if not candidate.free_vars <= set(c.params):
        raise FormulaError("candidate may only use the connective parameters")
    interpolant = pite_exists(c.body, c.bound_var)
    holds = decide(Sequent((interpolant,), c.instance(candidate)))
    report = AuxiliaryReport(c, interpolant, candidate, holds)
    if holds:
        # forward: Phi |- interpolant, hence C_Phi |- interpolant by exists-left
        if not decide(Sequent((c.body,), interpolant)):
            raise AssertionError("interpolant lost the forward direction")
        # backward: interpolant |- Phi(candidate), then exists-right
        base = derive(Sequent((interpolant,), c.instance(candidate)))
        tree = t_right("exR", c.quantified(), base, data=candidate)
        rep = check_tree(tree)
        if not rep.ok:
            raise AssertionError(f"witness tree failed the kernel: {rep.message}")
        report.definition = interpolant
        report.witness_tree = tree
    return report


_PREFIX_RULES = {"andL1", "andL2", "cL", "wL"}


def extract_auxiliary(proof: ProofTree, c: RegularConnective) -> Formula:
    """Read an auxiliary formula off a cut-free derivation of
    interpolant |- exists Y. Phi.

    Climbs to the first wR / exists-right / implication-left; weakening-right
    yields bot, exists-right yields its witness, implication-left recurses
    into the right premise.  Anything else on the way is rejected: with a
    disjunction-free interpolant only invertible left steps can occur below
    the first such rule.
    """
    if not is_cut_free(proof):
        raise NotCutFree("extraction requires a cut-free tree")
    rep = check_tree(proof)
    if not rep.ok:
        raise FormulaError(f"tree does not check: {rep.message}")
    concl = proof.conclusion
    if concl.concl != c.quantified():
        raise FormulaError("tree must conclude the quantified connective")
    if len(concl.hyps) != 1:
        raise FormulaError("tree must have the interpolant as its only hypothesis")
    if any(isinstance(g, Or) for g in subformulas(concl.hyps[0])):
        raise FormulaError("interpolant must be disjunction-free")

    node, path = proof, ()
    while True:
        if node.rule == "wR":
            return BOT
        if node.rule == "exR":
            witness = node.data
            if not isinstance(witness, Formula):
                raise FormulaError("exists-right node lacks an explicit witness")
            return witness
        if node.rule == "impL":
            node, path = node.premises[1], path + (1,)
            continue
        if node.rule in _PREFIX_RULES:
            node, path = node.premises[0], path + (0,)
            continue
        raise NoEligibleRule(node.rule, path)
