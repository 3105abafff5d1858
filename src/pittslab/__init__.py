"""pittslab: a workbench for intuitionistic propositional logic.

Uniform interpolants for propositional quantifiers, a decision procedure
with kernel-checked witnesses, exhaustive Kripke countermodel search,
sequent-calculus proof-script checking in schema-extended logics, and
bundled replays of nondefinability arguments for three second-order
connectives.
"""

__version__ = "0.1.0"

from .connectives import AuxiliaryReport, RegularConnective, extract_auxiliary, is_auxiliary
from .kernel import (
    CheckReport,
    ProofTree,
    SchemaTheory,
    Sequent,
    check_tree,
    derive_extensionality,
)
from .kripke import KripkeModel, find_countermodel
from .parser import parse_formula, parse_sequent
from .pitts import (
    pita_forall,
    pite_exists,
    probe_corpus,
    simplify,
    validate_interpolant,
)
from .printer import print_formula
from .prover import (
    Verdict,
    classical_tautology,
    decide,
    derive,
    equivalent,
    prove,
)
from .replays import REPLAY_NAMES, ReplayReport, replay
from .rieger import RNClass, RNLattice, check_rieger_lower_facts, rn_classify
from .scripts import ProofScript, check_script, parse_script, parse_theory
from .syntax import (
    And,
    App,
    BOT,
    Bottom,
    ConnectiveSymbol,
    Exists,
    Forall,
    Formula,
    Implies,
    Or,
    Signature,
    TOP,
    Var,
    Variable,
    iff,
    neg,
    substitute,
)
from .trees import parse_tree, print_tree

__all__ = [name for name in dir() if not name.startswith("_")]
