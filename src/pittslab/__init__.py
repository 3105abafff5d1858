"""pittslab: a workbench for intuitionistic propositional logic.

Uniform interpolants for propositional quantifiers, a decision procedure
with kernel-checked witnesses, exhaustive Kripke countermodel search,
sequent-calculus proof-script checking in schema-extended logics, and
bundled replays of nondefinability arguments for three second-order
connectives.

The public names below load their submodule on first use, so importing
one submodule loads only what it imports: the checker of trees and
countermodels (syntax, printer, parser, kernel, trees) loads no search.
"""
from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "connectives": "AuxiliaryReport RegularConnective extract_auxiliary is_auxiliary",
    "kernel": "CheckReport KripkeModel ProofTree SchemaTheory Sequent check_tree",
    "kripke": "find_countermodel",
    "parser": "parse_formula parse_sequent",
    "pitts": "pita_forall pite_exists probe_corpus simplify validate_interpolant",
    "printer": "print_formula",
    "prover": "Verdict classical_tautology decide derive derive_extensionality equivalent prove",
    "replays": "REPLAY_NAMES ReplayReport replay",
    "rieger": "RNClass RNLattice check_rieger_lower_facts rn_classify",
    "scripts": "ProofScript check_script parse_script parse_theory",
    "syntax": "And App BOT Bottom ConnectiveSymbol Exists Forall Formula Implies Or "
              "Signature TOP Var Variable iff neg substitute",
    "trees": "parse_tree print_tree",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
