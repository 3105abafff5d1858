"""Randomized property batteries, shared by the test suite and the CLI.

Every battery takes an explicit seed and returns a result dictionary with a
`failures` list; an empty list means the property held on the whole sample.
"""
from __future__ import annotations

import random

from .kernel import Sequent, check_tree
from .kripke import find_countermodel
from .parser import parse_formula
from .pitts import pita_forall, pite_exists
from .printer import print_formula
from .prover import classical_tautology, decide, derive, equivalent
from .syntax import (
    And,
    BOT,
    Formula,
    Implies,
    Or,
    TOP,
    Variable,
    neg,
    substitute,
    var,
)


def random_formula(rng: random.Random, names, size: int) -> Formula:
    if size <= 1:
        return rng.choice([BOT] + [var(n) for n in names])
    left = rng.randint(1, size - 2) if size > 2 else 1
    a = random_formula(rng, names, left)
    b = random_formula(rng, names, size - 1 - left)
    return rng.choice([And, Or, Implies])(a, b)


def _sizes(rng, max_nodes):
    return rng.choice(range(1, max_nodes + 1, 2))


def soundness_battery(count: int = 500, seed: int = 0) -> dict:
    """Prover vs exhaustive countermodel search, on formulas over P, Q, R.

    Provable formulas must admit no countermodel within the default bound;
    refuted ones must be refuted by some model within it (checked
    independently by the model's own forcing).
    """
    rng = random.Random(seed)
    failures = []
    provable = 0
    for i in range(count):
        f = random_formula(rng, ("P", "Q", "R"), _sizes(rng, 12))
        s = Sequent((), f)
        if decide(s):
            provable += 1
            if find_countermodel(s) is not None:
                failures.append(("soundness", str(f)))
        else:
            hit = find_countermodel(s)
            if hit is None:
                failures.append(("no-countermodel", str(f)))
            else:
                model, world = hit
                if not model.refutes(world, s):
                    failures.append(("bad-countermodel", str(f)))
    return {"checked": count, "provable": provable, "failures": failures}


def glivenko_battery(count: int = 200, seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        f = random_formula(rng, ("P", "Q", "R"), _sizes(rng, 12))
        if decide(Sequent((), neg(neg(f)))) != classical_tautology(f):
            failures.append(("glivenko", str(f)))
    return {"checked": count, "failures": failures}


def witness_battery(count: int = 60, seed: int = 0) -> dict:
    """Emitted witness trees always pass the kernel."""
    rng = random.Random(seed)
    failures = []
    emitted = 0
    for _ in range(count):
        f = random_formula(rng, ("P", "Q"), _sizes(rng, 9))
        s = Sequent((), f)
        if decide(s):
            emitted += 1
            t = derive(s)
            if t.conclusion != s or not check_tree(t).ok:
                failures.append(("witness", str(f)))
    return {"checked": count, "emitted": emitted, "failures": failures}


def interpolation_battery(count: int = 100, seed: int = 0) -> dict:
    """Variable condition, the two defining halves, monotonicity, idempotence."""
    rng = random.Random(seed)
    y = Variable("Y")
    failures = []
    pairs = 0
    for _ in range(count):
        phi = random_formula(rng, ["Y", "P", "Q"], _sizes(rng, 7))
        e = pite_exists(phi, y)
        a = pita_forall(phi, y)
        if y in e.free_vars or y in a.free_vars:
            failures.append(("variable-condition", str(phi)))
        if not decide(Sequent((phi,), e)):
            failures.append(("strongest-consequence", str(phi)))
        for t in (BOT, TOP, var("P")):
            if not decide(Sequent((a,), substitute(phi, {y: t}))):
                failures.append(("weakest-antecedent", str(phi)))
        if y not in phi.free_vars:
            if not equivalent(phi, e):
                failures.append(("idempotence", str(phi)))
        phi2 = random_formula(rng, ["Y", "P", "Q"], _sizes(rng, 7))
        if decide(Sequent((phi,), phi2)):
            pairs += 1
            if not decide(Sequent((e,), pite_exists(phi2, y))):
                failures.append(("monotonicity", f"{phi} => {phi2}"))
    return {"checked": count, "implication_pairs": pairs, "failures": failures}


def roundtrip_battery(count: int = 300, seed: int = 0) -> dict:
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        f = random_formula(rng, ["P", "Q", "R", "X1"], _sizes(rng, 13))
        if parse_formula(print_formula(f)) != f:
            failures.append(("roundtrip", str(f)))
    return {"checked": count, "failures": failures}


BATTERIES = {
    "roundtrip": roundtrip_battery,
    "witness": witness_battery,
    "glivenko": glivenko_battery,
    "interpolation": interpolation_battery,
    "soundness": soundness_battery,
}


def run_all(seed: int = 0, quick: bool = False) -> dict:
    sizes = {"soundness": 60, "glivenko": 60, "witness": 25,
             "interpolation": 25, "roundtrip": 100} if quick else {}
    out = {}
    for name, fn in BATTERIES.items():
        kwargs = {"seed": seed}
        if name in sizes:
            kwargs["count"] = sizes[name]
        out[name] = fn(**kwargs)
    out["ok"] = all(not r["failures"] for r in out.values() if isinstance(r, dict))
    return out
