"""Outcomes of `kernel.check_rule`, pinned across commits.

`kernel_golden.json` holds single rule instances as text (rule, conclusion,
premises, data, theory) with the outcome `check_rule` gave for each: `ok`,
or the exception class and its message.  The instances are the nodes of
seeded `derive` trees, of `derive_extensionality` trees over quantifier and
application contexts, of the bundled trees, and of the bundled scripts'
schema, extensionality and rule lines, each also mutated in seeded ways:
another rule, a premise dropped, a hypothesis added or dropped, another
conclusion formula, its data stripped or replaced, its theory taken away.
A kernel change that alters any verdict or message fails here.

`PYTHONPATH=src python tests/test_kernel_golden.py` only adds: it keeps
every pinned case as it stands, appends each generated case the file lacks,
and prints how many pinned cases the generator no longer produces.  A pinned
outcome changes only by hand, when a change means to alter it.
"""
import json
import random
from functools import lru_cache
from importlib import resources
from pathlib import Path

import pytest

from pittslab.kernel import (
    EMPTY_THEORY,
    RULES,
    ProofTree,
    Sequent,
    check_rule,
)
from pittslab.parser import Parser
from pittslab.prover import decide, derive, derive_extensionality, t_cut
from pittslab.replays import REPLAY_NAMES, load_suite
from pittslab.selftest import random_formula
from pittslab.syntax import (
    BOT,
    And,
    App,
    Exists,
    Forall,
    Formula,
    Implies,
    Or,
    Signature,
    Variable,
    neg,
    subformulas,
    var,
)
from pittslab.trees import parse_tree

GOLDEN_PATH = Path(__file__).with_name("kernel_golden.json")
HOLE = Variable("HOLE")
_BINARY = {"and": And, "or": Or, "imp": Implies}
_BINDERS = frozenset((Variable("W"), Variable("V")))


@lru_cache(maxsize=None)
def _suite_theory(name):
    return load_suite(name)[0]


def _theory(name):
    if name is None:
        return None
    return EMPTY_THEORY if name == "ipc" else _suite_theory(name)


def _outcome(rule, concl, premises, data, theory) -> str:
    try:
        check_rule(rule, concl, premises, data, theory, path=(0, 1))
    except Exception as e:  # the class and message are the pinned outcome
        return f"{type(e).__name__}: {e}"
    return "ok"


# ---------------------------------------------------------------------------
# Text form of one case


def _data_text(data):
    if data is None:
        return None
    if isinstance(data, Formula):
        return {"formula": str(data)}
    if isinstance(data, Variable):
        return {"variable": data.name}
    label, bindings = data
    return {"schema": [label, {v.name: str(f) for v, f in sorted(bindings.items())}]}


def _decode(case):
    """(rule, conclusion, premises, data, theory) of a stored case."""
    sig = _suite_theory(case["signature"]).signature if case["signature"] else Signature()
    parser = Parser(sig)
    data = case["data"]
    if data is not None:
        if "formula" in data:
            data = parser.parse(data["formula"])
        elif "variable" in data:
            data = Variable(data["variable"])
        else:
            label, bindings = data["schema"]
            data = (label, {Variable(v): parser.parse(f) for v, f in bindings.items()})
    premises = tuple(parser.parse_sequent(p) for p in case["premises"])
    return case["rule"], parser.parse_sequent(case["concl"]), premises, data, _theory(case["theory"])


def _encode(rule, concl, premises, data, theory, signature):
    case = {
        "rule": rule,
        "concl": str(concl),
        "premises": [str(p) for p in premises],
        "data": _data_text(data),
        "theory": theory,
        "signature": signature,
    }
    # the text must read back as the same instance, hypothesis order included
    _, c2, p2, d2, _ = _decode(case)
    for a, b in zip((concl,) + tuple(premises), (c2,) + p2):
        assert [h.key for h in a.hyps] == [h.key for h in b.hyps] and a.concl == b.concl
    assert _data_text(d2) == case["data"]
    return case


# ---------------------------------------------------------------------------
# Seeded instances and their mutations


def _instances(rng):
    """(rule, conclusion, premises, data, theory, signature) of every node."""
    trees = []  # (tree, theory, signature)
    atoms = ("P", "Q", "R")
    found = 0
    while found < 60:
        hyps = [random_formula(rng, atoms, rng.choice((1, 3, 5))) for _ in range(rng.randint(0, 2))]
        s = Sequent(tuple(hyps), random_formula(rng, atoms, rng.choice((1, 3, 5, 7))))
        if decide(s):
            found += 1
            tree = derive(s)
            trees.append((tree, None, None))
            if found % 10 == 0 and tree.conclusion.hyps:
                # derive emits cuts only under nested implications: add plain ones
                phi = tree.conclusion.hyps[0]
                trees.append((t_cut(derive(Sequent((phi,), phi)), tree), None, None))
            if found % 4 == 0:
                # and it emits no wR at all
                absurd = derive(Sequent(s.hyps + (neg(s.concl),), BOT))
                wr = ProofTree("wR", Sequent(absurd.conclusion.hyps, s.concl), (absurd,))
                trees.append((wr, None, None))

    binders = sorted(_BINDERS, key=lambda v: v.name)
    for i in range(90):
        sig_name = (None, "kreisel", "tara")[i % 3]
        sig = _suite_theory(sig_name).signature if sig_name else Signature()
        symbols = sorted(sig.symbols.values(), key=lambda s: s.name)
        ctx = _random_context(rng, symbols, 3, binders)
        p = random_formula(rng, ("P", "Q"), rng.choice((1, 3)))
        q = random_formula(rng, ("P", "Q"), rng.choice((1, 3)))
        tree = derive_extensionality(ctx, HOLE, p, q)
        trees.append((tree, sig_name or "ipc", sig_name))

    root = Path(str(resources.files("pittslab") / "data"))
    for path in sorted((root / "trees").glob("*.tree")):
        trees.append((parse_tree(path.read_text(encoding="utf-8")), None, None))

    out = []
    for name in REPLAY_NAMES:
        theory, scripts = load_suite(name)
        for script in scripts:
            for line in script.lines:
                j = line.justification
                if j.kind == "ax-schema":
                    node = ProofTree("schema", line.sequent, (), (j.name, dict(j.bindings)))
                    trees.append((node, name, name))
                elif j.kind == "ext":
                    ctx, p, q = j.formulas
                    trees.append((derive_extensionality(ctx, Variable(j.name), p, q), name, name))
                elif j.kind == "rule":
                    prems = tuple(script.sequent(n) for n in j.lines)
                    out.append((j.name, line.sequent, prems, None, name, name))
    for tree, theory, sig in trees:
        for node in tree.nodes():
            prems = tuple(p.conclusion for p in node.premises)
            out.append((node.rule, node.conclusion, prems, node.data, theory, sig))
    return out


def _random_context(rng, symbols, depth, binders):
    leaves = [var("HOLE"), var("Z"), BOT] + [var(b.name) for b in binders]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.choice(["and", "or", "imp", "all", "ex", "app", "leaf"])
    if kind == "leaf" or (kind == "app" and not symbols):
        return rng.choice(leaves)
    if kind in ("all", "ex"):
        x = rng.choice(binders)
        body = _random_context(rng, symbols, depth - 1, binders)
        if rng.random() < 0.5:  # a body that surely uses its binder
            body = rng.choice(list(_BINARY.values()))(body, var(x.name))
        return (Forall if kind == "all" else Exists)(x, body)
    if kind == "app":
        sym = rng.choice(symbols)
        return App(sym, tuple(_random_context(rng, symbols, depth - 1, binders) for _ in range(sym.arity)))
    a = _random_context(rng, symbols, depth - 1, binders)
    return _BINARY[kind](a, _random_context(rng, symbols, depth - 1, binders))


def _mutations(rng, rule, concl, premises, data, theory):
    """Seeded corruptions of one instance, each as a full instance."""
    seqs = (concl,) + premises
    pool = [f for s in seqs for f in s.hyps + (s.concl,)]
    yield rng.choice([r for r in RULES if r != rule]), concl, premises, data, theory
    if premises:
        i = rng.randrange(len(premises))
        yield rule, concl, premises[:i] + premises[i + 1:], data, theory
    yield rule, concl, premises + (rng.choice(seqs),), data, theory
    if rule in ("wL", "cL"):  # read backwards, as the other structural rule
        yield ("cL" if rule == "wL" else "wL"), premises[0], (concl,), data, theory
    k = rng.randrange(len(seqs))
    s = seqs[k]
    extra = rng.choice(pool + [var("P"), BOT])
    at = rng.randint(0, len(s.hyps))
    yield (rule,) + _replace(seqs, k, Sequent(s.hyps[:at] + (extra,) + s.hyps[at:], s.concl)) + (data, theory)
    # for allR and exL, preferably a formula in which an eigenvariable is free
    extra = rng.choice([f for f in pool if f.free_vars & _BINDERS] or pool)
    yield (rule, Sequent(concl.hyps + (extra,), concl.concl),
           tuple(Sequent(p.hyps + (extra,), p.concl) for p in premises), data, theory)
    with_hyps = [k for k, s in enumerate(seqs) if s.hyps]
    if with_hyps:
        k = rng.choice(with_hyps)
        s = seqs[k]
        at = rng.randrange(len(s.hyps))
        yield (rule,) + _replace(seqs, k, Sequent(s.hyps[:at] + s.hyps[at + 1:], s.concl)) + (data, theory)
    subs = sorted(subformulas(concl.concl), key=lambda f: f.key)
    other = rng.choice(subs + pool + [var("P"), BOT])
    yield rule, Sequent(concl.hyps, other), premises, data, theory
    if data is not None:
        yield rule, concl, premises, None, theory
    free = sorted({v for s in seqs for v in s.free_vars()} | {Variable("W")}, key=lambda v: v.name)
    if rule in ("allR", "exL", "allL", "exR"):
        yield rule, concl, premises, rng.choice(free), theory
    if rule in ("schema", "congruence"):
        yield rule, concl, premises, data, rng.choice((None, "ipc"))


def _replace(seqs, k, s):
    seqs = seqs[:k] + (s,) + seqs[k + 1:]
    return seqs[0], seqs[1:]


def cases(seed=6, per_rule=9):
    """Encoded instances, at most `per_rule` unmutated ones per rule, each
    followed by its mutations, with the outcome of `check_rule`."""
    rng = random.Random(seed)
    seen = set()
    by_rule = {r: [] for r in RULES}
    for inst in _instances(rng):
        case = _encode(*inst)
        text = json.dumps(case, sort_keys=True)
        if text not in seen:
            seen.add(text)
            by_rule[inst[0]].append(inst)
    out = []
    for rule in RULES:
        insts = by_rule[rule]
        for inst in rng.sample(insts, min(per_rule, len(insts))):
            *parts, sig = inst
            for variant in [tuple(parts)] + list(_mutations(rng, *parts)):
                case = _encode(*variant, sig)
                case["outcome"] = _outcome(*_decode(case))
                out.append(case)
    return out


def _instance_text(case) -> str:
    return json.dumps({k: v for k, v in case.items() if k != "outcome"}, sort_keys=True)


def _capture():
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]
    known = {_instance_text(c) for c in pinned}
    generated = set()
    added = []
    for case in cases():
        text = _instance_text(case)
        generated.add(text)
        if text not in known:
            known.add(text)
            added.append(case)
    lines = [json.dumps(c, sort_keys=True) for c in pinned + added]
    GOLDEN_PATH.write_text('{"cases": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8")
    gone = sum(_instance_text(c) not in generated for c in pinned)
    print(f"{len(pinned)} pinned cases kept, {len(added)} added; "
          f"the generator no longer produces {gone} of the pinned ones")


# ---------------------------------------------------------------------------

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]


def test_every_rule_is_covered_accepted_and_rejected():
    for rule in RULES:
        outcomes = {c["outcome"] == "ok" for c in GOLDEN if c["rule"] == rule}
        assert outcomes == {True, False}, rule


@pytest.mark.parametrize("rule", RULES)
def test_check_rule_outcomes(rule):
    changed = [
        (c["concl"], c["outcome"], got)
        for c in GOLDEN
        if c["rule"] == rule and (got := _outcome(*_decode(c))) != c["outcome"]
    ]
    assert not changed


if __name__ == "__main__":
    _capture()
