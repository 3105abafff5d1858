"""Outputs of the parser, pinned across commits.

`parser_golden.json` maps each of about 3,000 seeded inputs to what
`Parser.parse`, `Parser.parse_sequent` and `Parser.parse_prefix` give under
a signature with t/1 and u/2 and with the hole `_`: the key and the printed
text of the result, or the error's class, text, offset and expected set.
The inputs are fully parenthesised sequents as the prove benchmark renders
them, printer output of `selftest.random_formula` with random whitespace,
texts through applications, quantifiers, `~`, `top`, `<->` and the hole,
and one-token mutations of all three (delete, duplicate, swap, or insert
one of `< - | 1 é _ , .`).  A change to the tokenizer or to the parse loop
that alters any outcome, an error offset included, fails here.

Regenerate with `PYTHONPATH=src python tests/test_parser_golden.py`, and
only when a change means to alter an outcome.
"""
import json
import random
import re
from pathlib import Path

import pytest

from pittslab.parser import Parser
from pittslab.printer import print_formula
from pittslab.selftest import random_formula
from pittslab.syntax import INFIX, Bottom, ConnectiveSymbol, Signature, Var, Variable

GOLDEN_PATH = Path(__file__).with_name("parser_golden.json")

PARSER = Parser(Signature([ConnectiveSymbol("t", 1), ConnectiveSymbol("u", 2)]), Variable("HOLE"))
ATOMS = ("P", "Q", "R", "S")
SPACES = (" ", "\t", "\n", "\u00a0")
INSERTS = ("<", "-", "|", "1", "é", "_", ",", ".")
PER_GROUP = 750
_SYMBOL = {op.build: op.symbol for op in INFIX}
# Splits an input into the pieces a mutation moves; words are kept whole.
_PIECES = re.compile(r"[\w']+|\|-|<->|->|\\/|/\\|\S")


def _rendered(f) -> str:
    """Fully parenthesised, as the prove benchmark writes its inputs."""
    if isinstance(f, Var):
        return f.var.name
    if isinstance(f, Bottom):
        return "bot"
    return f"({_rendered(f.left)} {_SYMBOL[type(f)]} {_rendered(f.right)})"


def _formula(rng, render) -> str:
    return render(random_formula(rng, ATOMS, rng.choice(range(1, 18, 2))))


def _sequent(rng, make) -> str:
    hyps = [make() for _ in range(rng.randint(0, 3))]
    return f"{', '.join(hyps)} |- {make()}".lstrip()


def _surface(rng, depth: int) -> str:
    """A text over the whole grammar; some applications take the wrong
    number of arguments."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(ATOMS + ("X", "bot", "top", "_"))
    pick = rng.randrange(6)
    if pick == 0:
        return "~" + _surface(rng, depth - 1)
    if pick == 1:
        return f"{rng.choice(('exists', 'forall'))} X. {_surface(rng, depth - 1)}"
    if pick == 2:
        return f"({_surface(rng, depth - 1)})"
    if pick == 3:
        name = rng.choice("tu")
        arity = PARSER.signature.get(name).arity if rng.random() < 0.85 else rng.randint(1, 3)
        return f"{name}({', '.join(_surface(rng, depth - 1) for _ in range(arity))})"
    op = rng.choice(INFIX).symbol
    return f"{_surface(rng, depth - 1)} {op} {_surface(rng, depth - 1)}"


def _spaced(rng, pieces) -> str:
    """The pieces joined by random whitespace runs, never empty between two
    word pieces."""
    out = [pieces[0]] if pieces else []
    for prev, piece in zip(pieces, pieces[1:]):
        low = 1 if prev[-1].isalnum() and piece[0].isalnum() else 0
        out.append("".join(rng.choice(SPACES) for _ in range(rng.randint(low, 2))))
        out.append(piece)
    return "".join(out)


def _mutated(rng, text: str) -> str:
    pieces = _PIECES.findall(text)
    i = rng.randrange(len(pieces))
    how = rng.randrange(4)
    if how == 0:
        del pieces[i]
    elif how == 1:
        pieces.insert(i, pieces[i])
    elif how == 2 and len(pieces) > 1:
        j = i + 1 if i + 1 < len(pieces) else i - 1
        pieces[i], pieces[j] = pieces[j], pieces[i]
    else:
        pieces.insert(i, rng.choice(INSERTS))
    return _spaced(rng, pieces)


def corpus(seed: int = 21) -> list[str]:
    rng = random.Random(seed)
    rendered = [_sequent(rng, lambda: _formula(rng, _rendered)) for _ in range(PER_GROUP)]
    printed = []
    for i in range(PER_GROUP):
        text = _formula(rng, print_formula) if i % 2 else _sequent(rng, lambda: _formula(rng, print_formula))
        printed.append(_spaced(rng, _PIECES.findall(text)))
    surface = [
        _surface(rng, 4) if i % 2 else _sequent(rng, lambda: _surface(rng, 3)) for i in range(PER_GROUP)
    ]
    bases = rendered + printed + surface
    mutants = [_mutated(rng, rng.choice(bases)) for _ in range(PER_GROUP)]
    return list(dict.fromkeys(bases + mutants))


def _error(e: Exception) -> list:
    return ["error", type(e).__name__, str(e), getattr(e, "offset", None), list(getattr(e, "expected", ()))]


def outcomes(text: str) -> dict:
    out = {}
    try:
        f = PARSER.parse(text)
        out["formula"] = [f.key, print_formula(f)]
    except Exception as e:
        out["formula"] = _error(e)
    try:
        s = PARSER.parse_sequent(text)
        out["sequent"] = [[h.key for h in s.hyps], s.concl.key, s.text()]
    except Exception as e:
        out["sequent"] = _error(e)
    try:
        f, end = PARSER.parse_prefix(text)
        out["prefix"] = [f.key, print_formula(f), end]
    except Exception as e:
        out["prefix"] = _error(e)
    return out


def _capture():
    lines = [f"{json.dumps(text)}: {json.dumps(outcomes(text), sort_keys=True)}" for text in corpus()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


# ---------------------------------------------------------------------------

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_holds_the_corpus():
    # the generator still makes the pinned inputs, so regenerating keeps them
    assert list(GOLDEN) == corpus()
    assert len(GOLDEN) > 2700


def test_golden_corpus_reaches_every_path():
    """Every kind of outcome is pinned somewhere, so a path the corpus
    never takes cannot hide a change."""
    results = [o[way] for o in GOLDEN.values() for way in ("formula", "sequent", "prefix")]
    errors = " ".join(r[2] for r in results if r[0] == "error")
    keys = " ".join(r[0] if isinstance(r[0], str) else r[1] for r in results if r[0] != "error")
    for part in ("@t/1(", "@u/2(", "vHOLE", "E(", "A("):
        assert part in keys, part
    for part in ("expects 2 arguments", "expects 1 arguments", "unknown connective",
                 "trailing input", "expected one of: rpar", "expected one of: turnstile",
                 "expected one of: dot", "expected one of: ident"):
        assert part in errors, part
    for char in "<-|1é,.":
        assert f"unexpected character {char!r}" in errors or f"unexpected {char!r}" in errors, char


@pytest.mark.parametrize("way", ["formula", "sequent", "prefix"])
def test_parser_outcomes(way):
    changed = [text for text, want in GOLDEN.items() if outcomes(text)[way] != want[way]]
    assert not changed, changed[:5]


if __name__ == "__main__":
    _capture()
