import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pittslab.kernel import Sequent
from pittslab.parser import FormulaSyntaxError, Parser, parse_formula, parse_sequent
from pittslab.printer import print_formula
from pittslab.syntax import (
    And,
    App,
    BOT,
    ConnectiveSymbol,
    Exists,
    FormulaError,
    IDENT,
    Implies,
    Or,
    Signature,
    TOP,
    Variable,
    iff,
    neg,
    var,
)

X1, X2, P, Q, Y = var("X1"), var("X2"), var("P"), var("Q"), var("Y")


def test_parse_atoms():
    assert parse_formula("bot") == BOT
    assert parse_formula("top") == TOP
    assert parse_formula("P") == P


def test_parse_realizability_body():
    f = parse_formula("(~Y -> X1) /\\ (~~Y -> X2)")
    assert f == And(Implies(neg(Y), X1), Implies(neg(neg(Y)), X2))


def test_parse_kreisel_body():
    f = parse_formula("exists Y. P <-> (~Y \\/ ~~Y)")
    assert f == Exists(Variable("Y"), iff(P, Or(neg(Y), neg(neg(Y)))))


def test_precedence():
    assert parse_formula("~P /\\ Q") == And(neg(P), Q)
    assert parse_formula("P /\\ Q \\/ P") == Or(And(P, Q), P)
    assert parse_formula("P \\/ Q -> P") == Implies(Or(P, Q), P)
    assert parse_formula("P -> Q -> P") == Implies(P, Implies(Q, P))
    assert parse_formula("P -> Q <-> Q") == iff(Implies(P, Q), Q)


def test_parse_application_needs_signature():
    sig = Signature([ConnectiveSymbol("t", 2)])
    f = parse_formula("t(P, Q)", sig)
    assert isinstance(f, App)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("t(P, Q)")


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula("P -> ")
    assert e.value.offset == 5
    assert e.value.expected


_EXPECT_OPERAND = "(expected one of: (, bot, exists, forall, ident, top, ~)"
_OPERANDS = ("(", "bot", "exists", "forall", "ident", "top", "~")


@pytest.mark.parametrize("text, sequent, message, offset, expected", [
    pytest.param("P /\\ ", False, f"unexpected 'end of input' at offset 5 {_EXPECT_OPERAND}", 5, _OPERANDS,
                 id="binary-without-right"),
    pytest.param("P -> Q )", False, "trailing input ')' at offset 7 (expected one of: eof)", 7, ("eof",),
                 id="trailing"),
    pytest.param("~ -> P", False, f"unexpected '->' at offset 2 {_EXPECT_OPERAND}", 2, _OPERANDS,
                 id="prefix-without-operand"),
    pytest.param("exists . P", False, "unexpected '.' at offset 7 (expected one of: ident)", 7, ("ident",),
                 id="quantifier-without-variable"),
    pytest.param("forall X P", False, "unexpected 'P' at offset 9 (expected one of: dot)", 9, ("dot",),
                 id="quantifier-without-dot"),
    pytest.param("t(P, Q", False, "unexpected 'end of input' at offset 6 (expected one of: rpar)", 6,
                 ("rpar",), id="app-unclosed"),
    pytest.param("u(P)", False, "unknown connective 'u' at offset 0", 0, (), id="app-unknown"),
    pytest.param("P /\\ _", False, "hole '_' not allowed here at offset 5", 5, (), id="hole"),
    pytest.param("P <- Q", False, "unexpected character '<' at offset 2", 2, (), id="bad-character"),
    pytest.param("P, |- Q", True, f"unexpected '|-' at offset 3 {_EXPECT_OPERAND}", 3, _OPERANDS,
                 id="sequent-empty-hypothesis"),
    pytest.param("P Q |- R", True, "unexpected 'Q' at offset 2 (expected one of: turnstile)", 2,
                 ("turnstile",), id="sequent-without-turnstile"),
])
def test_syntax_error_pins(text, sequent, message, offset, expected):
    with pytest.raises(FormulaSyntaxError) as e:
        parse_sequent(text, _sig) if sequent else parse_formula(text, _sig)
    assert (str(e.value), e.value.offset, e.value.expected) == (message, offset, expected)


@pytest.mark.parametrize("text, message, offset, expected", [
    pytest.param("P -> -> é", "unexpected character 'é' at offset 8", 8, (), id="after-a-grammar-error"),
    pytest.param("P |- Ω", "unexpected character 'Ω' at offset 5", 5, (), id="non-ascii-letter"),
    pytest.param("P\t/\\ Q |- 1Q", "unexpected character '1' at offset 10", 10, (), id="digit"),
    pytest.param("exists 1. P |- P", "unexpected character '1' at offset 7", 7, (), id="bound-digit"),
    pytest.param("P |- (Q", "unexpected 'end of input' at offset 7 (expected one of: rpar)", 7, ("rpar",),
                 id="unclosed"),
])
def test_characters_are_checked_before_the_grammar(text, message, offset, expected):
    with pytest.raises(FormulaSyntaxError) as e:
        parse_sequent(text)
    assert (str(e.value), e.value.offset, e.value.expected) == (message, offset, expected)


@pytest.mark.parametrize("text, offset", [("é", 0), ("Ω", 0), ("ª", 0), ("Pé", 1), ("Xé1", 1)])
def test_a_non_ascii_letter_is_never_an_identifier(text, offset):
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula(text)
    assert str(e.value) == f"unexpected character {text[offset]!r} at offset {offset}"


def test_deep_prefix_and_infix_chains_parse():
    n = 5000
    f, g = parse_formula("~" * n + "P"), P
    for _ in range(n):
        g = neg(g)
    assert f.size == 2 * n + 1 and f.key == g.key
    f, g = parse_formula(" -> ".join(["P"] * n)), P
    for _ in range(n - 1):
        g = Implies(P, g)
    assert f.size == 2 * n - 1 and f.key == g.key
    f, g = parse_formula(" /\\ ".join(["P"] * n)), P
    for _ in range(n - 1):
        g = And(g, P)
    assert f.size == 2 * n - 1 and f.key == g.key


def test_deep_parentheses_and_applications_parse():
    n = 5000
    assert parse_formula("(" * n + "P" + ")" * n) is parse_formula("P")
    f = parse_formula("t(" * n + "(P)" + ")" * n, _sig)
    for _ in range(n):
        assert isinstance(f, App) and f.symbol.name == "t"
        (f,) = f.args
    assert f == P
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula("t(" * n + "P" + ")" * (n - 1), _sig)
    assert str(e.value) == f"unexpected 'end of input' at offset {3 * n} (expected one of: rpar)"


def test_every_parse_of_an_atom_is_one_object():
    s = parse_sequent("P, P -> Q |- Q /\\ (P)")
    assert s.hyps[0] is s.hyps[1].left is s.concl.right is parse_formula("P")


def test_biconditional_chain_past_the_node_limit_is_rejected():
    # each <-> copies both operands: 40 links would expand to about 2^40 nodes
    with pytest.raises(FormulaSyntaxError, match="'<->' expands past 1000000 nodes"):
        parse_formula(" <-> ".join(["P"] * 40))
    assert parse_formula(" <-> ".join(["P"] * 12)).size < 10**5


def test_parse_sequents():
    s = parse_sequent("P, P -> Q |- Q")
    assert list(s.hyps) == [P, Implies(P, Q)]
    assert s.concl == Q
    assert parse_sequent("P |-").concl == BOT
    assert parse_sequent("|- P").hyps == ()


def test_print_refolds_abbreviations():
    assert print_formula(And(var("A"), var("B"))) == "A /\\ B"
    assert print_formula(Implies(Implies(P, BOT), BOT)) == "~~P"
    assert print_formula(Implies(BOT, BOT)) == "top"
    assert print_formula(iff(P, Q)) == "P <-> Q"
    f = And(Implies(neg(X1), X2), Implies(neg(X2), X1))
    assert print_formula(f) == "(~X1 -> X2) /\\ (~X2 -> X1)"


_PINNED_SIG = Signature([ConnectiveSymbol("c", 0), ConnectiveSymbol("t", 2)])


@pytest.mark.parametrize("text, printed", [
    ("top", "top"),
    ("~top", "~top"),
    ("~bot", "top"),
    ("~~bot", "~top"),
    ("top -> P", "top -> P"),
    ("(bot -> bot) /\\ (bot -> bot)", "bot <-> bot"),
    ("~(P <-> Q)", "~(P <-> Q)"),
    ("exists X. ~X", "exists X. ~X"),
    ("~(exists X. X)", "~(exists X. X)"),
    ("c()", "c()"),
    ("~t(P, Q)", "~t(P, Q)"),
])
def test_print_pins(text, printed):
    f = parse_formula(text, _PINNED_SIG)
    assert print_formula(f) == printed
    assert parse_formula(printed, _PINNED_SIG) == f


_names = st.sampled_from(["P", "Q", "R", "X", "Y"])
_sig = Signature([ConnectiveSymbol("t", 1), ConnectiveSymbol("s", 2)])


def _formulas():
    leaves = st.one_of(st.just(BOT), _names.map(var))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: And(*ab)),
            st.tuples(children, children).map(lambda ab: Or(*ab)),
            st.tuples(children, children).map(lambda ab: Implies(*ab)),
            st.tuples(_names, children).map(lambda nb: Exists(Variable(nb[0]), nb[1])),
            st.tuples(_names, children).map(lambda nb: _Forall(nb)),
            children.map(lambda a: App(_sig.get("t"), (a,))),
            st.tuples(children, children).map(lambda ab: App(_sig.get("s"), ab)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _Forall(nb):
    from pittslab.syntax import Forall

    return Forall(Variable(nb[0]), nb[1])


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_roundtrip_parse_print(f):
    assert parse_formula(print_formula(f), _sig) == f


# The tokens of a text: identifiers, `|-`, the infix symbols, and any other
# non-space character alone.
_TOKEN = re.compile(r"%s|\|-|<->|->|\\/|/\\|\S" % IDENT)
_spaces = st.text(" \t\n\r\x0b\x0c\u00a0\u2003\u3000", min_size=1, max_size=3)


def _respaced(text, data):
    """text's tokens, with a drawn whitespace run before, between and after them."""
    pieces = [data.draw(_spaces)]
    for token in _TOKEN.findall(text):
        pieces += [token, data.draw(_spaces)]
    return "".join(pieces)


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.data())
def test_whitespace_between_tokens_leaves_the_formula(f, data):
    assert parse_formula(_respaced(print_formula(f), data), _sig).key == f.key


@settings(max_examples=100, deadline=None)
@given(st.lists(_formulas(), max_size=3), _formulas(), st.data())
def test_whitespace_between_tokens_leaves_the_sequent(hyps, concl, data):
    s = parse_sequent(_respaced(Sequent(tuple(hyps), concl).text(), data), _sig)
    assert [h.key for h in s.hyps] == [h.key for h in hyps] and s.concl.key == concl.key


# Texts whose first token ends a formula read by `parse_prefix`, and the end
# of input; none opens an application.
_TAILS = ("", "Q", "~P", "bot -> Q", "exists X. X", "t(P) Q", "|- P", ", R", ") P")


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.text(" \t\n", min_size=1, max_size=5), st.sampled_from(_TAILS), st.data())
def test_parse_prefix_ends_where_the_tail_starts(f, ws, tail, data):
    text = _respaced(print_formula(f), data) + ws
    g, end = Parser(_sig).parse_prefix(text + tail)
    assert (g.key, end) == (f.key, len(text))


_NOISE = ("P", "Q", "X", "t", "u", "bot", "top", "exists", "forall", " ", "\t", "\u00a0", "(", ")",
          "~", "/\\", "\\/", "->", "<->", "|-", "<", "-", "|", ".", ",", "_", "'", "é", "1")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_NOISE), max_size=12).map("".join), st.booleans())
def test_error_offsets_start_a_token(text, hole):
    starts = {m.start() for m in _TOKEN.finditer(text)} | {len(text)}
    parser = Parser(_sig, Variable("H") if hole else None)
    for parse in (parser.parse, parser.parse_sequent, parser.parse_prefix):
        try:
            parse(text)
        except FormulaSyntaxError as e:
            assert e.offset in starts, (parse.__name__, str(e))
        except FormulaError:
            pass  # an application of the wrong arity, which has no offset


def test_parser_never_crashes_on_noise():
    rng = random.Random(12)
    alphabet = "PQXY ()~/\\->.<b ot,exists foral_'"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            parse_formula(text)
        except FormulaSyntaxError:
            pass


def _random_application(rng, symbols, depth):
    """A seeded formula over P, Q and bot whose nodes include applications of
    every arity in `symbols`."""
    if depth == 0:
        return rng.choice([BOT, P, Q, App(symbols[0], ())])
    sub = [_random_application(rng, symbols, depth - 1) for _ in range(2)]
    kind = rng.randrange(5)
    if kind == 0:
        sym = rng.choice(symbols)
        return App(sym, sub[:sym.arity])
    if kind == 1:
        return Exists(Variable(rng.choice("PQ")), sub[0])
    return (And, Or, Implies)[kind - 2](*sub)


def test_nullary_applications_round_trip():
    # `c()` writes the nullary connective c; a bare `c` stays an atom
    symbols = (ConnectiveSymbol("c", 0), ConnectiveSymbol("t", 1), ConnectiveSymbol("s", 2))
    sig = Signature(list(symbols))
    rng = random.Random(29)
    for _ in range(300):
        f = _random_application(rng, symbols, rng.randint(0, 4))
        assert parse_formula(print_formula(f), sig) == f
    assert parse_formula("c() -> c", sig) == Implies(App(symbols[0], ()), var("c"))
    with pytest.raises(FormulaSyntaxError, match=re.escape("unexpected ')' at offset 2")):
        parse_formula("t()", sig)
    with pytest.raises(FormulaError, match="c expects 0 arguments, got 1"):
        parse_formula("c(P)", sig)
