import pytest
from hypothesis import given, settings, strategies as st

from pittslab.parser import FormulaSyntaxError, parse_formula, parse_sequent
from pittslab.printer import print_formula
from pittslab.syntax import (
    And,
    App,
    BOT,
    ConnectiveSymbol,
    Exists,
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


def test_parser_never_crashes_on_noise():
    import random

    rng = random.Random(12)
    alphabet = "PQXY ()~/\\->.<b ot,exists foral_'"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
        try:
            parse_formula(text)
        except FormulaSyntaxError:
            pass
