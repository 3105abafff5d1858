import pytest

from pittslab.syntax import (
    And,
    App,
    BOT,
    ConnectiveSymbol,
    Exists,
    Forall,
    Implies,
    Or,
    Signature,
    TOP,
    Var,
    Variable,
    iff,
    neg,
    require_plain,
    substitute,
    var,
)

X, Y, Z, T = var("X"), var("Y"), var("Z"), var("T")


def test_variable_equality_is_by_name():
    assert Variable("P") == Variable("P")
    assert Variable("P") != Variable("Q")


def test_bad_variable_names_rejected():
    from pittslab.syntax import FormulaError

    for bad in ["", "1x", "_x", "x y"]:
        with pytest.raises(FormulaError):
            Variable(bad)


def test_app_arity_checked():
    from pittslab.syntax import FormulaError

    t = ConnectiveSymbol("t", 2)
    App(t, (X, Y))
    with pytest.raises(FormulaError):
        App(t, (X,))


def test_substitute_identity():
    assert substitute(X, {Variable("X"): T}) == T


def test_substitute_capture_avoidance():
    # exists X. (X /\ Y) with Y := X forces the binder to be renamed
    f = Exists(Variable("X"), And(X, Y))
    g = substitute(f, {Variable("Y"): X})
    assert isinstance(g, Exists)
    assert g.var != Variable("X")
    assert g.body == And(Var(g.var), X)
    # and alpha-equality sees through the chosen name
    assert g == Exists(Variable("W"), And(var("W"), X))


def test_substitute_simultaneous():
    f = And(X, Y)
    g = substitute(f, {Variable("X"): Y, Variable("Y"): X})
    assert g == And(Y, X)


def test_substitution_composition():
    # f[X:=g][Y:=h] == f[X:=g[Y:=h], Y:=h] when X != Y and X not free in h
    f = Implies(X, And(Y, X))
    g = Or(Y, Z)
    h = Implies(Z, BOT)
    lhs = substitute(substitute(f, {Variable("X"): g}), {Variable("Y"): h})
    rhs = substitute(
        f, {Variable("X"): substitute(g, {Variable("Y"): h}), Variable("Y"): h}
    )
    assert lhs == rhs


def test_free_vars_after_substitution():
    f = Implies(X, Y)
    g = substitute(f, {Variable("X"): And(Z, Z)})
    assert g.free_vars == frozenset({Variable("Z"), Variable("Y")})


def test_alpha_equivalence_of_binders():
    f = Exists(Variable("X"), Implies(X, Y))
    g = Exists(Variable("Z"), Implies(Z, Y))
    assert f == g
    assert hash(f) == hash(g)
    assert f != Exists(Variable("X"), Implies(X, Z))


def test_derived_forms_expand():
    assert neg(X) == Implies(X, BOT)
    assert iff(X, Y) == And(Implies(X, Y), Implies(Y, X))
    assert TOP == Implies(BOT, BOT)


def test_signature_conflicts():
    from pittslab.syntax import FormulaError

    sig = Signature([ConnectiveSymbol("t", 2)])
    with pytest.raises(FormulaError):
        sig.add(ConnectiveSymbol("t", 1))


def test_substitution_into_connective_body_expands_instances():
    # substituting parameters into an existentially quantified body gives
    # exactly the instance formula of the applied connective
    X1, X2 = Variable("X1"), Variable("X2")
    body = And(Implies(neg(Y), Var(X1)), Implies(neg(neg(Y)), Var(X2)))
    quantified = Exists(Variable("Y"), body)
    phi1 = Or(X, Z)
    phi2 = neg(X)
    inst = substitute(quantified, {X1: phi1, X2: phi2})
    assert inst == Exists(
        Variable("Y"), And(Implies(neg(Y), phi1), Implies(neg(neg(Y)), phi2))
    )


def test_free_vars_equation_randomized():
    import random

    from pittslab.selftest import random_formula

    rng = random.Random(11)
    gvar = Variable("X")
    for _ in range(200):
        f = random_formula(rng, ["X", "Y", "Z"], rng.choice([1, 3, 5, 7]))
        g = random_formula(rng, ["Y", "W"], rng.choice([1, 3, 5]))
        out = substitute(f, {gvar: g})
        if gvar in f.free_vars:
            assert out.free_vars == (f.free_vars - {gvar}) | g.free_vars
        else:
            assert out.free_vars == f.free_vars


# Keys of quantified and App formulas as literals: memo lookups, rule-scan
# order and the golden files all rely on keys staying byte-identical.
_t, _u = ConnectiveSymbol("t", 2), ConnectiveSymbol("u", 1)
_vX, _vY, _vZ = Variable("X"), Variable("Y"), Variable("Z")


@pytest.mark.parametrize("formula, key", [
    pytest.param(Exists(_vX, Forall(_vY, Implies(X, Or(Y, Z)))), "E(A(>(#0,|(#1,vZ))))", id="nested"),
    pytest.param(Forall(_vX, And(X, Exists(_vX, Implies(X, Y)))), "A(&(#0,E(>(#1,vY))))",
                 id="shadowing"),
    pytest.param(Forall(_vZ, And(Z, Exists(_vX, Implies(X, Y)))), "A(&(#0,E(>(#1,vY))))",
                 id="alpha-variant"),
    pytest.param(Forall(_vZ, And(Z, Exists(_vY, Implies(Y, Y)))), "A(&(#0,E(>(#1,#1))))",
                 id="inner-binder-captures"),
    pytest.param(And(X, Exists(_vX, Forall(_vZ, Implies(Z, X)))), "&(vX,E(A(>(#1,#0))))",
                 id="free-and-bound"),
    pytest.param(Exists(_vY, App(_t, (Y, App(_u, (neg(X),))))), "E(@t/2(#0,@u/1(>(vX,F))))",
                 id="app-under-binder"),
    pytest.param(App(_t, (Forall(_vX, X), Exists(_vZ, Or(Z, BOT)))), "@t/2(A(#0),E(|(#0,F)))",
                 id="binders-under-app"),
])
def test_pinned_keys(formula, key):
    assert formula.key == key


def _reference_key(f, env=None, depth=0):
    """A formula's key by the definition: one recursive serialization with
    each bound variable replaced by its binder's nesting level."""
    env = env or {}
    if isinstance(f, Var):
        return f"#{env[f.var]}" if f.var in env else f.key
    if isinstance(f, (Exists, Forall)):
        return f"{f.tag}({_reference_key(f.body, {**env, f.var: depth}, depth + 1)})"
    if isinstance(f, App):
        inner = ",".join(_reference_key(a, env, depth) for a in f.args)
        return f"@{f.symbol.name}/{f.symbol.arity}({inner})"
    if isinstance(f, (And, Or, Implies)):
        return f"{f.tag}({_reference_key(f.left, env, depth)},{_reference_key(f.right, env, depth)})"
    return f.key


def _random_quantified(rng, size):
    # names that share prefixes with each other and with the symbols, so a
    # renumbering that matched part of a token would show
    names = ["X", "X1", "vX", "Y"]
    if size <= 1:
        return rng.choice([BOT] + [var(n) for n in names])
    kind = rng.randrange(5)
    if kind < 2:
        return rng.choice([Exists, Forall])(Variable(rng.choice(names)), _random_quantified(rng, size - 1))
    if kind == 2:
        sym = rng.choice([ConnectiveSymbol("vX", 1), ConnectiveSymbol("X", 1)])
        return App(sym, (_random_quantified(rng, size - 1),))
    left = rng.randrange(1, size - 1) if size > 2 else 1
    ctor = rng.choice([And, Or, Implies])
    return ctor(_random_quantified(rng, left), _random_quantified(rng, max(1, size - 1 - left)))


def test_quantifier_keys_match_the_definition():
    import random

    rng = random.Random(12)
    for _ in range(600):
        f = _random_quantified(rng, rng.randrange(1, 16))
        assert f.key == _reference_key(f), f


def test_deep_binder_chain_needs_no_recursion():
    x = Variable("X")
    f = Var(x)
    for _ in range(3000):
        f = Exists(x, f)
    # the innermost binder captures X, at nesting level 2999
    assert f.key == "E(" * 3000 + "#2999" + ")" * 3000
    assert f.free_vars == frozenset() and f.has_quantifier and f.size == 3001
    # two variables bound in turn, each used right under its binder
    g = var("P")
    for i in range(1000):
        g = Forall(Variable(f"X{i % 2}"), Implies(var(f"X{i % 2}"), g))
    assert g.key.startswith("A(>(#0,A(>(#1,A(>(#2,")
    assert g.key.endswith(">(#999,vP))" + "))" * 999)
    assert g.free_vars == {Variable("P")}


def test_deep_formula_attributes_need_no_recursion():
    f = X
    for _ in range(1500):
        f = neg(f)
    g = X
    for _ in range(1500):
        g = neg(g)
    assert f.size == 3001
    assert f.key.startswith(">(>(") and f.key == g.key
    assert not f.has_quantifier and not f.has_app
    assert hash(f) == hash(g) and f == g and f is not g
    require_plain(f)
    assert f.free_vars == {Variable("X")}
    # a long chain over four atoms, read halfway up and at the top
    h = X
    for i in range(3000):
        h = Implies(var(f"X{i % 3}"), h)
        if i == 1500:
            assert h.free_vars == {Variable("X"), Variable("X0"), Variable("X1"), Variable("X2")}
    assert h.free_vars == {Variable("X"), Variable("X0"), Variable("X1"), Variable("X2")}
    assert And(h, h).free_vars == h.free_vars


def _recount(f):
    """free_vars, size, has_quantifier and has_app by brute force: one walk
    over every occurrence, each with the variables its binders bind."""
    free, size, quantifier, app = set(), 0, False, False
    todo = [(f, frozenset())]
    while todo:
        g, bound = todo.pop()
        size += 1
        if isinstance(g, Var) and g.var not in bound:
            free.add(g.var)
        if isinstance(g, (Exists, Forall)):
            quantifier = True
            bound |= {g.var}
        app = app or isinstance(g, App)
        todo += [(c, bound) for c in g.children()]
    return frozenset(free), size, quantifier, app


def test_derived_facts_match_a_brute_force_recount():
    import random

    shadowing = [
        Exists(_vX, And(X, Forall(_vX, X))),  # exists X. (X /\ forall X. X)
        And(X, Exists(_vX, X)),
        Exists(_vX, Or(Y, Forall(_vY, App(_t, (X, Y))))),
        Forall(_vY, App(_u, (Exists(_vY, Implies(Y, Z)),))),
    ]
    rng = random.Random(26)
    formulas = shadowing + [_random_quantified(rng, rng.randrange(1, 20)) for _ in range(800)]
    for f in formulas:
        assert (f.free_vars, f.size, f.has_quantifier, f.has_app) == _recount(f), f
    assert shadowing[0].free_vars == frozenset() and shadowing[1].free_vars == {_vX}
    assert shadowing[2].free_vars == {_vY} and shadowing[3].free_vars == {_vZ}
    # a connective takes an operand's set when that set holds the other's
    assert And(X, X).free_vars is X.free_vars
    f = Implies(BOT, Or(X, Y))
    assert f.free_vars is f.right.free_vars


def test_nodes_are_immutable_and_have_no_dict():
    nodes = [X, BOT, And(X, Y), Or(X, Y), Implies(X, Y), Exists(_vX, X), Forall(_vY, X),
             App(_t, (X, Y))]
    for node in nodes:
        assert not hasattr(node, "__dict__"), type(node)
        names = [n for cls in type(node).__mro__ for n in getattr(cls, "__slots__", ())]
        for name in names + ["extra"]:
            before = getattr(node, name, None)
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
            assert getattr(node, name, None) is before


def _slots(record):
    return [n for cls in type(record).__mro__ for n in getattr(cls, "__slots__", ())]


def test_every_slot_of_every_record_is_written():
    # reading a slot that its constructor never wrote raises AttributeError
    from pittslab.kernel import ProofTree, Sequent

    seq = Sequent((X, And(X, Y)), Y)
    tree = ProofTree("wL", seq, (ProofTree("andL2", Sequent((And(X, Y),), Y)),))
    records = [X, BOT, And(X, Y), Or(X, Y), Implies(X, Y), Exists(_vX, X), Forall(_vY, X),
               App(_t, (X, Y)), App(ConnectiveSymbol("c", 0), ()), seq, tree]
    for record in records:
        for name in _slots(record):
            getattr(record, name)
    for record in (seq, tree):
        assert not hasattr(record, "__dict__"), type(record)
        for name in _slots(record) + ["extra"]:
            before = getattr(record, name, None)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name, None) is before
