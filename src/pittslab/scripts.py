"""Line-based proof scripts and their checker.

File format, one step per line:  `<n> | <sequent> | <justification>`
with justifications

    ipc                                   quantifier-free fact, decided by the
                                          prover after replacing each maximal
                                          uninterpreted subterm by a shared
                                          fresh atom
    ax-schema <name> {X := f, ...}        axiom-schema instance
    cut <i> <j> [<k> ...]                 chain of cuts against earlier lines,
                                          both orientations tried
    rule <name> <i> [<j> ...]             one kernel rule application
    ext <context> <p> <p'>                extensionality line, discharged by a
                                          generated kernel tree (`_` marks the
                                          hole in the context)
    subst <i> {X := f, ...}               substitution instance of a line
    ref <script>:<line>                   claim of a previously checked script

A line is accepted when a sequent its justification derives
(`derived_sequents`) has the line's conclusion and, taken as a set, only
hypotheses of the line: the kernel's weakening and contraction close the gap.

Exit-status convention for the CLI: 0 accepted, 1 rejected, 2 malformed.
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Callable
from dataclasses import dataclass

from .kernel import (
    KernelError,
    SchemaTheory,
    Sequent,
    check_rule,
    check_tree,
    merge_keys,
)
from .parser import FormulaSyntaxError, MalformedScript, Parser, ScriptError
from .prover import decide, derive_extensionality
from .syntax import (
    And,
    App,
    ConnectiveSymbol,
    Exists,
    Forall,
    Formula,
    FormulaError,
    IDENT,
    Implies,
    Or,
    Signature,
    Var,
    Variable,
    fresh_variable,
)


class LineFailed(ScriptError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


@dataclass(frozen=True)
class Justification:
    kind: str
    lines: tuple[int, ...] = ()
    name: str = ""
    bindings: tuple = ()
    formulas: tuple = ()
    ref: tuple[str, int] | None = None


@dataclass(frozen=True)
class ScriptLine:
    number: int
    sequent: Sequent
    justification: Justification


@dataclass
class ProofScript:
    name: str
    theory: SchemaTheory
    lines: tuple[ScriptLine, ...]

    def sequent(self, number: int) -> Sequent:
        for line in self.lines:
            if line.number == number:
                return line.sequent
        raise KeyError(number)


@dataclass
class ScriptReport:
    failure: tuple[int, str] | None = None  # (line number, reason) of the first rejected line

    @property
    def ok(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# Parsing.

def _line_number(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedScript(f"expected a line number, got {token!r}") from None


def parse_justification(text: str, theory: SchemaTheory) -> Justification:
    text = text.strip()
    parser = Parser(theory.signature)
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "ipc":
        if rest:
            raise MalformedScript("ipc takes no arguments")
        return Justification("ipc")
    if head == "ax-schema":
        name, bindings = parser.schema_reference(rest)
        return Justification(
            "ax-schema", name=name.strip(), bindings=tuple(sorted(bindings.items()))
        )
    if head == "cut":
        nums = tuple(_line_number(tok) for tok in rest.split())
        if len(nums) < 2:
            raise MalformedScript("cut needs at least two cited lines")
        return Justification("cut", lines=nums)
    if head == "rule":
        name, _, tail = rest.partition(" ")
        nums = tuple(_line_number(tok) for tok in tail.split())
        return Justification("rule", name=name.strip(), lines=nums)
    if head == "ext":
        # the hole is a variable named by no identifier of the arguments
        hole = fresh_variable(Variable("HOLE"), set(map(Variable, re.findall(IDENT, rest))))
        ctx, off = Parser(theory.signature, hole).parse_prefix(rest)
        p, off2 = parser.parse_prefix(rest[off:])
        p2, off3 = parser.parse_prefix(rest[off:][off2:])
        trailing = rest[off:][off2:][off3:].strip()
        if trailing:
            raise MalformedScript(f"trailing input after ext arguments: {trailing!r}")
        return Justification("ext", name=hole.name, formulas=(ctx, p, p2))
    if head == "subst":
        num, _, brace = rest.partition(" ")
        bindings = parser.bindings(brace)
        return Justification(
            "subst", lines=(_line_number(num),), bindings=tuple(sorted(bindings.items()))
        )
    if head == "ref":
        script, _, claim = rest.rpartition(":")
        if not script:
            raise MalformedScript(f"bad reference {rest!r}")
        return Justification("ref", ref=(script.strip(), _line_number(claim)))
    raise MalformedScript(f"unknown justification {head!r}")


def parse_script(text: str, theory: SchemaTheory, name: str = "") -> ProofScript:
    parser = Parser(theory.signature)
    lines: list[ScriptLine] = []
    last = 0
    for raw in text.splitlines():
        content = raw.split("#", 1)[0].rstrip()
        if not content.strip():
            continue
        fields = content.split(" | ")
        if len(fields) != 3:
            raise MalformedScript(f"expected '<n> | <sequent> | <justification>': {raw!r}")
        number = _line_number(fields[0].strip())
        if number <= last:
            raise MalformedScript(f"line numbers must increase strictly at {number}")
        last = number
        try:
            seq = parser.parse_sequent(fields[1].strip())
            just = parse_justification(fields[2], theory)
        except (FormulaSyntaxError, FormulaError, ScriptError) as e:
            raise MalformedScript(f"line {number}: {e}") from None
        for cited in just.lines:
            if cited >= number:
                raise MalformedScript(f"line {number} cites a later line {cited}")
        lines.append(ScriptLine(number, seq, just))
    return ProofScript(name, theory, tuple(lines))


def parse_theory(text: str, name: str = "") -> SchemaTheory:
    sig = Signature()
    schemas: list[tuple[str, str]] = []
    for raw in text.splitlines():
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if content.startswith("connective "):
            try:
                _, cname, arity = content.split()
                arity = int(arity)
            except ValueError:
                raise MalformedScript(f"bad connective line {raw!r}") from None
            sig.add(ConnectiveSymbol(cname, arity))
        elif content.startswith("schema "):
            head, _, body = content.partition(":")
            label = head[len("schema "):].strip()
            schemas.append((label, body.strip()))
        else:
            raise MalformedScript(f"unknown theory directive {raw!r}")
    theory = SchemaTheory(name, sig)
    parser = Parser(sig)
    for label, body in schemas:
        template = parser.parse_sequent(body)
        for v in sorted(template.free_vars()):  # a bare connective name parses as a variable
            if (sym := sig.get(v.name)) is not None:
                raise MalformedScript(f"schema {label}: {v.name} is a connective, not a "
                                      f"metavariable; write {v.name}({'...' if sym.arity else ''})")
        theory.add_schema(label, template)
    return theory


# ---------------------------------------------------------------------------
# Checking.

def atomize(seq: Sequent) -> Sequent:
    """Replace each maximal uninterpreted subterm by a fresh shared atom."""
    mapping: dict[str, Formula] = {}
    taken = seq.free_vars()
    fresh = (v for v in (Variable(f"u{i}") for i in itertools.count()) if v not in taken)

    def walk(f: Formula) -> Formula:
        if isinstance(f, App):
            if f.key not in mapping:
                mapping[f.key] = Var(next(fresh))
            return mapping[f.key]
        if not f.has_app:
            return f
        if isinstance(f, (And, Or, Implies)):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, (Exists, Forall)):
            return type(f)(f.var, walk(f.body))
        return f

    return Sequent(tuple(walk(h) for h in seq.hyps), walk(seq.concl))


def _cut_candidates(a: Sequent, b: Sequent) -> list[Sequent]:
    out = []
    for first, second in ((a, b), (b, a)):
        merged = merge_keys(first.hyp_keys, second.hyp_keys, first.concl.key)
        if merged is not None:
            both = Sequent(first.hyps + second.hyps, second.concl)
            out.append(Sequent(tuple(map(both.hyp, merged)), second.concl))
    return out


def derived_sequents(
    line: ScriptLine,
    script: ProofScript,
    checked: dict[int, Sequent],
    registry: dict[str, ProofScript] | None,
) -> tuple[list[Sequent], Callable[[], str]]:
    """The sequents the line's justification derives, and a function giving
    the reason to report if none covers the line (built only on rejection).
    `ipc` and `rule` check and derive the line itself; a justification that
    derives nothing raises LineFailed."""
    j = line.justification
    seq = line.sequent

    def cited(n: int) -> Sequent:
        if n not in checked:
            raise LineFailed(line.number, f"cites unchecked line {n}")
        return checked[n]

    if j.kind == "ipc":
        flat = atomize(seq)
        if any(f.has_quantifier for f in flat.hyps + (flat.concl,)):
            raise LineFailed(line.number, "ipc lines must be quantifier-free")
        if not decide(flat):
            raise LineFailed(line.number, f"not an intuitionistic consequence: {flat}")
        return [seq], lambda: ""

    if j.kind == "ax-schema":
        if j.name not in script.theory.schemas:
            raise LineFailed(line.number, f"unknown axiom schema {j.name!r}")
        inst = script.theory.instantiate(j.name, dict(j.bindings))
        return [inst], lambda: f"not an instance of schema {j.name!r}: wanted {inst}"

    if j.kind == "cut":
        frontier = [cited(j.lines[0])]
        for n in j.lines[1:]:
            nxt = cited(n)
            frontier = [c for s in frontier for c in _cut_candidates(s, nxt)]
            if not frontier:
                raise LineFailed(line.number, f"no cut applies against line {n}")
        return frontier, lambda: "cut chain does not yield this sequent"

    if j.kind == "rule":
        prems = tuple(cited(n) for n in j.lines)
        if j.name == "cut":
            raise LineFailed(line.number, "use the dedicated cut justification")
        try:
            check_rule(j.name, seq, prems, None, script.theory, path=(line.number,))
        except KernelError as e:
            raise LineFailed(line.number, str(e)) from None
        return [seq], lambda: ""

    if j.kind == "ext":
        ctx, p, p2 = j.formulas
        try:
            tree = derive_extensionality(ctx, Variable(j.name), p, p2)
        except KernelError as e:
            raise LineFailed(line.number, str(e)) from None
        rep = check_tree(tree, script.theory)
        if not rep.ok:
            raise LineFailed(line.number, f"generated extensionality tree failed: {rep.message}")
        return [tree.conclusion], lambda: f"extensionality tree concludes {tree.conclusion}"

    if j.kind == "subst":
        inst = cited(j.lines[0]).substitute(dict(j.bindings))
        return [inst], lambda: f"not the substitution instance {inst}"

    # ref, the one kind left that parse_justification admits
    if registry is None:
        raise LineFailed(line.number, "no script registry supplied")
    sname, claim = j.ref
    other = registry.get(sname)
    if other is None:
        raise LineFailed(line.number, f"unknown script {sname!r}")
    if not script.theory.extends(other.theory):
        raise LineFailed(line.number, f"theory does not extend that of {sname!r}")
    try:
        target = other.sequent(claim)
    except KeyError:
        raise LineFailed(line.number, f"no line {claim} in {sname!r}") from None
    return [target], lambda: f"cited claim is {target}"


def check_line(
    line: ScriptLine,
    script: ProofScript,
    checked: dict[int, Sequent],
    registry: dict[str, ProofScript] | None,
) -> None:
    """Raise LineFailed unless a sequent the line's justification derives
    covers the line (see the module docstring)."""
    derived, reason = derived_sequents(line, script, checked, registry)
    hyps = set(line.sequent.hyps)
    if not any(d.concl == line.sequent.concl and hyps.issuperset(d.hyps) for d in derived):
        raise LineFailed(line.number, reason())


def check_script(
    script: ProofScript, registry: dict[str, ProofScript] | None = None
) -> ScriptReport:
    """Validate every line; the report pinpoints the first failure."""
    checked: dict[int, Sequent] = {}
    for line in script.lines:
        try:
            check_line(line, script, checked, registry)
        except LineFailed as e:
            return ScriptReport((e.line_no, e.reason))
        checked[line.number] = line.sequent
    return ScriptReport()
