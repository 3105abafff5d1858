"""Line-based proof scripts and their checker.

File format, one step per line:  `<n> | <sequent> | <justification>`
with justifications

    ipc                                   quantifier-free fact, decided by the
                                          prover after replacing each maximal
                                          uninterpreted subterm by a shared
                                          fresh atom
    ax-schema <name> {X := f, ...}        axiom-schema instance (weakening ok)
    cut <i> <j> [<k> ...]                 chain of cuts against earlier lines,
                                          both orientations tried, final
                                          contraction/weakening allowed
    rule <name> <i> [<j> ...]             one kernel rule application
    ext <context> <p> <p'>                extensionality line, discharged by a
                                          generated kernel tree (`_` marks the
                                          hole in the context)
    subst <i> {X := f, ...}               substitution instance of a line
    ref <script>:<line>                   claim of a previously checked script

Exit-status convention for the CLI: 0 accepted, 1 rejected, 2 malformed.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .kernel import (
    KernelError,
    SchemaTheory,
    Sequent,
    _contains,
    check_rule,
    check_tree,
    derive_extensionality,
)
from .parser import FormulaSyntaxError, Parser
from .prover import decide
from .syntax import (
    And,
    App,
    ConnectiveSymbol,
    Exists,
    Forall,
    Formula,
    Implies,
    Or,
    Signature,
    Var,
    Variable,
    fresh_variable,
    substitute,
)


class ScriptError(Exception):
    pass


class MalformedScript(ScriptError):
    pass


class UnknownJustification(ScriptError):
    pass


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
    name: str
    ok: bool
    lines_checked: int
    failure: tuple[int, str] | None = None


# ---------------------------------------------------------------------------
# Parsing.

_BINDING_RE = re.compile(r"^\{(.*)\}$", re.S)


def _split_top_commas(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_bindings(text: str, parser: Parser) -> dict[Variable, Formula]:
    m = _BINDING_RE.match(text.strip())
    if not m:
        raise MalformedScript(f"expected {{X := ...}} bindings, got {text!r}")
    inner = m.group(1).strip()
    out: dict[Variable, Formula] = {}
    if not inner:
        return out
    for part in _split_top_commas(inner):
        if ":=" not in part:
            raise MalformedScript(f"bad binding {part!r}")
        name, rhs = part.split(":=", 1)
        out[Variable(name.strip())] = parser.parse(rhs.strip())
    return out


def _line_number(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedScript(f"expected a line number, got {token!r}") from None


def parse_justification(text: str, theory: SchemaTheory) -> Justification:
    text = text.strip()
    parser = Parser(theory.signature)
    hole_parser = Parser(theory.signature, allow_hole=True)
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "ipc":
        if rest:
            raise MalformedScript("ipc takes no arguments")
        return Justification("ipc")
    if head == "ax-schema":
        name, _, brace = rest.partition(" ")
        bindings = _parse_bindings(brace or "{}", parser)
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
        ctx, off = hole_parser.parse_prefix(rest)
        p, off2 = parser.parse_prefix(rest[off:])
        p2, off3 = parser.parse_prefix(rest[off:][off2:])
        trailing = rest[off:][off2:][off3:].strip()
        if trailing:
            raise MalformedScript(f"trailing input after ext arguments: {trailing!r}")
        return Justification("ext", formulas=(ctx, p, p2))
    if head == "subst":
        num, _, brace = rest.partition(" ")
        bindings = _parse_bindings(brace, parser)
        return Justification(
            "subst", lines=(_line_number(num),), bindings=tuple(sorted(bindings.items()))
        )
    if head == "ref":
        script, _, claim = rest.rpartition(":")
        if not script:
            raise MalformedScript(f"bad reference {rest!r}")
        return Justification("ref", ref=(script.strip(), _line_number(claim)))
    raise UnknownJustification(f"unknown justification {head!r}")


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
        except FormulaSyntaxError as e:
            raise MalformedScript(f"line {number}: {e}") from None
        just = parse_justification(fields[2], theory)
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
        theory.add_schema(label, parser.parse_sequent(body))
    return theory


# ---------------------------------------------------------------------------
# Checking.

def atomize(seq: Sequent) -> Sequent:
    """Replace each maximal uninterpreted subterm by a fresh shared atom."""
    mapping: dict[str, Formula] = {}
    taken = set(seq.free_vars())
    counter = [0]

    def fresh() -> Variable:
        while True:
            cand = Variable(f"u{counter[0]}")
            counter[0] += 1
            if cand not in taken:
                taken.add(cand)
                return cand

    def walk(f: Formula) -> Formula:
        if isinstance(f, App):
            got = mapping.get(f.key)
            if got is None:
                got = Var(fresh())
                mapping[f.key] = got
            return got
        if not f.has_app:
            return f
        if isinstance(f, (And, Or, Implies)):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, (Exists, Forall)):
            return type(f)(f.var, walk(f.body))
        return f

    return Sequent(tuple(walk(h) for h in seq.hyps), walk(seq.concl))


def _weakened_match(target: Sequent, derived: Sequent) -> bool:
    """`target` follows from `derived` by weakening plus contraction."""
    if target.concl != derived.concl:
        return False
    tset = set(target.multiset)
    return all(f in tset for f in derived.multiset)


def _cut_candidates(a: Sequent, b: Sequent) -> list[Sequent]:
    out = []
    for first, second in ((a, b), (b, a)):
        if second.multiset[first.concl] >= 1:
            merged = first.multiset + second.multiset
            merged[first.concl] -= 1
            hyps = tuple(f for f, n in sorted(merged.items(), key=lambda kv: kv[0].key) for _ in range(n))
            out.append(Sequent(hyps, second.concl))
    return out


_HOLE = Variable("HOLE")


def check_line(
    line: ScriptLine,
    script: ProofScript,
    checked: dict[int, Sequent],
    registry: dict[str, ProofScript] | None,
) -> None:
    """Raise LineFailed unless the line is justified."""
    j = line.justification
    seq = line.sequent

    def cited(n: int) -> Sequent:
        if n not in checked:
            raise LineFailed(line.number, f"cites unchecked line {n}")
        return checked[n]

    if j.kind == "ipc":
        flat = atomize(seq)
        for f in flat.hyps + (flat.concl,):
            if f.has_quantifier:
                raise LineFailed(line.number, "ipc lines must be quantifier-free")
        if not decide(flat):
            raise LineFailed(line.number, f"not an intuitionistic consequence: {flat}")
        return

    if j.kind == "ax-schema":
        if j.name not in script.theory.schemas:
            raise LineFailed(line.number, f"unknown axiom schema {j.name!r}")
        inst = script.theory.instantiate(j.name, dict(j.bindings))
        if seq.concl != inst.concl or not _contains(seq.multiset, inst.multiset):
            raise LineFailed(
                line.number, f"not an instance of schema {j.name!r}: wanted {inst}"
            )
        return

    if j.kind == "cut":
        frontier = [cited(j.lines[0])]
        for n in j.lines[1:]:
            nxt = cited(n)
            frontier = [c for s in frontier for c in _cut_candidates(s, nxt)]
            if not frontier:
                raise LineFailed(line.number, f"no cut applies against line {n}")
        if not any(_weakened_match(seq, c) for c in frontier):
            raise LineFailed(line.number, "cut chain does not yield this sequent")
        return

    if j.kind == "rule":
        prems = tuple(cited(n) for n in j.lines)
        if j.name == "cut":
            raise LineFailed(line.number, "use the dedicated cut justification")
        try:
            check_rule(j.name, seq, prems, None, script.theory, path=(line.number,))
        except KernelError as e:
            raise LineFailed(line.number, str(e)) from None
        return

    if j.kind == "ext":
        ctx, p, p2 = j.formulas
        hole = _HOLE
        if hole in (p.free_vars | p2.free_vars):
            fresh = fresh_variable(hole, p.free_vars | p2.free_vars | ctx.free_vars)
            ctx = substitute(ctx, {hole: Var(fresh)})
            hole = fresh
        left = substitute(ctx, {hole: p})
        right = substitute(ctx, {hole: p2})
        need = (Implies(p, p2), Implies(p2, p), left)
        if seq.concl != right or not _contains(seq.multiset, Counter(need)):
            raise LineFailed(
                line.number,
                f"extensionality line must contain {need[0]}, {need[1]}, {need[2]} and conclude {right}",
            )
        tree = derive_extensionality(ctx, hole, p, p2, allow_app=True)
        rep = check_tree(tree, script.theory)
        if not rep.ok:
            raise LineFailed(line.number, f"generated extensionality tree failed: {rep.message}")
        return

    if j.kind == "subst":
        inst = cited(j.lines[0]).substitute(dict(j.bindings))
        if not _weakened_match(seq, inst):
            raise LineFailed(line.number, f"not the substitution instance {inst}")
        return

    if j.kind == "ref":
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
        if not _weakened_match(seq, target):
            raise LineFailed(line.number, f"cited claim is {target}")
        return

    raise UnknownJustification(j.kind)


def check_script(
    script: ProofScript, registry: dict[str, ProofScript] | None = None
) -> ScriptReport:
    """Validate every line; the report pinpoints the first failure."""
    checked: dict[int, Sequent] = {}
    for line in script.lines:
        try:
            check_line(line, script, checked, registry)
        except LineFailed as e:
            return ScriptReport(script.name, False, len(checked), (e.line_no, e.reason))
        checked[line.number] = line.sequent
    return ScriptReport(script.name, True, len(checked))
