"""Textual serialization of proof trees.

S-expression format, one node per parenthesized group:

    (<rule> "<sequent>" ["<extra>"] <child>*)

`_DATUM` names the one extra string each rule may carry, the only data the
kernel reads: the cut formula, the exR / allL witness, the allR / exL
eigenvariable, or `<name> {X := ...}` for schema.  A subtree's closing `)`s
end its last line.  Both directions walk the tree over an explicit stack.
"""
from __future__ import annotations

import re

from .kernel import RULES, ProofTree
from .parser import MalformedScript, Parser
from .printer import print_formula
from .syntax import Formula, Signature, Variable

_DATUM = {"cut": Formula, "exR": Formula, "allL": Formula,
          "allR": Variable, "exL": Variable, "schema": tuple}
_TOKEN = re.compile(r'\s*(\(|\)|"(?:[^"\\]|\\.)*"|[^\s()"]+)')


def _tokens(text: str):
    pos = 0
    out = []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise MalformedScript(f"bad tree syntax at offset {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _token(tokens: list[str], i: int) -> str:
    if i >= len(tokens):
        raise MalformedScript("tree ends before its closing ')'")
    return tokens[i]


def _node(tokens: list[str], i: int, parser: Parser):
    """Rule, sequent and extra data of the node opening at token i, and the
    index of the token after them."""
    if _token(tokens, i) != "(":
        raise MalformedScript(f"expected '(' at token {i}")
    i += 1
    rule = _token(tokens, i)
    if rule not in RULES:
        raise MalformedScript(f"unknown rule {rule!r}")
    i += 1
    quoted = _token(tokens, i)
    if not (quoted.startswith('"') and quoted.endswith('"')):
        raise MalformedScript(f"expected quoted sequent after rule {rule!r}")
    seq = parser.parse_sequent(quoted[1:-1])
    i += 1
    data = None
    kind = _DATUM.get(rule)
    if kind is not None and _token(tokens, i).startswith('"'):
        raw = tokens[i][1:-1]
        i += 1
        data = (parser.parse(raw) if kind is Formula else Variable(raw) if kind is Variable
                else parser.schema_reference(raw))
    return rule, seq, data, i


def parse_tree(text: str, signature: Signature | None = None) -> ProofTree:
    parser = Parser(signature or Signature())
    tokens = _tokens(text)
    open_nodes = []  # (rule, sequent, data, premises so far) of each unclosed node
    i = 0
    while True:
        rule, seq, data, i = _node(tokens, i, parser)
        open_nodes.append((rule, seq, data, []))
        while _token(tokens, i) == ")":
            i += 1
            rule, seq, data, premises = open_nodes.pop()
            tree = ProofTree(rule, seq, tuple(premises), data)
            if not open_nodes:
                if i != len(tokens):
                    raise MalformedScript("trailing input after tree")
                return tree
            open_nodes[-1][3].append(tree)


def print_tree(tree: ProofTree) -> str:
    """One preorder loop: each node's line is written once, with the closing
    ')'s of the subtrees it ends, and each distinct formula printed once."""
    texts: dict[str, str] = {}
    lines = []
    todo = [(tree, "", ")")]  # node, indent, the ')'s owed once its subtree is written
    while todo:
        node, indent, close = todo.pop()
        seq = node.conclusion
        shown = []
        for f in (*seq.hyps, seq.concl):
            text = texts.get(f.key)
            if text is None or f.has_quantifier:  # alpha-variants share a key, not a text
                text = texts[f.key] = print_formula(f)
            shown.append(text)
        concl = shown.pop()
        line = f'{indent}({node.rule} "{", ".join(shown) + " " if shown else ""}|- {concl}"'
        data = node.data
        if data is not None and isinstance(data, _DATUM.get(node.rule, ())):
            if isinstance(data, tuple):
                name, bindings = data
                inner = ", ".join(f"{v.name} := {f}" for v, f in sorted(bindings.items()))
                data = f"{name} {{{inner}}}"
            line += f' "{data}"'
        premises = node.premises
        if premises:
            deeper = indent + "  "
            todo.append((premises[-1], deeper, close + ")"))
            for p in premises[-2::-1]:
                todo.append((p, deeper, ")"))
        else:
            line += close
        lines.append(line)
    return "\n".join(lines)
