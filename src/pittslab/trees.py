"""Textual serialization of proof trees.

S-expression format, one node per parenthesized group:

    (<rule> "<sequent>" ["<extra>"] <child>*)

The extra string is positional: the cut formula for `cut`, the witness for
`exR` / `allL`, and `<name> {X := ...}` for `schema`.  A subtree's closing
`)`s end its last line.  Both directions walk the tree over an explicit stack.
"""
from __future__ import annotations

import re

from .kernel import RULES, ProofTree
from .parser import Parser
from .printer import print_formula
from .scripts import MalformedScript, _parse_bindings
from .syntax import Formula, Signature

_TOKEN = re.compile(r'\s*(\(|\)|"(?:[^"\\]|\\.)*"|[^\s()"]+)')


def _tokens(text: str):
    pos = 0
    out = []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise MalformedScript(f"bad tree syntax at offset {pos}")
        tok = m.group(1)
        pos = m.end()
        out.append(tok)
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
    if rule in ("cut", "exR", "allL", "schema") and _token(tokens, i).startswith('"'):
        raw = tokens[i][1:-1]
        i += 1
        if rule == "schema":
            name, _, brace = raw.partition(" ")
            data = (name, dict(_parse_bindings(brace or "{}", parser)))
        else:
            data = parser.parse(raw)
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
    """One preorder pass: each node's line is written once, with the closing
    ')'s of the subtrees it ends, and each distinct formula printed once."""
    texts: dict[str, str] = {}

    def show(f: Formula) -> str:
        if f.has_quantifier or f.key not in texts:  # alpha-variants share a key, not a text
            texts[f.key] = print_formula(f)
        return texts[f.key]

    lines = []
    todo = [(tree, 0, 1)]  # node, depth, ')'s owed once its subtree is written
    while todo:
        node, depth, close = todo.pop()
        line = f'{"  " * depth}({node.rule} "{node.conclusion.text(show)}"'
        if isinstance(node.data, Formula):
            line += f' "{show(node.data)}"'
        elif isinstance(node.data, tuple) and node.rule == "schema":
            name, bindings = node.data
            inner = ", ".join(f"{v.name} := {show(f)}" for v, f in sorted(bindings.items()))
            line += f' "{name} {{{inner}}}"'
        if node.premises:
            todo.append((node.premises[-1], depth + 1, close + 1))
            todo.extend((p, depth + 1, 1) for p in reversed(node.premises[:-1]))
        else:
            line += ")" * close
        lines.append(line)
    return "\n".join(lines)
