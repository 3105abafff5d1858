"""Spans recorded around the benchmark's calls into pittslab's modules.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or None) and ``op`` the id of the operation it belongs to.
Spans are kept in memory and written out when the run ends.  Only calls the
benchmark makes are spanned; where one module calls another internally (the
probe gate calling ``decide``), the outer span stands for both.
"""
from __future__ import annotations

import contextlib
import json
from time import perf_counter


class NullTracer:
    """Calls straight through; used for the timed, untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    def call(self, name, fn, *args, **kwargs):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per span name, the time its spans cover minus their children's."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _traced(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


class _TracedMethods:
    """Stands in for an object whose named methods are spanned."""

    def __init__(self, tracer, target, spans: dict[str, str]):
        self._target = target
        for method, name in spans.items():
            setattr(self, method, _traced(tracer, name, getattr(target, method)))

    def __getattr__(self, attr):
        return getattr(self._target, attr)


@contextlib.contextmanager
def spans_at_cli_boundary(tracer, cli):
    """Span the module functions that ``pittslab.cli`` calls, for the length of
    the block, by rebinding the names in the cli module's namespace.  A name a
    later version no longer imports is skipped, and its layer reads 0."""
    functions = {
        "replay": "replays.replay",
        "extract_auxiliary": "connectives.extract_auxiliary",
        "is_auxiliary": "connectives.is_auxiliary",
    }
    saved = {}
    for attr, name in functions.items():
        if hasattr(cli, attr):
            saved[attr] = getattr(cli, attr)
            setattr(cli, attr, _traced(tracer, name, saved[attr]))
    if hasattr(cli, "default_lattice"):
        lattice_of = saved["default_lattice"] = cli.default_lattice
        cli.default_lattice = lambda *a, **k: _TracedMethods(
            tracer, lattice_of(*a, **k), {"classify": "rieger.classify"}
        )
    if hasattr(cli, "Parser"):
        parser_cls = saved["Parser"] = cli.Parser
        cli.Parser = lambda *a, **k: _TracedMethods(
            tracer, parser_cls(*a, **k),
            {"parse": "parser.parse", "parse_sequent": "parser.parse"},
        )
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(cli, attr, value)
