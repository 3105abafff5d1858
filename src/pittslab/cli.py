"""Command-line front end.

Exit codes: 0 for provable / accepted / success, 1 for refuted / rejected,
2 for usage or parse errors (message on stderr), 70 for a crash (`run`).
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from functools import lru_cache
from pathlib import Path

from . import __version__
from .connectives import (
    NoEligibleRule,
    NotCutFree,
    RegularConnective,
    extract_auxiliary,
    is_auxiliary,
)
from .kernel import SchemaTheory, Sequent
from .kripke import DEFAULT_BOUND, MAX_BOUND
from .parser import FormulaSyntaxError, Parser
from .pitts import (
    MAX_PROBE_NODES,
    pita_forall,
    pite_exists,
    probe_corpus,
    simplify,
    validate_forall_interpolant,
    validate_interpolant,
)
from .prover import Unknown, prove
from .replays import REPLAY_NAMES, ScriptFailed, replay, script_root
from .rieger import MAX_LEVEL, LevelExceeded, default_lattice
from .scripts import ScriptError, check_script, parse_script, parse_theory
from .syntax import FormulaError, Variable
from .trees import parse_tree, print_tree

class UsageError(Exception):
    pass


def _emit(payload: dict, fmt: str, text_lines: Callable[[], list[str]]) -> None:
    """Print the payload as JSON, or the text lines, built only for text output."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _cmd_prove(args) -> int:
    seq = Parser().parse_sequent(args.sequent)
    verdict = prove(seq, countermodel_bound=args.bound)
    if verdict.provable:
        _emit(
            {"provable": True, "sequent": str(seq), "witness": "proof-tree"},
            args.format,
            lambda: ["provable", print_tree(verdict.witness)],
        )
        return 0
    if isinstance(verdict.witness, Unknown):
        _emit(
            {"provable": False, "sequent": str(seq), "countermodel": None,
             "bound": verdict.witness.bound},
            args.format,
            lambda: [f"refuted (no countermodel within {verdict.witness.bound} worlds)"],
        )
        return 1
    model, world = verdict.witness
    payload = {
        "provable": False,
        "sequent": str(seq),
        "countermodel": {
            "worlds": list(model.worlds),
            "order": sorted([list(p) for p in model.order]),
            "valuation": {str(w): sorted(v) for w, v in model.valuation},
            "world": world,
        },
    }
    lines = ["refuted", f"countermodel on {len(model.worlds)} worlds, fails at world {world}"]
    for w, atoms in model.valuation:
        ups = sorted(v for (u, v) in model.order if u == w and v != w)
        lines.append(f"  w{w}: atoms={{{', '.join(sorted(atoms))}}} sees {ups}")
    _emit(payload, args.format, lambda: lines)
    return 1


def _cmd_interpolate(args) -> int:
    f = Parser().parse(args.formula)
    y = Variable(args.var)
    result = pite_exists(f, y) if args.exists else pita_forall(f, y)
    shown = simplify(result)
    payload = {
        "input": str(f),
        "var": args.var,
        "kind": "exists" if args.exists else "forall",
        "interpolant": str(shown),
    }
    lines = [str(shown)]
    if args.validate:
        atoms = sorted(f.free_vars - {y})
        probes = probe_corpus(atoms, args.probe_budget)
        gate = validate_interpolant if args.exists else validate_forall_interpolant
        rep = gate(f, y, shown, probes)
        payload["validated"] = rep.ok
        payload["probes"] = rep.probes_run
        lines.append(f"probe gate: {'pass' if rep.ok else 'FAIL'} ({rep.probes_run} probes)")
        if not rep.ok:
            _emit(payload, args.format, lambda: lines + _gate_failures(f, y, shown, rep, args.exists))
            return 1
    _emit(payload, args.format, lambda: lines)
    return 0


def _gate_failures(phi, y, candidate, rep, exists: bool) -> list[str]:
    """Text lines naming the checks a failed probe gate did not pass: the
    variable condition, the consequence, and the first failing probe with
    its direction (the side whose sequent holds) and both verdicts."""

    def entails(a, b) -> Sequent:
        return Sequent((a,), b) if exists else Sequent((b,), a)

    out = []
    if not rep.variable_free:
        out.append(f"  variable condition: candidate mentions {y}")
    if not rep.consequence_holds:
        out.append(f"  consequence: {entails(phi, candidate)} refuted")
    if rep.failures:
        psi, direction = rep.failures[0]
        verdicts = ("provable", "refuted") if direction == "candidate" else ("refuted", "provable")
        out.append(
            f"  first failing probe: {psi}; direction: {direction}; "
            f"{entails(candidate, psi)} {verdicts[0]}; {entails(phi, psi)} {verdicts[1]}"
        )
    return out


def _load_theory(spec: str | None) -> SchemaTheory:
    if not spec:
        return SchemaTheory(name="ipc")
    path = Path(spec)
    if not path.exists():
        cand = script_root() / spec
        if cand.exists():
            path = cand
        else:
            raise UsageError(f"theory file not found: {spec}")
    return parse_theory(path.read_text(encoding="utf-8"), name=path.stem)


def _cmd_check(args) -> int:
    theory = _load_theory(args.theory)
    registry = {}
    extras = args.with_scripts or []
    for i, name in enumerate(extras + [args.script]):
        path = Path(name)
        script = parse_script(path.read_text(encoding="utf-8"), theory, name=path.stem)
        result = check_script(script, registry)
        payload = {"script": name, "ok": result.ok, "lines": len(script.lines)}
        if not result.ok:
            line, reason = result.failure
            payload["failure"] = {"line": line, "reason": reason}
            if i < len(extras) and args.format != "json":
                print(f"{name}: rejected at line {line}: {reason}", file=sys.stderr)
            else:
                _emit(payload, args.format, lambda: [f"rejected at line {line}: {reason}"])
            return 1
        # register under both the bare stem and the suite-qualified name that
        # bundled ref lines use
        registry[path.stem] = script
        registry[f"{path.parent.name}/{path.stem}"] = script
    _emit(payload, args.format, lambda: [f"accepted ({len(script.lines)} lines)"])
    return 0


def _cmd_extract_aux(args) -> int:
    body = Parser().parse(args.body)
    y = Variable(args.var)
    params = tuple(sorted(body.free_vars - {y}))
    conn = RegularConnective(body, y, params)
    tree = parse_tree(Path(args.tree).read_text(encoding="utf-8"))
    witness = extract_auxiliary(tree, conn)
    report = is_auxiliary(conn, witness)
    definition = simplify(report.definition) if report.holds else None
    payload = {
        "witness": str(witness),
        "auxiliary": report.holds,
        "definition": str(definition) if report.holds else None,
    }
    lines = [str(witness), f"auxiliary: {'yes' if report.holds else 'no'}"]
    if report.holds:
        lines.append(f"definition: {definition}")
    _emit(payload, args.format, lambda: lines)
    return 0 if report.holds else 1


def _cmd_rn_classify(args) -> int:
    f = Parser().parse(args.formula)
    lattice = default_lattice(args.level)
    cls = lattice.classify(f)
    payload = {
        "formula": str(f),
        "class": cls.level,
        "representative": str(cls.representative),
    }
    _emit(payload, args.format, lambda: [f"class {cls.level}: {cls.representative}"])
    return 0


def _cmd_replay(args) -> int:
    report = replay(args.name)
    lines = [f"replay {report.name}: ok"]
    for s in report.scripts:
        lines.append(f"  {s.name}: ok ({len(s.lines)} lines)")
    for d in report.derived:
        lines.append(f"  derived: {d}")
    for inst in report.details.get("psi_instances", []):
        lines.append(f"  psi {inst['psi']}: {'ok' if inst['ok'] else 'FAIL'}")
    _emit(report.payload(), args.format, lambda: lines)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(seed=args.seed, quick=args.quick)
    ok = results.pop("ok")
    lines = []
    for name, res in results.items():
        n_fail = len(res["failures"])
        lines.append(f"{name}: {'pass' if not n_fail else 'FAIL'} ({res['checked']} cases)")
        for kind, inst in res["failures"][:5]:
            lines.append(f"  {kind}: {inst}")
    payload = {k: {"checked": v["checked"], "failures": len(v["failures"])} for k, v in results.items()}
    payload["ok"] = ok
    _emit(payload, args.format, lambda: lines + [f"selftest: {'pass' if ok else 'FAIL'}"])
    return 0 if ok else 1


def _in_range(low: int, high: int):
    """An argparse type: an int from `low` to `high`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
        return n

    return parse


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built on first use; parsing writes no default, so `main` calls share it."""
    ap = argparse.ArgumentParser(
        prog="pittslab",
        description="Workbench for intuitionistic propositional logic: uniform "
        "interpolants, proof checking, countermodels, nondefinability replays.",
    )
    ap.add_argument("--version", action="version", version=f"pittslab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("prove", help="decide a quantifier-free sequent")
    p.add_argument("sequent")
    p.add_argument("--bound", type=_in_range(1, MAX_BOUND), default=DEFAULT_BOUND,
                   help=f"countermodel world bound (at most {MAX_BOUND})")
    add_format(p)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("interpolate", help="compute a uniform interpolant")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--exists", action="store_true")
    grp.add_argument("--forall", action="store_true")
    p.add_argument("--var", required=True)
    p.add_argument("formula")
    p.add_argument("--validate", action="store_true", help="run the probe gate")
    # below 3 nodes the probe corpus is only the leaves
    p.add_argument("--probe-budget", type=_in_range(3, MAX_PROBE_NODES), default=8,
                   dest="probe_budget", help=f"max probe size in AST nodes (at most {MAX_PROBE_NODES})")
    add_format(p)
    p.set_defaults(fn=_cmd_interpolate)

    p = sub.add_parser("check", help="check a proof script")
    p.add_argument("script")
    p.add_argument("--theory", help="theory file (path or bundled, e.g. tara/theory.thy)")
    p.add_argument("--with", dest="with_scripts", action="append", metavar="SCRIPT",
                   help="check and register this script first (for ref lines)")
    add_format(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("extract-aux", help="extract an auxiliary formula from a cut-free tree")
    p.add_argument("tree")
    p.add_argument("--body", required=True)
    p.add_argument("--var", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_extract_aux)

    p = sub.add_parser("rn-classify", help="classify a one-variable formula")
    p.add_argument("formula")
    p.add_argument("--level", type=_in_range(0, MAX_LEVEL), default=12,
                   help=f"lattice levels to generate (at most {MAX_LEVEL})")
    add_format(p)
    p.set_defaults(fn=_cmd_rn_classify)

    p = sub.add_parser("replay", help="run a bundled nondefinability replay")
    p.add_argument("name", choices=REPLAY_NAMES)
    add_format(p)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("selftest", help="run the randomized property batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        return args.fn(args)
    except ScriptFailed as e:
        print(f"replay failed: {e}", file=sys.stderr)
        return 1
    except (NotCutFree, NoEligibleRule, LevelExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FormulaSyntaxError, FormulaError, ScriptError, UsageError, OSError,
            UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """`main` for the installed script: a crash prints its traceback and
    exits 70, where Python would exit 1, which means refuted."""
    try:
        return main(argv)
    except Exception:
        sys.excepthook(*sys.exc_info())
        return 70


if __name__ == "__main__":
    sys.exit(run())
