"""The four workloads: seeded inputs, the timed operation, and its check.

Each workload generates its inputs from the seed alone, with its own
generator, so a change to the library cannot change what is measured.  An
input is built from `certify`'s tuple formulas; `prepare` renders and parses
it outside the timed region, `run` is the timed operation, and `check`
certifies the answer with the independent code in `certify`, also outside
the timed region.  `check` adds to the run's counters.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import certify as C

ATOMS4 = ("P", "Q", "R", "S")
ATOMS3 = ("P", "Q", "R")
_OPS = ("and", "or", "imp")
TOP = ("imp", C.BOT, C.BOT)


def gen_formula(rng: random.Random, names, size: int) -> tuple:
    """A uniform-shape random formula with `size` (odd) nodes."""
    if size <= 1:
        pick = rng.randrange(len(names) + 1)
        return C.BOT if pick == len(names) else C.var(names[pick])
    left = rng.randrange(1, size - 1, 2)
    return (rng.choice(_OPS), gen_formula(rng, names, left), gen_formula(rng, names, size - 1 - left))


class Inputs:
    """Random inputs of one workload.  The seed picks formula shapes; formula
    sizes follow a schedule that is the same for every seed, so every seed
    has the same size distribution (cost grows steeply with size)."""

    def __init__(self, workload: str, seed: int):
        self.shape = random.Random(f"{workload}/{seed}")
        self._sizes = random.Random(f"{workload}/sizes")

    def size(self, max_nodes: int, least: int = 1) -> int:
        return max(least, self._sizes.randrange(1, max_nodes + 1, 2))

    def formula(self, names, size: int, accept=lambda f: True) -> tuple:
        while True:
            f = gen_formula(self.shape, names, size)
            if accept(f):
                return f

    def tautology(self, n_hyps: int, names, max_nodes: int, max_total: int):
        """A sequent with `n_hyps` hypotheses that is a classical tautology,
        with at most `max_nodes` nodes per formula and `max_total` in all."""
        while True:
            sizes = [self.size(max_nodes) for _ in range(n_hyps)]
            concl_size = self.size(max_nodes, 1 if n_hyps else 3)
            if sum(sizes) + concl_size <= max_total:
                break
        while True:
            hyps = [gen_formula(self.shape, names, n) for n in sizes]
            concl = gen_formula(self.shape, names, concl_size)
            if C.classically_valid(hyps, concl):
                return hyps, concl

    def body(self, names, max_nodes: int = 11) -> tuple:
        """A formula in which every one of `names` occurs."""
        least = 2 * len(names) - 1
        return self.formula(names, self.size(max_nodes, least), lambda f: C.atoms(f) == set(names))


class Workload:
    name = ""
    session_ops = 0  # ops per session; a run repeats its session

    def __init__(self, lib):
        self.lib = lib

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, spec):
        """Call arguments for `run`, built outside the timed region."""
        raise NotImplementedError

    def run(self, tr, args):
        """The timed operation; `tr.call` spans each call into the library."""
        raise NotImplementedError

    def check(self, spec, result, counters) -> bool:
        raise NotImplementedError


def _count(counters, key, by=1):
    counters[key] = counters.get(key, 0) + by


# ---------------------------------------------------------------------------

class Prove(Workload):
    """parse_sequent -> decide -> derive -> check_tree -> print_tree, or
    find_countermodel -> refutes.  Every sequent is a classical tautology, so
    no top-level truth-table test can answer it."""

    name = "prove"
    # Costs are heavy-tailed, so the p99 tail of a seed is steady only with
    # many ops beyond it: 6000 ops leave sixty.
    session_ops = 6000

    def inputs(self, seed):
        # The hypothesis count cycles through 0..3.  Formulas have up to 17
        # nodes and a sequent up to 32: derivation size grows steeply with the
        # sequent.  With caps of 21 and 40, one sequent in about ten thousand
        # took a second, and the p99 tail of 4000 ops had a quartile spread of
        # 14 % over ten seeds; with these caps and 6000 ops, 4 % in one
        # process and 11 % in separate ones.
        gen = Inputs(self.name, seed)
        return [gen.tautology(i % 4, ATOMS4, 17, 32) for i in range(self.session_ops)]

    def prepare(self, spec):
        return C.render_sequent(*spec)

    def run(self, tr, text):
        L = self.lib
        s = tr.call("parser.parse", L.parse_sequent, text)
        if tr.call("prover.decide", L.decide, s):
            tree = tr.call("prover.derive", L.derive, s)
            report = tr.call("kernel.check_tree", L.check_tree, tree)
            printed = tr.call("trees.print_tree", L.print_tree, tree)
            return ("provable", s, tree, report, printed)
        hit = tr.call("kripke.find_countermodel", L.find_countermodel, s, 6)
        if hit is None:
            return ("unknown", s)
        model, world = hit
        return ("refuted", s, model, world, tr.call("kripke.refutes", model.refutes, world, s))

    def check(self, spec, result, counters):
        hyps, concl = spec
        if result[0] == "provable":
            _, s, tree, report, printed = result
            nodes = C.tree_nodes(tree)
            _count(counters, "kernel.check_tree.nodes", nodes)
            root = tree.conclusion
            same_root = sorted(C.render(C.from_program(h)) for h in root.hyps) == sorted(
                C.render(h) for h in hyps
            ) and C.from_program(root.concl) == concl
            # print_tree writes one line per tree node
            return report.ok and same_root and printed.count("\n") + 1 == nodes
        _count(counters, "kripke.find_countermodel.calls")
        if result[0] == "unknown":
            _count(counters, "kripke.full_sweeps")
            return False
        _, s, model, world, refutes = result
        _count(counters, "kripke.countermodel_worlds", len(model.worlds))
        return refutes and C.model_from_program(model).refutes(world, hyps, concl)


# ---------------------------------------------------------------------------

# The five reference bodies of the acceptance suite with their documented
# existential interpolants, and the universal ones: Y := bot and Y := top
# bound each from above, and each bound follows from the stated formula.
REFERENCE = [
    ("(~Y -> X1) /\\ (~~Y -> X2)", "(~X1 -> X2) /\\ (~X2 -> X1)", "X1 /\\ X2"),
    ("(Y \\/ ~Y) -> (P /\\ Q)", "~~(P /\\ Q)", "P /\\ Q"),
    ("P <-> (~Y \\/ ~~Y)", "~~P", "bot"),
    ("(P -> (Y \\/ ~Y)) -> P", "~~P", "P"),
    ("(X -> (~Y \\/ ~~Y)) -> X", "~~X", "X"),
]


def _classical_exists(body: tuple) -> tuple:
    # classically, exists Y. body is body[top/Y] \/ body[bot/Y]; the IPC
    # interpolant is classically equivalent to it (Glivenko)
    return ("or", C.substitute(body, "Y", TOP), C.substitute(body, "Y", C.BOT))


def _classical_forall(body: tuple) -> tuple:
    return ("and", C.substitute(body, "Y", TOP), C.substitute(body, "Y", C.BOT))


def interpolant_ok(kind: str, body: tuple, got: tuple) -> bool:
    """Independent classical check of an interpolant: Y-free; for exists,
    classically equivalent to the classical quantifier; for forall, at least
    classically below it."""
    if "Y" in C.atoms(got):
        return False
    if kind == "exists":
        return C.classically_equivalent(got, _classical_exists(body))
    return C.classically_valid([got], _classical_forall(body))


class Gate(Workload):
    """pite_exists | pita_forall -> simplify -> probe_corpus(atoms, 8) ->
    validate_interpolant | validate_forall_interpolant: the path of
    `interpolate --validate`."""

    name = "gate"
    # The seeded bodies use Y and P only: each then runs the same 942-probe
    # corpus, where a second parameter atom would make it 4203 probes and the
    # op five times dearer.  Sixty ops leave fifteen beyond the p75 tail.
    session_ops = 60

    def inputs(self, seed):
        gen = Inputs(self.name, seed)
        out = []
        for body, ex, un in REFERENCE:
            out.append(("exists", body, ex))
            out.append(("forall", body, un))
        while len(out) < self.session_ops:
            out.append((("exists", "forall")[len(out) % 2], C.render(gen.body(("Y", "P"))), None))
        return out

    def prepare(self, spec):
        return spec[0], self.lib.parse_formula(spec[1])

    def run(self, tr, args):
        L = self.lib
        kind, phi = args
        y = L.Variable("Y")
        compute, gate = (
            (L.pite_exists, L.validate_interpolant)
            if kind == "exists"
            else (L.pita_forall, L.validate_forall_interpolant)
        )
        raw = tr.call("pitts.interpolate", compute, phi, y)
        shown = tr.call("pitts.simplify", L.simplify, raw)
        probes = tr.call("pitts.probe_corpus", L.probe_corpus, sorted(phi.free_vars - {y}), 8)
        report = tr.call("pitts.gate", gate, phi, y, shown, probes)
        return raw, shown, report

    def check(self, spec, result, counters):
        kind, body_text, documented = spec
        raw, shown, report = result
        got = C.from_program(shown)
        _count(counters, "pitts.raw_nodes", C.size(C.from_program(raw)))
        _count(counters, "pitts.simplified_nodes", C.size(got))
        _count(counters, "pitts.gate.probes_run", report.probes_run)
        body = C.from_program(self.lib.parse_formula(body_text))
        ok = report.ok and interpolant_ok(kind, body, got)
        if documented is not None:
            ok = ok and self.lib.equivalent(shown, self.lib.parse_formula(documented))
        return ok


# ---------------------------------------------------------------------------

def _implications(f: tuple) -> list:
    if len(f) < 3:
        return []
    return ([f] if f[0] == "imp" else []) + _implications(f[1]) + _implications(f[2])


def _glivenko_base(f: tuple) -> bool:
    """A classically valid formula over all three atoms whose one
    implication spans exactly two of them.  The sweep's cost follows the
    atoms each implication spans: with this shape, the cost of sweeping
    ~~f varies by about 10 % between formulas, where implications over one
    or three atoms made two clusters a third apart."""
    imps = _implications(f)
    return (
        len(imps) == 1 and len(C.atoms(imps[0])) == 2
        and len(C.atoms(f)) == 3 and C.classically_valid([], f)
    )


class Oracle(Workload):
    """decide, an exhaustive find_countermodel(s, 6), and the Glivenko check
    decide(~~f) against classical_tautology(f)."""

    name = "oracle"
    session_ops = 400
    # Strata, by position in a cycle of 20.  A classically invalid formula is
    # refuted by a one-world model; only the classically valid ones (about a
    # fifth of random formulas) may sweep every poset, at a cost that grows
    # with the atom count.  An entry is the atom count of a valid formula;
    # None asks for an invalid one.  Three-atom formulas are a tenth of the
    # ops, so the p95 tail falls in the middle of their stratum.  Each is the
    # double negation ~~f of a classically valid f (see `_glivenko_base`),
    # which Glivenko's theorem makes an intuitionistic tautology, so every
    # one sweeps all posets.  Random valid three-atom formulas either sweep
    # everything or are refuted at once, and the share of each moved the
    # p95 tail by a fifth from seed to seed.
    STRATA = (1, None, None, None, None, 3, None, None, None, None,
              2, None, None, None, None, 3, None, None, None, None)

    def inputs(self, seed):
        gen = Inputs(self.name, seed)
        out = []
        for i in range(self.session_ops):
            want = self.STRATA[i % len(self.STRATA)]
            if want is None:
                out.append(gen.formula(ATOMS3, gen.size(11), lambda f: not C.classically_valid([], f)))
            elif want == 3:
                out.append(C.neg(C.neg(gen.formula(ATOMS3, 7, _glivenko_base))))
            else:
                # the smallest valid formulas over 1 and 2 atoms have 3 and 5 nodes
                out.append(gen.formula(
                    ATOMS3, gen.size(11, 2 * want + 1),
                    lambda f: len(C.atoms(f)) == want and C.classically_valid([], f),
                ))
        return out

    def prepare(self, f):
        L = self.lib
        text = C.render(f)
        return L.Sequent((), L.parse_formula(text)), L.Sequent((), L.parse_formula(f"~~{text}"))

    def run(self, tr, args):
        L = self.lib
        s, s_nn = args
        provable = tr.call("prover.decide", L.decide, s)
        hit = tr.call("kripke.find_countermodel", L.find_countermodel, s, 6)
        refutes = hit is not None and tr.call("kripke.refutes", hit[0].refutes, hit[1], s)
        glivenko = tr.call("prover.decide", L.decide, s_nn)
        classical = tr.call("prover.classical_tautology", L.classical_tautology, s.concl)
        return provable, hit, refutes, glivenko, classical

    def check(self, f, result, counters):
        provable, hit, refutes, glivenko, classical = result
        _count(counters, "kripke.find_countermodel.calls")
        valid = C.classically_valid([], f)
        ok = glivenko == classical == valid
        if hit is None:
            _count(counters, "kripke.full_sweeps")
            return ok and provable and valid
        _count(counters, "kripke.countermodel_worlds", len(hit[0].worlds))
        return ok and not provable and refutes and C.model_from_program(hit[0]).refutes(hit[1], [], f)


# ---------------------------------------------------------------------------

_SCHEMAS = {
    "prove": "prove_result",
    "interpolate": "interpolate_result",
    "replay": "replay_report",
    "extract-aux": "extract_result",
    "rn-classify": "rn_class",
}

# documented end sequents of the replay suites; tara-props derives seven lines
_REPLAY_ENDS = {
    "tara": "~~P |- P",
    "kreisel": "~~P |- P",
    "polacik": "~~P |- P",
    "polacik-wlem": "~~P |- P",
    "polacik-disjunction": "|- ~~X \\/ (~~X -> X)",
    "tara-props": None,
}

# the bundled extraction trees: body, and the witness each must yield
_TREES = [
    ("weaken_first.tree", "X /\\ bot", "bot"),
    ("witness_first.tree", "(Y \\/ ~Y) -> (P /\\ Q)", "P /\\ Q"),
    ("imp_then_witness.tree", "X", "X"),
]


class Cli(Workload):
    """In-process `pittslab.cli.main([..., "--format", "json"])`; the exit code
    and the schema check of stdout run outside the timed call."""

    name = "cli"
    # Nine fixed commands and thirty seeded ones of each kind.  Every seeded
    # command costs about the same (argument parsing and JSON dominate), so
    # a tail far above the bulk is noise: 99 ops put the tail at p75, with
    # 25 beyond it, where 159 put it at p90 and it differed by twice as much
    # from seed to seed.
    session_ops = 99

    def __init__(self, lib):
        super().__init__(lib)
        import jsonschema

        root = Path(lib.pittslab.__file__).parent / "data"
        self.trees = root / "trees"
        self.validators = {
            sub: jsonschema.Draft7Validator(
                json.loads((root / "schemas" / f"{stem}.schema.json").read_text(encoding="utf-8"))
            )
            for sub, stem in _SCHEMAS.items()
        }

    def inputs(self, seed):
        gen = Inputs(self.name, seed)
        out = [("replay", name) for name in _REPLAY_ENDS]
        out += [("extract-aux", tree, body, want) for tree, body, want in _TREES]
        for i in range(30):
            out.append(("rn-classify", gen.formula(("X",), gen.size(7))))
        for i in range(30):
            out.append(("prove", *gen.tautology(i % 3, ATOMS3, 9, 27)))
        for i in range(30):
            out.append(("interpolate", ("exists", "forall")[i % 2], gen.body(("Y", "P", "Q"))))
        return out

    def prepare(self, spec):
        kind = spec[0]
        if kind == "replay":
            argv = ["replay", spec[1]]
        elif kind == "extract-aux":
            argv = ["extract-aux", str(self.trees / spec[1]), "--body", spec[2], "--var", "Y"]
        elif kind == "rn-classify":
            argv = ["rn-classify", C.render(spec[1])]
        elif kind == "prove":
            argv = ["prove", C.render_sequent(spec[1], spec[2])]
        else:
            argv = ["interpolate", f"--{spec[1]}", "--var", "Y", C.render(spec[2])]
        return kind, argv + ["--format", "json"]

    def run(self, tr, args):
        kind, argv = args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(f"cli.{kind}", self.lib.cli.main, argv)
        return code, out.getvalue()

    def check(self, spec, result, counters):
        kind = spec[0]
        code, stdout = result
        payload = json.loads(stdout)
        if not self.validators[kind].is_valid(payload):
            return False
        parse = self.lib.parse_formula
        if kind == "replay":
            _count(counters, "replays.lines_checked", sum(s["lines"] for s in payload["scripts"]))
            want = _REPLAY_ENDS[spec[1]]
            derived = payload["derived"]
            end_ok = len(derived) == 7 if want is None else derived[-1] == want
            return code == 0 and end_ok and all(s["status"] == "ok" for s in payload["scripts"])
        if kind == "extract-aux":
            want = C.from_program(parse(spec[3]))
            return code == 0 and payload["auxiliary"] and C.from_program(parse(payload["witness"])) == want
        if kind == "rn-classify":
            rep = C.from_program(parse(payload["representative"]))
            return code == 0 and C.atoms(rep) <= {"X"} and C.classically_equivalent(rep, spec[1])
        if kind == "prove":
            hyps, concl = spec[1], spec[2]
            if payload["provable"]:
                return code == 0 and C.classically_valid(hyps, concl)
            if code != 1 or payload.get("countermodel") is None:
                return False
            _count(counters, "kripke.countermodel_worlds", len(payload["countermodel"]["worlds"]))
            model, world = C.model_from_json(payload["countermodel"])
            return model.refutes(world, hyps, concl)
        got = C.from_program(parse(payload["interpolant"]))
        return code == 0 and interpolant_ok(spec[1], spec[2], got)


WORKLOADS = {w.name: w for w in (Prove, Gate, Oracle, Cli)}
