"""pittslab benchmark: certified answers, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload prove --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15

One run measures one workload in a fresh process, single-threaded, as a
closed loop with one client.  The workload's ops form a session, generated
from the seed; the run replays the session, clearing the program's memo
caches before each replay (set-up tables excepted), until `--seconds` have
passed.  The first replay always completes.  Each op's latency is its median
over the replays.  Every answer is certified outside the timed call; a
failed certificate or an exception counts as a failed op and the run goes on.

Every time reported is scaled to a reference host speed: a fixed unit of
the benchmark's own work (`calibrate`) runs every 20 ms while ops run and
every 100 ms while set-up phases run, and each time, less the units inside
it, is multiplied by the unit's reference time over what the unit took
around it.  A shared host's speed drifts by up to 2x within seconds; the
scaled times do not follow it.  The ratio of wall time to scaled time is
printed beside ops_per_s.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` replays alternate untraced and traced,
and it carries the per-layer metrics (self time of each layer's spans,
counters, memo sizes, tracing overhead).  Spans are written to
`benchmarks/out/`.  `--workload all` runs every workload both ways, each in
its own process, and prints one table.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402

NAMES = ("prove", "gate", "oracle", "cli")
SETUP_SAMPLES = 3
# Nested-negation ladder, run after the timed phase: at each depth d,
# P |- ~^d P (provable) and |- ~^d P (refuted) must both get certificates.
LADDER = (100, 200, 300, 400, 500)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# seconds between two calibration units in a session replay
CALIBRATE_EVERY_S = 0.02
# lru caches that are set-up tables, kept across replays of the session
SETUP_TABLES = {"posets", "upsets", "_universal_model"}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "certified_share": "ratio",
    "nesting_depth_ok": "depth",
    "setup_s": "s",
}
BUSY_LAYERS = (
    "parser.parse",
    "prover.decide",
    "prover.derive",
    "kernel.check_tree",
    "trees.print_tree",
    "kripke.find_countermodel",
    "kripke.refutes",
    "pitts.interpolate",
    "pitts.simplify",
    "pitts.probe_corpus",
    "pitts.gate",
    "rieger.classify",
    "replays.replay",
    "connectives.extract_auxiliary",
    "connectives.is_auxiliary",
    "cli.prove",
    "cli.interpolate",
    "cli.replay",
    "cli.extract-aux",
    "cli.rn-classify",
)
COUNTERS = (
    "kernel.check_tree.nodes",
    "kripke.find_countermodel.calls",
    "kripke.full_sweeps",
    "kripke.countermodel_worlds",
    "pitts.raw_nodes",
    "pitts.simplified_nodes",
    "pitts.gate.probes_run",
    "replays.lines_checked",
)


def per_layer_units() -> dict[str, str]:
    units = {"setup.import_s": "s", "kripke.posets.setup_s": "s", "rieger.lattice_build_s": "s"}
    units.update({f"{name}.busy_s": "s" for name in BUSY_LAYERS})
    units.update({name: "count" for name in COUNTERS})
    units.update({
        "prover.decide.memo_entries": "count",
        "prover.decide.memo_hit_ratio": "ratio",
        "pitts.memo_entries": "count",
        "rieger.classes": "count",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# Set-up: import the package from this checkout and build the tables the ops
# rely on.

def setup(workload: str) -> tuple[SimpleNamespace, dict[str, float]]:
    """Import pittslab and build the workload's tables.  Each phase's time is
    scaled to the reference speed (see `calibrate`)."""
    if not (SRC / "pittslab" / "__init__.py").is_file():
        raise SystemExit(f"no pittslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    phases = {}

    def import_all():
        import pittslab
        from pittslab import cli, kernel, kripke, parser, pitts, prover, rieger, syntax, trees

        return pittslab, cli, kernel, kripke, parser, pitts, prover, rieger, syntax, trees

    modules, phases["setup.import_s"] = calibrate.measure(import_all, calibrate.interpreter_unit)
    calibrate.unit()  # loads what the full unit needs, if the program did not
    pittslab, cli, kernel, kripke, parser, pitts, prover, rieger, syntax, trees = modules
    if Path(pittslab.__file__).resolve().parent != (SRC / "pittslab").resolve():
        raise SystemExit(f"imported pittslab from {pittslab.__file__}, not from {SRC}")
    lib = SimpleNamespace(
        pittslab=pittslab, cli=cli,
        parse_sequent=parser.parse_sequent, parse_formula=parser.parse_formula,
        decide=prover.decide, derive=prover.derive, equivalent=prover.equivalent,
        classical_tautology=prover.classical_tautology,
        Sequent=kernel.Sequent, check_tree=kernel.check_tree, print_tree=trees.print_tree,
        find_countermodel=kripke.find_countermodel, Variable=syntax.Variable,
        pite_exists=pitts.pite_exists, pita_forall=pitts.pita_forall,
        simplify=pitts.simplify, probe_corpus=pitts.probe_corpus,
        validate_interpolant=pitts.validate_interpolant,
        validate_forall_interpolant=pitts.validate_forall_interpolant,
    )
    # Every workload but gate reaches the countermodel sweep: build the poset
    # tables and sweep once (a provable sequent visits every poset).
    if workload != "gate":
        def poset_tables():
            for n in range(1, 7):
                kripke.posets(n)
            return kripke.find_countermodel(parser.parse_sequent("|- P -> P"), 6)

        hit, phases["kripke.posets.setup_s"] = calibrate.measure(poset_tables)
        if hit is not None:
            raise SystemExit("set-up sweep found a countermodel to P -> P")
    if workload == "cli":
        lattice, phases["rieger.lattice_build_s"] = calibrate.measure(lambda: rieger.default_lattice(12))
        reps = getattr(lattice, "reps", None)
        phases["rieger.classes"] = len(reps) if reps is not None else 0
    return lib, phases


def setup_seconds(phases: dict) -> float:
    return sum(v for k, v in phases.items() if k.endswith("_s"))


def sample_setups(workload: str, count: int) -> list[float]:
    """Set-up time of `count` fresh processes, run side by side."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"]
    procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) for _ in range(count)]
    out = []
    try:
        for p in procs:
            stdout, _ = p.communicate(timeout=150)
            if p.returncode != 0:
                raise SystemExit(f"set-up probe exited with {p.returncode}")
            out.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return out


# ---------------------------------------------------------------------------
# Sessions.

def session_caches() -> dict[str, object]:
    """The program's lru caches that hold per-session memo state."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("pittslab"):
            continue
        for attr, obj in vars(mod).items():
            if attr in SETUP_TABLES or not hasattr(obj, "cache_info") or not hasattr(obj, "cache_clear"):
                continue
            found.setdefault(id(obj), (f"{getattr(obj, '__module__', modname)}.{attr}", obj))
    return dict(found.values())


MEMOS = ("pittslab.prover._decide", "pittslab.pitts._E", "pittslab.pitts._A")


def memo_stats(caches) -> tuple[dict[str, float], list[str]]:
    """Memo sizes via cache_info(), and the memos a later version removed
    (their sizes read 0)."""
    info = {name: caches[name].cache_info() for name in MEMOS if name in caches}
    d = info.get(MEMOS[0])
    out = {
        "prover.decide.memo_entries": d.currsize if d else 0,
        "prover.decide.memo_hit_ratio": d.hits / (d.hits + d.misses) if d and d.hits + d.misses else 0.0,
        "pitts.memo_entries": sum(info[n].currsize for n in MEMOS[1:] if n in info),
    }
    return out, [name for name in MEMOS if name not in info]


class Session:
    """The workload's ops, replayed in order from empty memo caches.

    A `calibrate.Sampler` runs a unit every `CALIBRATE_EVERY_S` throughout a
    replay, inside ops as well as between them.  Each op's latency, less the
    time of the units inside it, is scaled by the samples from the last one
    before it to the first one after it, so it follows the host's speed
    from moment to moment.
    """

    def __init__(self, wl, specs, caches):
        self.wl, self.specs, self.caches = wl, specs, caches

    def replay(self, tr, lat, deadline, counters, failures, op_base=0):
        """Run the ops in order, adding each op's scaled latency to `lat`.
        Returns (ops done, scaled seconds inside ops, wall seconds inside
        ops, complete)."""
        for fn in self.caches.values():
            fn.cache_clear()
        gc.collect()
        timed = []  # (op index, start, end)
        complete = True
        with calibrate.Sampler(CALIBRATE_EVERY_S) as host:
            for i, spec in enumerate(self.specs):
                if deadline is not None and perf_counter() >= deadline:
                    complete = False
                    break
                result = exc = None
                t0 = t1 = perf_counter()
                try:
                    args = self.wl.prepare(spec)
                    tr.begin_op(op_base + i)
                    t0 = perf_counter()
                    try:
                        result = tr.call("op", self.wl.run, tr, args)
                    finally:
                        t1 = perf_counter()
                except Exception as e:  # an op that raises is a failed op
                    exc = e
                timed.append((i, t0, t1))
                ok = False
                if exc is None:
                    try:
                        ok = bool(self.wl.check(spec, result, counters))
                    except Exception as e:  # a malformed answer fails its check
                        exc = e
                if not ok:
                    failures.append((i, repr(exc) if exc else "certificate rejected"))
        busy = wall = 0.0
        for i, t0, t1 in timed:
            t = host.scaled(t0, t1)
            lat[i].append(t)
            busy += t
            wall += t1 - t0
        return len(timed), busy, wall, complete


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (every session
    has at least twenty ops)."""
    n = len(values)
    p = next(p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1], p, n


def nesting_depth(lib) -> int:
    """Deepest ladder rung whose two sequents both get certified verdicts."""
    import certify as C

    best = 0
    for depth in LADDER:
        chain = C.var("P")
        for _ in range(depth):
            chain = C.neg(chain)
        try:
            s = lib.parse_sequent("P |- " + "~" * depth + "P")
            if not lib.decide(s):
                break
            tree = lib.derive(s)
            if not lib.check_tree(tree).ok or not lib.print_tree(tree):
                break
            r = lib.parse_sequent("|- " + "~" * depth + "P")
            hit = None if lib.decide(r) else lib.find_countermodel(r, 6)
            if hit is None or not C.model_from_program(hit[0]).refutes(hit[1], [], chain):
                break
        except Exception:  # RecursionError today, past depth 300
            break
        best = depth
    return best


# ---------------------------------------------------------------------------
# Runs.

def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "pittslab").rglob("*.py"))


def emit(lines: list[str], result: dict):
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))


def timed_run(args, lib, phases, session) -> int:
    n_ops = len(session.specs)
    lat = [[] for _ in range(n_ops)]
    failures: list = []
    deadline = perf_counter() + args.seconds
    scaled_s = raw_s = 0.0
    first = True
    while first or perf_counter() < deadline:
        _, b, r, _ = session.replay(tracing.NullTracer(), lat, None if first else deadline, {}, failures)
        scaled_s, raw_s = scaled_s + b, raw_s + r
        first = False
    attempted = sum(len(x) for x in lat)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = [statistics.median(x) for x in lat]
    tail_s, pct, n = tail(medians)

    for fn in session.caches.values():
        fn.cache_clear()
    depth = nesting_depth(lib)
    setups = [setup_seconds(phases)] + sample_setups(args.workload, SETUP_SAMPLES - 1)

    values = {
        "ops_per_s": n_ops / sum(medians),
        "op_p50_ms": statistics.median(medians) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_rss,
        "certified_share": (attempted - len(failures)) / attempted,
        "nesting_depth_ok": depth,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "ops_per_s": f"{n_ops} ops over the sum of their median latencies; {attempted / n_ops:.1f} replays;"
                     f" wall time inside ops was {raw_s / scaled_s:.2f}x the reference-speed time",
        "op_p50_ms": "median over ops of each op's median latency",
        "op_tail_ms": f"p{pct:g} of {n} op medians, {n * (100 - pct) / 100:g} beyond it",
        "certified_share": f"{attempted - len(failures)} of {attempted} ops certified",
        "nesting_depth_ok": f"ladder {list(LADDER)}",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    lines = [f"{k:<18} {v:>12.4f} {END_TO_END[k]:<6} {notes.get(k, '')}" for k, v in values.items()]
    lines.append(f"{'failed_share':<18} {len(failures) / attempted:>12.4f} ratio  not gated: 1 - certified_share")
    lines += [f"failed op {i}: {why}" for i, why in failures[:5]]
    emit(lines, {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    })
    return 0


def traced_run(args, lib, phases, session, digest) -> int:
    import contextlib

    n_ops = len(session.specs)
    lat = [[] for _ in range(n_ops)]
    failures: list = []
    tracer = tracing.Tracer()
    busy = {False: [], True: []}
    layer_samples, counters, memo, absent = [], None, {}, []
    deadline = perf_counter() + args.seconds
    i = 0
    # replays alternate untraced and traced; the first pair always completes
    while i < 2 or perf_counter() < deadline:
        traced = i % 2 == 1
        mark = len(tracer.spans)
        ctrs: dict = {}
        patch = (
            tracing.spans_at_cli_boundary(tracer, lib.cli)
            if traced and args.workload == "cli"
            else contextlib.nullcontext()
        )
        with patch:
            _, b, r, complete = session.replay(
                tracer if traced else tracing.NullTracer(), lat,
                None if i < 2 else deadline, ctrs, failures, op_base=i * n_ops,
            )
        if complete:
            busy[traced].append(b)
            if traced:
                # spans hold wall time, calibration units included: scale
                # them by the replay's mean factor
                layer_samples.append({k: v * b / r for k, v in tracer.self_times(mark).items()})
                if counters is None:
                    counters = ctrs
                    memo, absent = memo_stats(session.caches)
        i += 1

    values = dict(phases)
    for name in BUSY_LAYERS:
        values[f"{name}.busy_s"] = statistics.median(s.get(name, 0.0) for s in layer_samples)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    values.update(memo)
    values["trace.overhead_s"] = statistics.median(busy[True]) - statistics.median(busy[False])
    units = per_layer_units()
    metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest,
                       "ops_per_session": n_ops, "span": ["name", "start", "end", "parent", "op"]})

    others = sorted(set().union(*layer_samples) - set(BUSY_LAYERS))
    lines = [f"{k:<36} {m['value']:>12.6g} {m['unit']}" for k, m in metrics.items()]
    lines += [f"{k + ' (self, not gated)':<36} {statistics.median(s.get(k, 0.0) for s in layer_samples):>12.6g} s"
              for k in others]
    lines += [f"memo absent: {', '.join(absent)}"] if absent else []
    lines += [f"traced sessions: {len(busy[True])}, untraced: {len(busy[False])}; spans in {path.relative_to(ROOT)}"]
    lines += [f"failed op {i}: {why}" for i, why in failures[:5]]
    emit(lines, {
        "correct": not failures,
        "attempted": sum(len(x) for x in lat),
        "failed": len(failures),
        "metrics": metrics,
    })
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    per_layer = {}
    print(f"{'workload':<8} {'metric':<18} {'value':>12} unit")
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            if trace:
                per_layer[name] = result["metrics"]
                continue
            for k, m in result["metrics"].items():
                print(f"{name:<8} {k:<18} {m['value']:>12.4f} {m['unit']}")
            print(f"{name:<8} {'failed_share':<18} {result['failed'] / result['attempted']:>12.4f} ratio")
    print(f"\nper layer (traced runs)\n{'metric':<36} " + " ".join(f"{n:>10}" for n in NAMES))
    for k, m in per_layer[NAMES[0]].items():
        print(f"{k:<36} " + " ".join(f"{per_layer[n][k]['value']:>10.4g}" for n in NAMES) + f" {m['unit']}")
    print(f"\ncontext: src/pittslab has {src_lines()} lines of Python")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)

    lib, phases = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_seconds(phases)}))
        return 0
    import workloads

    wl = workloads.WORKLOADS[args.workload](lib)
    specs = wl.inputs(args.seed)
    digest = hashlib.sha256(json.dumps(specs).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(specs)} ops per session, "
          f"inputs sha256 {digest[:16]}, src/pittslab {src_lines()} lines")
    session = Session(wl, specs, session_caches())
    if args.trace:
        return traced_run(args, lib, phases, session, digest)
    return timed_run(args, lib, phases, session)


if __name__ == "__main__":
    sys.exit(main())
