"""Host speed, measured with a fixed computation of the benchmark's own.

On a shared host the CPU speed a process gets drifts by up to about 2x,
within seconds and over minutes, and every timing of the program moves with
it.  The benchmark therefore keeps timing a fixed unit of work while it
measures the program, and reports each time scaled to a reference speed:
``t * REFERENCE_S / unit_time``, where ``unit_time`` is what one unit took
at that moment and ``REFERENCE_S`` is a constant close to what it takes on a
2 GHz Xeon vCPU.  The unit is built only from this directory's own code,
so no change to the program can move it, while it exercises what the
program's ops exercise: tuple formulas, truth tables, Kripke forcing,
rendering and frozenset-keyed dicts in the interpreter, and small
broadcast integer grids in numpy, as the countermodel sweep uses.  With a
unit of interpreter work alone, five runs of one oracle input spread by 5 %
in op_tail_ms; with the grids, by 3 %.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

import certify as C

# Seconds between samples while a set-up phase runs.
SAMPLE_EVERY_S = 0.1
_NAMES = ("P", "Q", "R")
_OPS = ("and", "or", "imp")


def _formula(rng: random.Random, size: int) -> tuple:
    if size <= 1:
        pick = rng.randrange(len(_NAMES) + 1)
        return C.BOT if pick == len(_NAMES) else C.var(_NAMES[pick])
    left = rng.randrange(1, size - 1, 2)
    return (rng.choice(_OPS), _formula(rng, left), _formula(rng, size - 1 - left))


_RNG = random.Random("calibrate")
_FORMULAS = [_formula(_RNG, 3 + 2 * (i % 6)) for i in range(60)]
# a three-world chain 0 <= 1 <= 2 with a persistent valuation
_MODEL = C.Model(
    [0, 1, 2],
    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
    {1: {"P"}, 2: {"P", "Q"}},
)


def interpreter_unit() -> int:
    """The unit's interpreter part, which alone times `import pittslab`:
    the full unit would load numpy first, and the program's import would
    then not pay for it."""
    acc = 0
    memo: dict = {}
    for f in _FORMULAS:
        key = frozenset((f, C.substitute(f, "P", C.neg(C.var("R")))))
        memo[key] = memo.get(key, 0) + 1
        acc += C.truth_mask(f, list(_NAMES))
        acc += len(_MODEL.forcing(f))
        acc += len(C.render(f))
        acc += C.size(C.substitute(f, "Q", ("and", C.var("P"), C.var("R"))))
    return acc + len(memo)


def _grids() -> int:
    """Broadcast bitmask grids over three axes, as in a three-atom sweep."""
    import numpy as np

    acc = 0
    for n in (3, 5, 8, 12, 20):
        a = np.arange(n, dtype=np.int64)
        x, y, z = a.reshape(n, 1, 1), a.reshape(1, n, 1), a.reshape(1, 1, n)
        g = (x & y) | z
        for w in range(4):
            ok = (g & w & ~(x | z)) == 0
            acc += int(np.flatnonzero(np.ravel(ok)).size)
    return acc


def unit() -> int:
    """One fixed piece of work; returns a checksum so none of it is skipped."""
    return _grids() + _grids() + interpreter_unit()


# Seconds each unit takes at the reference speed.
REFERENCE_S = {unit: 0.003, interpreter_unit: 0.0021}


class Sampler:
    """Samples the host's speed while active: one unit at entry, one at
    exit, and one every `every` seconds of wall time from a timer signal,
    between any two bytecodes of whatever runs.  `starts[i]` is when
    `samples[i]` began.  It owns SIGALRM while active; pittslab uses no
    signals."""

    def __init__(self, every: float, work=unit):
        self.every, self.work = every, work
        self.samples: list[float] = []
        self.starts: list[float] = []
        self._busy = False

    def _sample(self):
        t0 = perf_counter()
        self.work()
        self.starts.append(t0)
        self.samples.append(perf_counter() - t0)

    def _tick(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval from `t0` to `t1`, less the units run inside it, at
        the reference speed.  Its speed is taken from the samples from the
        last one before `t0` to the first one after `t1`, which are evenly
        spaced in time: their harmonic mean is the host's mean speed over
        the work done in the interval."""
        first = bisect.bisect_left(self.starts, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        inside = sum(self.samples[first + 1:after])
        unit_s = statistics.harmonic_mean(self.samples[first:after + 1])
        return (t1 - t0 - inside) * REFERENCE_S[self.work] / unit_s


def measure(fn, work=unit):
    """Run `fn()`; return its result and its time at the reference speed."""
    with Sampler(SAMPLE_EVERY_S, work) as host:
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
    return result, host.scaled(t0, t1)
