"""Host-speed calibration: timings scaled to a reference speed.

The reference host's speed drifts by 10-40 % over seconds to minutes,
and by up to 2x while something runs on the other vCPU; every raw timing
drifts with it, so raw timings of two runs of the same code disagree by
more than any useful regression bound.  The benchmark therefore times a
fixed reference loop right before and right after every timed operation
and scales the operation's time by the loop's:

    scaled = elapsed * nominal / mean(loop before, loop after)

That is the time the operation would take on a host where the loop
takes its nominal time.  A change to the program moves the scaled time
as it moves the raw one; a change in host speed moves both the
operation and the loop, and cancels.  The loops are the benchmark's own
code and never call the program, so no change to the program can move
them.  Raw timings are printed beside the scaled ones.

Contention does not slow every kind of work alike, so there is one loop
per kind of work, and each operation is bracketed by the loop of the
kind its time is spent in:

``python``  interpreter-bound code (protocol simulation, HTTP serving,
            interpreter start-up): dict stores and integer arithmetic;
``arrays``  NumPy over short vectors, one step at a time (the MC
            kernels): random draws, then 64 dependent element-wise steps
            on 4096-wide arrays;
``grid``    NumPy over a large 2-D grid (the exact DP): shifted copies
            and sums of a 300 x 600 float grid into fresh arrays.

With a busy process on the other vCPU (interpreter-, memory- or
allocation-bound), raw times of every workload rose by 30 % to 2x,
depending on the host's state, while times scaled this way moved by a
fifth at most.
"""

from __future__ import annotations

import time

# NumPy is imported inside the array loops: the load generator uses only
# the ``python`` loop and stays on the standard library.
_VECTOR = 4096
_STEPS = 64


def _python() -> None:
    table = {}
    total = 0
    for i in range(60_000):
        total += i & 7
        table[i & 255] = total


def _arrays() -> None:
    import numpy as np

    symbols = np.random.default_rng(1).random((_VECTOR, _STEPS)) < 0.3
    reach = np.zeros(_VECTOR, np.int64)
    margin = reach.copy()
    for step in range(_STEPS):
        honest = symbols[:, step]
        new_reach = np.maximum(reach + np.where(honest, -1, 1), 0)
        new_margin = np.where(honest, margin - 1, margin + 1)
        margin = np.minimum(new_margin, new_reach)
        reach = new_reach


def _grid() -> None:
    import numpy as np

    grid = np.linspace(0.0, 1.0, 300 * 600).reshape(300, 600)
    for _ in range(5):
        out = np.zeros_like(grid)
        out[1:, 1:] = grid[:-1, :-1]
        out[-1, 1:] += grid[-1, :-1]
        shifted = np.zeros_like(grid)
        shifted[:, :-1] = grid[:, 1:]
        out[:-1, :] += shifted[1:, :]
        grid = out * 0.5 + grid * 0.5


#: Kind -> (loop, its nominal seconds).  The nominal times are the
#: loops' times on the reference host (2-vCPU x86-64 container,
#: CPython 3.11, NumPy 2.4) with nothing else running, so scaled times
#: read close to raw ones there.
LOOPS = {
    "python": (_python, 0.0065),
    "arrays": (_arrays, 0.0055),
    "grid": (_grid, 0.0050),
}


def reference_loop(kind: str) -> float:
    """Seconds one run of the ``kind`` reference loop takes now."""
    loop = LOOPS[kind][0]
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def scale(kind: str, elapsed: float, loop_before: float, loop_after: float) -> float:
    """``elapsed`` seconds of ``kind`` work at the reference speed."""
    return elapsed * LOOPS[kind][1] * 2.0 / (loop_before + loop_after)


class Stopwatch:
    """Times consecutive operations of one kind, each bracketed by
    reference-loop readings (the reading after one operation is the one
    before the next).  :attr:`raw` and :attr:`scaled` map names to
    seconds."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._loop = reference_loop(kind)

    def time(self, name: str, function, *args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - start
        loop_after = reference_loop(self.kind)
        self.raw[name] = elapsed
        self.scaled[name] = scale(self.kind, elapsed, self._loop, loop_after)
        self._loop = loop_after
        return result
