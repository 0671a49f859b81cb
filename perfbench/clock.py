"""Operation timing scaled to a reference speed of the host.

On a shared host the processor's speed swings by up to two or three times,
in phases from a second to a minute long, and Python code and small
numpy calls slow down together.  A run of half a minute can fall wholly in
a slow phase, so no estimator over one run's raw times is steady from run to
run.  The clock therefore times a fixed loop of small numpy calls (the
calibration loop) throughout each operation, about every ``INTERVAL`` seconds, and
reports each operation's time scaled by ``REFERENCE_S / K``, where K is the
median time of the calibration loop during that operation (and, for a short
operation, just before it: at least ``WINDOW`` loops).  The scaled
time is what the operation would take on a host that runs the calibration
loop in ``REFERENCE_S``.  Calibration time is left out of the operation's
time, and the raw times and K of every operation go to the result file.

To calibrate inside an operation the clock swaps a few frequently called
package functions for wrappers that look at the clock, the way ``tracing``
does, and restores them afterwards; no file of the package changes.  It is
installed in untraced rounds only.  A wrapper call costs well under a
microsecond, and the calibration loop about four per cent of the run.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

from tracing import swapped

# seconds of work between two calibrations inside an operation
INTERVAL = 0.01
# about the calibration loop's median time on a shared 2-vCPU x86-64 VM
# (CPython 3.11, numpy 2.4.6); it fixes the scale of the reported times
REFERENCE_S = 0.0005
_LOOP = 50
WINDOW = 16

# (home module, function name, stride): the clock is looked at on every
# stride-th call of the function inside an operation
BOUNDARIES = (
    ("mvmetric.eval", "knn_classify", 1),        # eval: once per test sample
    ("mvmetric.metric", "view_distance", 16),    # check: every 4 triples
    ("mvmetric.scatter", "compute_scatter", 1),  # train: large scatter steps
    ("mvmetric.scatter", "compute_cross", 1),
    ("mvmetric.solver", "top_eigenpairs", 1),
    ("numpy.linalg", "svd", 4),                  # train: polar / refine sweeps
)


_W = np.linspace(-1.0, 1.0, 250).reshape(50, 5)
_X = np.linspace(0.0, 1.0, 50)


def calibration_loop() -> float:
    """Plain Python arithmetic, then small projections and dot products from
    Python: the two kinds of work the program spends most of its time in."""
    total = 0.0
    for i in range(50 * _LOOP):
        total += i
    for i in range(_LOOP):
        z = _W.T @ (_X - i)
        total += float(np.dot(z, z))
    return total


class CalibratedClock:
    """Times operations; each yields its raw seconds and calibration time K."""

    def __init__(self):
        self._open = False
        self._paused = 0.0
        self._loops = []  # recent calibration times, oldest first

    def _calibrate(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self._loops.append(end - start)
        self._paused += end - start
        self._last = end

    def _poll(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL:
            self._calibrate()

    def start(self) -> None:
        self._calls = [0] * len(BOUNDARIES)
        del self._loops[:-WINDOW]
        self._first = len(self._loops)
        self._calibrate()
        self._open = True
        self._paused = 0.0
        self._start = time.perf_counter()

    def stop(self, out: list) -> None:
        """Close the open operation and append ``{"raw_s", "k_s"}`` to ``out``."""
        self._open = False
        raw = time.perf_counter() - self._start - self._paused
        self._calibrate()
        own = len(self._loops) - self._first
        k = statistics.median(self._loops[-max(own, WINDOW):])
        out.append({"raw_s": raw, "k_s": k})

    @contextlib.contextmanager
    def operation(self, out: list):
        self.start()
        try:
            yield
        finally:
            self.stop(out)

    def _wrap(self, func, slot: int, stride: int):
        @functools.wraps(func)
        def polled(*args, **kwargs):
            if self._open:
                self._calls[slot] += 1
                if self._calls[slot] % stride == 0:
                    self._poll()
            return func(*args, **kwargs)

        return polled

    def installed(self):
        """Swap the boundary functions for polling wrappers, then restore them."""
        return swapped(
            [(home, name, functools.partial(self._wrap, slot=slot, stride=stride))
             for slot, (home, name, stride) in enumerate(BOUNDARIES)]
        )


def scaled(op: dict) -> float:
    """An operation's time at the reference speed."""
    return op["raw_s"] * REFERENCE_S / op["k_s"]
