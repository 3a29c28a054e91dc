"""Host time scaled to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent over seconds to minutes: another tenant's load on the
same cores slows every instruction alike.  A plain timer therefore reads
the neighbours as much as the program.

``ReferenceClock`` interleaves a short, fixed, pure-Python reference loop
with the program.  A ``SIGALRM`` interval timer runs the loop every
``INTERVAL_S`` of wall time, in the main thread between two bytecodes of
the program (no thread, no process).  Each stretch of program time
between two loops is divided by the mean duration of the two loops that
bracket it and multiplied by ``REFERENCE_LOOP_S``.  The sum reads as
seconds on a host that runs the loop in ``REFERENCE_LOOP_S``: the
quiet speed of the 2-vCPU Xeon VM the benchmark was tuned on.  The
loops' own time is left out of both the raw and the scaled totals.

A program change that does more or less work moves the scaled time as
much as the raw time; host drift moves only the raw time.  The loop
allocates nothing the garbage collector tracks and runs with the
collector off, so the program's heap size cannot slow it.
"""

from __future__ import annotations

import gc
import signal
import time

# Wall seconds between two reference loops.
INTERVAL_S = 0.2
# The loop's duration on the quiet tuning host (see the module docstring).
REFERENCE_LOOP_S = 0.005

_MODULUS = 2**256 - 2**32 - 977  # the secp256k1 field prime
_TABLE = {index: index * 7919 for index in range(256)}


def reference_loop() -> int:
    """Fixed work in the simulator's mix: 256-bit modular arithmetic,
    small-int arithmetic and dict lookups, all in the interpreter."""
    x = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
    acc = 0
    table = _TABLE
    for index in range(8000):
        x = x * x % _MODULUS
        acc = (acc + table[index & 255] + (x & 1023)) & 0xFFFFFFFF
    return acc


class ReferenceClock:
    """Accumulates program time, raw and scaled, between reference loops.

    Use as a context manager; ``read()`` returns the totals so far.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.loops = 0
        self._last_end = 0.0
        self._last_loop_s = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self) -> "ReferenceClock":
        self._calibrate()
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self._calibrate())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def read(self) -> tuple[float, float]:
        """(raw, scaled) program seconds since the clock was entered."""
        self._calibrate()
        return self.raw_s, self.scaled_s

    def _calibrate(self) -> None:
        if self._busy:  # the timer fired inside a read()
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        loop_s = end - start
        if self.loops:
            program_s = start - self._last_end
            self.raw_s += program_s
            self.scaled_s += (program_s * 2 * REFERENCE_LOOP_S
                              / (self._last_loop_s + loop_s))
        self.loops += 1
        self._last_end = end
        self._last_loop_s = loop_s
