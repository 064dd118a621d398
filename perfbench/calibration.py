"""Machine-speed calibration for the op and set-up timers.

On a shared virtual machine the CPU time of identical work moves with
the load the host's other tenants put on it: es_bruteforce on one set
took from 0.12 to 0.33 s within a minute, and the medians of 20-second
windows moved by 13% (quartile spread over eight windows).  Steal time
stayed near zero, so CPU time does not leave this out.

The benchmark therefore runs a fixed slice of pure-Python exact
arithmetic between ops, and scales each op time by REFERENCE_SLICE_S over
the median time of the slices around it (WINDOW before and WINDOW after):
the result is CPU seconds on a machine where one slice takes
REFERENCE_SLICE_S.  Over the same eight windows, scaling by the median
slice of each window brought the spread of the medians down to 2%.  On
repeated runs of the same extract ops, the spread of op_p50_s was 35%
raw, 13% scaled by the run's median slice and 7% scaled by the slices
around each op.  The slice does not touch esdec, so a change to esdec
moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction

# CPU seconds one slice takes on the reference machine: the median on the
# 2-vCPU virtual machine the benchmark was tuned on
REFERENCE_SLICE_S = 0.04
# slices on each side of an op that set its scale; the machine's speed
# moved in phases of a few seconds, about ten slices apart
WINDOW = 2


def work_slice() -> int:
    """Repeated products of a dense 6x6 bivariate polynomial with
    Fraction coefficients, kept as a dict of exponent pairs: the kind of
    work esdec's exact arithmetic does."""
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    terms = 0
    for _ in range(6):
        q: dict = {}
        for (a, b), c in p.items():
            for (d, e), f in p.items():
                k = (a + d, b + e)
                q[k] = q.get(k, 0) + c * f
        terms += len(q)
        p = {k: v for k, v in q.items() if k[0] < 6 and k[1] < 6}
    return terms


class Speedometer:
    """Times work slices with ``clock`` and turns the machine's CPU
    seconds into reference seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list = []

    def sample(self) -> None:
        # the slice leaves no garbage cycles; keeping the collector off
        # stops it from walking esdec's objects inside the slice
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            work_slice()
            self.samples.append(self.clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def slice_s(self) -> float:
        return statistics.median(self.samples)

    def scale_at(self, k: int) -> float:
        """Reference seconds per CPU second of this machine at the time
        ``k`` slices had been taken."""
        return REFERENCE_SLICE_S / statistics.median(self.samples[max(0, k - WINDOW):k + WINDOW])
