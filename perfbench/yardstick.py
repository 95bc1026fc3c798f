"""Machine-speed yardstick for scaling wall times.

On a shared host the speed of a core drifts by up to a factor of two over
seconds to minutes (other tenants; CPU time tracks wall time, so the loss
does not show as waiting).  The benchmark therefore times a fixed piece of
work, independent of ``bestarm``, between its measurements and multiplies
each measured wall time by :func:`factor` of the readings on either side
of it: times are reported as they would read on a machine on which the
yardstick takes :data:`REFERENCE_S`.  The work mixes what the solvers spend their time on:
interpreted loops, generator round trips, small-dict updates and scalar
NumPy draws.  The unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Yardstick duration on the reference machine that scaled times refer to.
REFERENCE_S = 0.005
DRAWS = 2000
STEPS = 12000


def _echo():
    total = 0
    while True:
        total += yield total


def yardstick_s() -> float:
    """Seconds this process takes for the fixed yardstick work now."""
    import numpy as np  # imported lazily: numpy is part of the measured set-up

    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    table = {}
    for i in range(DRAWS):
        table[i & 63] = float(rng.normal(0.0, 1.0))
    echo = _echo()
    next(echo)
    acc = 0
    for i in range(STEPS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[i & 63] = echo.send(acc)
    return time.perf_counter() - start


def factor(readings) -> float:
    """Multiplier from wall seconds to reference seconds."""
    return REFERENCE_S / statistics.fmean(readings)
