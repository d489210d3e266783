"""Host-speed calibration: time a fixed loop between measured segments.

The benchmark runs on shared virtual machines whose CPU speed drifts by
up to 2x over minutes as neighbours load the host; a raw wall time then
says as much about the neighbours as about the program.  Every
in-process run therefore times ``sample()`` -- a fixed mix of small
NumPy operations and Python object churn, like the model's own inner
loops, that no change to the program can touch -- before each
iteration and once after the last, on the one CPU the run is pinned
to.  The run's end-to-end times (all but set-up) are reported at the
reference speed: scaled by ``REFERENCE_S`` over the median sample.
Raw figures and the scale are printed beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The loop's time on the machine this benchmark was defined on (a
#: 2-vCPU VM at 2.1 GHz, in its faster state).
REFERENCE_S = 0.012

_DATA = np.random.default_rng(0).random(20000)


def sample() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = 0.0
    for step in range(120):
        mixed = _DATA * (1.0 + step) + _DATA[::-1]
        total += float(mixed.min())
        total += np.flatnonzero(mixed < mixed.mean()).size
        pairs = [(item, item * 0.5) for item in range(400)]
        total += sum(value for _, value in pairs)
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the work observable; never true
        raise AssertionError(total)
    return elapsed


def time_scale(samples: list) -> float:
    """Factor turning a raw time into a time at the reference speed
    (1.0 when the run took no samples: its times stay raw)."""
    return REFERENCE_S / statistics.median(samples) if samples else 1.0
