"""Host-speed probe: a fixed pure-Python loop, timed every INTERVAL_S.

The host's CPU speed drifts by up to 1.9x in phases of seconds to minutes
(see README.md), so a raw time says as much about the neighbours as about
milnork.  While a pass runs, a timer signal runs this loop every INTERVAL_S
in the measured process itself and records how long it took.  A span's
normalized time is its busy time (probe time taken out) times REFERENCE_S
over the mean probe duration inside it: the time the span would have taken
had the host run at the speed at which the probe takes REFERENCE_S.
"""

import signal
import statistics
import time

PROBE_LOOPS = 15000
INTERVAL_S = 0.05
REFERENCE_S = 0.00085  # probe duration in the fast phases of the reference host
BURST = 8              # back-to-back probes that price a span too short to hold one


def probe():
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return start, time.perf_counter() - start


class SpeedProbe:
    """Samples (start, seconds) of the probe loop, from SIGALRM every INTERVAL_S."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def burst(self):
        self.samples.extend(probe() for _ in range(BURST))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def normalized(samples, start, end):
    """Busy time of [start, end) rescaled to REFERENCE_S probe speed; a span
    with no probe inside it is priced by the probe nearest to it."""
    inside = [(t, d) for t, d in samples if start <= t and t + d <= end]
    busy = end - start - sum(d for _, d in inside)
    if not inside:
        mid = (start + end) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - mid))]
    return busy * REFERENCE_S / statistics.mean(d for _, d in inside)
