"""Processor-speed calibration, so that times are comparable across a shared host.

On a shared host the speed of one core changes by up to 2x from second to
second (other tenants' load), and a call's wall time follows it. Every timed
call is therefore bracketed by calibration samples, a fixed exact Fraction
elimination whose work never changes, and a call longer than INTERVAL_S is
also sampled while it runs, from a SIGALRM handler. A call's time is reported
in reference seconds: (measured seconds - handler time inside it) * REF_S /
(mean calibration time before, during and after it).
"""

import random
import signal
import time
from fractions import Fraction

SIZE = 12  # the calibration is the RREF of a fixed SIZE x SIZE integer matrix over Fraction
# Calibration time that defines a reference second. Never change it: figures
# from before and after the change would no longer be comparable.
REF_S = 0.006
SHARE = 0.03  # calibration after a call lasts this share of the call (at least one sample)
INTERVAL_S = 0.25  # wall time between samples inside a call


def _kernel():
    rng = random.Random(12345)
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(SIZE)] for _ in range(SIZE)]
    for c in range(SIZE):
        p = next((i for i in range(c, SIZE) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(SIZE):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]


def calibrate(call_s=0.0):
    """Calibration sample times: at least one, and SHARE * call_s seconds of them."""
    out = []
    while not out or sum(out) < SHARE * call_s:
        t = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t)
    return out


class Sampler:
    """Calibration samples every INTERVAL_S of wall time while armed, as (start, end)."""

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        t = time.perf_counter()
        _kernel()
        self.samples.append((t, time.perf_counter()))

    def arm(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def gap(self, call_s):
        """Calibrate after a call with the timer off, then re-arm it for the next call."""
        self.disarm()
        out = calibrate(call_s)
        self.arm()
        return out

    def reference(self, t0, t1, before, after):
        """Reference seconds of the call that ran from t0 to t1, between two gaps."""
        inside = [(s, e) for s, e in self.samples if s < t1 and e > t0]
        handler_s = sum(min(e, t1) - max(s, t0) for s, e in inside)
        during = [e - s for s, e in inside if s >= t0 and e <= t1]
        return to_reference(t1 - t0 - handler_s, before + during + after)


def to_reference(seconds, samples):
    """Measured seconds -> reference seconds, given the calibration samples around them."""
    return seconds * REF_S * len(samples) / sum(samples)
