"""Host speed, measured with a fixed pure-Python loop that never touches grothloc.

On a shared host the loop's time drifts by about 20% within seconds, and
interpreters started one after another run up to 1.7 times apart in speed;
the library's times move with the loop's.  So each timing is scaled by the
speed of the process that did the work, measured on both sides of it: the
result is the time on a host where the loop takes CAL_REF_S (its typical
time on the 2-core x86-64 container the bounds were set on).  This module
imports nothing heavy, so child interpreters load it cheaply.
"""
import math
from time import perf_counter

CAL_ITER = 5_000
CAL_REF_S = 0.001


def _calibration_loop():
    acc, seen = 0, {}
    for i in range(CAL_ITER):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 1023] = i
    return acc


def host_speed() -> float:
    """CAL_REF_S over the best of two timings of the calibration loop.

    Below 1 while the host runs slow; a time measured meanwhile, times this
    factor, is the time on a host running at reference speed.
    """
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - t0)
    return CAL_REF_S / best


class Scaler:
    """Scales timings by this process's host speed measured before and after each."""

    def __init__(self):
        self.speed = host_speed()

    def timed(self, fn, *args):
        """(result, raw seconds, scaled seconds) of fn(*args)."""
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        after = host_speed()
        scaled = raw * (self.speed + after) / 2
        self.speed = after
        return result, raw, scaled
