"""The host's speed, sampled while the benchmark runs.

On a shared 2-core host the CPU's speed flips between states about 1.9x
apart, several times a second and for minutes at a time, and CPU time
tracks wall time.  A job's seconds then say as much about the host as about
ratho.  HostClock samples the host's speed every PERIOD_S from a SIGALRM
handler: each sample times one fixed reference, a mix of the interpreter
work ratho does (Fraction row operations, building Fractions, tuple-keyed
dict updates and small-integer arithmetic) that no change to ratho can
speed up.  A tiny loop alone picks up a bias of its own from one process to
the next; the mix keeps that within a few percent.  A job's time in ref
units is its seconds, less the time the handler took inside it, over the
mean reference time sampled during the job and within WINDOW_S on either
side of it.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.03
WINDOW_S = 0.06
_ROW = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(40)]
_OTHER = [Fraction(i % 11 - 5, i % 3 + 1) for i in range(40)]
_FACTOR = Fraction(2, 3)


def _reference():
    [a - _FACTOR * b for a, b in zip(_ROW, _OTHER)]
    [Fraction(i % 7 - 3, i % 5 + 1) - _FACTOR * Fraction(i % 11 - 5, i % 3 + 1)
     for i in range(20)]
    terms = {}
    for i in range(60):
        key = (i % 3, i % 2, i % 5, 0)
        terms[key] = terms.get(key, 0) + (i * 7919) % 13
    sorted(terms.items())
    x = 1
    for _ in range(300):
        x = (x * 1103515245 + 12345) & 0x7fffffff


class HostClock:
    """Context manager that samples the reference while it is open.

    Only one can be open at a time in a process: it owns SIGALRM.
    """

    def __init__(self):
        self.times = []
        self.ref_s = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference()
        end = time.perf_counter()
        self.times.append(start)
        self.ref_s.append(end - start)
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def refs(self, start, end, seconds):
        """seconds of work done between start and end, in ref units."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return seconds / statistics.fmean(self.ref_s[lo:hi])
