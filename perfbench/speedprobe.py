"""The speed probe's fixed loop, shared by the worker and the set-up probes.

It imports nothing beyond the standard library, so a set-up probe can run it
before it times the import of discrim and numpy.
"""

from time import perf_counter

# time of one probe_once() at the reference speed; scaled times are given
# in seconds at that speed
REFERENCE_S = 1e-3


def probe_once() -> float:
    """Seconds taken by a fixed mix of bytecode-bound and big-integer work."""
    t = perf_counter()
    s = 0
    d = {}
    for i in range(3000):
        s += i * i % 7
        d[i & 63] = s
    for a in range(2, 40):
        pow(a, 10**17 + 2, 10**17 + 3)
    return perf_counter() - t
