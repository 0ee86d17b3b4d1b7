"""A fixed piece of exact arithmetic that times the host, not the program.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, and the drift moves every wall time the same
way.  After every request, off the clock, a client times this fixed work,
which uses nothing from ``g2torsion``.  A block's *speed factor* is
``REFERENCE_S`` divided by the mean of the probe times after its requests,
and a reported request time is the measured wall time times its block's
factor: the time the request would have taken on a host where the probe
takes ``REFERENCE_S``.  The work is what the exact layers spend their time on,
pure-Python ``Fraction`` matrix products of small-integer matrices (like
the Clifford matrices) and an elimination whose entries grow (like
``rref``), so it slows down with the host the way they do.  No change to
``g2torsion`` can alter it, so a faster program still reads faster and a
slower one slower.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

#: Probe time, in seconds, that defines the reference speed: about the
#: median probe time on the 2-vCPU Xeon VM the benchmark was built on.
REFERENCE_S = 0.012

_N = 8
_rng = random.Random(20130731)
_SMALL = [[Fraction(_rng.choice((0, 0, 0, 1, -1))) for _ in range(_N)] for _ in range(_N)]
_DENSE = [[Fraction(_rng.randint(-40, 40), _rng.randint(1, 12)) for _ in range(_N)]
          for _ in range(_N)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def _rank(m):
    m = [row[:] for row in m]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _work():
    p = _SMALL
    for _ in range(2):
        p = _matmul(p, _SMALL)
    return _rank(p) + _rank(_matmul(_DENSE, _DENSE))


#: What ``_work`` must return: the ranks of the small matrix's cube and of
#: the dense product.  Another answer means the probe is broken.
_RANK = 7 + 8


def probe():
    """Seconds taken by the fixed work; checks its own answer."""
    t0 = time.perf_counter()
    rank = _work()
    seconds = time.perf_counter() - t0
    if rank != _RANK:
        raise RuntimeError(f"reference work gave rank {rank}, want {_RANK}")
    return seconds
