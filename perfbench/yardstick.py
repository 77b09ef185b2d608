"""A fixed piece of work that shows how fast the machine runs right now.

The benchmark shares a few cores of a host with other jobs, and the
speed it gets drifts by a third or more over minutes: a run a few
minutes after another can take 30% longer with nothing changed.  The
yardstick is timed right after every repetition.  Dividing a
repetition's wall time by the yardstick's time next to it, and
multiplying by ``REFERENCE_S``, gives the time the repetition would have
taken at the speed the reference box had when ``REFERENCE_S`` was
taken.  Drift of the whole machine cancels; a change in the program
does not, because the yardstick does not call the program.

The work is what the journeys' numpy time goes into, in about equal
shares: passes over a matrix of 8 MB (a rank-1 update, a symmetrisation
and a fancy-index copy, as in conditioning a Gaussian state) and LAPACK
eigenvalue solves.  A pure-Python loop was tried as a third part and
left out: its time followed the journeys' drift worse than either of
these.  The work is the same on every run and for every workload, and
it allocates about 40 MB, all freed when it returns.
"""

from __future__ import annotations

import time

import numpy as np

# yardstick time on the reference box (2-CPU shared host, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread); a constant, so scaled
# times from different runs and commits compare
REFERENCE_S = 0.14

_STREAM_N, _STREAM_PASSES = 1000, 3
_EIGEN_N, _EIGEN_SOLVES = 300, 12


def _stream(rng: np.random.Generator) -> float:
    n = _STREAM_N
    a = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    keep = np.arange(1, n)
    for _ in range(_STREAM_PASSES):
        b = a - np.outer(v, v) / n
        a = np.pad(((b + b.T) / 2)[np.ix_(keep, keep)], ((0, 1), (0, 1)))
    return float(a[0, 0])


def _eigen(rng: np.random.Generator) -> float:
    s = rng.standard_normal((_EIGEN_N, _EIGEN_N))
    s = s @ s.T
    return float(sum(np.linalg.eigvalsh(s)[-1] for _ in range(_EIGEN_SOLVES)))


def measure() -> tuple[float, float]:
    """Seconds taken by the numpy part and by the LAPACK part."""
    rng = np.random.default_rng(0)
    times = []
    for part in (_stream, _eigen):
        t0 = time.perf_counter()
        part(rng)
        times.append(time.perf_counter() - t0)
    return tuple(times)
