"""A fixed reference probe that measures how fast the host runs right now.

The host is shared: the same code runs up to twice as slow for minutes at a
time while the process still gets a whole core (CPU time equals wall time),
so the slowdown is contention, not scheduling, and no run length averages
it out.  The probe runs a fixed piece of work of the kinds the program
spends its time on (gathers, products and ``bincount`` on short float
vectors, interpreted loops and dict updates) and uses no code of the
program.  The benchmark takes a probe between every two timed calls and
scales each call's wall time by ``scale`` of the mean of the probes on
either side of the call.  Because the probe never runs program code, a
change to the program moves the scaled timings by the same factor as the
wall times.
"""
from __future__ import annotations

import time

import numpy as np

# the probe time the scaled timings refer to: a scaled timing is the wall
# time the call would take while the probe takes this long (2-core Xeon VM,
# Python 3.11, numpy 2.4; the probe read 9-24 ms there)
REFERENCE_PROBE_S = 0.0160

# how much harder the host's slow spells hit each kind of work than the
# probe: a wall time is taken to grow as the probe's time to this power.
# Over 71 runs of the same code with median probes of 10-18 ms, the slope
# of the log of a run's median call time against the log of its median
# probe was 1.06 on curvature-sweep (0.92-1.40 per catalog metric), 1.20 on
# detour-closure (1.12-1.51) and 1.36 on transport (1.22-1.38), whose calls
# spend their time in the ODE solver's loop over tiny jets; the power is where
# the run-to-run spread of the scaled timings was least.  Set-up (imports
# and parsing) tracks the probe one to one.
SENSITIVITY = {"setup": 1.0, "curvature-sweep": 1.15, "detour-closure": 1.15,
               "transport": 1.3}


class HostProbe:
    """The reference work and the buffers it runs in.

    The work writes into buffers made here and allocates only small
    short-lived arrays and floats, so the heap the program leaves behind
    hardly moves it.
    """

    N = 126  # coefficients of a 4-variable jet of order 5
    M = 2000

    def __init__(self):
        rng = np.random.default_rng(20061203)
        self.ia = rng.integers(0, self.N, self.M)
        self.ib = rng.integers(0, self.N, self.M)
        self.ic = np.sort(rng.integers(0, self.N, self.M))
        self.a = rng.standard_normal(self.N)
        self.b = rng.standard_normal(self.N)
        self.x = np.empty(self.N)
        self.ga, self.gb, self.w = np.empty(self.M), np.empty(self.M), np.empty(self.M)
        self.table = dict.fromkeys(range(256), 0.0)

    def __call__(self) -> float:
        """Seconds the reference work takes now (9-24 ms on a 2-core VM)."""
        t0 = time.perf_counter()
        x, table = self.x, self.table
        np.copyto(x, self.a)
        for _ in range(300):
            np.take(x, self.ia, out=self.ga)
            np.take(self.b, self.ib, out=self.gb)
            np.multiply(self.ga, self.gb, out=self.w)
            np.add(x, np.bincount(self.ic, weights=self.w, minlength=self.N), out=x)
            np.multiply(x, 1e-3, out=x)
        for k in range(30000):
            table[k & 255] = table[k & 255] + 0.5
        h = 0
        for k in range(30000):
            h = (h * 31 + k) & 0xFFFFFF
        return time.perf_counter() - t0


def scale(kind: str, probe_s: float) -> float:
    """Factor that turns a wall time of ``kind`` (a workload's call, or
    ``"setup"``) measured next to this probe into reference seconds."""
    return (REFERENCE_PROBE_S / probe_s) ** SENSITIVITY[kind]
