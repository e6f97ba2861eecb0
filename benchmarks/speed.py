"""Machine-speed probe: a fixed reference kernel timed during every pass.

The machine this benchmark targets shares its cores with other tenants, and
the speed of the same code drifts by up to 1.8x over tens of seconds.  A
pass's raw time therefore says as much about the neighbours as about the
code.  The probe runs a small numpy kernel that does not depend on the
package (4x4 complex products, like the pipeline's own work) every
INTERVAL_S seconds from a timer signal, and once before and after the
pass.  The mean kernel time over NOMINAL_S is the pass's slowdown factor; a
pass's time, with the probe's own time taken out, divided by that factor is
its time at nominal speed.  Measured on a 2-core shared VM over 13 to 47
passes per workload, the log of the raw pass time varied with a standard
deviation of 0.10 to 0.20; after scaling, 0.023 to 0.064.  The kernel slows
in proportion to the workloads: a fitted exponent of the factor was 0.98
to 1.17.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: fixed scale: about the kernel's median time on the 2-core machine the
#: baseline was measured on
NOMINAL_S = 1.0e-3
INTERVAL_S = 0.05
BRACKET_SAMPLES = 5

_M = ((np.arange(16).reshape(4, 4) % 5 - 2)
      + 1j * (np.arange(16).reshape(4, 4) % 3 - 1)) / 10.0
_MT = _M.T.copy()
_N = np.eye(4, dtype=complex)


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds.

    Euler steps of dC/dz = M C + C M^T + N on 4x4 complex matrices: the
    same small-array numpy dispatch that dominates the pipeline.
    """
    t0 = time.perf_counter()
    c = _N
    for _ in range(100):
        c = c + 1e-3 * (_M @ c + c @ _MT + _N)
    return time.perf_counter() - t0


def sample_for(seconds: float) -> list[float]:
    """Kernel times from back-to-back runs lasting about `seconds`."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(kernel())
    return samples


def slowdown(samples) -> float:
    return statistics.fmean(samples) / NOMINAL_S


class SpeedProbe:
    """Samples the kernel on entry and exit and, between `start` and `stop`,
    on a timer inside the timed window.

    `inside_wall` and `inside_cpu` hold the time the in-window samples took,
    to be taken out of the window's wall and CPU time.  In-window samples
    are recorded as "bench.probe" spans on the tracer, so self times stay
    exact under tracing.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.bracket: list[float] = []
        self.inside: list[float] = []
        self.inside_wall = 0.0
        self.inside_cpu = 0.0
        self._busy = False
        self._previous = None

    def _fire(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        with self.tracer.span("bench.probe"):
            self.inside.append(kernel())
        self.inside_cpu += time.process_time() - c0
        self.inside_wall += time.perf_counter() - w0
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.bracket += [kernel() for _ in range(BRACKET_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        return self

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
        self.bracket += [kernel() for _ in range(BRACKET_SAMPLES)]

    @property
    def factor(self) -> float:
        """Slowdown over the window; bracket samples stand in for a window
        too short to be sampled."""
        return slowdown(self.inside if len(self.inside) >= 10
                        else self.inside + self.bracket)
