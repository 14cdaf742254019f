"""Protocol time at a fixed reference speed of the host.

The benchmark shares a few cores of a virtual machine with other tenants,
and the speed the host gives it drifts by a third or more over minutes: the
same fold of training takes 4.0 s in one minute and 6.7 s a few minutes
later. A median over passes cannot remove a drift that lasts longer than a
run.

So while a pass runs, a timer interrupts it every INTERVAL_S seconds and
times a small fixed numpy kernel (a few milliseconds of eigh, bincount and
elementwise work, the kinds of operation psdrec spends its time in). Each
stretch of the pass between two samples is scaled by REF_S / (kernel time
measured right after it), so a stretch run while the host is slow counts as
if the kernel had taken REF_S. The sum is the pass's time at reference
speed. The samples' own time is left out of both the raw and the scaled
time; they add 2 to 3% to the elapsed time of a pass.

    with HostClock() as clock:
        run_the_pass()
    clock.raw_s, clock.scaled_s, clock.slowdown

The kernel is fixed code of the benchmark, independent of psdrec, so a
faster psdrec shows as a smaller scaled time and a busier host does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# Kernel time that defines the reference speed: about what the kernel takes
# on an idle 2.0 GHz Xeon vCPU with one BLAS thread.
REF_S = 0.003

_rng = np.random.default_rng(1601_06035)
_batch = _rng.standard_normal((32, 3, 3)) + 1j * _rng.standard_normal((32, 3, 3))
_HERMITIAN = _batch + np.conj(np.swapaxes(_batch, 1, 2))
_VALUES = _rng.standard_normal(50_000)
_BINS = _rng.integers(0, 2000, 50_000)


def kernel():
    """The fixed work whose time samples the host's speed."""
    acc = 0.0
    for _ in range(12):
        w, _v = np.linalg.eigh(_HERMITIAN)
        acc += float(np.clip(w, 0.0, None).sum())
        acc += float(np.bincount(_BINS, weights=_VALUES * _VALUES[::-1], minlength=2000)[3])
    return acc


class HostClock:
    """Times the enclosed block raw and at reference speed (see module doc).

    Uses SIGALRM, so it must run in the main thread and the block must not
    use SIGALRM itself.
    """

    def __init__(self):
        for _ in range(3):
            kernel()

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        tic = time.perf_counter()
        kernel()
        toc = time.perf_counter()
        ref = toc - tic
        self.samples.append(ref)
        self._raw += tic - self._last
        self._scaled += (tic - self._last) * REF_S / ref
        self._last = toc
        self._busy = False

    def __enter__(self):
        self.samples = []
        self._raw = self._scaled = 0.0
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s, self.scaled_s = self._raw, self._scaled
        return False

    @property
    def slowdown(self):
        """Median kernel time over REF_S: 1.0 on an idle host."""
        return statistics.median(self.samples) / REF_S
