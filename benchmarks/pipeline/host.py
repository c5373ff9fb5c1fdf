"""The machine under the program, taken out of the measurements.

The sandbox this was developed on switches between CPU speeds a factor
of two apart, in stretches of 30 ms to many seconds (a neighbour on
the same core, most likely), and its virtual disk takes 0.1 ms for an
``fsync`` in one quarter of an hour and 0.4 ms in the next.  Measured
over 25 s windows, the median wall time of a fixed piece of the
pipeline moves by 12-15 % (quartile distance; 25 % per sample), its
minimum by up to 20 %: no statistic of raw wall times holds a bound
here.  What does hold still is the *ratio* of that wall time to the
wall time of a fixed reference kernel run right before and after it:
1-3 % over the same windows, 8 % per sample.

So every timed stretch is bracketed by two **ticks** of the reference
kernel (json + zlib + dict updates, the mix the pipeline itself is made
of), and reported as it would have taken on a host where a tick takes
exactly ``NOMINAL_TICK_S``: ``wall / (mean tick / NOMINAL_TICK_S)``.
The unit stays the second; on this sandbox a tick takes 0.9 ms at best
and 1.2 ms typically, so reported times are close to its good moments.
``bench.calibration_ms`` is the run's median tick: multiply by it to
get back what the wall clock said.

Loops are cut into stretches of a few milliseconds, so two ticks
bracket the host's state well.  A single call that runs for a tenth of
a second or longer (a recovery, an offline ingest, generating the
campaign) sees several states; such a stretch is **sampled**: an
interval timer interrupts it every ``SAMPLE_PERIOD_S`` for one more
tick, taken in the signal handler between two bytecodes of the
program, and the time spent in those ticks is taken off the stretch.

The disk is replaced by a device of fixed speed: while a :class:`Host`
stands in, ``os.fsync`` only counts, and every stretch is charged
``DEVICE_FSYNC_S`` per call on top of its rescaled wall time.  Files
are still written to and read from the checkout; commit half as often
and the ACK path gets that much faster; the neighbours' I/O stays out.
Crash safety does not lean on it: ``crash()`` drops what was not
committed, in process.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import statistics
import time
import zlib
from typing import Dict, Iterator, List

#: What a tick of the reference kernel takes on the nominal host.
NOMINAL_TICK_S = 1.0e-3
#: What one fsync costs on the stand-in device.
DEVICE_FSYNC_S = 100e-6
#: A sampled stretch is interrupted this often for a tick.
SAMPLE_PERIOD_S = 25e-3
#: A tick this fresh is not repeated: back-to-back stretches share the
#: tick between them.
_REUSE_S = 200e-6


class Stretch:
    """One timed stretch: its wall time, the fsyncs issued inside it
    and how much slower than nominal the host ran around it."""

    __slots__ = ("raw", "fsyncs", "slowdown")

    def __init__(self) -> None:
        self.raw = 0.0
        self.fsyncs = 0
        self.slowdown = 1.0

    def scaled(self, raw: float, fsyncs: int = 0) -> float:
        """Seconds ``raw`` seconds of this stretch's wall, with
        ``fsyncs`` flushes in them, take on the nominal host and
        device."""
        return raw / self.slowdown + fsyncs * DEVICE_FSYNC_S

    @property
    def seconds(self) -> float:
        return self.scaled(self.raw, self.fsyncs)


class Host:
    """Reference kernel and stand-in device of one run.  Create it in
    the main thread: it takes over ``SIGALRM``."""

    def __init__(self) -> None:
        #: Wall seconds of every tick, in order.
        self.ticks: List[float] = []
        #: ``os.fsync`` calls absorbed so far.
        self.fsyncs = 0
        self._tick_ended = 0.0
        #: Ticks taken inside the current sampled stretch, and the
        #: wall seconds they took out of it.
        self._sampled: List[float] = []
        self._sampled_s = 0.0
        self._rows = [{"key": i, "name": "x" * (i % 17),
                       "value": i * 0.25} for i in range(500)]
        signal.signal(signal.SIGALRM, self._alarm)

    def tick(self) -> float:
        """Run the reference kernel (or reuse a run that has only just
        ended) and return its wall seconds."""
        clock = time.perf_counter
        started = clock()
        if self.ticks and started - self._tick_ended < _REUSE_S:
            return self.ticks[-1]
        packed = zlib.compress(json.dumps(self._rows).encode(), 6)
        table: Dict[int, float] = {}
        for row in json.loads(zlib.decompress(packed)):
            slot = row["key"] % 257
            table[slot] = table.get(slot, 0.0) + row["value"]
        self._tick_ended = clock()
        self.ticks.append(self._tick_ended - started)
        return self.ticks[-1]

    def _alarm(self, _signum, _frame) -> None:
        started = time.perf_counter()
        self._sampled.append(self.tick())
        self._sampled_s += time.perf_counter() - started

    @contextlib.contextmanager
    def stretch(self, sampled: bool = False) -> Iterator[Stretch]:
        """Time the block between two ticks; ``sampled``, with more
        ticks inside it."""
        stretch = Stretch()
        self._sampled = [self.tick()]
        self._sampled_s = 0.0
        fsyncs = self.fsyncs
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                             SAMPLE_PERIOD_S)
        started = time.perf_counter()
        try:
            yield stretch
        finally:
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        stretch.raw = time.perf_counter() - started - self._sampled_s
        stretch.fsyncs = self.fsyncs - fsyncs
        self._sampled.append(self.tick())
        stretch.slowdown = statistics.fmean(self._sampled) \
            / NOMINAL_TICK_S

    def _fsync(self, _fd) -> None:
        self.fsyncs += 1

    @contextlib.contextmanager
    def device(self) -> Iterator[None]:
        """Stand in for the disk: ``os.fsync`` counts and returns."""
        real, os.fsync = os.fsync, self._fsync
        try:
            yield
        finally:
            os.fsync = real
