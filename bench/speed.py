"""Machine speed, measured next to the program, for the end-to-end timings.

On a shared host the speed of one core drifts: a fixed loop can run up to
2x slower for seconds or minutes at a time, because of work that other
tenants run on the same hardware. A whole run can fall in a slow stretch,
so wall times of the same code spread by more than the benchmark's bounds
across runs, whatever the run length.

`SpeedMeter` runs a fixed pure-Python reference kernel between program calls
(after a training or protocol step, at most every `EVERY_S` seconds, and at
the end of every timed interval) and records how long it took. `scaled`
turns the wall time of an interval into the time it would have taken at
the speed where the kernel takes `REF_MS`: the wall time, minus the kernel
runs inside it, times `REF_MS` over the median kernel time inside it. The
program is mostly Python-interpreter bound, and its wall time tracks the
kernel's: on the 2-vCPU test machine, the median step time over 50 s
windows spread by 0.18 of its median, and by 0.03 after this scaling.

The kernel belongs to the benchmark, not the program, so a change to the
program moves the scaled times as much as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_MS = 5.0              # kernel time at the reference speed
REF_LOOPS = 100_000       # about 5 ms on the test machine's fast state
EVERY_S = 0.25            # least wall time between kernel runs after steps


def reference_kernel() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


class SpeedMeter:
    """Kernel samples (start, duration) in wall-clock order."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durs: list[float] = []
        self._restore = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durs.append(time.perf_counter() - t0)

    def _maybe_sample(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def install(self) -> None:
        """Samples after `VecRunner.step`, which every workload calls."""
        from redloco.training.runner import VecRunner
        step = VecRunner.step
        meter = self

        def sampled_step(runner, actions):
            result = step(runner, actions)
            meter._maybe_sample()
            return result

        self._restore = [(VecRunner, "step", step)]
        VecRunner.step = sampled_step

    def uninstall(self) -> None:
        for owner, attr, fn in self._restore:
            setattr(owner, attr, fn)
        self._restore = []

    def __enter__(self) -> "SpeedMeter":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1) would take at the reference speed.
        Needs at least one kernel sample inside it: close every timed
        interval with `sample()`."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        if i == j:
            raise ValueError("no kernel sample inside the interval")
        durs = self.durs[i:j]
        work = (t1 - t0) - sum(durs)
        return work * (REF_MS / 1e3) / statistics.median(durs)

    def median_ref_ms(self) -> float:
        return statistics.median(self.durs) * 1e3 if self.durs else 0.0
