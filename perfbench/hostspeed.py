"""The host's speed while the benchmark runs, read from a fixed probe loop.

On a shared host, other jobs slow this process's CPU by up to about two
times, in spells that flicker within a second and can last minutes. A whole
run can fall inside one slow spell, so no choice among a run's own samples,
such as the per-case fastest pass, repeats from run to run.

`HostSpeed` runs `_probe`, pure-Python work of the kinds gf2kq does (big-int
shifts and XORs, tuples in lists and a dict) and no gf2kq code, every
`PROBE_EVERY_S` seconds from a SIGALRM handler, so probes land inside the
timed pipelines too. `reference_seconds(t0, t1)` takes the probes' own time
out of that interval and scales the rest by the probes around it: seconds
of this host at its quiet speed, where one probe takes `REFERENCE_S`. A
change to gf2kq moves it as much as it moves the raw seconds, because the
probe never calls gf2kq.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PROBE_EVERY_S = 0.05
# Each probe's usual time on the host in README.md while no other job slowed it.
REFERENCE_S = 0.00037
COMPILE_REFERENCE_S = 0.002


def _probe():
    x = (1 << 1000) - 12345
    mask = (1 << 1000) - 1
    acc = 0
    index = {}
    items = []
    for i in range(800):
        acc ^= ((x >> (i % 97)) ^ (x << (i % 13))) & mask
        t = (i, i + 1, i & 7)
        items.append(t)
        index[t] = i
    total = 0
    for t in items:
        total += index[t] + t[2]
    return acc, total


# Module source for compile_probe: functions and classes, as gf2kq's have.
_SOURCE = "".join(
    f"def f{i}(x, y=({i}, 'a{i}')):\n"
    f"    return [x + k * {i} for k in y if k]\n"
    f"class C{i}:\n"
    f"    n = {i}\n"
    f"    def m(self, z):\n"
    f"        return {{'k': z, 'i': self.n}}\n"
    for i in range(25))


def compile_probe():
    """Compile and run a small module, the kind of work `import` does.

    Set-up (setup_probe.py) follows this probe's speed more closely than
    `_probe`'s: over 100 set-ups on a loaded host, raw times spread 0.26
    (quartile distance over median), 0.22 scaled by `_probe` and 0.11
    scaled by this.
    """
    exec(compile(_SOURCE, "<probe>", "exec"), {})


class HostSpeed:
    """Probe times; as a context manager, probes every PROBE_EVERY_S seconds."""

    def __init__(self, probe=_probe, reference_s: float = REFERENCE_S):
        self.probe = probe
        self.reference_s = reference_s
        self.starts: list[float] = []  # start and end of each probe_now call
        self.ends: list[float] = []
        self.durations: list[float] = []  # seconds of each call's timed probe
        self._old_handler = None

    def probe_now(self, *_signal_args) -> None:
        # With the collector on, the probe's allocations can set off a full
        # collection of the pipeline's heap inside the probe. The probe frees
        # all it allocates, so turning the collector off here defers nothing.
        # The first, untimed probe warms the caches the pipeline left cold,
        # so the timed one reads the host's speed, not what ran before it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.probe()
            t1 = time.perf_counter()
            self.probe()
            t2 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t2)
            self.durations.append(t2 - t1)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.probe_now)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work timed from t0 to t1 (perf_counter).

        Probe calls that started inside the interval ran inside it, so their
        time is taken out. The rest is scaled by the mean of REFERENCE_S / probe
        time over the probes that started within PROBE_EVERY_S of the
        interval, or the nearest probe on each side if none did: probes are
        evenly spaced in wall time, and a second at slowdown f does 1/f of a
        quiet second's work. Without probes the raw seconds are returned.
        """
        if not self.starts:
            return t1 - t0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        work = (t1 - t0) - sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        near_lo = bisect.bisect_left(self.starts, t0 - PROBE_EVERY_S)
        near_hi = bisect.bisect_right(self.starts, t1 + PROBE_EVERY_S)
        if near_lo == near_hi:
            near_lo, near_hi = max(near_lo - 1, 0), near_hi + 1
        near = self.durations[near_lo:near_hi]
        return work * sum(self.reference_s / d for d in near) / len(near)
